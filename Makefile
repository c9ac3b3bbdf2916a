# Convenience targets for the iPDA reproduction.

PYTHON ?= python

.PHONY: install test perfbench reproduce figures examples clean

install:
	pip install -e . --no-build-isolation || \
		$(PYTHON) -c "import site, pathlib; \
		p = pathlib.Path(site.getsitepackages()[0]) / 'repro-editable.pth'; \
		p.write_text(str(pathlib.Path('src').resolve()) + '\n'); \
		print('fallback: wrote', p)"

test:
	$(PYTHON) -m pytest tests/

# End-to-end benchmark, untraced, every workload at the baseline seed.
perfbench:
	@for workload in ipda-round-5k fig7-sweep serve-mixed-200; do \
		python3 perfbench/run.py --workload $$workload --seed 7 \
			--seconds 35 --trace 0 || exit 1; \
	done

reproduce:
	$(PYTHON) -m repro all --csv results/ --svg results/figures/

figures:
	$(PYTHON) examples/paper_figures.py results/figures

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .perfbench-out
	find . -name __pycache__ -type d -exec rm -rf {} +
