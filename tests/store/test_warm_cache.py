"""Warm-cache regression over the full SPECS registry.

The acceptance contract of the experiment store: re-running any
registered spec against a warm store invokes ``run_cell`` **zero**
times and reduces to byte-identical output versus the cold run — even
across different ``--jobs`` values.  Mirrors the jobs=1 vs jobs=2
determinism matrix in ``tests/experiments/test_runner.py``.
"""

from __future__ import annotations

import pytest

import repro.runner as runner_module
from repro.experiments import SPECS
from repro.runner import execute
from repro.store import CellStore

from ..experiments.test_runner import TINY_KWARGS


@pytest.fixture
def store(tmp_path):
    return CellStore(tmp_path / "cache", max_bytes=1 << 30)


class TestWarmCache:
    def test_registry_is_fully_covered(self):
        assert set(TINY_KWARGS) == set(SPECS)

    @pytest.mark.parametrize("name", sorted(TINY_KWARGS))
    def test_warm_rerun_is_pure_hits_and_byte_identical(
        self, name, store, monkeypatch
    ):
        cold = execute(name, jobs=1, cache=store, **TINY_KWARGS[name])
        assert cold.meta["cache_misses"] == cold.meta["cells"]
        assert cold.meta["cache_hits"] == 0
        assert cold.meta["cache_bytes_written"] > 0

        original = runner_module._run_cells_with_stats

        def guard(cells, jobs, **kwargs):
            assert not list(cells), (
                f"warm-cache run of {name} submitted {len(list(cells))} "
                "cell(s) to the executor"
            )
            return original(cells, jobs, **kwargs)

        monkeypatch.setattr(runner_module, "_run_cells_with_stats", guard)
        warm = execute(name, jobs=2, cache=store, **TINY_KWARGS[name])
        assert warm.meta["cache_hits"] == warm.meta["cells"]
        assert warm.meta["cache_misses"] == 0
        assert warm.meta["cache_bytes_read"] > 0
        assert warm.to_text() == cold.to_text()
        assert warm.to_csv() == cold.to_csv()

    def test_plain_run_matches_cached_run(self, store):
        kwargs = TINY_KWARGS["fig7"]
        cached = execute("fig7", jobs=1, cache=store, **kwargs)
        plain = execute("fig7", jobs=1, cache=False, **kwargs)
        assert cached.to_csv() == plain.to_csv()

    def test_different_kwargs_do_not_share_entries(self, store):
        execute("fig7", jobs=1, cache=store, sizes=(150,), repetitions=1)
        other = execute(
            "fig7", jobs=1, cache=store, sizes=(150,), repetitions=1, seed=9
        )
        assert other.meta["cache_hits"] == 0
        assert other.meta["cache_misses"] == other.meta["cells"]

    def test_default_cache_hook(self, store):
        kwargs = TINY_KWARGS["fig7"]
        previous = runner_module.set_default_cache(store)
        try:
            first = execute("fig7", jobs=1, **kwargs)
            assert first.meta["cache_misses"] == first.meta["cells"]
            # cache=False overrides the installed default.
            bypass = execute("fig7", jobs=1, cache=False, **kwargs)
            assert "cache_hits" not in bypass.meta
        finally:
            runner_module.set_default_cache(previous)
        after = execute("fig7", jobs=1, **kwargs)
        assert "cache_hits" not in after.meta

    def test_deploy_counters_reported(self):
        table = execute("fig7", jobs=1, **TINY_KWARGS["fig7"])
        total = (
            table.meta["deploy_cache_hits"]
            + table.meta["deploy_cache_misses"]
        )
        # fig7 builds exactly one deployment per cell, so every cell
        # contributes one hit or one miss (hits when an earlier test in
        # this process already built the same topology).
        assert total == table.meta["cells"]
