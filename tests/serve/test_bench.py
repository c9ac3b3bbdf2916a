"""Deterministic bench, repro-serve/1 reports, and CLI round trips."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import deterministic_view
from repro.serve import (
    BenchConfig,
    FleetConfig,
    ServiceConfig,
    load_serve_report,
    render_serve_report,
    run_bench,
    serve_deterministic_view,
    validate_serve_report,
    write_serve_report,
)
from repro.serve.bench import arrival_schedule

SMALL = FleetConfig(node_count=40, seed=11)


def _bench(**overrides):
    defaults = dict(duration=3.0, qps=10.0, seed=7)
    defaults.update(overrides)
    return run_bench(BenchConfig(**defaults), fleet_config=SMALL)


class TestArrivalSchedule:
    def test_deterministic_per_seed(self):
        a = arrival_schedule(BenchConfig(duration=5.0, qps=20.0, seed=3))
        b = arrival_schedule(BenchConfig(duration=5.0, qps=20.0, seed=3))
        assert a == b
        c = arrival_schedule(BenchConfig(duration=5.0, qps=20.0, seed=4))
        assert a != c

    def test_rate_roughly_matches_qps(self):
        schedule = arrival_schedule(
            BenchConfig(duration=50.0, qps=20.0, seed=1)
        )
        assert 0.7 * 1000 <= len(schedule) <= 1.3 * 1000

    def test_mixed_mix_uses_every_lane(self):
        schedule = arrival_schedule(
            BenchConfig(duration=30.0, qps=10.0, seed=2, mix="mixed")
        )
        assert {protocol for _, _, protocol, _ in schedule} == {
            "ipda", "tag", "kipda"
        }


class TestDeterministicBench:
    def test_same_seed_same_deterministic_view(self):
        reports = [_bench() for _ in range(2)]
        views = [
            json.dumps(serve_deterministic_view(r), sort_keys=True)
            for r in reports
        ]
        # byte-identical: traffic, SLOs, and every non-volatile metric
        assert views[0] == views[1]

    def test_registry_deterministic_view_is_pinned(self):
        views = [
            json.dumps(
                deterministic_view(_bench()["metrics"]), sort_keys=True
            )
            for _ in range(2)
        ]
        assert views[0] == views[1]

    def test_different_seed_differs(self):
        a = serve_deterministic_view(_bench(seed=7))
        b = serve_deterministic_view(_bench(seed=8))
        assert json.dumps(a, sort_keys=True) != json.dumps(
            b, sort_keys=True
        )

    def test_accounting_adds_up(self):
        report = _bench()
        traffic = report["traffic"]
        assert traffic["offered"] == (
            traffic["admitted"] + traffic["rejected_overload"]
        )
        assert traffic["admitted"] == (
            traffic["completed"] + traffic["expired"]
        )
        verdicts = traffic["verdicts"]
        assert sum(verdicts.values()) == traffic["completed"]

    def test_overload_sheds_instead_of_hanging(self):
        # tiny queue, one cycle per epoch_seconds, 50x oversubscribed:
        # the bench must terminate with explicit rejections
        report = run_bench(
            BenchConfig(duration=3.0, qps=100.0, seed=5),
            fleet_config=SMALL,
            service_config=ServiceConfig(capacity=8, max_batch=4),
        )
        traffic = report["traffic"]
        assert traffic["rejected_overload"] > 0
        assert traffic["admitted"] == (
            traffic["completed"] + traffic["expired"]
        )
        assert report["slo"]["shed_rate"] > 0
        counters = report["metrics"]["counters"]
        assert (
            counters["serve.rejected_overload"]
            == traffic["rejected_overload"]
        )

    def test_deadlines_expire_under_backlog(self):
        report = run_bench(
            BenchConfig(duration=3.0, qps=60.0, seed=5, deadline=0.4),
            fleet_config=SMALL,
            service_config=ServiceConfig(capacity=512, max_batch=4),
        )
        assert report["traffic"]["expired"] > 0

    def test_availability_positive_under_fault_plan(self):
        report = run_bench(
            BenchConfig(duration=4.0, qps=20.0, seed=9),
            fleet_config=SMALL,
            fault_spec="crash=2@3+2,loss=light@3",
        )
        assert report["config"]["faults"] == "crash=2@3+2,loss=light@3"
        assert report["slo"]["availability"] > 0
        counters = report["metrics"]["counters"]
        assert counters["serve.faults.crashes"] == 2
        assert counters["serve.faults.loss_armed"] == 1

    def test_construction_amortized_once(self):
        report = _bench()
        assert report["fleet"]["construction_bytes"] > 0
        assert report["metrics"]["counters"]["serve.epochs"] >= 2


class TestReportFamily:
    def test_validate_accepts_own_output(self):
        report = _bench()
        assert validate_serve_report(report) is report

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError, match="repro-serve/1"):
            validate_serve_report({"schema": "repro-run/1"})

    def test_validate_rejects_mangled_traffic(self):
        report = _bench()
        report["traffic"]["admitted"] = -3
        with pytest.raises(ConfigurationError, match="traffic.admitted"):
            validate_serve_report(report)

    def test_write_load_round_trip(self, tmp_path):
        report = _bench()
        path = write_serve_report(report, str(tmp_path / "serve.json"))
        loaded = load_serve_report(path)
        assert serve_deterministic_view(
            loaded
        ) == serve_deterministic_view(report)

    def test_render_mentions_the_headlines(self):
        text = render_serve_report(_bench())
        for fragment in (
            "repro-serve/1", "availability", "qps", "verdicts"
        ):
            assert fragment in text


class TestCli:
    def test_serve_bench_writes_report_and_events(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "serve", "--bench", "--duration", "2", "--qps", "10",
            "--seed", "7", "--nodes", "40",
            "--output", str(out), "--metrics-events", str(events),
        ])
        assert code == 0
        assert "Service bench" in capsys.readouterr().out
        report = load_serve_report(str(out))
        assert report["traffic"]["completed"] > 0
        lines = events.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_report_command_dispatches_on_schema(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert main([
            "serve", "--bench", "--duration", "2", "--qps", "10",
            "--seed", "7", "--nodes", "40", "--output", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "Service bench" in capsys.readouterr().out

    def test_cli_faults_round_trip(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert main([
            "serve", "--bench", "--duration", "3", "--qps", "10",
            "--seed", "9", "--nodes", "40",
            "--faults", "crash=1@2", "--output", str(out),
        ]) == 0
        report = load_serve_report(str(out))
        assert report["config"]["faults"] == "crash=1@2"
        assert report["slo"]["availability"] > 0

    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        assert main([
            "serve", "--bench", "--duration", "1", "--qps", "5",
            "--faults", "crash=oops",
        ]) == 2
        assert "error" in capsys.readouterr().err


#: sha256 of the sorted-key JSON of ``serve_deterministic_view`` for
#: CI's ``repro serve --bench --duration 5 --qps 20 --seed 7`` command
#: (200 nodes), plus the same run with the mixed lane mix and with CI's
#: robust chaos arguments.  Regenerate with
#: ``PYTHONPATH=src python tests/serve/test_bench.py`` and explain the
#: semantic change in the commit message.
SERVE_GOLDEN_DIGESTS = {
    "ci": "6e8efb3e7ff607ecd044c59f6b7d9bce6442ca3c7a23227ba17fb517ecc75349",
    "mixed": "6be8f41d54d45839fd8f229e963cb7504eac70562c565efa7649586f6b20a913",
    "robust-chaos": (
        "790ff65fb40e1b4e4e208cfb8ac2120aaecb86225ffe241c9596b2de5e993e8c"
    ),
}

SERVE_GOLDEN_ARGS = {
    "ci": [],
    "mixed": ["--mix", "mixed"],
    "robust-chaos": ["--robust", "--faults", "crash=2@3+4,loss=light@1"],
}


def _serve_digest(path, extra):
    import hashlib

    assert main([
        "serve", "--bench", "--duration", "5", "--qps", "20",
        "--seed", "7", "--output", str(path), *extra,
    ]) == 0
    view = serve_deterministic_view(load_serve_report(str(path)))
    return hashlib.sha256(
        json.dumps(view, sort_keys=True).encode()
    ).hexdigest()


class TestGoldenServe:
    @pytest.mark.parametrize("case", sorted(SERVE_GOLDEN_ARGS))
    def test_deterministic_view_matches_golden_digest(
        self, case, tmp_path, capsys
    ):
        digest = _serve_digest(tmp_path / "serve.json", SERVE_GOLDEN_ARGS[case])
        capsys.readouterr()
        assert digest == SERVE_GOLDEN_DIGESTS[case], (
            f"serve {case} deterministic view changed"
        )


if __name__ == "__main__":  # regeneration helper
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as _tmp:
        print("SERVE_GOLDEN_DIGESTS = {")
        for _case in sorted(SERVE_GOLDEN_ARGS):
            with contextlib.redirect_stdout(io.StringIO()):
                _digest = _serve_digest(
                    pathlib.Path(_tmp) / "serve.json",
                    SERVE_GOLDEN_ARGS[_case],
                )
            print(f'    "{_case}": "{_digest}",')
        print("}")
