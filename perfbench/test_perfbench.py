"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer, self_times, span_roots  # noqa: E402


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
def test_self_times_of_a_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert span_roots(parents).tolist() == [0, 0, 0, 0]
    assert span_roots(np.array([-1, 0, -1, 2])).tolist() == [0, 0, 2, 2]


class _Calls:
    """A synthetic call tree driven by a fake clock."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):  # layer "a"
        self.clock[0] += 1.0
        self.middle()
        self.clock[0] += 1.0
        self.same_layer()
        return "done"

    def middle(self):  # layer "b"
        self.clock[0] += 2.0
        self.inner()

    def inner(self):  # layer "c"
        self.clock[0] += 3.0

    def same_layer(self):  # layer "a": nested in "a", so no new span
        self.clock[0] += 5.0


def test_tracer_self_time_on_a_synthetic_call_tree(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    tracer = Tracer()
    original = _Calls.__dict__["outer"]
    for attr, layer in (
        ("outer", "a"), ("middle", "b"), ("inner", "c"), ("same_layer", "a")
    ):
        tracer.wrap_method(_Calls, attr, layer, calls=f"{attr}.calls")
    try:
        assert _Calls(clock).outer() == "done"
    finally:
        tracer.uninstall()
    assert _Calls.__dict__["outer"] is original

    summary = tracer.summary()
    assert summary["layer_self_s"] == {"a": 7.0, "b": 2.0, "c": 3.0}
    assert sum(summary["layer_self_s"].values()) == 12.0
    assert summary["name_total_s"]["a/_Calls.outer"] == 12.0
    assert summary["name_total_s"]["b/_Calls.middle"] == 5.0
    assert summary["name_spans"]["a/_Calls.same_layer"] == 0
    assert tracer.counts()["same_layer.calls"] == 1
    # A window that starts after the tree began counts none of it...
    late = tracer.summary(since=0.5)
    assert sum(late["layer_self_s"].values()) == 0.0
    # ...while the all-time totals still do.
    assert late["name_total_all_s"]["a/_Calls.outer"] == 12.0


def test_wrap_function_rebinds_every_importer():
    import repro.crypto as crypto_package
    import repro.crypto.envelope as envelope
    import repro.protocols.ipda as ipda

    original = envelope.seal
    tracer = Tracer()
    tracer.wrap_function(
        envelope, "seal", "crypto.envelope", calls="seal.calls"
    )
    try:
        assert ipda.seal is envelope.seal is crypto_package.seal
        assert ipda.seal is not original
        key = bytes(16)
        nonce = envelope.make_nonce(1, 2, 0, 0)
        assert ipda.seal(5, key, nonce) == original(5, key, nonce)
    finally:
        tracer.uninstall()
    assert ipda.seal is original and crypto_package.seal is original
    assert tracer.counts()["seal.calls"] == 1


# ----------------------------------------------------------------------
# Output checks trip on tampered outputs
# ----------------------------------------------------------------------
def _ipda_view():
    return {
        "accepted": True,
        "reported": 10,
        "participant_total": 10,
        "participants": 10,
        "s_red": 10,
        "s_blue": 12,
        "threshold": 5,
        "frames_sent": 40,
        "trace": {"frames_sent": 40},
    }


@pytest.mark.parametrize(
    "field, value",
    [
        ("accepted", False),
        ("reported", 11),
        ("s_blue", 16),
        ("participants", 9),
        ("frames_sent", 41),
    ],
)
def test_tampered_ipda_output_fails_the_check(field, value):
    assert workloads.check_ipda(_ipda_view()) == []
    view = _ipda_view()
    view[field] = value
    assert workloads.check_ipda(view)


def _fig7_view():
    return {
        "error": None,
        "cells": 2,
        "expected_cells": 2,
        "rows": [[100, 5000.0, 6000.0, 1.2, 9000.0, 1.8]],
        "expected_rows": 1,
        "cell_digest_root": "ab" * 20,
    }


@pytest.mark.parametrize(
    "tamper",
    [
        lambda v: v.update(error="cell fig7/100/0 failed"),
        lambda v: v.update(cells=1),
        lambda v: v["rows"][0].__setitem__(2, float("nan")),
        lambda v: v["rows"][0].__setitem__(1, 0.0),
        lambda v: v.update(rows=[]),
    ],
)
def test_tampered_fig7_output_fails_the_check(tamper):
    assert workloads.check_fig7(_fig7_view()) == []
    view = _fig7_view()
    tamper(view)
    assert workloads.check_fig7(view)


def test_tampered_serve_report_fails_the_check():
    from repro.serve.bench import BenchConfig, run_bench
    from repro.serve.fleet import FleetConfig

    report = run_bench(
        BenchConfig(duration=2.0, qps=10.0, seed=7, mix="mixed"),
        fleet_config=FleetConfig(node_count=30, seed=7),
    )
    assert workloads.check_serve(report) == []
    report["traffic"]["offered"] += 1
    assert workloads.check_serve(report)
    report["traffic"]["offered"] -= 1
    report["slo"]["availability"] = 1.5
    assert workloads.check_serve(report)


def test_units_with_different_digests_fail():
    unit = {"problems": [], "digest": "a"}
    assert run.check_units([unit, dict(unit)]) == []
    assert run.check_units([unit, dict(unit, digest="b")])


# ----------------------------------------------------------------------
# Reduced-size smoke runs of the whole command
# ----------------------------------------------------------------------
def _bench(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [
            sys.executable, script, "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "small",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    done = _bench(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [name for name in result["metrics"]] == [
        name for name, _unit in run.END_TO_END
    ]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_repeats_its_counts(workload):
    results = []
    for _ in range(2):
        done = _bench(workload, 1)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _unit in PER_LAYER]
    counts = [name for name, unit in PER_LAYER if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["sim.engine.events"]["value"] > 0
    assert first["metrics"]["sim.node.deliver.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(
        "ipda-round-5k", 0, cwd=tmp_path,
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
