"""The three benchmark workloads, their output checks and digests.

Each workload runs one *unit* of work through ``repro``'s public API and
returns a :class:`UnitResult`.  A unit is the thing a user waits for:

* ``ipda-round-5k``: one iPDA round (l=2) over 5,000 nodes at the
  paper's density, collisions on, pairwise keys, COUNT readings;
* ``fig7-sweep``: the paper's Figure 7 sweep through the cell runner
  (sizes 200-600, three repetitions, TAG plus iPDA l=1 and l=2);
* ``serve-mixed-200``: the standing-fleet service bench, 200 nodes,
  the ``mixed`` query mix at 20 qps for 60 virtual seconds.

The checks take plain dicts (the "view" of a unit's outputs), so a test
can tamper with a view and watch the check fail.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

WORKLOADS = ("ipda-round-5k", "fig7-sweep", "serve-mixed-200")

#: Full-size parameters, and the reduced sizes the smoke tests use.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "ipda-round-5k": {"nodes": 5000},
        "fig7-sweep": {"sizes": (200, 300, 400, 500, 600), "repetitions": 3},
        "serve-mixed-200": {"nodes": 200, "duration": 60.0, "qps": 20.0},
    },
    "small": {
        "ipda-round-5k": {"nodes": 300},
        "fig7-sweep": {"sizes": (100, 150), "repetitions": 1},
        "serve-mixed-200": {"nodes": 40, "duration": 3.0, "qps": 20.0},
    },
}

#: Pool size of the sweep's untraced runs.
SWEEP_JOBS = 2

#: Seed of the serve workload's standing fleet (its deployment, readings
#: and protocol streams); ``--seed`` drives the traffic.  At 200 nodes the
#: deployment's connectivity, and with it the work per epoch, differs by
#: up to 2x between seeds, which would swamp any change the benchmark is
#: meant to see.  7 is the baseline seed, so seed 7 runs the default
#: ``FleetConfig(seed=7)`` exactly.
FLEET_SEED = 7

#: Counters (from ``repro.obs``) printed with every unit as a check on
#: the simulated work.
SIM_COUNTERS = (
    "trace.frames_sent",
    "trace.bytes_sent",
    "trace.delivered",
    "trace.dropped",
    "engine.processed_events",
)


@dataclass
class UnitResult:
    """What one unit of a workload measured and produced."""

    setup_done: float  # time.perf_counter() when set-up ended
    timed_s: float  # headline host seconds of the unit
    timed_start: float  # time.perf_counter() when the timed section began
    op_s: List[float]  # host seconds per operation (round/cell/dispatch)
    #: time.perf_counter() at each operation's start, when the operation
    #: ran in this process (None for the sweep's cells, timed in workers)
    op_starts: Optional[List[float]]
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    counters: Dict[str, float]
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def frames(self) -> float:
        return float(self.counters.get("trace.frames_sent", 0))


def _sha256(payload: object) -> str:
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True, default=str
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """The :data:`SIM_COUNTERS` and drops by reason, from ``counters``."""
    return {
        name: value
        for name, value in sorted(counters.items())
        if name in SIM_COUNTERS or name.startswith("trace.drops.")
    }


# ----------------------------------------------------------------------
# ipda-round-5k
# ----------------------------------------------------------------------
def check_ipda(view: Dict[str, object]) -> List[str]:
    """The round must be accepted and report exactly what participated."""
    problems = []
    if not view["accepted"]:
        problems.append("round not accepted")
    if view["reported"] != view["participant_total"]:
        problems.append(
            f"reported {view['reported']} != participant_total "
            f"{view['participant_total']}"
        )
    if abs(int(view["s_red"]) - int(view["s_blue"])) > int(view["threshold"]):
        problems.append(
            f"|S_red - S_blue| = {abs(int(view['s_red']) - int(view['s_blue']))}"
            f" exceeds Th = {view['threshold']}"
        )
    if view["participant_total"] != view["participants"]:
        problems.append("COUNT total differs from the number of participants")
    if view["frames_sent"] != view["trace"]["frames_sent"]:
        problems.append("outcome and trace disagree on frames sent")
    return problems


def run_ipda_round(seed: int, *, nodes: int) -> UnitResult:
    from repro import IpdaConfig, IpdaProtocol, RngStreams, random_deployment
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry, using_registry
    from repro.workloads.readings import count_readings

    # Paper density: the 400 m square scaled by sqrt(n / 600), 50 m range.
    topology = random_deployment(
        nodes, area=400.0 * math.sqrt(nodes / 600.0), seed=seed
    )
    readings = count_readings(topology)
    config = IpdaConfig(slices=2)
    protocol = IpdaProtocol(config)
    registry = MetricsRegistry()
    setup_done = started = time.perf_counter()
    try:
        with using_registry(registry):
            outcome = protocol.run_round(
                topology, readings, streams=RngStreams(seed)
            )
    except ReproError as exc:
        elapsed = time.perf_counter() - started
        return UnitResult(
            setup_done, elapsed, started, [elapsed], [started], 1, 1,
            [f"round raised {type(exc).__name__}: {exc}"], "", {},
        )
    elapsed = time.perf_counter() - started
    view = {
        "accepted": outcome.accepted,
        "reported": outcome.reported,
        "participant_total": outcome.participant_total,
        "participants": len(outcome.participants),
        "s_red": outcome.s_red,
        "s_blue": outcome.s_blue,
        "threshold": config.threshold,
        "frames_sent": outcome.frames_sent,
        "bytes_sent": outcome.bytes_sent,
        "trace": outcome.stats["trace"],
    }
    problems = check_ipda(view)
    counters = dict(registry.snapshot()["counters"])
    return UnitResult(
        setup_done=setup_done,
        timed_s=elapsed,
        timed_start=started,
        op_s=[elapsed],
        op_starts=[started],
        attempted=1,
        failed=0 if outcome.accepted else 1,
        problems=problems,
        digest=_sha256(view),
        counters=counters,
    )


# ----------------------------------------------------------------------
# fig7-sweep
# ----------------------------------------------------------------------
def check_fig7(view: Dict[str, object]) -> List[str]:
    """Every cell ran and every row holds positive, finite byte counts."""
    problems = []
    if view["error"]:
        problems.append(str(view["error"]))
        return problems
    if view["cells"] != view["expected_cells"]:
        problems.append(
            f"{view['cells']} cells ran, expected {view['expected_cells']}"
        )
    if len(view["rows"]) != view["expected_rows"]:
        problems.append(
            f"{len(view['rows'])} rows, expected {view['expected_rows']}"
        )
    problems.extend(
        f"row {row[0]} rejected: {row}"
        for row in view["rows"]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                   for v in row)
    )
    if not view["cell_digest_root"]:
        problems.append("no cell digest root")
    return problems


def run_fig7_sweep(
    seed: int,
    *,
    sizes: Sequence[int],
    repetitions: int,
    jobs: int = SWEEP_JOBS,
) -> UnitResult:
    import multiprocessing
    import resource

    import repro.experiments  # noqa: F401  (spec registry: set-up work)
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry, using_registry
    from repro.runner import execute

    expected_cells = len(sizes) * repetitions
    cell_seconds: List[float] = []
    original_observe = MetricsRegistry.observe

    def observe(self, name, value, *, edges):
        # The runner times every cell in the process that ran it and
        # reports it here, in this process, in enumeration order.
        if name == "runner.cell_seconds":
            cell_seconds.append(float(value))
        return original_observe(self, name, value, edges=edges)

    registry = MetricsRegistry()
    MetricsRegistry.observe = observe
    setup_done = started = time.perf_counter()
    try:
        with using_registry(registry):
            table = execute(
                "fig7",
                jobs=jobs,
                cache=False,
                seed=seed,
                sizes=tuple(sizes),
                repetitions=repetitions,
            )
        error = None
    except ReproError as exc:
        table = None
        error = f"sweep raised {type(exc).__name__}: {exc}"
    finally:
        MetricsRegistry.observe = original_observe
    elapsed = time.perf_counter() - started
    # Reap the pool's workers so RUSAGE_CHILDREN covers them.
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    children_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    view = {
        "error": error,
        "cells": table.meta["cells"] if table else 0,
        "expected_cells": expected_cells,
        "rows": table.rows if table else [],
        "expected_rows": len(sizes),
        "cell_digest_root": table.meta["cell_digest_root"] if table else "",
        "csv": table.to_csv() if table else "",
    }
    problems = check_fig7(view)
    rejected_rows = sum(1 for p in problems if p.startswith("row "))
    extras: Dict[str, float] = {"children_rss_mb": children_rss_mb}
    if table is not None:
        phases = table.meta["metrics"]["phases"]
        run_cells_s = phases.get("run_cells", {}).get("seconds", 0.0)
        extras.update(
            jobs=float(table.meta["jobs"]),
            run_cells_s=run_cells_s,
            digest_s=phases.get("digest", {}).get("seconds", 0.0),
            deploy_misses=float(table.meta["deploy_cache_misses"]),
            pool_idle_frac=(
                1.0 - sum(cell_seconds) / (table.meta["jobs"] * run_cells_s)
                if run_cells_s
                else 0.0
            ),
        )
    return UnitResult(
        setup_done=setup_done,
        timed_s=elapsed,
        timed_start=started,
        op_s=cell_seconds or [elapsed],
        op_starts=None,
        attempted=expected_cells,
        failed=(expected_cells if error else 0) + rejected_rows,
        problems=problems,
        digest=_sha256(view["cell_digest_root"] + "\n" + view["csv"]),
        counters=dict(registry.snapshot()["counters"]),
        extras=extras,
    )


# ----------------------------------------------------------------------
# serve-mixed-200
# ----------------------------------------------------------------------
def check_serve(report: Dict[str, object]) -> List[str]:
    """The report validates and its traffic accounting balances."""
    from repro.errors import ConfigurationError
    from repro.serve.bench import validate_serve_report

    problems = []
    try:
        validate_serve_report(report)
    except ConfigurationError as exc:
        return [str(exc)]
    traffic = report["traffic"]
    if traffic["offered"] != traffic["admitted"] + traffic["rejected_overload"]:
        problems.append("offered != admitted + rejected_overload")
    if traffic["admitted"] != traffic["completed"] + traffic["expired"]:
        problems.append("admitted != completed + expired")
    if traffic["completed"] != sum(traffic["verdicts"].values()):
        problems.append("completed != sum of verdicts")
    return problems


def run_serve(
    seed: int, *, nodes: int, duration: float, qps: float
) -> UnitResult:
    from repro.serve.bench import (
        BenchConfig,
        run_bench,
        serve_deterministic_view,
    )
    from repro.serve.fleet import FleetConfig
    from repro.serve.service import ServiceCore

    marks: Dict[str, float] = {}
    dispatch_starts: List[float] = []
    dispatch_s: List[float] = []
    original_start = ServiceCore.start
    original_dispatch = ServiceCore.dispatch

    def start(self):
        original_start(self)
        # Set-up ends once the standing fleet is built and Phase I ran.
        marks["started"] = time.perf_counter()

    def dispatch(self, *, now):
        began = time.perf_counter()
        try:
            return original_dispatch(self, now=now)
        finally:
            dispatch_s.append(time.perf_counter() - began)
            dispatch_starts.append(began)

    ServiceCore.start = start
    ServiceCore.dispatch = dispatch
    try:
        report = run_bench(
            BenchConfig(duration=duration, qps=qps, seed=seed, mix="mixed"),
            fleet_config=FleetConfig(node_count=nodes, seed=FLEET_SEED),
        )
    finally:
        ServiceCore.start = original_start
        ServiceCore.dispatch = original_dispatch
    elapsed = time.perf_counter() - marks["started"]
    traffic = report["traffic"]
    problems = check_serve(report)
    failed = (
        traffic["rejected_overload"]
        + traffic["expired"]
        + traffic["verdicts"].get("rejected", 0)
    )
    return UnitResult(
        setup_done=marks["started"],
        timed_s=elapsed,
        timed_start=marks["started"],
        op_s=dispatch_s,
        op_starts=dispatch_starts,
        attempted=traffic["offered"],
        failed=failed,
        problems=problems,
        digest=_sha256(serve_deterministic_view(report)),
        counters=dict(report["metrics"]["counters"]),
        extras={
            "completed": float(traffic["completed"]),
            "batch_mean": float(report["slo"]["mean_batch"]),
            "shed": float(traffic["rejected_overload"]),
            "expired": float(traffic["expired"]),
        },
    )


RUNNERS: Dict[str, Callable[..., UnitResult]] = {
    "ipda-round-5k": run_ipda_round,
    "fig7-sweep": run_fig7_sweep,
    "serve-mixed-200": run_serve,
}


def run_unit(
    workload: str, seed: int, *, size: str = "full", jobs: Optional[int] = None
) -> UnitResult:
    """Run one unit of ``workload`` at ``size`` in this process."""
    params = dict(SIZES[size][workload])
    if jobs is not None:
        params["jobs"] = jobs
    return RUNNERS[workload](seed, **params)
