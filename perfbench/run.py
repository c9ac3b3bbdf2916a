"""End-to-end benchmark of the iPDA reproduction (see README.md here).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ipda-round-5k --seed 7 \
        --seconds 35 --trace 0

``--trace 0`` repeats the workload's unit, each time in a fresh process,
until ``--seconds`` are spent, and reports the medians of the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced unit and reports
the per-layer split.  Every unit's outputs are checked and digested; the
last line of standard output is one JSON object, and the exit code is 1
when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER, per_layer_metrics  # noqa: E402
from workloads import SWEEP_JOBS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
UNIT = os.path.join(HERE, "unit.py")

#: Whole-run budget: every run must end well within 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("op_ms_p50", "ms"),
    ("sim_frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def _unit_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Fixed string hashing, so dict and set layouts match between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: List[str], deadline: float) -> dict:
    """Run ``unit.py`` with ``args`` in a new process group; parse its JSON.

    The whole group is killed if it outlives ``deadline`` (a
    ``time.monotonic()`` value), so no pool worker outlives the run.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a unit")
    t0 = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, UNIT, "--t0", repr(t0), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_unit_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"unit {args} ran out of time") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass  # the group is already gone
    if process.returncode != 0:
        raise BenchError(
            f"unit {args} exited with {process.returncode}:\n{stderr.strip()}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"unit {args} printed nothing:\n{stderr.strip()}")
    return json.loads(lines[-1])


def unit_args(
    workload: str,
    seed: int,
    size: str,
    *,
    traced: bool = False,
    jobs: Optional[int] = None,
    spans: Optional[str] = None,
) -> List[str]:
    args = ["--workload", workload, "--seed", str(seed), "--size", size]
    if workload == "fig7-sweep":
        args += ["--jobs", str(jobs if jobs is not None else SWEEP_JOBS)]
    if traced:
        args.append("--traced")
    if spans:
        args += ["--spans", spans]
    return args


def describe(unit: dict) -> str:
    """One line per unit: headline time, digest and simulated counts."""
    sim = " ".join(f"{name}={value:g}" for name, value in unit["sim"].items())
    mode = "traced" if unit["traced"] else "untraced"
    return (
        f"unit {unit['workload']} seed={unit['seed']} {mode}"
        f" timed_s={unit['timed_s']:.4f} (raw {unit['raw']['timed_s']:.4f},"
        f" host speed {unit['speed'] or 0:.3f} from {unit['probes']} probes)"
        f" setup_s={unit['setup_s']:.4f} (raw {unit['raw']['setup_s']:.4f})"
        f" peak_rss_mb={unit['peak_rss_mb']:.1f} ({unit['rss_source']})"
        f" digest={unit['digest']} {sim}"
    )


def check_units(units: Sequence[dict]) -> List[str]:
    """Every unit's own problems, plus digests that disagree."""
    problems = [p for unit in units for p in unit["problems"]]
    digests = sorted({unit["digest"] for unit in units})
    if len(digests) > 1:
        problems.append(
            f"units of one seed produced {len(digests)} different digests: "
            + ", ".join(digests)
        )
    return problems


def end_to_end(units: Sequence[dict]) -> Dict[str, float]:
    """The ``END_TO_END`` metrics: medians over the run's units."""
    ops = [seconds for unit in units for seconds in unit["op_s"]]
    return {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "unit_s": statistics.median(u["timed_s"] for u in units),
        "op_ms_p50": statistics.median(ops) * 1000.0,
        "sim_frames_per_s": statistics.median(
            u["frames"] / u["timed_s"] for u in units
        ),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }


def named_metrics(workload: str, units: Sequence[dict]) -> List[tuple]:
    """The workload's metrics under their own names, for the report."""
    e2e = end_to_end(units)
    ops = [seconds for unit in units for seconds in unit["op_s"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    rows = [("setup_s", e2e["setup_s"], "s", len(units))]
    if workload == "ipda-round-5k":
        rows.append(("round_s", e2e["unit_s"], "s", len(units)))
    elif workload == "fig7-sweep":
        rows.append(("sweep_s", e2e["unit_s"], "s", len(units)))
        rows.append(("cell_s_p50", statistics.median(ops), "s", len(ops)))
    else:
        rows.append(("serve_s", e2e["unit_s"], "s", len(units)))
        rows.append(("epoch_ms_p50", statistics.median(ops) * 1e3, "ms", len(ops)))
        rows.append(("epoch_ms_p90", percentile(ops, 0.9) * 1e3, "ms", len(ops)))
        rows.append((
            "served_qps",
            statistics.median(
                u["extras"]["completed"] / u["timed_s"] for u in units
            ),
            "1/s",
            len(units),
        ))
    rows += [
        ("sim_frames_per_s", e2e["sim_frames_per_s"], "1/s", len(units)),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", len(units)),
        ("ops_failed_frac", failed / attempted if attempted else 1.0, "ratio",
         attempted),
    ]
    return rows


def run_plain(workload: str, seed: int, seconds: float, size: str,
              deadline: float) -> tuple:
    """Repeat the unit in fresh processes until ``seconds`` are spent."""
    units: List[dict] = []
    began = time.monotonic()
    while True:
        units.append(spawn(unit_args(workload, seed, size), deadline))
        print(describe(units[-1]), flush=True)
        spent = time.monotonic() - began
        if spent + spent / len(units) > seconds:
            break
    raw_units = [dict(unit, **unit["raw"]) for unit in units]
    for (name, value, unit, samples), (_n, raw, _u, _s) in zip(
        named_metrics(workload, units), named_metrics(workload, raw_units)
    ):
        print(
            f"metric {name} = {value:.6g} {unit} (n={samples}; "
            f"raw {raw:.6g})"
        )
    metrics = {
        name: {"value": value, "unit": unit}
        for (name, unit), value in zip(END_TO_END, end_to_end(units).values())
    }
    return units, metrics


def run_traced(workload: str, seed: int, size: str, deadline: float) -> tuple:
    """One untraced unit, then one traced unit: the per-layer split."""
    os.makedirs(OUT, exist_ok=True)
    untraced = spawn(unit_args(workload, seed, size), deadline)
    print(describe(untraced), flush=True)
    units = [untraced]
    baseline = untraced
    if workload == "fig7-sweep":
        # Spans stay in the process that recorded them, so the traced
        # sweep runs its cells inline; its overhead is measured against
        # an untraced inline sweep.  Runner numbers come from the pooled
        # sweep above.
        baseline = spawn(unit_args(workload, seed, size, jobs=1), deadline)
        print(describe(baseline), flush=True)
        units.append(baseline)
        print("note: the traced fig7-sweep runs its cells inline (jobs=1)")
    spans = os.path.join(OUT, f"{workload}-seed{seed}-spans.npz")
    traced = spawn(
        unit_args(workload, seed, size, traced=True, jobs=1, spans=spans),
        deadline,
    )
    print(describe(traced), flush=True)
    units.append(traced)
    values = per_layer_metrics(
        traced["trace"]["summary"],
        traced["trace"]["counts"],
        timed_s=traced["raw"]["timed_s"],
        overhead_frac=traced["timed_s"] / baseline["timed_s"] - 1.0,
        runner_phases=untraced["extras"] if workload == "fig7-sweep" else {},
        serve=traced["extras"],
    )
    counts = {
        name: values[name] for name, unit in PER_LAYER if unit == "count"
    }
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode())
    print(f"layer counts digest {digest.hexdigest()}")
    for name, unit in PER_LAYER:
        print(f"layer {name} = {values[name]:.6g} {unit}")
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
    }
    return units, metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="'small' shrinks every workload (for the smoke tests)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchError(f"no repro package under {SRC}")
        warm = spawn(["--warmup"], deadline)
        if os.path.realpath(warm["repro"]) != os.path.realpath(
            os.path.join(SRC, "repro")
        ):
            raise BenchError(f"imported repro from {warm['repro']}, not {SRC}")
        if args.trace:
            units, metrics = run_traced(
                args.workload, args.seed, args.size, deadline
            )
        else:
            units, metrics = run_plain(
                args.workload, args.seed, args.seconds, args.size, deadline
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    problems = check_units(units)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
