"""Run one unit of one workload in this (fresh) process; print JSON.

``run.py`` starts this script once per unit so that every unit pays its
own interpreter start, ``import repro`` and set-up, and so that the peak
RSS it reports belongs to that unit alone.

Usage::

    python3 perfbench/unit.py --workload ipda-round-5k --seed 7 \
        --t0 <time.perf_counter() of the parent just before the spawn> \
        [--traced] [--jobs N] [--size full|small] [--spans PATH]
    python3 perfbench/unit.py --warmup

The last line of standard output is one JSON object.  Its times are
scaled to the nominal host speed (see ``calibrate.py``); ``raw`` holds
them as the clock read them.  ``time.perf_counter`` is CLOCK_MONOTONIC
on Linux, one clock for every process, so ``--t0`` from the parent and
the unit's own marks compare directly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _reset_peak_rss() -> str:
    """Reset the kernel's RSS high-water mark if this kernel allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return "ru_maxrss"
    return "VmHWM after clear_refs"


def _peak_rss_mb(source: str) -> float:
    if source != "ru_maxrss":
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warmup() -> dict:
    """Import everything the workloads use (compiles bytecode once)."""
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.workloads.readings  # noqa: F401

    return {"repro": os.path.dirname(repro.__file__)}


def main(argv=None) -> int:
    # First, before numpy and repro load, so the mark covers everything
    # the unit loads.
    rss_source = _reset_peak_rss()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        return _run(probe, rss_source, argv)
    finally:
        probe.stop()


def _run(probe, rss_source: str, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--size", default="full", choices=("full", "small"))
    parser.add_argument("--spans", default=None)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.perf_counter()

    if args.warmup:
        print(json.dumps(_warmup()))
        return 0

    import workloads

    tracer = None
    if args.traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    try:
        result = workloads.run_unit(
            args.workload, args.seed, size=args.size, jobs=args.jobs
        )
    finally:
        if tracer is not None:
            tracer.uninstall()

    rss_mb = _peak_rss_mb(rss_source)
    children_mb = result.extras.pop("children_rss_mb", None)
    if children_mb is not None:
        # The sweep's pool workers did the cells; the unit's peak is the
        # larger of this process's and theirs.
        rss_mb = max(rss_mb, children_mb)
        rss_source += " | RUSAGE_CHILDREN"
    timed_end = result.timed_start + result.timed_s
    # A window too short to hold a probe borrows the nearest estimate.
    speed = probe.speed(result.timed_start, timed_end) or probe.speed(
        t0, timed_end
    )
    raw_setup, setup_s = probe.scaled(
        t0, result.setup_done, probe.speed(t0, result.setup_done) or speed
    )
    raw_timed, timed_s = probe.scaled(result.timed_start, timed_end, speed)
    if result.op_starts is None:
        op_s = [seconds * (speed or 1.0) for seconds in result.op_s]
    else:
        op_s = [
            probe.scaled(began, began + seconds, speed)[1]
            for began, seconds in zip(result.op_starts, result.op_s)
        ]
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "timed_s": timed_s,
        "op_s": op_s,
        "raw": {"setup_s": raw_setup, "timed_s": raw_timed, "op_s": result.op_s},
        "speed": speed,
        "probes": len(probe.inside(result.timed_start, timed_end)),
        "frames": result.frames,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "digest": result.digest,
        "sim": workloads.sim_counters(result.counters),
        "extras": result.extras,
        "peak_rss_mb": rss_mb,
        "rss_source": rss_source,
    }
    if tracer is not None:
        summary = tracer.summary(since=result.timed_start)
        counts = dict(result.counters)
        counts.update(tracer.counts())
        payload["trace"] = {
            "summary": summary,
            "counts": counts,
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
