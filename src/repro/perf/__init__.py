"""Benchmark subsystem: timed hot-path benchmarks with a JSON perf gate.

``repro bench`` runs the registered micro benchmarks (engine churn,
radio round, cipher throughput) and scale macros (10k/100k-node
topology builds, 10k-node radio fan-outs), each with its own peak RSS,
emits a schema'd ``BENCH_<timestamp>.json`` report, and — with
``--compare`` — gates on throughput regressions against a committed
baseline.  End-to-end timing lives in ``perfbench/``.  See
``docs/simulator.md`` ("Performance") for how to read the report.
"""

from .harness import (
    BENCH_SCHEMA,
    BenchResult,
    available_benchmarks,
    benchmark_descriptions,
    build_report,
    collect_environment,
    default_report_name,
    register_benchmark,
    render_report_text,
    run_benchmarks,
    write_report,
)
from .compare import (
    ComparisonRow,
    compare_reports,
    load_report,
    render_comparison,
)

# Importing the definitions module populates the benchmark registry.
from . import benchmarks as _definitions  # noqa: F401

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "ComparisonRow",
    "available_benchmarks",
    "benchmark_descriptions",
    "build_report",
    "collect_environment",
    "compare_reports",
    "default_report_name",
    "load_report",
    "register_benchmark",
    "render_comparison",
    "render_report_text",
    "run_benchmarks",
    "write_report",
]
