"""Benchmark definitions: simulator hot paths and scale rows.

Micro benchmarks isolate the per-event cost centres (engine heap
churn, radio frame fan-out, cipher throughput); macro benchmarks time
the scale path (10k/100k-node topology builds and 10k-node radio
fan-outs).  These are the rows CI runs; end-to-end timing of protocol
rounds, sweeps and serving lives in ``perfbench/``.  Workload sizes are
fixed so reports are comparable across commits; ``quick`` only
shortens the measurement, never the per-operation shape.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

from ..crypto.cipher import KEY_BYTES, xor_encrypt
from ..net.topology import PAPER_AREA_M, grid_deployment, random_deployment
from ..sim.engine import EventEngine
from ..sim.messages import BROADCAST, HelloMessage
from ..sim.radio import RadioConfig, RadioMedium
from ..sim.trace import TraceCollector
from .harness import BenchResult, register_benchmark

__all__: List[str] = []

#: Concurrent timers in the engine-churn benchmark.  Sized like the
#: pending-event population of a dense 500-node round (every node holds
#: a MAC backoff or protocol timer), where heap depth makes comparison
#: cost dominate.
_CHURN_TIMERS = 512


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@register_benchmark(
    "engine-churn",
    "micro",
    f"event schedule+dispatch throughput, {_CHURN_TIMERS} concurrent timers",
)
def bench_engine_churn(quick: bool) -> BenchResult:
    total = 60_000 if quick else 200_000
    timers = _CHURN_TIMERS
    engine = EventEngine()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] + timers <= total:
            engine.schedule(0.001, tick)

    for i in range(timers):
        engine.schedule(0.001 * (i + 1) / timers, tick)
    started = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - started
    return BenchResult(
        name="engine-churn",
        kind="micro",
        metric="events_per_second",
        value=engine.processed_events / wall,
        unit="events/s",
        wall_seconds=wall,
        iterations=engine.processed_events,
        detail={"timers": timers, "events": total},
    )


# ----------------------------------------------------------------------
# Radio
# ----------------------------------------------------------------------
def _radio_round(
    quick: bool, *, collisions: bool, loss: float, name: str
) -> BenchResult:
    """Broadcast storm on a 12x12 grid; every node sends back-to-back.

    The per-frame fan-out (degree ~8-11 at this spacing/range) is the
    radio's hot loop; with ``collisions=False`` and ``loss=0`` it rides
    the perfect-channel path, otherwise the full interference path.
    """
    frames_per_node = 8 if quick else 30
    topology = grid_deployment(12, 12, spacing=30.0, radio_range=65.0)
    engine = EventEngine()
    trace = TraceCollector()
    delivered = [0]

    def deliver(receiver: int, message, addressed: bool) -> None:
        delivered[0] += 1

    remaining = {nid: frames_per_node for nid in range(topology.node_count)}

    def send(nid: int) -> None:
        remaining[nid] -= 1
        radio.transmit(HelloMessage(src=nid, dst=BROADCAST))

    def notify(message, ok: bool) -> None:
        if remaining[message.src]:
            send(message.src)

    radio = RadioMedium(
        engine=engine,
        topology=topology,
        trace=trace,
        deliver=deliver,
        rng=np.random.default_rng(12345),
        config=RadioConfig(collisions_enabled=collisions, loss_probability=loss),
        notify_sender=notify,
    )
    for nid in range(topology.node_count):
        engine.schedule(1e-5 * (nid + 1), lambda nid=nid: send(nid))
    started = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - started
    attempts = delivered[0] + trace.total_drops
    return BenchResult(
        name=name,
        kind="micro",
        metric="reception_attempts_per_second",
        value=attempts / wall,
        unit="receptions/s",
        wall_seconds=wall,
        iterations=attempts,
        detail={
            "nodes": topology.node_count,
            "frames_per_node": frames_per_node,
            "collisions": collisions,
            "loss_probability": loss,
            "delivered": delivered[0],
            "engine_events": engine.processed_events,
        },
    )


@register_benchmark(
    "radio-broadcast-clean",
    "micro",
    "grid broadcast storm, perfect channel (engine+radio fast path)",
)
def bench_radio_clean(quick: bool) -> BenchResult:
    return _radio_round(
        quick, collisions=False, loss=0.0, name="radio-broadcast-clean"
    )


@register_benchmark(
    "radio-broadcast-contended",
    "micro",
    "grid broadcast storm with collisions and 5% Bernoulli loss",
)
def bench_radio_contended(quick: bool) -> BenchResult:
    return _radio_round(
        quick, collisions=True, loss=0.05, name="radio-broadcast-contended"
    )


# ----------------------------------------------------------------------
# Cipher
# ----------------------------------------------------------------------
_KEY = bytes(range(KEY_BYTES))


@register_benchmark(
    "cipher-xor-slice",
    "micro",
    "xor_encrypt on 8-byte slice frames, 64-frame retransmission working set",
)
def bench_cipher_slice(quick: bool) -> BenchResult:
    operations = 50_000 if quick else 200_000
    working_set = [
        (value.to_bytes(8, "big"), (7_000 + value).to_bytes(8, "big"))
        for value in range(64)
    ]
    sequence = working_set * (operations // len(working_set))
    key = _KEY
    started = time.perf_counter()
    for plaintext, nonce in sequence:
        xor_encrypt(plaintext, key, nonce)
    wall = time.perf_counter() - started
    return BenchResult(
        name="cipher-xor-slice",
        kind="micro",
        metric="operations_per_second",
        value=len(sequence) / wall,
        unit="ops/s",
        wall_seconds=wall,
        iterations=len(sequence),
        detail={"frame_bytes": 8, "working_set": len(working_set)},
    )


# ----------------------------------------------------------------------
# Scale (10^4-10^5-node deployments; ROADMAP item 1)
# ----------------------------------------------------------------------
def _scale_area(node_count: int) -> float:
    """Deployment side length preserving the paper's node density.

    Scaling the 400 m square by ``sqrt(n / 600)`` keeps the average
    physical degree at the paper's ~29, so per-node fan-out work stays
    representative as ``n`` grows.
    """
    return PAPER_AREA_M * math.sqrt(node_count / 600.0)


def _topology_build(node_count: int, name: str) -> BenchResult:
    started = time.perf_counter()
    topology = random_deployment(
        node_count, area=_scale_area(node_count), seed=42
    )
    edges = int(topology.average_degree() * topology.node_count / 2)
    wall = time.perf_counter() - started
    return BenchResult(
        name=name,
        kind="macro",
        metric="nodes_per_second",
        value=node_count / wall,
        unit="nodes/s",
        wall_seconds=wall,
        iterations=node_count,
        detail={
            "nodes": node_count,
            "area_m": round(_scale_area(node_count), 1),
            "edges": edges,
            "average_degree": round(topology.average_degree(), 2),
        },
    )


@register_benchmark(
    "topology-build-10k",
    "macro",
    "10k-node random deployment: cell-grid neighbor search + CSR adjacency",
)
def bench_topology_10k(quick: bool) -> BenchResult:
    return _topology_build(10_000, "topology-build-10k")


@register_benchmark(
    "topology-build-100k",
    "macro",
    "100k-node random deployment (memory-gated: was ~80 GB as a distance matrix)",
)
def bench_topology_100k(quick: bool) -> BenchResult:
    return _topology_build(100_000, "topology-build-100k")


def _radio_fanout(
    name: str, *, collisions: bool, frames_per_node: int
) -> BenchResult:
    """Every node of a 10k-node paper-density deployment broadcasts.

    Frames/s over ~29-receiver fan-outs.  On a perfect channel this is
    the batch delivery path (one vectorized resolve + one trace update
    per frame).  With collisions on, the 10 µs send stagger keeps ~18
    frames concurrently on the air (176 µs airtime), so fan-outs
    constantly overlap: the in-flight ledger's transmit-time ruin
    flagging plus end-of-frame batch resolution, the path every
    paper-faithful experiment takes.
    """
    node_count = 10_000
    topology = random_deployment(
        node_count, area=_scale_area(node_count), seed=42
    )
    engine = EventEngine()
    trace = TraceCollector(detail="counters")
    delivered = [0]

    def deliver(receiver: int, message, addressed: bool) -> None:
        delivered[0] += 1

    radio = RadioMedium(
        engine=engine,
        topology=topology,
        trace=trace,
        deliver=deliver,
        rng=np.random.default_rng(12345),
        config=RadioConfig(collisions_enabled=collisions),
    )

    def send(nid: int) -> None:
        radio.transmit(HelloMessage(src=nid, dst=BROADCAST))

    for repeat in range(frames_per_node):
        for nid in range(node_count):
            engine.schedule(1e-5 * (repeat * node_count + nid + 1), send, nid)
    started = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - started
    frames = node_count * frames_per_node
    detail: Dict[str, object] = {
        "nodes": node_count,
        "frames_per_node": frames_per_node,
        "delivered": delivered[0],
    }
    if collisions:
        detail["dropped"] = trace.total_drops
    detail["average_degree"] = round(topology.average_degree(), 2)
    return BenchResult(
        name=name,
        kind="macro",
        metric="frames_per_second",
        value=frames / wall,
        unit="frames/s",
        wall_seconds=wall,
        iterations=frames,
        detail=detail,
    )


@register_benchmark(
    "radio-fanout-10k",
    "macro",
    "broadcast storm over a 10k-node deployment (batch delivery path)",
)
def bench_radio_fanout_10k(quick: bool) -> BenchResult:
    return _radio_fanout(
        "radio-fanout-10k", collisions=False, frames_per_node=1 if quick else 3
    )


@register_benchmark(
    "radio-fanout-collisions-10k",
    "macro",
    "contended broadcast storm over a 10k-node deployment (batch collision ledger)",
)
def bench_radio_fanout_collisions_10k(quick: bool) -> BenchResult:
    return _radio_fanout(
        "radio-fanout-collisions-10k",
        collisions=True,
        frames_per_node=1 if quick else 2,
    )
