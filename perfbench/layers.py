"""Which entry points the traced run wraps, and the per-layer metrics.

Layer names follow the ``repro`` package layout (``sim.radio`` is
``repro.sim.radio``), with one exception: ``sim.node`` is the
per-receiver dispatch boundary, ``Network._deliver`` -> ``Node.deliver``
-> the protocol's hook, because that chain is what runs once per
receiver.  ``Network._node_alive``, which the radio calls once per
receiver too, is left unwrapped so it counts as radio self time.

:data:`PER_LAYER` lists every per-layer metric the traced run prints, in
order, with its unit.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Tracer

PROTOCOLS = ("ipda", "tag", "epochs", "kipda")
DROP_REASONS = (
    "collision",
    "half-duplex",
    "random-loss",
    "burst-loss",
    "receiver-dead",
    "no-receiver",
)

PER_LAYER: List[Tuple[str, str]] = (
    [
        ("sim.engine.events", "count"),
        ("sim.engine.self_s", "s"),
        ("sim.engine.us_per_event", "us"),
        ("sim.radio.transmit.calls", "count"),
        ("sim.radio.self_s", "s"),
        ("sim.radio.fast_path_frames", "count"),
        ("sim.radio.generic_frames", "count"),
        ("sim.radio.delivered", "count"),
    ]
    + [(f"sim.radio.dropped.{reason}", "count") for reason in DROP_REASONS]
    + [
        ("sim.radio.useful_ratio", "ratio"),
        ("sim.mac.send.calls", "count"),
        ("sim.mac.self_s", "s"),
        ("sim.mac.backoffs", "count"),
        ("sim.mac.retransmissions", "count"),
        ("sim.mac.dropped_frames", "count"),
        ("sim.node.deliver.calls", "count"),
        ("sim.node.overhear.calls", "count"),
        ("sim.node.addressed_ratio", "ratio"),
        ("sim.node.self_s", "s"),
        ("sim.network.init.calls", "count"),
        ("sim.network.init_s", "s"),
        ("sim.network.self_s", "s"),
        ("protocols.ipda.on_receive.calls", "count"),
        ("protocols.ipda.self_s", "s"),
        ("protocols.ipda.run_round_s", "s"),
        ("protocols.tag.on_receive.calls", "count"),
        ("protocols.tag.self_s", "s"),
        ("protocols.tag.run_round_s", "s"),
        ("protocols.epochs.self_s", "s"),
        ("protocols.epochs.run_epoch_s", "s"),
        ("protocols.kipda.self_s", "s"),
        ("protocols.kipda.run_round_s", "s"),
        ("crypto.keys.link_key.calls", "count"),
        ("crypto.keys.self_s", "s"),
        ("crypto.envelope.seal.calls", "count"),
        ("crypto.envelope.open.calls", "count"),
        ("crypto.envelope.self_s", "s"),
        ("crypto.derivations_per_seal", "ratio"),
        ("core.slicing.plan.calls", "count"),
        ("core.slicing.self_s", "s"),
        ("net.topology.deploy_s", "s"),
        ("runner.self_s", "s"),
        ("runner.run_cells_s", "s"),
        ("runner.digest_s", "s"),
        ("runner.deploy_cache.misses", "count"),
        ("runner.pool_idle_frac", "ratio"),
        ("serve.service.submit_s", "s"),
        ("serve.service.dispatch_s", "s"),
        ("serve.service.self_s", "s"),
        ("serve.service.batch_mean", "count"),
        ("serve.service.shed", "count"),
        ("serve.service.expired", "count"),
        ("serve.service.lane.ipda_s", "s"),
        ("serve.service.lane.tag_s", "s"),
        ("serve.service.lane.kipda_s", "s"),
        ("obs.tracing_overhead_frac", "ratio"),
        ("trace.spans", "count"),
        ("trace.untimed_s", "s"),
    ]
)


def _addressed(args: tuple, kwargs: dict) -> int:
    # Network._deliver(self, receiver, message, addressed)
    return 1 if args[3] else 0


def _batch_items(args: tuple, kwargs: dict) -> int:
    # seal_batch(values, keys, nonces)
    return len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Call before the workload builds its objects: ``Network`` binds
    ``_deliver`` when it is constructed, so a network built earlier keeps
    the unwrapped method.
    """
    import repro.core.slicing as slicing
    import repro.crypto.envelope as envelope
    import repro.crypto.keys as keys
    import repro.net.topology as topology
    import repro.protocols.epochs as epochs
    import repro.protocols.ipda as ipda
    import repro.protocols.kipda as kipda
    import repro.protocols.tag as tag
    import repro.runner as runner
    import repro.serve.fleet as fleet
    import repro.serve.service as service
    from repro.sim.engine import EventEngine
    from repro.sim.mac import CsmaMac
    from repro.sim.network import Network
    from repro.sim.node import Node
    from repro.sim.radio import RadioMedium

    tracer.wrap_method(EventEngine, "run", "sim.engine")
    tracer.wrap_class(
        RadioMedium,
        "sim.radio",
        counted={"transmit": {"calls": "sim.radio.transmit.calls"}},
    )
    tracer.wrap_class(
        CsmaMac, "sim.mac", counted={"send": {"calls": "sim.mac.send.calls"}}
    )
    tracer.wrap_method(
        Network,
        "_deliver",
        "sim.node",
        calls="sim.node.deliver.calls",
        items=("sim.node.addressed", _addressed),
    )
    for attr in ("send", "schedule"):
        tracer.wrap_method(Node, attr, "sim.node")
    tracer.wrap_method(
        Network, "__init__", "sim.network", calls="sim.network.init.calls"
    )
    for attr in ("run", "mac", "_notify_sender", "_harvest_metrics"):
        tracer.wrap_method(Network, attr, "sim.network")

    for module in (ipda, tag, epochs, kipda):
        layer = "protocols." + module.__name__.rsplit(".", 1)[1]
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                tracer.wrap_class(
                    value,
                    layer,
                    counted={
                        "on_receive": {"calls": f"{layer}.on_receive.calls"}
                    },
                )

    for value in list(vars(keys).values()):
        if (
            isinstance(value, type)
            and value.__module__ == keys.__name__
            and "link_key" in value.__dict__
        ):
            tracer.wrap_class(
                value,
                "crypto.keys",
                counted={"link_key": {"calls": "crypto.keys.link_key.calls"}},
            )
    tracer.wrap_function(
        envelope, "seal", "crypto.envelope", calls="crypto.envelope.seal.calls"
    )
    tracer.wrap_function(
        envelope,
        "seal_batch",
        "crypto.envelope",
        items=("crypto.envelope.seal.calls", _batch_items),
    )
    tracer.wrap_function(
        envelope,
        "open_sealed",
        "crypto.envelope",
        calls="crypto.envelope.open.calls",
    )
    tracer.wrap_function(envelope, "make_nonce", "crypto.envelope")

    tracer.wrap_function(
        slicing, "plan_slices", "core.slicing", calls="core.slicing.plan.calls"
    )
    tracer.wrap_function(slicing, "schedule_fanout", "core.slicing")
    tracer.wrap_class(slicing.SliceAssembler, "core.slicing")

    tracer.wrap_function(topology, "random_deployment", "net.topology")
    tracer.wrap_function(runner, "execute", "runner")

    for attr in ("start", "submit", "dispatch"):
        tracer.wrap_method(service.ServiceCore, attr, "serve.service")
    # The lanes get their own layer: called from a dispatch span of
    # serve.service, they would otherwise open no span of their own.
    for lane in ("ipda", "tag", "kipda"):
        tracer.wrap_method(fleet.ServiceFleet, f"_serve_{lane}", "serve.fleet")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    *,
    timed_s: float,
    overhead_frac: float,
    runner_phases: Dict[str, float],
    serve: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced unit.

    ``summary`` is :meth:`Tracer.summary`; ``counts`` merges the tracer's
    call counters with the counters ``repro.obs`` harvested during the
    run.  ``timed_s`` is the traced unit's headline time as the benchmark
    timed it; ``overhead_frac`` is (traced - untraced) / untraced for the
    same unit, both scaled to the nominal host speed.  ``runner_phases``
    carries the runner numbers of the untraced pooled sweep (empty on
    the other workloads) and ``serve`` the serve report's traffic figures.
    """
    self_s = summary["layer_self_s"]
    total = summary["name_total_s"]

    def layer_self(layer: str) -> float:
        return self_s.get(layer, 0.0)

    def spans_of(name: str) -> float:
        return total.get(name, 0.0)

    def count(name: str) -> float:
        return float(counts.get(name, 0))

    events = count("engine.processed_events")
    delivered = count("trace.delivered")
    dropped = count("trace.dropped")
    deliveries = count("sim.node.deliver.calls")
    addressed = count("sim.node.addressed")
    seals = count("crypto.envelope.seal.calls")
    metrics: Dict[str, float] = {
        "sim.engine.events": events,
        "sim.engine.self_s": layer_self("sim.engine"),
        "sim.engine.us_per_event": _ratio(layer_self("sim.engine") * 1e6, events),
        "sim.radio.transmit.calls": count("sim.radio.transmit.calls"),
        "sim.radio.self_s": layer_self("sim.radio"),
        "sim.radio.fast_path_frames": count("radio.fast_path_frames"),
        "sim.radio.generic_frames": count("radio.generic_frames"),
        "sim.radio.delivered": delivered,
        "sim.radio.useful_ratio": _ratio(delivered, delivered + dropped),
        "sim.mac.send.calls": count("sim.mac.send.calls"),
        "sim.mac.self_s": layer_self("sim.mac"),
        "sim.mac.backoffs": count("mac.backoffs"),
        "sim.mac.retransmissions": count("mac.retransmissions"),
        "sim.mac.dropped_frames": count("mac.dropped_frames"),
        "sim.node.deliver.calls": deliveries,
        "sim.node.overhear.calls": deliveries - addressed,
        "sim.node.addressed_ratio": _ratio(addressed, deliveries),
        "sim.node.self_s": layer_self("sim.node"),
        "sim.network.init.calls": count("sim.network.init.calls"),
        "sim.network.init_s": spans_of("sim.network/Network.__init__"),
        "sim.network.self_s": layer_self("sim.network"),
        "protocols.ipda.run_round_s": spans_of(
            "protocols.ipda/IpdaProtocol.run_round"
        ),
        "protocols.tag.run_round_s": spans_of(
            "protocols.tag/TagProtocol.run_round"
        ),
        "protocols.epochs.run_epoch_s": spans_of(
            "protocols.epochs/EpochedIpdaSession.run_epoch"
        ),
        "protocols.kipda.run_round_s": spans_of(
            "protocols.kipda/_KipdaExtremumProtocol.run_round"
        ),
        "crypto.keys.link_key.calls": count("crypto.keys.link_key.calls"),
        "crypto.keys.self_s": layer_self("crypto.keys"),
        "crypto.envelope.seal.calls": seals,
        "crypto.envelope.open.calls": count("crypto.envelope.open.calls"),
        "crypto.envelope.self_s": layer_self("crypto.envelope"),
        "crypto.derivations_per_seal": _ratio(
            count("crypto.keys.link_key.calls"), seals
        ),
        "core.slicing.plan.calls": count("core.slicing.plan.calls"),
        "core.slicing.self_s": layer_self("core.slicing"),
        # Deployment is set-up work on ipda-round-5k, so it is counted
        # outside the timed section too.
        "net.topology.deploy_s": summary["name_total_all_s"].get(
            "net.topology/random_deployment", 0.0
        ),
        "runner.self_s": layer_self("runner"),
        "runner.run_cells_s": runner_phases.get("run_cells_s", 0.0),
        "runner.digest_s": runner_phases.get("digest_s", 0.0),
        "runner.deploy_cache.misses": runner_phases.get("deploy_misses", 0.0),
        "runner.pool_idle_frac": runner_phases.get("pool_idle_frac", 0.0),
        "serve.service.submit_s": spans_of("serve.service/ServiceCore.submit"),
        "serve.service.dispatch_s": spans_of(
            "serve.service/ServiceCore.dispatch"
        ),
        "serve.service.self_s": layer_self("serve.service"),
        "serve.service.batch_mean": serve.get("batch_mean", 0.0),
        "serve.service.shed": serve.get("shed", 0.0),
        "serve.service.expired": serve.get("expired", 0.0),
        "obs.tracing_overhead_frac": overhead_frac,
        "trace.spans": float(sum(summary["name_spans"].values())),
        # What the benchmark's timer saw that no layer's self time covers.
        "trace.untimed_s": timed_s - sum(self_s.values()),
    }
    for protocol in PROTOCOLS:
        metrics[f"protocols.{protocol}.self_s"] = layer_self(
            f"protocols.{protocol}"
        )
        if protocol in ("ipda", "tag"):
            metrics[f"protocols.{protocol}.on_receive.calls"] = count(
                f"protocols.{protocol}.on_receive.calls"
            )
    for reason in DROP_REASONS:
        metrics[f"sim.radio.dropped.{reason}"] = count(f"trace.drops.{reason}")
    for lane in ("ipda", "tag", "kipda"):
        metrics[f"serve.service.lane.{lane}_s"] = spans_of(
            f"serve.fleet/ServiceFleet._serve_{lane}"
        )
    return {name: metrics[name] for name, _unit in PER_LAYER}
