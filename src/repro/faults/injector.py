"""Arming a :class:`FaultPlan` onto a live network.

The injector is the single point where declarative fault plans meet the
simulator: it schedules every crash and recovery on the event engine
(via :meth:`Network.kill_node` / :meth:`Network.revive_node`, which
silence the MAC and record the fault in the trace) and installs the
Gilbert–Elliott channel as the radio's ``loss_model``.  Protocols never
see the injector — they observe faults only through their consequences
on the air, exactly as deployed code would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .channel import GilbertElliottChannel
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.network import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Wires one :class:`FaultPlan` into one :class:`Network`.

    ``time_offset`` shifts every scheduled crash/recovery: plans are
    written in run-relative seconds, so arming one against an already
    running network (the long-running service does this between query
    epochs) passes ``time_offset=engine.now`` to keep the plan's
    timeline anchored at the arming instant instead of the distant
    past.  The burst-loss channel is always anchored at arm time.
    """

    def __init__(
        self,
        plan: FaultPlan,
        network: "Network",
        *,
        time_offset: float = 0.0,
    ):
        self.plan = plan
        self.network = network
        self.time_offset = float(time_offset)
        self.channel: GilbertElliottChannel | None = None
        self._armed = False

    def arm(self) -> None:
        """Schedule the plan's events; idempotent per injector."""
        if self._armed:
            return
        self._armed = True
        engine = self.network.engine
        node_count = self.network.topology.node_count
        offset = self.time_offset
        for crash in self.plan.crashes:
            if crash.node >= node_count:
                continue  # plan written for a larger deployment
            engine.schedule_at(
                crash.at + offset,
                self.network.kill_node,
                crash.node,
                priority=-2,
            )
            if crash.recover_at is not None:
                engine.schedule_at(
                    crash.recover_at + offset,
                    self.network.revive_node,
                    crash.node,
                    priority=-2,
                )
        if self.plan.has_burst_loss:
            self.channel = GilbertElliottChannel(
                self.plan.burst_loss,
                overrides=self.plan.link_params(),
                seed=self.plan.seed,
            )
            # Anchor the chains at the arming instant: an injector
            # armed mid-run must not let the first frame's dwell span
            # the whole pre-arm interval (networks arm at t=0, where
            # this is a no-op).
            self.channel.arm(engine.now)
            self.network.radio.loss_model = self.channel
            self.network.trace.record_fault(engine.now, "burst-loss-model")

    @property
    def injected_crashes(self) -> int:
        """Crashes recorded in the trace so far."""
        return sum(
            1
            for event in self.network.trace.fault_events
            if event.kind == "crash"
        )
