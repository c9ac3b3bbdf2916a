"""Differential oracle for the radio's end-of-frame resolution.

:class:`LegacyRadioMedium` is the historical per-:class:`Reception`
resolver: one Python object per (frame, receiver), collisions flagged
receiver by receiver, and every reception concluded on its own.  It is
slow and simple, which is what an oracle should be.  It overrides only
``transmit``; channel-state queries, the neighbour caches and the
counters are the production medium's.

:class:`DifferentialRun` drives the same contended workload through the
production medium or the oracle, with collisions on or off, and
:func:`assert_equivalent` diffs everything the simulator can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.net.topology import grid_deployment
from repro.sim.engine import EventEngine
from repro.sim.messages import BROADCAST, HelloMessage, Message
from repro.sim.radio import RadioConfig, RadioMedium
from repro.sim.trace import DropReason, FrameRecord, TraceCollector


@dataclass(slots=True)
class Reception:
    """An in-flight frame as experienced by one receiver (legacy model)."""

    message: Message
    receiver: int
    start: float
    end: float
    collided: bool = False
    #: the cause recorded when ``collided`` was first set.
    ruin_reason: Optional[str] = None
    record: Optional[FrameRecord] = None
    #: position inside ``LegacyRadioMedium._active_receptions[receiver]``
    #: so conclusion can swap-pop instead of an O(n) list.remove.
    _active_index: int = -1


@dataclass(slots=True)
class _Transmission:
    """An in-flight frame as produced by its sender (legacy model)."""

    message: Message
    sender: int
    start: float
    end: float
    receptions: List[Reception] = field(default_factory=list)


class LegacyRadioMedium(RadioMedium):
    """The historical Reception-object resolver, for differential tests.

    Every frame — collisions on or off — concludes through
    ``_finish_transmission`` and counts as a generic frame.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._active_receptions: Dict[int, List[Reception]] = {}

    def transmit(self, message: Message) -> float:
        sender = message.src
        now = self.engine.now
        if self._tx_until[sender] > now:
            raise SimulationError(
                f"node {sender} started a frame while already transmitting"
            )
        config = self.config
        start = now + config.propagation_delay
        end = start + message.size_bytes * 8.0 / config.data_rate_bps
        self._tx_until[sender] = end
        self._tx_count += 1

        record = self.trace.record_send(now, message)
        receivers = self._sorted_neighbors(sender)
        return self._transmit_legacy(
            message, sender, start, end, record, receivers
        )

    def _transmit_legacy(
        self,
        message: Message,
        sender: int,
        start: float,
        end: float,
        record: Optional[FrameRecord],
        receivers: Tuple[int, ...],
    ) -> float:
        config = self.config
        transmission = _Transmission(
            message=message, sender=sender, start=start, end=end
        )

        if config.collisions_enabled:
            # Half-duplex: anything the sender was receiving is ruined.
            for reception in self._active_receptions.get(sender, []):
                if reception.end > start and not reception.collided:
                    reception.collided = True
                    reception.ruin_reason = DropReason.HALF_DUPLEX

        active_map = self._active_receptions
        for receiver in receivers:
            reception = Reception(
                message=message,
                receiver=receiver,
                start=start,
                end=end,
                record=record,
            )
            if config.collisions_enabled:
                self._apply_collisions(reception)
            transmission.receptions.append(reception)
            active = active_map.get(receiver)
            if active is None:
                active = active_map[receiver] = []
            reception._active_index = len(active)
            active.append(reception)

        self.engine.post_at(
            end, lambda: self._finish_transmission(transmission), priority=-1
        )
        return end

    def _apply_collisions(self, reception: Reception) -> None:
        receiver = reception.receiver
        # Receiver busy sending: the incoming frame is unreadable.
        if self._tx_until[receiver] > reception.start:
            reception.collided = True
            reception.ruin_reason = DropReason.HALF_DUPLEX
        # Overlap with any other in-flight frame at this receiver ruins both.
        for other in self._active_receptions.get(receiver, []):
            if other.end > reception.start:
                if not other.collided:
                    other.collided = True
                    other.ruin_reason = DropReason.COLLISION
                if not reception.collided:
                    reception.collided = True
                    reception.ruin_reason = DropReason.COLLISION

    def _finish_transmission(self, transmission: _Transmission) -> None:
        message = transmission.message
        self.generic_frames += 1
        self._tx_until[transmission.sender] = -np.inf
        self._tx_count -= 1
        addressee_got_it = message.is_broadcast
        addressee_seen = message.is_broadcast
        active_map = self._active_receptions
        receptions = transmission.receptions
        # Hoist the Bernoulli losses into ONE vectorized draw for the
        # receptions that reach the loss stage (not collided, alive) —
        # stream-identical to per-reception scalar draws.  The pre-pass
        # sees exactly what the loop would: collision flags are frozen
        # by end-of-frame (overlap tests are strict, so a frame starting
        # `now` cannot retro-collide one ending `now`) and liveness only
        # changes through scheduled fault events, never mid-event.
        loss_p = self.config.loss_probability
        alive = self.alive
        eligible = None
        draws = None
        if loss_p > 0.0 and receptions:
            eligible = [
                not r.collided and (alive is None or bool(alive[r.receiver]))
                for r in receptions
            ]
            drawn = sum(eligible)
            if drawn:
                draws = self._rng.random(drawn)
        draw_index = 0
        for slot, reception in enumerate(receptions):
            active = active_map.get(reception.receiver)
            if active is not None:
                # Swap-pop using the reception's recorded slot; order
                # inside the active list is immaterial (collision
                # checks only set flags).
                index = reception._active_index
                last = active[-1]
                if last is not reception:
                    active[index] = last
                    last._active_index = index
                active.pop()
                if not active:
                    del active_map[reception.receiver]
            if eligible is None:
                decoded = self._conclude_reception(reception, message)
            elif eligible[slot]:
                loss_draw = float(draws[draw_index])
                draw_index += 1
                decoded = self._conclude_reception(
                    reception, message, alive=True, loss_draw=loss_draw
                )
            else:
                decoded = self._conclude_reception(
                    reception,
                    message,
                    alive=False if not reception.collided else None,
                )
            if not message.is_broadcast and reception.receiver == message.dst:
                addressee_seen = True
                addressee_got_it = decoded
        if not addressee_seen:
            # Unicast to a node outside radio range: nobody to decode it.
            self.trace.record_drop(
                None, message, message.dst, DropReason.NO_RECEIVER
            )
        if self._notify_sender is not None:
            self._notify_sender(message, addressee_got_it)

    def _conclude_reception(
        self,
        reception: Reception,
        message: Message,
        alive: Optional[bool] = None,
        loss_draw: Optional[float] = None,
    ) -> bool:
        """Conclude one reception; returns True when it was decoded.

        ``alive``/``loss_draw``, when given, carry outcomes precomputed
        by the pre-pass in :meth:`_finish_transmission` (one liveness
        probe, one vectorized draw) so they are not redone here.
        """
        receiver = reception.receiver
        if reception.collided:
            # The ruin cause was recorded when the reception was
            # flagged, not re-derived from is_transmitting() here.
            reason = reception.ruin_reason or DropReason.COLLISION
            self.trace.record_drop(reception.record, message, receiver, reason)
            return False
        if alive is None:
            alive = self.alive is None or bool(self.alive[receiver])
        if not alive:
            self.trace.record_drop(
                reception.record, message, receiver, DropReason.RECEIVER_DEAD
            )
            return False
        loss_p = self.config.loss_probability
        if loss_p > 0.0:
            draw = self._rng.random() if loss_draw is None else loss_draw
            if draw < loss_p:
                self.trace.record_drop(
                    reception.record, message, receiver, DropReason.RANDOM_LOSS
                )
                return False
        if self.loss_model is not None and self.loss_model(
            message.src, receiver, self.engine.now
        ):
            self.trace.record_drop(
                reception.record, message, receiver, DropReason.BURST_LOSS
            )
            return False
        addressed = message.is_broadcast or message.dst == receiver
        if addressed:
            self.trace.record_delivery(reception.record, message, receiver)
        if addressed or self.overhears is None or self.overhears[receiver]:
            self._deliver(receiver, message, addressed)
        return True


class DifferentialRun:
    """One storm over a 4x4 grid through either resolver, recording all.

    Every node fires ``frames_per_node`` frames; the schedule staggers
    starts by less than one airtime (22-byte HELLO at 1 Mbps = 176 µs),
    so with collisions on, neighbouring fan-outs overlap heavily:
    collisions, half-duplex ruins (feedback-driven follow-up frames
    start while the sender is still receiving others), and clean
    deliveries all occur in bulk.  With collisions off the same
    schedule exercises the perfect-channel path.

    The run installs a liveness mask (``dead_nodes`` cleared in it)
    whether or not any node is dead, so every frame reads it;
    ``probe_liveness=False`` installs none, which is the bare medium's
    "nothing can drop" case.  ``overhearers``, when given, is the set
    of nodes the overhear mask lets take overheard unicasts; by default
    every bystander does.
    """

    def __init__(
        self,
        *,
        legacy: bool,
        collisions_enabled: bool = True,
        loss_probability: float = 0.0,
        dead_nodes=(),
        probe_liveness: bool = True,
        overhearers=None,
        loss_model=None,
        keep_frames: bool = True,
        detail: str = "full",
        frames_per_node: int = 4,
        unicast: bool = False,
        stagger: float = 1e-4,
    ):
        self.topology = grid_deployment(4, 4, spacing=30.0, radio_range=45.0)
        self.engine = EventEngine()
        self.trace = TraceCollector(keep_frames=keep_frames, detail=detail)
        self.delivered = []
        self.feedback = []
        node_count = self.topology.node_count
        alive = None
        if probe_liveness:
            alive = np.ones(node_count, dtype=bool)
            alive[list(dead_nodes)] = False
        medium = LegacyRadioMedium if legacy else RadioMedium
        self.radio = medium(
            engine=self.engine,
            topology=self.topology,
            trace=self.trace,
            # Record src, not frame_id: frame ids come from a global
            # counter and differ between the two runs being diffed.
            deliver=lambda r, m, a: self.delivered.append(
                (self.engine.now, r, m.src, a)
            ),
            rng=np.random.default_rng(777),
            config=RadioConfig(
                collisions_enabled=collisions_enabled,
                loss_probability=loss_probability,
            ),
            notify_sender=self._on_feedback,
            alive=alive,
        )
        if overhearers is not None:
            overhears = np.zeros(node_count, dtype=bool)
            overhears[list(overhearers)] = True
            self.radio.overhears = overhears
        if loss_model is not None:
            self.radio.loss_model = loss_model
        self._remaining = {
            nid: frames_per_node for nid in range(self.topology.node_count)
        }
        self._unicast = unicast
        for nid in range(self.topology.node_count):
            self.engine.schedule(
                stagger * (nid + 1), lambda nid=nid: self._send(nid)
            )
        self.engine.run()

    def _send(self, nid):
        self._remaining[nid] -= 1
        dst = (
            (nid + 1) % self.topology.node_count
            if self._unicast
            else BROADCAST
        )
        self.radio.transmit(HelloMessage(src=nid, dst=dst))

    def _on_feedback(self, message, ok):
        self.feedback.append((message.src, ok))
        if self._remaining[message.src]:
            # Re-send immediately at end-of-frame: back-to-back frames
            # whose receptions elsewhere overlap the follow-up exactly
            # at its start boundary, plus sender-side half-duplex ruin
            # of everything still inbound.
            self._send(message.src)


def assert_equivalent(**kwargs):
    """Run ``kwargs`` through both resolvers and diff every observable."""
    batch = DifferentialRun(legacy=False, **kwargs)
    legacy = DifferentialRun(legacy=True, **kwargs)
    assert batch.delivered == legacy.delivered
    assert batch.feedback == legacy.feedback
    assert batch.trace.summary() == legacy.trace.summary()
    assert batch.engine.now == legacy.engine.now
    # The oracle counts every frame as generic; production splits them
    # by channel mode.
    if kwargs.get("collisions_enabled", True):
        assert batch.radio.generic_frames == legacy.radio.generic_frames
        assert batch.radio.fast_path_frames == 0
    else:
        assert batch.radio.fast_path_frames == legacy.radio.generic_frames
        assert batch.radio.generic_frames == 0
    # The post-run RNG state proves both paths drew identically.
    assert batch.radio._rng.random() == legacy.radio._rng.random()
    if kwargs.get("keep_frames", True):
        batch_frames = [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in batch.trace.frames
        ]
        legacy_frames = [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in legacy.trace.frames
        ]
        assert batch_frames == legacy_frames
    return batch, legacy
