"""Shared wireless medium.

Models the physical layer the paper's evaluation rides on (ns-2 in the
original): disc propagation over the deployment topology, per-frame
airtime at a configurable data rate (1 Mbps in Section IV-B), and the
*protocol interference model* for collisions — a frame is lost at a
receiver iff another frame's airtime overlaps it there, or the receiver
was itself transmitting (half-duplex).  A Bernoulli loss knob exists
for controlled experiments; both mechanisms can be disabled to get a
perfect channel for unit tests.

Because the medium is shared, every neighbour of a sender *hears* every
frame — unicast frames are delivered only to their addressee but are
recorded as overheard, which is exactly the surface the eavesdropping
attack (Section II-C) exploits.

Every frame ends in one routine, :meth:`RadioMedium._conclude`, which
walks the receivers in sorted order through the same drop stages —
ruin at flag time, receiver alive (one indexed read of the
:attr:`~RadioMedium.alive` mask), Bernoulli loss (one ``rng.random(k)``
draw for the whole fan-out), per-link loss model — then records drops
and deliveries through the batch trace APIs, dispatches, and tells the
sender's MAC.  Dispatch is settled per frame, not per receiver: a
broadcast's delivered list goes to one ``deliver_broadcast`` call, and
a unicast reaches its addressee plus only those bystanders the
:attr:`~RadioMedium.overhears` mask marks.  Sorted order fixes the RNG
draw order and therefore byte-for-byte reproducibility; the sorted
tuples are cached per node and invalidated via ``Topology.version``.

With collisions enabled, frames on the air live in an in-flight ledger
(:class:`_InFlightFrame`: one record of ``(start, end, receivers, ruin
map)`` per frame), so half-duplex and overlap ruin are O(1) probes per
*frame pair* at transmit time, not per-receiver objects.  With
collisions disabled there is nothing to flag, so the frame skips the
ledger (``_finish_fast``) and concludes with an empty ruin map.
``tests/sim/radio_oracle.py`` keeps the historical per-reception
resolver, and the radio tests diff both channel modes against it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..net.topology import Topology
from .engine import EventEngine
from .messages import Message
from .trace import DropReason, FrameRecord, TraceCollector

__all__ = ["RadioConfig", "RadioMedium"]

#: Paper's simulated data rate (Section IV-B): 1 Mbps.
PAPER_DATA_RATE_BPS: float = 1_000_000.0

#: Ruin codes stored in the ledger's ``ruin`` map.  A receiver's entry
#: records the *first* cause that ruined the reception, at the moment
#: it is ruined — not a reclassification at end-of-frame (which used to
#: misattribute half-duplex ruins as collisions once the receiver's own
#: transmission had ended).
_RUIN_NONE = 0
_RUIN_HALF_DUPLEX = 1
_RUIN_COLLISION = 2

#: Ledger size at which the transmit-time pair screen switches from a
#: scalar Python loop to one vectorized pass over the ``_if_*``
#: columns.  Small ledgers (the MAC-paced common case) stay on the
#: scalar loop, which beats numpy's fixed call overhead below roughly
#: this many live frames.
_VECTOR_SCAN_MIN = 24

_RUIN_REASON = {
    _RUIN_HALF_DUPLEX: DropReason.HALF_DUPLEX,
    _RUIN_COLLISION: DropReason.COLLISION,
}


@dataclass
class RadioConfig:
    """Physical-layer parameters.

    Attributes
    ----------
    data_rate_bps:
        Link speed; airtime of a frame is ``size * 8 / data_rate_bps``.
    collisions_enabled:
        Apply the overlap-collision rule.  Disable for a perfect channel.
    loss_probability:
        Independent Bernoulli loss applied per (frame, receiver) after
        collision filtering; models fading/noise beyond collisions.
    propagation_delay:
        Constant propagation latency added to every delivery (seconds).
    """

    data_rate_bps: float = PAPER_DATA_RATE_BPS
    collisions_enabled: bool = True
    loss_probability: float = 0.0
    propagation_delay: float = 1e-6

    def __post_init__(self) -> None:
        if self.data_rate_bps <= 0:
            raise SimulationError("data_rate_bps must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise SimulationError("loss_probability must be in [0, 1]")
        if self.propagation_delay < 0:
            raise SimulationError("propagation_delay must be >= 0")


@dataclass(slots=True, eq=False)
class _InFlightFrame:
    """One frame on the air, as a struct-of-arrays ledger record.

    ``receivers``/``receiver_array`` are the sender's cached
    sorted-neighbour views and ``receiver_set`` the topology's cached
    neighbour set (all shared across the sender's frames, never rebuilt
    per transmission); ``ruin`` maps a ruined receiver's id to
    its ``_RUIN_*`` cause code — one hash probe to test-and-mark, and
    ``len(ruin) == n_receivers`` is the "fully ruined" saturation test
    that lets a contended storm skip already-settled frame pairs.  A
    frame that never collides carries an empty map.  ``sx``/``sy`` are
    the sender's coordinates, pre-extracted for the pair-level spatial
    reject.  No per-receiver Python object exists anywhere on the
    collision path.
    """

    message: Message
    sender: int
    start: float
    end: float
    sx: float
    sy: float
    receivers: Tuple[int, ...]
    receiver_array: np.ndarray
    receiver_set: frozenset
    n_receivers: int
    ruin: Dict[int, int]
    record: Optional[FrameRecord]


DeliverFn = Callable[[int, Message, bool], None]
DeliverBroadcastFn = Callable[[Sequence[int], Message], None]
NotifySenderFn = Callable[[Message, bool], None]
#: ``loss_model(src, dst, now) -> bool`` — True means the frame is lost
#: on that directed link at that instant (e.g. a Gilbert–Elliott burst
#: channel from :mod:`repro.faults`).  Applied after collision filtering
#: and the flat Bernoulli knob, which it generalises.
LossModelFn = Callable[[int, int, float], bool]


class RadioMedium:
    """The shared channel connecting all nodes of a topology.

    Parameters
    ----------
    engine:
        The event engine driving the simulation.
    topology:
        Deployment; defines who hears whom.
    trace:
        Byte/frame accounting sink.
    deliver:
        Callback ``deliver(receiver_id, message, addressed)`` invoked at
        end-of-frame for a unicast's addressee and for every bystander
        that :attr:`overhears` marks (``addressed=False``).  Without
        ``deliver_broadcast`` it also takes each broadcast reception.
    deliver_broadcast:
        Callback ``deliver_broadcast(receiver_ids, message)`` invoked
        once per broadcast with its whole delivered fan-out, in receiver
        order.
    notify_sender:
        Callback ``notify_sender(message, delivered)`` invoked at
        end-of-frame, telling the sender's MAC whether the addressee
        decoded the frame (the abstracted link-layer ACK).  Broadcasts
        always report ``delivered=True``.
    rng:
        Generator used for Bernoulli losses.
    alive:
        Live-receiver mask indexed by node id, or None when every node
        is alive (see :attr:`alive`).
    """

    def __init__(
        self,
        engine: EventEngine,
        topology: Topology,
        trace: TraceCollector,
        deliver: DeliverFn,
        rng: np.random.Generator,
        config: Optional[RadioConfig] = None,
        notify_sender: Optional[NotifySenderFn] = None,
        deliver_broadcast: Optional[DeliverBroadcastFn] = None,
        alive: Optional[np.ndarray] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.trace = trace
        self.config = config if config is not None else RadioConfig()
        self._deliver = deliver
        self._deliver_broadcast = (
            deliver_broadcast
            if deliver_broadcast is not None
            else self._deliver_each
        )
        self._notify_sender = notify_sender
        self._rng = rng
        #: per-node transmission end time (-inf when idle).  All
        #: channel-state queries — MAC carrier sense included — are
        #: strict ``> now`` comparisons against this array, so entries
        #: never need pruning and fan-out busy checks vectorize.
        self._tx_until = np.full(topology.node_count, -np.inf)
        #: frames currently on the air (cheap early-out for carrier
        #: sense on an idle channel).
        self._tx_count = 0
        #: the in-flight ledger: one struct-of-arrays record per frame
        #: on the air (collision path only; a perfect channel never
        #: touches it).  The parallel ``_if_*`` columns mirror the list
        #: index-for-index so a crowded ledger can be screened in one
        #: vectorized pass; removal swap-pops, which is safe because
        #: ruin marks are idempotent first-cause-wins and therefore
        #: insensitive to ledger order.
        self._in_flight: List[_InFlightFrame] = []
        self._if_end = np.empty(16)
        self._if_x = np.empty(16)
        self._if_y = np.empty(16)
        #: optional per-link loss process installed by the fault layer.
        self.loss_model: Optional[LossModelFn] = None
        #: bool mask of live receivers, indexed by node id, or None
        #: while every node is alive — then no frame reads liveness at
        #: all.  A dead radio decodes nothing, so link-layer ARQ sees
        #: the crash instead of a phantom delivery.
        self.alive = alive
        #: bool mask of the nodes that take overheard unicasts, indexed
        #: by node id, or None when every bystander does (the bare
        #: medium).  Bystanders it leaves out are not dispatched to.
        self.overhears: Optional[np.ndarray] = None
        #: sorted neighbour tuples, keyed on Topology.version (sorted
        #: order fixes the per-frame RNG draw order).
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        #: the same neighbour sets as int64 arrays, for vectorized
        #: carrier sensing.
        self._neighbor_arrays: Dict[int, np.ndarray] = {}
        self._neighbor_cache_version = topology.version
        #: sender coordinates and the pair-level rejection radius: under
        #: the disc model (Topology: neighbours iff distance <=
        #: radio_range) two senders further apart than twice the range
        #: share no receiver and cannot hear each other, so their
        #: frames provably cannot interact.
        self._coords = topology.coords
        self._pair_reject_sq = (2.0 * topology.radio_range) ** 2
        #: frames concluded on a collisions-off channel vs through the
        #: in-flight ledger (observability counters).
        self.fast_path_frames = 0
        self.generic_frames = 0

    def _check_neighbor_caches(self) -> None:
        if self._neighbor_cache_version != self.topology.version:
            self._neighbor_cache.clear()
            self._neighbor_arrays.clear()
            self._neighbor_cache_version = self.topology.version

    def _sorted_neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Sorted one-hop neighbours of ``node_id`` (cached)."""
        self._check_neighbor_caches()
        neighbors = self._neighbor_cache.get(node_id)
        if neighbors is None:
            neighbors = tuple(sorted(self.topology.neighbors(node_id)))
            self._neighbor_cache[node_id] = neighbors
        return neighbors

    def _neighbor_array(self, node_id: int) -> np.ndarray:
        """The sorted neighbour tuple as a cached int64 array."""
        self._check_neighbor_caches()
        array = self._neighbor_arrays.get(node_id)
        if array is None:
            array = np.array(
                self._sorted_neighbors(node_id), dtype=np.int64
            )
            self._neighbor_arrays[node_id] = array
        return array

    # ------------------------------------------------------------------
    # Channel state queries (used by the MAC for carrier sensing)
    # ------------------------------------------------------------------
    def airtime(self, message: Message) -> float:
        """Seconds the frame occupies the channel."""
        return message.size_bytes * 8.0 / self.config.data_rate_bps

    def is_transmitting(self, node_id: int) -> bool:
        """True while ``node_id`` has a frame on the air."""
        return self._tx_until[node_id] > self.engine.now

    def senses_busy(self, node_id: int) -> bool:
        """Carrier sense: the node or any neighbour is transmitting.

        One vectorized comparison over the cached neighbour array; an
        idle channel (no frame anywhere on the air) short-circuits
        before touching it.
        """
        now = self.engine.now
        tx_until = self._tx_until
        if tx_until[node_id] > now:
            return True
        if not self._tx_count:
            return False
        neighbors = self._neighbor_array(node_id)
        if not len(neighbors):
            return False
        return bool((tx_until[neighbors] > now).any())

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, message: Message) -> float:
        """Put ``message`` on the air; returns its end-of-frame time.

        The sender must not already be transmitting (the MAC serialises
        each node's queue; violating this indicates a protocol bug).
        """
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
        receiver_array = self._neighbor_array(sender)

        if not config.collisions_enabled:
            # Perfect channel: no frame can collide, so skip the
            # in-flight ledger and conclude straight from the cached
            # neighbour views at end-of-frame.
            self.engine.post_at(
                end,
                self._finish_fast,
                message,
                receivers,
                receiver_array,
                record,
                priority=-1,
            )
            return end

        coords = self._coords
        entry = _InFlightFrame(
            message=message,
            sender=sender,
            start=start,
            end=end,
            sx=float(coords[sender, 0]),
            sy=float(coords[sender, 1]),
            receivers=receivers,
            receiver_array=receiver_array,
            receiver_set=self.topology.neighbors(sender),
            n_receivers=len(receivers),
            ruin={},
            record=record,
        )

        in_flight = self._in_flight
        if in_flight:
            self._flag_interactions(entry, start, sender)
        slot = len(in_flight)
        if slot == len(self._if_end):
            self._if_end = np.resize(self._if_end, slot * 2)
            self._if_x = np.resize(self._if_x, slot * 2)
            self._if_y = np.resize(self._if_y, slot * 2)
        self._if_end[slot] = end
        self._if_x[slot] = entry.sx
        self._if_y[slot] = entry.sy
        in_flight.append(entry)
        self.engine.post_at(end, self._finish_entry, entry, priority=-1)
        return end

    def _flag_interactions(
        self, entry: _InFlightFrame, start: float, sender: int
    ) -> None:
        """Flag every ruin the new frame causes or suffers at transmit time.

        Two passes over the in-flight ledger so that, exactly like the
        legacy per-reception checks, half-duplex ruin is recorded
        before overlap ruin at any slot eligible for both (first cause
        wins).  Pair tests are O(1) hash probes behind a spatial
        reject: senders further apart than twice the radio range
        provably share no receiver and cannot hear each other under the
        disc model, so the test for the overwhelmingly common far-apart
        pair of a large deployment is two float multiplies.  At the
        other extreme — a saturated storm where everything overlaps —
        a pair whose frames are both already fully ruined is settled by
        two ``len`` checks, with no set work at all.
        """
        reject_sq = self._pair_reject_sq
        sx = entry.sx
        sy = entry.sy
        recv_set = entry.receiver_set
        ruin = entry.ruin
        in_flight = self._in_flight
        count = len(in_flight)
        if count >= _VECTOR_SCAN_MIN:
            # Crowded ledger (a contended storm): screen end-times and
            # sender distances for every live frame in one vectorized
            # pass instead of count Python-level iterations.  The
            # comparisons are the same strict/float64 expressions as
            # the scalar branch below, so the survivor set is
            # identical.
            dx = self._if_x[:count] - sx
            dy = self._if_y[:count] - sy
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            dx += dy
            keep = np.flatnonzero(
                (dx <= reject_sq) & (self._if_end[:count] > start)
            )
            near = [in_flight[index] for index in keep] if len(keep) else None
        else:
            near = None
            for other in in_flight:
                if other.end <= start:
                    # Ends at/before this frame's first bit arrives
                    # (overlap tests are strict, matching the legacy
                    # per-reception comparisons).
                    continue
                dx = other.sx - sx
                dy = other.sy - sy
                if dx * dx + dy * dy > reject_sq:
                    continue
                if near is None:
                    near = [other]
                else:
                    near.append(other)
        if near is None:
            return
        for other in near:
            # Half-duplex (receiver side): a receiver with its own
            # frame still on the air — i.e. the sender of a live ledger
            # entry — cannot decode this one.
            other_sender = other.sender
            if other_sender in recv_set and other_sender not in ruin:
                ruin[other_sender] = _RUIN_HALF_DUPLEX
            # Half-duplex (sender side): anything this sender was
            # still receiving is ruined by its own transmission.
            other_ruin = other.ruin
            if sender in other.receiver_set and sender not in other_ruin:
                other_ruin[sender] = _RUIN_HALF_DUPLEX
        n_mine = entry.n_receivers
        for other in near:
            # Overlap: both frames die at every common receiver.
            # Receivers already ruined (e.g. half-duplex above) keep
            # their first cause, and the marks are idempotent, so the
            # set iteration order is immaterial.  A side that is
            # already fully ruined cannot be marked further; when both
            # sides are, the pair is settled without touching the sets.
            other_ruin = other.ruin
            if (
                len(ruin) == n_mine
                and len(other_ruin) == other.n_receivers
            ):
                continue
            other_set = other.receiver_set
            if recv_set.isdisjoint(other_set):
                continue
            for receiver in recv_set & other_set:
                if receiver not in ruin:
                    ruin[receiver] = _RUIN_COLLISION
                if receiver not in other_ruin:
                    other_ruin[receiver] = _RUIN_COLLISION

    def _finish_entry(self, entry: _InFlightFrame) -> None:
        """End-of-frame for a ledger record: unlink it, then conclude."""
        self.generic_frames += 1
        in_flight = self._in_flight
        last = len(in_flight) - 1
        for index, other in enumerate(in_flight):
            if other is entry:
                # Swap-pop, keeping the _if_* columns aligned.  Ledger
                # order is free to change: ruin marks are idempotent
                # first-cause-wins, so scan order is unobservable.
                if index != last:
                    in_flight[index] = in_flight[last]
                    self._if_end[index] = self._if_end[last]
                    self._if_x[index] = self._if_x[last]
                    self._if_y[index] = self._if_y[last]
                in_flight.pop()
                break
        self._tx_until[entry.sender] = -np.inf
        self._tx_count -= 1
        self._conclude(
            entry.message,
            entry.record,
            entry.receivers,
            entry.receiver_array,
            entry.ruin,
        )

    def _finish_fast(
        self,
        message: Message,
        receivers: Tuple[int, ...],
        receiver_array: np.ndarray,
        record: Optional[FrameRecord],
    ) -> None:
        """End-of-frame on a collisions-off channel (no ledger record).

        Nothing was flagged while the frame was on the air, so it
        concludes with an empty ruin map.
        """
        self.fast_path_frames += 1
        self._tx_until[message.src] = -np.inf
        self._tx_count -= 1
        self._conclude(message, record, receivers, receiver_array, {})

    def _conclude(
        self,
        message: Message,
        record: Optional[FrameRecord],
        receivers: Tuple[int, ...],
        receiver_array: np.ndarray,
        ruin_map: Dict[int, int],
    ) -> None:
        """Resolve, record and dispatch one frame's whole fan-out.

        ``receivers`` is the sender's sorted neighbour tuple and
        ``receiver_array`` the same ids as an int64 array; ``ruin_map``
        holds the ``_RUIN_*`` causes flagged while the frame was on the
        air, each placed at its receiver's slot by bisection.  The surviving
        receivers then pass, in receiver order, through the liveness
        mask (one indexed read, skipped while every node is alive), the
        Bernoulli draw (ONE ``rng.random(k)`` call — elementwise- and
        state-identical to ``k`` scalar draws) and the loss model.
        Outcomes are resolved before any deliver callback runs, which is
        safe because nodes draw from their own per-node streams, never
        the radio's, and the loss model keeps its own per-link state.
        """
        alive = self.alive
        loss_model = self.loss_model
        loss_p = self.config.loss_probability

        if (
            not ruin_map
            and alive is None
            and loss_model is None
            and loss_p == 0.0
        ):
            # Nothing can drop: resolve the whole fan-out as delivered.
            self._dispatch(message, record, receivers, receiver_array, None)
            return

        n_receivers = len(receivers)
        if len(ruin_map) == n_receivers:
            # Every reception was ruined at flag time (a saturated
            # storm): nothing survives to probe liveness, draw loss, or
            # consult the loss model.  Emit the drops straight from the
            # ruin map, in receiver order.
            self.trace.record_drop_batch(
                record,
                message,
                [
                    (receiver, _RUIN_REASON[ruin_map[receiver]])
                    for receiver in receivers
                ],
            )
            self._dispatch(
                message,
                record,
                receivers,
                receiver_array,
                np.zeros(n_receivers, dtype=bool),
            )
            return

        # Outcome codes per slot: 0 = delivered, otherwise the drop
        # reason.  Start from the ruin causes recorded at flag time.
        code = np.zeros(n_receivers, dtype=np.int8)
        if ruin_map:
            for receiver, cause in ruin_map.items():
                code[_slot_of(receivers, receiver)] = cause
        if alive is not None:
            # Dead among the non-ruined receivers (a ruin recorded at
            # flag time keeps its cause).
            dead = ~alive[receiver_array]
            if ruin_map:
                dead &= code == _RUIN_NONE
            code[dead] = _CODE_DEAD
        eligible = np.flatnonzero(code == _RUIN_NONE)
        if loss_p > 0.0 and len(eligible):
            # ONE vectorized draw for every eligible receiver —
            # elementwise- and state-identical to k scalar draws.
            draws = self._rng.random(len(eligible))
            lost = eligible[draws < loss_p]
            if len(lost):
                code[lost] = _CODE_RANDOM_LOSS
        if loss_model is not None:
            now = self.engine.now
            src = message.src
            for slot in np.flatnonzero(code == _RUIN_NONE):
                if loss_model(src, receivers[slot], now):
                    code[slot] = _CODE_BURST_LOSS

        dropped_slots = np.flatnonzero(code)
        if len(dropped_slots):
            self.trace.record_drop_batch(
                record,
                message,
                [
                    (receivers[slot], _CODE_REASON[code[slot]])
                    for slot in dropped_slots
                ],
            )
        self._dispatch(
            message, record, receivers, receiver_array, code == _RUIN_NONE
        )

    def _dispatch(
        self,
        message: Message,
        record: Optional[FrameRecord],
        receivers: Tuple[int, ...],
        receiver_array: np.ndarray,
        decoded: Optional[np.ndarray],
    ) -> None:
        """Account and dispatch the decoded fan-out, then notify.

        ``decoded`` is a bool mask over the receiver slots, or None when
        every receiver decoded the frame.  A broadcast goes to
        ``deliver_broadcast`` in one call and always acknowledges.  A
        unicast is recorded as delivered at its addressee only; one
        indexed read of :attr:`overhears` picks the bystanders that are
        dispatched to at all, and the ACK reports whether the addressee
        decoded (an addressee out of range is a NO_RECEIVER drop).
        """
        trace = self.trace
        notify = self._notify_sender
        if message.is_broadcast:
            if decoded is None:
                delivered = receivers
            else:
                delivered = [receivers[slot] for slot in np.flatnonzero(decoded)]
            trace.record_delivery_batch(record, message, delivered)
            self._deliver_broadcast(delivered, message)
            if notify is not None:
                notify(message, True)
            return
        dst = message.dst
        addressee = _slot_of(receivers, dst)
        overhears = self.overhears
        if overhears is None:
            listening = decoded
        else:
            listening = overhears[receiver_array]
            if addressee >= 0:
                listening[addressee] = True
            if decoded is not None:
                listening &= decoded
        deliver = self._deliver
        for slot in (
            range(len(receivers))
            if listening is None
            else np.flatnonzero(listening)
        ):
            receiver = receivers[slot]
            if receiver == dst:
                trace.record_delivery(record, message, receiver)
                deliver(receiver, message, True)
            else:
                deliver(receiver, message, False)
        if addressee < 0:
            # Unicast to a node outside radio range: nobody to decode it.
            trace.record_drop(None, message, dst, DropReason.NO_RECEIVER)
        if notify is not None:
            notify(
                message,
                addressee >= 0 and (decoded is None or bool(decoded[addressee])),
            )

    def _deliver_each(self, receivers: Sequence[int], message: Message) -> None:
        """Broadcast fan-out through ``deliver`` when no batch entry is set."""
        deliver = self._deliver
        for receiver in receivers:
            deliver(receiver, message, True)


def _slot_of(receivers: Tuple[int, ...], node_id: int) -> int:
    """``node_id``'s position in the sorted ``receivers`` tuple, or -1."""
    slot = bisect_left(receivers, node_id)
    if slot < len(receivers) and receivers[slot] == node_id:
        return slot
    return -1


#: Outcome codes used by ``_conclude`` beyond the ruin codes.
_CODE_DEAD = 3
_CODE_RANDOM_LOSS = 4
_CODE_BURST_LOSS = 5

_CODE_REASON = {
    _RUIN_HALF_DUPLEX: DropReason.HALF_DUPLEX,
    _RUIN_COLLISION: DropReason.COLLISION,
    _CODE_DEAD: DropReason.RECEIVER_DEAD,
    _CODE_RANDOM_LOSS: DropReason.RANDOM_LOSS,
    _CODE_BURST_LOSS: DropReason.BURST_LOSS,
}
