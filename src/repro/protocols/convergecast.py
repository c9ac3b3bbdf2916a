"""The tree convergecast every radio protocol shares (Phase III).

TAG divides its epoch by depth: a node at hop ``h`` reports its partial
result in slot ``MAX_DEPTH_SLOTS - h``, deepest first, so a parent
always listens after its children.  iPDA runs the same convergecast on
each of its disjoint trees, PDA on its one sliced tree, and the epoched
session on standing trees.  This module holds it once:

* the schedule — :func:`phase3_start`, :func:`report_time` and
  :func:`round_horizon` around the one depth bound
  :data:`MAX_DEPTH_SLOTS`;
* :class:`ConvergecastNode` — the report path.  Fire-and-forget by
  default; with a :class:`~repro.core.config.RobustnessConfig` a report
  is acknowledged end to end, retried under jittered exponential
  backoff and, once the per-parent budget is spent, re-sent to a
  strictly shallower parent heard in Phase I (shallower means no
  cycles).  Every robust report carries the ids it folds in, so merge
  points drop re-delivered subtrees, and a child report that arrives
  after its parent reported is forwarded upstream as a supplement.
  TAG is the one-colour case; iPDA applies it to its own colour;
* :class:`SingleTreeNode` — the single-tree HELLO flood TAG and PDA
  build their tree with: the first HELLO heard picks the parent, then
  a jittered re-broadcast.

A node deeper than :data:`MAX_DEPTH_SLOTS` hops shares slot 0 with its
parent, so its subtree's report can arrive after the parent's.  The
schedule marks such nodes and :func:`count_depth_overflow` counts them
into the round's ``depth_overflow`` stat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from ..core.config import RobustnessConfig, TimingConfig
from ..obs import get_registry
from ..sim.engine import ScheduledEvent
from ..sim.messages import (
    BROADCAST,
    AckMessage,
    AggregateMessage,
    HelloMessage,
    Message,
    TreeColor,
)
from ..sim.network import Network
from ..sim.node import Node

__all__ = [
    "MAX_DEPTH_SLOTS",
    "FORWARD_JITTER",
    "ConvergecastNode",
    "SingleTreeNode",
    "count_depth_overflow",
    "phase3_start",
    "report_time",
    "round_horizon",
]

#: Convergecast depth bound (slots), TAG's epoch division.
MAX_DEPTH_SLOTS = 32

#: Upper bound of the uniform delay before a HELLO is re-broadcast.
FORWARD_JITTER = 0.2


def phase3_start(timing: TimingConfig, *, sliced: bool = True) -> float:
    """When the convergecast opens: after the tree window, and after the
    slicing window and assembly guard for protocols that slice."""
    if not sliced:
        return timing.tree_construction_window
    return (
        timing.tree_construction_window
        + timing.slicing_window
        + timing.assembly_guard
    )


def report_time(
    start: float, hops: int, slot: float, rng: np.random.Generator
) -> float:
    """A report's time: its depth slot after ``start``, jittered within
    the first 80% of the slot."""
    depth_slot = max(MAX_DEPTH_SLOTS - hops, 0)
    return start + depth_slot * slot + float(rng.uniform(0.0, 0.8 * slot))


def round_horizon(timing: TimingConfig, *, sliced: bool = True) -> float:
    """When the last depth slot of a round has closed."""
    return (
        phase3_start(timing, sliced=sliced)
        + (MAX_DEPTH_SLOTS + 2) * timing.aggregation_slot
    )


def count_depth_overflow(nodes: Iterable[ConvergecastNode]) -> int:
    """Nodes whose report was scheduled past the depth bound.

    Also counted into the ``protocol.depth_overflow`` obs counter, which
    is touched only when the count is nonzero.
    """
    overflow = sum(1 for node in nodes if node.depth_overflow)
    if overflow:
        registry = get_registry()
        if registry is not None:
            registry.inc("protocol.depth_overflow", overflow)
    return overflow


@dataclass
class _PendingSend:
    """An unacknowledged transfer awaiting its end-to-end ACK."""

    message: Message
    attempt: int
    tried: Set[int]
    timer: Optional[ScheduledEvent]
    piece: int = 0  # slice transfers only: the plaintext piece


class ConvergecastNode(Node):
    """A node that reports its partial result up one tree.

    Subclasses supply the report's ``(value, count)`` through
    :meth:`_report_payload` and the fail-over candidates through
    :meth:`_parent_candidates`.
    """

    #: the tree this node reports on (None for single-tree protocols).
    color: Optional[TreeColor] = None
    #: loss-tolerance knobs; None keeps the fire-and-forget convergecast.
    robust: Optional[RobustnessConfig] = None
    #: phase timing; protocols without a configuration use the defaults.
    timing: TimingConfig = TimingConfig()
    #: set when this node's report was scheduled past the depth bound.
    depth_overflow = False

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.round_id = 0
        self.parent: Optional[int] = None
        self.hops: Optional[int] = None
        # --- loss-tolerant mode state (inert when robust is None) ---
        self._pending: Dict[int, _PendingSend] = {}
        self._seen_aggregates: Set[int] = set()
        #: per colour, the ids already folded into the child sums — the
        #: duplicate filter for fail-over paths.
        self._merged_origins: Dict[Optional[TreeColor], Set[int]] = {}
        self._reported = False
        self.retries_used = 0
        self.reparent_count = 0

    # -- schedule ----------------------------------------------------------
    def _schedule_report(self, start: float) -> None:
        """Arm this node's report in its depth slot after ``start``."""
        hops = self.hops
        assert hops is not None
        if hops > MAX_DEPTH_SLOTS:
            self.depth_overflow = True
        when = report_time(start, hops, self.timing.aggregation_slot, self.rng)
        self.schedule_at(max(when, self.now), self._report)

    # -- sending -----------------------------------------------------------
    def _report_payload(self) -> Tuple[int, int]:
        """This node's ``(value, count)`` for its report."""
        raise NotImplementedError

    def _report(self) -> None:
        if self.parent is None:
            return
        value, count = self._report_payload()
        if self.robust is not None:
            origins = {self.id}
            origins.update(self._merged_origins.get(self.color, ()))
            folded = tuple(sorted(origins))
        else:
            folded = ()
        message = AggregateMessage(
            src=self.id,
            dst=self.parent,
            round_id=self.round_id,
            color=self.color,
            value=value,
            contributor_count=count,
            origins=folded,
        )
        self._reported = True
        self._send_report(message, 1, {self.parent})

    def _send_report(
        self, message: AggregateMessage, attempt: int, tried: Set[int]
    ) -> None:
        """Transmit a report upstream, arming its ACK timer in robust mode."""
        self.send(message)
        if self.robust is None:
            return
        frame_id = message.frame_id
        timer = self.schedule(
            self.robust.report_ack_timeout, self._report_timeout, frame_id
        )
        self._pending[frame_id] = _PendingSend(
            message=message, attempt=attempt, tried=set(tried), timer=timer
        )

    def _backoff(self, attempt: int) -> float:
        """Jittered exponential backoff before protocol retry ``attempt``."""
        assert self.robust is not None
        jitter = float(self.rng.uniform(0.5, 1.5))
        return jitter * self.robust.retry_backoff * (2 ** (attempt - 1))

    def _report_timeout(self, frame_id: int) -> None:
        """Retry the report; after the per-parent cap, fail over."""
        robust = self.robust
        state = self._pending.pop(frame_id, None)
        if state is None or robust is None:
            return
        message = state.message
        assert isinstance(message, AggregateMessage)
        self.retries_used += 1
        delay = self._backoff(state.attempt)
        if state.attempt < robust.report_retry_limit:
            # Same frame, same parent: a duplicate at the receiver is
            # deduplicated by frame_id and simply re-ACKed.
            self.schedule(
                delay,
                self._send_report,
                message,
                state.attempt + 1,
                state.tried,
            )
            return
        backup = self._backup_parent(state.tried)
        if backup is None:
            return  # no shallower parent left; this subtree is cut off
        self.reparent_count += 1
        self.parent = backup
        self.schedule(
            delay,
            self._send_report,
            self._readdressed(message, backup),
            1,
            state.tried | {backup},
        )

    def _readdressed(
        self, message: AggregateMessage, dst: int
    ) -> AggregateMessage:
        """A fresh frame from this node carrying ``message``'s report."""
        return AggregateMessage(
            src=self.id,
            dst=dst,
            round_id=message.round_id,
            color=message.color,
            value=message.value,
            contributor_count=message.contributor_count,
            origins=message.origins,
        )

    def _parent_candidates(self) -> Dict[int, int]:
        """Parents heard in Phase I on this node's tree, id -> hops."""
        raise NotImplementedError

    def _backup_parent(self, tried: Set[int]) -> Optional[int]:
        """Next untried parent candidate strictly shallower than this node.

        Strict shallowness keeps fail-over acyclic: a re-routed report
        always moves toward the base station.
        """
        if self.hops is None:
            return None
        heard = self._parent_candidates()
        candidates = [
            src
            for src, hops in heard.items()
            if hops < self.hops and src not in tried
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (heard[s], s))

    # -- receiving ---------------------------------------------------------
    def _ack(self, message: Message) -> None:
        """Acknowledge ``message`` end to end (loss-tolerant mode)."""
        self.send(
            AckMessage(
                src=self.id,
                dst=message.src,
                round_id=self.round_id,
                color=getattr(message, "color", None),
                ref=message.frame_id,
            )
        )

    def _handle_ack(self, message: AckMessage) -> None:
        """Settle the pending transfer the ACK references."""
        state = self._pending.pop(message.ref, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()

    def _admit_report(self, message: AggregateMessage) -> bool:
        """ACK a child's report; False when it must not be merged.

        A repeated frame means our ACK was lost: it is re-ACKed and
        dropped.  A report whose origins overlap what was already merged
        on its tree came over a fail-over path: it is dropped whole.
        Partial overlap sacrifices the other origins, but their values
        and counts vanish *together*, so the loss stays visible to the
        base station's coverage accounting.
        """
        if message.frame_id in self._seen_aggregates:
            self._ack(message)
            return False
        self._seen_aggregates.add(message.frame_id)
        self._ack(message)
        merged = self._merged_origins.setdefault(message.color, set())
        if merged & set(message.origins):
            return False
        merged.update(message.origins)
        return True

    def _forward_late(self, message: AggregateMessage) -> None:
        """Forward a child report that arrived after our own report
        (it retried or re-parented) upstream as a supplement."""
        if self._reported and self.parent is not None:
            self._send_report(
                self._readdressed(message, self.parent), 1, {self.parent}
            )

    def _reset_reporting(self) -> None:
        """Forget the last epoch's reports before a new epoch.

        Stale un-ACKed reports must not retransmit into the next epoch,
        and the duplicate filters guard against replays *within* one
        epoch: carried across epochs they make every fresh report look
        like a replay of the last epoch's (same origins, new values).
        """
        self._pending.clear()
        self._seen_aggregates.clear()
        self._merged_origins.clear()
        self._reported = False


class SingleTreeNode(ConvergecastNode):
    """A node on one spanning tree built by a HELLO flood."""

    #: whether a slicing phase runs between the flood and the reports.
    sliced = False

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        #: every HELLO heard, src -> best hops: the fail-over candidates
        #: (loss-tolerant mode only).
        self.heard: Dict[int, int] = {}

    def _handle_hello(self, message: HelloMessage) -> None:
        if self.robust is not None:
            best = self.heard.get(message.src)
            if best is None or message.hops < best:
                self.heard[message.src] = message.hops
        if self.parent is not None:
            return
        self.parent = message.src
        self.hops = message.hops + 1
        jitter = float(self.rng.uniform(0.0, FORWARD_JITTER))
        self.schedule(jitter, self._forward_hello)
        self._schedule_report(phase3_start(self.timing, sliced=self.sliced))

    def _forward_hello(self) -> None:
        self.send(
            HelloMessage(
                src=self.id, dst=BROADCAST, hops=self.hops or 0,
                round_id=self.round_id,
            )
        )

    def _parent_candidates(self) -> Dict[int, int]:
        return self.heard
