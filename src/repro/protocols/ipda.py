"""iPDA over the full radio stack (Sections III-B/C/D end to end).

Phase I — the base station floods HELLOs as an aggregator of both
colours; a node that has heard both colours waits
``role_decision_delay`` collecting more HELLOs, elects its role
(Equations 1–2), picks the shallowest same-colour aggregator as parent
and, if it became an aggregator, re-broadcasts the HELLO.

Phase II — every participating node cuts its reading twice (one cut per
colour), link-encrypts each piece under the key-management scheme, and
scatters the pieces to ``l`` aggregators of each colour over the
slicing window; aggregators decrypt and assemble ``r(j)``.

Phase III — each tree runs the depth-scheduled convergecast of
:mod:`repro.protocols.convergecast` on the assembled values; the base
station compares ``S_red`` and ``S_blue`` and accepts iff they agree
within ``Th``.

Attack hooks: ``polluters`` adds an offset to a node's outgoing
intermediate result (data-pollution, Section II-C); ``contributors``
restricts which sensors inject their reading (the bisection hook for
polluter localisation).

Loss tolerance (``IpdaConfig.robustness``, opt-in): slices and reports
become end-to-end acknowledged.  A slice that times out is resent to
the *same* aggregator under jittered exponential backoff — never to a
different one, because a piece whose delivery the sender cannot
confirm may have arrived, and re-scattering it elsewhere would count
it twice; if the target is truly dead the piece dies with the target's
assembler either way, which the piece accounting reports honestly.  A
report that exhausts its retries re-parents to a strictly shallower
same-colour aggregator heard in Phase I, with the duplicate-safe
origins and late-child forwarding of the shared report path.
Piece counts ride along with the sums so the base station can degrade
gracefully under benign loss instead of rejecting (see
:mod:`repro.core.integrity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

from ..core.config import IpdaConfig, RobustnessConfig, TimingConfig
from ..core.integrity import (
    DegradationPolicy,
    IntegrityChecker,
    VerificationResult,
)
from ..core.slicing import SliceAssembler, plan_slices, schedule_fanout
from ..core.trees import role_probabilities
from ..crypto.envelope import make_nonce, open_sealed, seal, seal_batch
from ..crypto.keys import KeyManagementScheme, PairwiseKeyScheme
from ..errors import ProtocolError
from ..net.topology import Topology
from ..rng import RngStreams
from ..sim.mac import MacConfig
from ..sim.messages import (
    BROADCAST,
    AckMessage,
    AggregateMessage,
    HelloMessage,
    Message,
    SliceMessage,
    TreeColor,
)
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from .base import AggregationProtocol, RoundOutcome, validate_readings
from .convergecast import (
    ConvergecastNode,
    _PendingSend,
    count_depth_overflow,
    phase3_start,
    round_horizon,
)

__all__ = ["IpdaOutcome", "IpdaProtocol"]


@dataclass
class IpdaOutcome(RoundOutcome):
    """A :class:`RoundOutcome` extended with iPDA's dual-tree results."""

    s_red: int = 0
    s_blue: int = 0
    verification: Optional[VerificationResult] = None
    covered: Set[int] = field(default_factory=set)

    @property
    def accepted(self) -> bool:
        """Did the base station accept the round?"""
        return self.verification is not None and self.verification.accepted

    @property
    def degraded(self) -> bool:
        """Did the round land in the loss-explained degraded band?"""
        return self.verification is not None and self.verification.degraded

    @property
    def outcome(self) -> str:
        """``"accepted"``, ``"degraded"``, or ``"rejected"``."""
        if self.verification is None:
            return "rejected"
        return self.verification.outcome


class _IpdaNode(ConvergecastNode):
    """A sensor running iPDA."""

    #: the trees the round builds, in flooding order.
    colors: Tuple[TreeColor, ...] = (TreeColor.RED, TreeColor.BLUE)

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.config: IpdaConfig = IpdaConfig()
        self.keys: Optional[KeyManagementScheme] = None
        self.reading = 0
        self.contributes = False
        self.pollution_offset = 0
        self.magnitude = 4
        self.base_station = 0

        self.heard: Dict[TreeColor, Dict[int, int]] = {
            TreeColor.RED: {},
            TreeColor.BLUE: {},
        }
        #: neighbours caught announcing both colours (Section III-B: the
        #: shared medium makes the duplicity visible; such nodes are
        #: excluded from both trees).
        self.blacklist: Set[int] = set()
        #: the first colour each neighbour announced; a HELLO of any
        #: other colour from it exposes it as two-faced.
        self._hello_colors: Dict[int, TreeColor] = {}
        self.color: Optional[TreeColor] = None
        self.decided = False
        self._decision_pending = False
        self.participant = False
        self.assemblers: Dict[TreeColor, SliceAssembler] = {}
        self.child_sum: Dict[TreeColor, int] = {
            TreeColor.RED: 0,
            TreeColor.BLUE: 0,
        }
        self.mismatched_aggregates = 0
        self._slice_seq = 0
        #: single-round mode schedules the Phase-III report right after
        #: role election; the epoched session drives reports itself.
        self.auto_report = True

        # --- loss-tolerant mode state (inert when robustness is None) ---
        self._seen_slices: Set[Tuple[int, int]] = set()
        #: cumulative slice-piece counts received from children's reports.
        self.child_pieces: Dict[TreeColor, int] = {
            TreeColor.RED: 0,
            TreeColor.BLUE: 0,
        }

    @property
    def robust(self) -> Optional[RobustnessConfig]:
        """The loss-tolerance knobs, or None in fire-and-forget mode."""
        return self.config.robustness

    @property
    def timing(self) -> TimingConfig:
        """The phase timing of this deployment."""
        return self.config.timing

    def reset_epoch(self) -> None:
        """Clear the per-query Phase II/III state before a new epoch on
        the standing trees; roles, parents and HELLO tables stay."""
        self.participant = False
        for color in list(self.assemblers):
            self.assemblers[color] = SliceAssembler(self.id)
        self.child_sum = {TreeColor.RED: 0, TreeColor.BLUE: 0}
        # Robust-mode state is per-epoch too: piece counts feed the
        # epoch's verdict, and a stale slice ACK or dedup entry must not
        # leak into the next epoch's fresh assemblers.
        self.child_pieces = {TreeColor.RED: 0, TreeColor.BLUE: 0}
        self._seen_slices.clear()
        self._reset_reporting()

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------
    def on_receive(self, message: Message) -> None:
        if isinstance(message, HelloMessage):
            self._handle_hello(message)
        elif isinstance(message, SliceMessage):
            self._handle_slice(message)
        elif isinstance(message, AggregateMessage):
            self._handle_aggregate(message)
        elif isinstance(message, AckMessage):
            self._handle_ack(message)

    # ------------------------------------------------------------------
    # Phase I: role election and tree joining
    # ------------------------------------------------------------------
    def _handle_hello(self, message: HelloMessage) -> None:
        if message.color is None:
            raise ProtocolError("iPDA HELLO must carry a colour")
        if message.src in self.blacklist:
            return
        # Two-faced detection (Section III-B): the same neighbour
        # announcing both colours is an adversary trying to sit on both
        # trees; the shared medium makes the duplicity visible.  The
        # base station legitimately roots both trees.
        if message.src != self.base_station:
            color = message.color
            if self._hello_colors.setdefault(message.src, color) is not color:
                self.blacklist.add(message.src)
                for table in self.heard.values():
                    table.pop(message.src, None)
                if self.parent == message.src and self.color is not None:
                    self._repick_parent()
                return
        table = self.heard[message.color]
        if message.src not in table or message.hops < table[message.src]:
            table[message.src] = message.hops
        if self.decided or self._decision_pending:
            return
        if self.heard[TreeColor.RED] and self.heard[TreeColor.BLUE]:
            self._decision_pending = True
            self.schedule(self.config.timing.role_decision_delay, self._decide)

    def _parent_candidates(self) -> Dict[int, int]:
        return self.heard[self.color] if self.color is not None else {}

    def _repick_parent(self) -> None:
        """Re-parent after the current parent was blacklisted."""
        assert self.color is not None
        own_heard = self.heard[self.color]
        if own_heard:
            self.parent = min(own_heard, key=lambda a: (own_heard[a], a))
            self.hops = own_heard[self.parent] + 1
        else:
            self.parent = None  # orphaned: this subtree's data is lost

    def _decide(self) -> None:
        if self.decided:
            return
        self.decided = True
        n_red = len(self.heard[TreeColor.RED])
        n_blue = len(self.heard[TreeColor.BLUE])
        p_red, p_blue = role_probabilities(
            n_red,
            n_blue,
            mode=self.config.role_mode,
            budget=self.config.aggregator_budget,
        )
        draw = float(self.rng.random())
        if draw < p_red:
            color = TreeColor.RED
        elif draw < p_red + p_blue:
            color = TreeColor.BLUE
        else:
            color = None
        # A neighbour blacklisted while the decision was pending may
        # have been this node's only aggregator of the drawn colour;
        # with no parent to join, the node stays a leaf.
        if color is not None and self.heard[color]:
            self._join(color)
        else:
            self.color = None

    def _join(self, color: TreeColor) -> None:
        """Become a ``color`` aggregator: pick a parent, announce, report."""
        self.color = color
        own_heard = self.heard[color]
        self.parent = min(own_heard, key=lambda a: (own_heard[a], a))
        self.hops = own_heard[self.parent] + 1
        self.assemblers[color] = SliceAssembler(self.id)
        self.send(
            HelloMessage(
                src=self.id,
                dst=BROADCAST,
                color=color,
                hops=self.hops,
                round_id=self.round_id,
            )
        )
        # Single-round mode reports in this round's Phase III; the
        # epoched session schedules every epoch's reports itself.
        if self.auto_report:
            self._schedule_report(phase3_start(self.timing))

    # ------------------------------------------------------------------
    # Phase II: slicing and assembling
    # ------------------------------------------------------------------
    def begin_slicing(self) -> None:
        """Called at the start of the slicing window by the runner."""
        if not self.contributes:
            return
        candidates = {
            color: self._slice_candidates(color)
            for color in (TreeColor.RED, TreeColor.BLUE)
        }
        try:
            plans = plan_slices(
                self.id,
                self.reading,
                own_color=self.color,
                red_candidates=sorted(candidates[TreeColor.RED]),
                blue_candidates=sorted(candidates[TreeColor.BLUE]),
                pieces=self.config.slices,
                rng=self.rng,
                magnitude=self.magnitude,
            )
        except ProtocolError:
            return  # not enough aggregators in range: sit out (factor (b))
        self.participant = True
        window = 0.9 * self.config.timing.slicing_window
        for color, plan in plans.items():
            if plan.kept is not None:
                self.assemblers[color].keep(plan.kept)
        # Pre-assign sequence numbers in predicted fire order and seal
        # the whole two-colour fan-out in one batched cipher pass —
        # byte-identical to sealing lazily per send (the messages
        # themselves are still built at fire time, keeping frame-id
        # allocation order untouched).
        planned = schedule_fanout(
            plans, window, self.rng, first_seq=self._slice_seq + 1
        )
        self._slice_seq += len(planned)
        ciphertexts = seal_batch(
            [entry.piece for entry in planned],
            [self.keys.link_key(self.id, entry.target) for entry in planned],
            [
                make_nonce(self.id, entry.target, self.round_id, entry.seq)
                for entry in planned
            ],
        )
        # One bound method shared by every slice timer of this fan-out.
        send_slice = self._send_slice
        for entry, ciphertext in zip(planned, ciphertexts):
            self.schedule(
                entry.delay,
                send_slice,
                entry.target,
                entry.piece,
                entry.color,
                1,
                None,
                entry.seq,
                ciphertext,
            )

    def _slice_candidates(self, color: TreeColor) -> Set[int]:
        assert self.keys is not None
        out = set()
        for aggregator in self.heard[color]:
            if aggregator == self.id:
                continue
            if self.keys.can_communicate(self.id, aggregator):
                out.add(aggregator)
        return out

    def _send_slice(
        self,
        target: int,
        piece: int,
        color: TreeColor,
        attempt: int,
        message: Optional[SliceMessage] = None,
        seq: Optional[int] = None,
        ciphertext: Optional[bytes] = None,
    ) -> None:
        """Transmit one slice piece, arming the ACK timer in robust mode.

        ``seq``/``ciphertext``, when given, were pre-assigned and
        batch-sealed by :meth:`begin_slicing`; the lazy per-send path
        below produces the same bytes and is kept for direct callers.

        Resends reuse the frame (stable ``frame_id``, so the receiver's
        dedup and a late ACK still match) and always address the
        original target: a silent target may still have received the
        piece, and scattering it to a second aggregator would double it
        into the tree sum.
        """
        assert self.keys is not None
        if message is None:
            if seq is None:
                self._slice_seq += 1
                seq = self._slice_seq
            if ciphertext is None:
                nonce = make_nonce(self.id, target, self.round_id, seq)
                key = self.keys.link_key(self.id, target)
                ciphertext = seal(piece, key, nonce)
            message = SliceMessage(
                src=self.id,
                dst=target,
                round_id=self.round_id,
                color=color,
                seq=seq,
                ciphertext=ciphertext,
            )
        self.send(message)
        if self.robust is None:
            return
        frame_id = message.frame_id
        timer = self.schedule(
            self.robust.slice_ack_timeout, self._slice_timeout, frame_id
        )
        self._pending[frame_id] = _PendingSend(
            message=message,
            attempt=attempt,
            tried={target},
            timer=timer,
            piece=piece,
        )

    def _slice_timeout(self, frame_id: int) -> None:
        """No ACK in time: back off and resend the same frame, or give up."""
        robust = self.robust
        state = self._pending.pop(frame_id, None)
        if state is None or robust is None:
            return
        if state.attempt >= robust.slice_retry_limit:
            return  # retries exhausted; this piece is lost
        message = state.message
        assert isinstance(message, SliceMessage)
        color = message.color
        assert color is not None
        self.retries_used += 1
        self.schedule(
            self._backoff(state.attempt),
            self._send_slice,
            message.dst,
            state.piece,
            color,
            state.attempt + 1,
            message,
        )

    def _handle_slice(self, message: SliceMessage) -> None:
        if message.color is None:
            raise ProtocolError("slice without a colour tag")
        assembler = self.assemblers.get(message.color)
        if assembler is None:
            return  # stray slice for a tree we are not on; drop it
        if self.robust is not None:
            dedup = (message.src, message.seq)
            if dedup in self._seen_slices:
                self._ack(message)  # our earlier ACK was lost; repeat it
                return
            self._seen_slices.add(dedup)
            self._ack(message)
        assert self.keys is not None
        key = self.keys.link_key(message.src, self.id)
        nonce = make_nonce(message.src, self.id, message.round_id, message.seq)
        assembler.receive(
            message.src, open_sealed(message.ciphertext, key, nonce)
        )

    # ------------------------------------------------------------------
    # Phase III: convergecast along the coloured trees
    # ------------------------------------------------------------------
    def _report_payload(self) -> Tuple[int, int]:
        assert self.color is not None
        assembler = self.assemblers[self.color]
        assembled = assembler.assembled_value()
        value = assembled + self.child_sum[self.color] + self.pollution_offset
        if self.robust is not None:
            # Cumulative piece count: what loss-aware verification sums.
            return value, assembler.piece_count + self.child_pieces[self.color]
        return value, assembler.received_count

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if message.color is None:
            raise ProtocolError("iPDA aggregate must carry a colour")
        if message.color is not self.color:
            self.mismatched_aggregates += 1
            return
        self._merge(message)

    def _merge(self, message: AggregateMessage) -> bool:
        """Fold a child's report into its tree's sums; False if dropped."""
        if self.robust is not None:
            if not self._admit_report(message):
                return False
            self.child_pieces[message.color] += message.contributor_count
            self._forward_late(message)
        self.child_sum[message.color] += message.value
        return True

    # ------------------------------------------------------------------
    # Introspection used by the runner
    # ------------------------------------------------------------------
    @property
    def is_covered(self) -> bool:
        """Heard at least one aggregator of each colour."""
        return bool(self.heard[TreeColor.RED] and self.heard[TreeColor.BLUE])


class _TwoFacedNode(_IpdaNode):
    """The Section III-B adversary: announces itself on *both* trees.

    It elects red internally (so it aggregates somewhere) but also
    broadcasts a blue HELLO, hoping to become a parent on both trees
    and defeat the disjointness redundancy.  Honest neighbours hear the
    contradictory HELLOs and blacklist it.
    """

    def _decide(self) -> None:
        if self.decided:
            return
        self.decided = True
        if not self.heard[TreeColor.RED] or not self.heard[TreeColor.BLUE]:
            return
        self._join(TreeColor.RED)
        self.assemblers[TreeColor.BLUE] = SliceAssembler(self.id)
        self.send(
            HelloMessage(
                src=self.id,
                dst=BROADCAST,
                color=TreeColor.BLUE,
                hops=self.hops,
                round_id=self.round_id,
            )
        )


class _IpdaBaseStation(_IpdaNode):
    """Root of both trees: floods the twin HELLOs, verifies the results."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.decided = True
        self.assemblers = {
            color: SliceAssembler(node_id) for color in self.colors
        }
        #: when the last partial result arrived — the round's latency.
        self.last_result_time = 0.0

    def start(self) -> None:
        for color in self.colors:
            self.send(
                HelloMessage(
                    src=self.id,
                    dst=BROADCAST,
                    color=color,
                    hops=0,
                    round_id=self.round_id,
                )
            )

    def _handle_hello(self, message: HelloMessage) -> None:
        return  # the root never re-parents or re-elects

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if message.color is None:
            raise ProtocolError("iPDA aggregate must carry a colour")
        if self._merge(message):
            self.last_result_time = self.now

    def tree_sum(self, color: TreeColor) -> int:
        """``S_color``: assembled slices at the root plus child results."""
        return self.assemblers[color].assembled_value() + self.child_sum[color]

    def tree_pieces(self, color: TreeColor) -> int:
        """Slice pieces accounted for on one tree (robust mode only)."""
        return self.assemblers[color].piece_count + self.child_pieces[color]


class IpdaProtocol(AggregationProtocol):
    """Runner for iPDA rounds over the full radio stack."""

    name = "ipda"

    def __init__(
        self,
        config: Optional[IpdaConfig] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
        keep_frames: bool = False,
    ):
        self.config = config if config is not None else IpdaConfig()
        self.key_scheme_factory = key_scheme_factory
        self.radio_config = radio_config
        self.mac_config = mac_config
        self.base_station = base_station
        #: retain the full frame log in the outcome's stats — the
        #: capture surface for the radio-level eavesdropping attack.
        self.keep_frames = keep_frames

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        polluters: Optional[Mapping[int, int]] = None,
        failures: Optional[Mapping[int, float]] = None,
        two_faced: Optional[Set[int]] = None,
        fault_plan=None,
    ) -> IpdaOutcome:
        """Run one iPDA round.

        ``failures`` maps node ids to fail-stop times (simulated
        seconds): the node goes silent at that instant — the crash
        injection used by the robustness tests.  ``fault_plan`` is the
        declarative alternative (a :class:`repro.faults.FaultPlan`):
        crashes with optional recovery plus Gilbert–Elliott burst loss,
        injected by the network's fault injector.  ``two_faced`` marks
        nodes running the both-colours HELLO attack of Section III-B.
        """
        validate_readings(topology, readings, self.base_station)
        keys = self.key_scheme_factory(topology.node_count)
        magnitude = self.config.effective_magnitude(readings.values())
        pollution = dict(polluters) if polluters else {}

        adversaries = set(two_faced) if two_faced else set()
        if self.base_station in adversaries:
            raise ProtocolError("the base station cannot be the adversary")

        def factory(node_id: int, network: Network) -> Node:
            if node_id == self.base_station:
                cls = _IpdaBaseStation
            elif node_id in adversaries:
                cls = _TwoFacedNode
            else:
                cls = _IpdaNode
            node = cls(node_id, network)
            node.config = self.config
            node.keys = keys
            node.round_id = round_id
            node.magnitude = magnitude
            node.base_station = self.base_station
            node.reading = int(readings.get(node_id, 0))
            node.contributes = node_id != self.base_station and (
                contributors is None or node_id in contributors
            )
            node.pollution_offset = int(pollution.get(node_id, 0))
            return node

        network = Network(
            topology,
            factory,
            streams=streams.spawn("ipda", round_id),
            radio_config=self.radio_config,
            mac_config=self.mac_config,
            keep_frames=self.keep_frames,
            fault_plan=fault_plan,
        )
        root = network.node(self.base_station)
        assert isinstance(root, _IpdaBaseStation)

        timing = self.config.timing
        root.start()
        _schedule_slicing(network, self.base_station, timing)
        if failures:
            for node_id, when in failures.items():
                network.engine.schedule_at(
                    float(when), network.kill_node, node_id
                )
        network.run(until=round_horizon(timing))
        network.run()  # drain MAC backoff and protocol-retry tails

        s_red = root.tree_sum(TreeColor.RED)
        s_blue = root.tree_sum(TreeColor.BLUE)

        participants, covered = _round_membership(network, self.base_station)
        colors = [node.color for node in network.iter_nodes()]
        red_aggs = colors.count(TreeColor.RED)
        blue_aggs = colors.count(TreeColor.BLUE)

        verification = _verify_round(
            self.config, root, s_red, s_blue, participants, magnitude
        )
        reported = verification.report_value
        retries_used = sum(node.retries_used for node in network.iter_nodes())
        reparent_count = sum(
            node.reparent_count for node in network.iter_nodes()
        )
        return IpdaOutcome(
            protocol=self.name,
            round_id=round_id,
            reported=reported,
            true_total=sum(int(v) for v in readings.values()),
            participant_total=sum(int(readings[i]) for i in participants),
            participants=participants,
            bytes_sent=network.trace.total_bytes_sent,
            frames_sent=network.trace.total_frames_sent,
            s_red=s_red,
            s_blue=s_blue,
            verification=verification,
            covered=covered,
            stats={
                "sensor_count": topology.node_count - 1,
                "red_aggregators": red_aggs,
                "blue_aggregators": blue_aggs,
                "adversary_blacklisted_by": sum(
                    1
                    for node in network.iter_nodes()
                    if isinstance(node, _IpdaNode) and node.blacklist
                ),
                "slices": self.config.slices,
                "magnitude": magnitude,
                "retries_used": retries_used,
                "reparent_count": reparent_count,
                "depth_overflow": count_depth_overflow(network.iter_nodes()),
                "loss_rate": network.trace.loss_rate(),
                "sent_bytes_by_node": dict(network.trace.sent_bytes_by_node),
                "latency": root.last_result_time,
                "trace": network.trace.summary(),
                "frames": network.trace.frames if self.keep_frames else None,
            },
        )


def _verify_round(
    config: IpdaConfig,
    root: _IpdaBaseStation,
    s_red: int,
    s_blue: int,
    participants: Set[int],
    magnitude: int,
) -> VerificationResult:
    """The base station's verdict: the bare two-way test, or the
    loss-tolerant three-way one.

    With ``config.robustness`` set and degradation enabled, the piece
    counts the robust reports carried scale the acceptance threshold,
    so one-shot rounds and epochs on standing trees get the same
    accept/degrade/reject classification.
    """
    checker = IntegrityChecker(config.threshold)
    robustness = config.robustness
    if robustness is None or not robustness.degradation:
        return checker.verify(s_red, s_blue)
    slack = robustness.piece_slack
    if slack is None:
        # Random pieces stay within +-magnitude but the final piece of
        # an l-cut reaches |reading| + (l-1)*magnitude
        # <= (l - 1/2)*magnitude, so scale with l beyond 2.
        slack = magnitude * max(2, config.slices)
    return checker.verify(
        s_red,
        s_blue,
        pieces_red=root.tree_pieces(TreeColor.RED),
        pieces_blue=root.tree_pieces(TreeColor.BLUE),
        expected_pieces=len(participants) * config.slices,
        policy=DegradationPolicy(
            piece_slack=slack,
            max_missing_fraction=robustness.max_missing_fraction,
        ),
    )


def _round_membership(
    network: Network, base_station: int
) -> Tuple[Set[int], Set[int]]:
    """The round's ``(participants, covered)`` sensor id sets."""
    sensors = [
        node
        for node in network.iter_nodes()
        if isinstance(node, _IpdaNode) and node.id != base_station
    ]
    participants = {node.id for node in sensors if node.participant}
    covered = {node.id for node in sensors if node.is_covered}
    return participants, covered


def _schedule_slicing(network: Network, base_station: int, timing) -> None:
    """Start every sensor's Phase II when the tree window closes.

    Armed on the engine, not through :meth:`Node.schedule`, so a sensor
    that crashed during Phase I still runs ``begin_slicing``; only its
    sends are silenced (by :meth:`Node.send`).
    """
    engine = network.engine
    when = timing.tree_construction_window
    for node in network.iter_nodes():
        if node.id != base_station:
            engine.schedule_at(when, node.begin_slicing)
