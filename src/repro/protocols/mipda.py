"""m-tree iPDA over the full radio stack (Section III-B's m > 2).

The logical m-tree pipeline lives in :mod:`repro.core.multitree`; this
module runs the same generalisation through the real simulator.  The
sensor is iPDA's node with four overrides: HELLO tables for m colours,
a uniform colour draw, m independent cuts per reading (``m*l - 1``
transmissions per aggregator), and coverage meaning "heard every
colour".  Slice sealing, sending and opening and the Phase III
convergecast are iPDA's own.  The base station floods one HELLO per
colour and majority-votes the m tree sums, which *tolerates* minority
pollution when m ≥ 3.

mIPDA runs fire-and-forget only: it has no ACK, retry or piece
accounting path, so a configuration with ``IpdaConfig.robustness`` set
is rejected.  It does not blacklist two-faced neighbours either.

With ``tree_count=2`` the behaviour coincides with
:class:`repro.protocols.ipda.IpdaProtocol` (modulo random draws), which
the tests cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.config import IpdaConfig
from ..core.multitree import MultiTreeVerification
from ..core.slicing import SliceAssembler, slice_value
from ..crypto.keys import PairwiseKeyScheme
from ..errors import ProtocolError
from ..net.topology import Topology
from ..rng import RngStreams
from ..sim.mac import MacConfig
from ..sim.messages import HelloMessage, TreeColor
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from .base import validate_readings
from .convergecast import count_depth_overflow, round_horizon
from .ipda import (
    _IpdaBaseStation,
    _IpdaNode,
    _round_membership,
    _schedule_slicing,
)

__all__ = ["MipdaOutcome", "MipdaProtocol"]


@dataclass
class MipdaOutcome:
    """One m-tree round's result."""

    round_id: int
    colors: Tuple[TreeColor, ...]
    sums: List[int]
    verification: MultiTreeVerification
    participants: Set[int] = field(default_factory=set)
    covered: Set[int] = field(default_factory=set)
    true_total: int = 0
    participant_total: int = 0
    bytes_sent: int = 0
    frames_sent: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """A strict majority of trees agrees."""
        return self.verification.accepted

    @property
    def reported(self) -> Optional[int]:
        """The majority value, or None without a majority."""
        if not self.verification.accepted:
            return None
        return self.verification.accepted_value

    @property
    def polluted_trees(self) -> List[TreeColor]:
        """Colours voted out of the majority."""
        return [self.colors[i] for i in self.verification.polluted_trees]


class _MipdaNode(_IpdaNode):
    """A sensor running m-tree iPDA."""

    def configure(self, colors: Tuple[TreeColor, ...]) -> None:
        """Install the colour palette before the round starts."""
        self.colors = colors
        self.heard = {color: {} for color in colors}
        self.child_sum = {color: 0 for color in colors}

    # -- Phase I ---------------------------------------------------------
    def _handle_hello(self, message: HelloMessage) -> None:
        if message.color is None or message.color not in self.heard:
            return
        table = self.heard[message.color]
        if message.src not in table or message.hops < table[message.src]:
            table[message.src] = message.hops
        if self.decided or self._decision_pending:
            return
        if all(self.heard[color] for color in self.colors):
            self._decision_pending = True
            self.schedule(
                self.config.timing.role_decision_delay, self._decide
            )

    def _decide(self) -> None:
        if self.decided:
            return
        self.decided = True
        index = int(self.rng.integers(0, len(self.colors)))
        self._join(self.colors[index])

    # -- Phase II ----------------------------------------------------------
    def begin_slicing(self) -> None:
        """Cut the reading m ways and scatter the pieces.

        Each piece is sealed when its timer fires (``_send_slice`` with
        no pre-assigned ``seq``), so sequence numbers follow fire order.
        """
        if not self.contributes:
            return
        candidate_lists: Dict[TreeColor, List[int]] = {}
        for color in self.colors:
            options = sorted(self._slice_candidates(color))
            needed = (
                self.config.slices - 1
                if color is self.color
                else self.config.slices
            )
            if len(options) < needed:
                return  # factor (b): sit out
            candidate_lists[color] = options
        self.participant = True
        window = 0.9 * self.config.timing.slicing_window
        for color in self.colors:
            cut = slice_value(
                self.reading,
                self.config.slices,
                self.rng,
                magnitude=self.magnitude,
            )
            if color is self.color:
                self.assemblers[color].keep(cut[0])
                pieces = cut[1:]
            else:
                pieces = cut
            options = candidate_lists[color]
            picked = self.rng.choice(
                len(options), size=len(pieces), replace=False
            )
            for piece, option_index in zip(pieces, sorted(picked)):
                target = options[int(option_index)]
                delay = float(self.rng.uniform(0.0, window))
                self.schedule(delay, self._send_slice, target, piece, color, 1)

    @property
    def is_covered(self) -> bool:
        """Heard at least one aggregator of every colour."""
        return all(self.heard[color] for color in self.colors)


class _MipdaBaseStation(_IpdaBaseStation, _MipdaNode):
    """Root of all m trees: iPDA's base station over the m-colour palette."""

    def configure(self, colors: Tuple[TreeColor, ...]) -> None:
        super().configure(colors)
        self.assemblers = {
            color: SliceAssembler(self.id) for color in colors
        }


class MipdaProtocol:
    """Runner for m-tree iPDA rounds over the full radio stack."""

    name = "mipda"

    def __init__(
        self,
        tree_count: int = 3,
        config: Optional[IpdaConfig] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
    ):
        self.colors = TreeColor.palette(tree_count)
        self.tree_count = tree_count
        self.config = config if config is not None else IpdaConfig()
        if self.config.robustness is not None:
            raise ProtocolError(
                "mIPDA is fire-and-forget only; "
                "IpdaConfig.robustness must be None"
            )
        self.key_scheme_factory = key_scheme_factory
        self.radio_config = radio_config
        self.mac_config = mac_config
        self.base_station = base_station

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        polluters: Optional[Mapping[int, int]] = None,
    ) -> MipdaOutcome:
        """Run one m-tree round and majority-verify the sums."""
        validate_readings(topology, readings, self.base_station)
        keys = self.key_scheme_factory(topology.node_count)
        magnitude = self.config.effective_magnitude(readings.values())
        pollution = dict(polluters) if polluters else {}

        def factory(node_id: int, network: Network) -> Node:
            cls = (
                _MipdaBaseStation
                if node_id == self.base_station
                else _MipdaNode
            )
            node = cls(node_id, network)
            node.config = self.config
            node.keys = keys
            node.round_id = round_id
            node.magnitude = magnitude
            node.base_station = self.base_station
            node.configure(self.colors)
            node.reading = int(readings.get(node_id, 0))
            node.contributes = node_id != self.base_station and (
                contributors is None or node_id in contributors
            )
            node.pollution_offset = int(pollution.get(node_id, 0))
            return node

        network = Network(
            topology,
            factory,
            streams=streams.spawn("mipda", self.tree_count, round_id),
            radio_config=self.radio_config,
            mac_config=self.mac_config,
        )
        root = network.node(self.base_station)
        assert isinstance(root, _MipdaBaseStation)
        timing = self.config.timing
        root.start()
        _schedule_slicing(network, self.base_station, timing)
        network.run(until=round_horizon(timing))
        network.run()

        sums = [root.tree_sum(color) for color in self.colors]
        verification = MultiTreeVerification(
            sums=sums, threshold=self.config.threshold
        )
        participants, covered = _round_membership(network, self.base_station)
        return MipdaOutcome(
            round_id=round_id,
            colors=self.colors,
            sums=sums,
            verification=verification,
            participants=participants,
            covered=covered,
            true_total=sum(int(v) for v in readings.values()),
            participant_total=sum(int(readings[i]) for i in participants),
            bytes_sent=network.trace.total_bytes_sent,
            frames_sent=network.trace.total_frames_sent,
            stats={
                "sensor_count": topology.node_count - 1,
                "aggregators_by_color": {
                    color.value: sum(
                        1
                        for node in network.iter_nodes()
                        if isinstance(node, _MipdaNode)
                        and node.color is color
                    )
                    for color in self.colors
                },
                "depth_overflow": count_depth_overflow(network.iter_nodes()),
                "loss_rate": network.trace.loss_rate(),
                "trace": network.trace.summary(),
            },
        )
