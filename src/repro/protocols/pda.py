"""PDA / SMART-style slicing-only aggregation (the paper's ref [11]).

The predecessor scheme iPDA tailors its slicing from: readings are cut
into ``l`` encrypted pieces scattered to neighbours, then a *single*
spanning tree aggregates the assembled values.  Privacy matches iPDA's
slicing, but there is no redundancy — a polluter on the lone tree is
undetectable.  Implemented here as an ablation baseline so the
benchmarks can separate the cost of privacy (slicing) from the cost of
integrity (the second tree).

PDA is TAG with a slicing phase in between: its nodes subclass TAG's,
keeping the HELLO flood and the convergecast, and report their
assembled slices instead of their reading.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Set, Tuple

from ..core.slicing import SliceAssembler, slice_value
from ..crypto.envelope import make_nonce, open_sealed, seal
from ..crypto.keys import KeyManagementScheme, PairwiseKeyScheme
from ..errors import ProtocolError
from ..net.topology import Topology
from ..rng import RngStreams
from ..sim.mac import MacConfig
from ..sim.messages import Message, SliceMessage, TreeColor
from ..sim.network import Network
from ..sim.radio import RadioConfig
from .base import RoundOutcome, validate_readings
from .ipda import _schedule_slicing
from .tag import TagProtocol, _TagBaseStation, _TagNode

__all__ = ["PdaParams", "PdaProtocol"]


@dataclass
class PdaParams:
    """Slicing knobs for PDA rounds; timing is TAG's."""

    slices: int = 2
    magnitude: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ProtocolError("slices must be >= 1")


class _PdaNode(_TagNode):
    """A sensor running slicing-only PDA."""

    color = TreeColor.RED  # single logical tree
    sliced = True

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.params = PdaParams()
        self.keys: Optional[KeyManagementScheme] = None
        self.assembler = SliceAssembler(node_id)
        self.participant = False
        self._slice_seq = 0

    def on_receive(self, message: Message) -> None:
        if isinstance(message, SliceMessage):
            assert self.keys is not None
            key = self.keys.link_key(message.src, self.id)
            nonce = make_nonce(message.src, self.id, message.round_id, message.seq)
            self.assembler.receive(
                message.src, open_sealed(message.ciphertext, key, nonce)
            )
        else:
            super().on_receive(message)

    def _own_share(self) -> Tuple[int, int]:
        return self.assembler.assembled_value(), 0

    # -- slicing ---------------------------------------------------------
    def begin_slicing(self) -> None:
        if not self.contributes or self.parent is None:
            return
        assert self.keys is not None
        candidates = sorted(
            nbr
            for nbr in self.neighbors()
            if self.keys.can_communicate(self.id, nbr)
        )
        remote_needed = self.params.slices - 1
        if len(candidates) < remote_needed:
            return
        self.participant = True
        magnitude = self.params.magnitude or max(4, 2 * abs(self.reading))
        pieces = slice_value(
            self.reading, self.params.slices, self.rng, magnitude=magnitude
        )
        self.assembler.keep(pieces[0])
        if remote_needed == 0:
            return
        picked = self.rng.choice(len(candidates), size=remote_needed, replace=False)
        targets = [candidates[int(i)] for i in sorted(picked)]
        window = 0.9 * self.timing.slicing_window
        for target, piece in zip(targets, pieces[1:]):
            delay = float(self.rng.uniform(0.0, window))
            self.schedule(delay, self._send_slice, target, piece)

    def _send_slice(self, target: int, piece: int) -> None:
        assert self.keys is not None
        self._slice_seq += 1
        seq = self._slice_seq
        nonce = make_nonce(self.id, target, self.round_id, seq)
        key = self.keys.link_key(self.id, target)
        self.send(
            SliceMessage(
                src=self.id,
                dst=target,
                round_id=self.round_id,
                color=self.color,
                seq=seq,
                ciphertext=seal(piece, key, nonce),
            )
        )


class _PdaBaseStation(_PdaNode, _TagBaseStation):
    """Root of the single tree."""


class PdaProtocol(TagProtocol):
    """Runner for slicing-only PDA rounds."""

    name = "pda"
    node_class = _PdaNode
    root_class = _PdaBaseStation

    def __init__(
        self,
        params: Optional[PdaParams] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
    ):
        super().__init__(
            radio_config=radio_config,
            mac_config=mac_config,
            base_station=base_station,
        )
        self.params = params if params is not None else PdaParams()
        self.key_scheme_factory = key_scheme_factory

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
    ) -> RoundOutcome:
        validate_readings(topology, readings, self.base_station)
        magnitude = self.params.magnitude or max(
            4, 2 * max((abs(int(v)) for v in readings.values()), default=0)
        )
        network = self._run_tree(
            topology,
            readings,
            streams=streams,
            round_id=round_id,
            contributors=contributors,
            keys=self.key_scheme_factory(topology.node_count),
            params=replace(self.params, magnitude=magnitude),
        )
        participants = {
            node.id
            for node in network.iter_nodes()
            if node.id != self.base_station and node.participant
        }
        return self._outcome(
            network, readings, round_id, participants, slices=self.params.slices
        )

    def _before_run(self, network: Network) -> None:
        _schedule_slicing(network, self.base_station, self.node_class.timing)
