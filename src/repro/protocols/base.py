"""Common protocol interface and round outcome types.

Every aggregation protocol (TAG, PDA, iPDA, KIPDA) exposes the same
entry point — :meth:`AggregationProtocol.run_round` — taking a topology
and per-node readings and returning a :class:`RoundOutcome`.  The
experiment harness sweeps protocols interchangeably through this
interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set

from ..errors import ProtocolError
from ..net.topology import Topology
from ..rng import RngStreams

__all__ = ["RoundOutcome", "AggregationProtocol", "validate_readings"]


@dataclass
class RoundOutcome:
    """What one aggregation round produced.

    Attributes
    ----------
    protocol:
        Protocol name (``tag``, ``ipda``, ...).
    reported:
        The aggregate the base station reports, or None when it rejected
        the round (iPDA integrity failure) or received nothing.
    true_total:
        Ground-truth sum over *all* sensor readings — the denominator of
        the paper's accuracy metric (Section IV-B.3).
    participant_total:
        Ground-truth sum restricted to nodes that actually contributed
        (useful to attribute loss to non-participation vs. collisions).
    participants:
        Node ids that contributed their reading.
    stats:
        Free-form per-protocol extras (tree sums, byte counts, ...).
    """

    protocol: str
    round_id: int
    reported: Optional[int]
    true_total: int
    participant_total: int
    participants: Set[int] = field(default_factory=set)
    bytes_sent: int = 0
    frames_sent: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Collected / real ratio, the paper's accuracy metric.

        1.0 means no data loss; 0.0 means the round was rejected or the
        base station heard nothing.
        """
        if self.reported is None or self.true_total == 0:
            return 0.0
        return self.reported / self.true_total

    @property
    def participation_fraction(self) -> float:
        """Share of sensors that contributed (Figure 8(b) metric)."""
        total_sensors = self.stats.get("sensor_count")
        if not total_sensors:
            return 0.0
        return len(self.participants) / int(total_sensors)


class AggregationProtocol(ABC):
    """Interface every aggregation scheme implements."""

    #: protocol identifier used in outcome records and tables.
    name: str = "abstract"

    @abstractmethod
    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
    ) -> RoundOutcome:
        """Run one aggregation round and return its outcome.

        ``readings`` maps every sensor id (not the base station) to its
        integer reading.  ``contributors``, when given, restricts which
        sensors inject their own reading (they still route and
        aggregate) — the hook the polluter-localisation protocol uses.
        """


def validate_readings(
    topology: Topology, readings: Mapping[int, int], base_station: int
) -> None:
    """Sanity-check a readings map against a topology."""
    if base_station in readings:
        raise ProtocolError("the base station does not produce a reading")
    for node_id in readings:
        if not 0 <= node_id < topology.node_count:
            raise ProtocolError(f"reading for unknown node id {node_id}")
    expected = topology.node_count - 1
    if len(readings) != expected:
        raise ProtocolError(
            f"expected readings for all {expected} sensors, got {len(readings)}"
        )
