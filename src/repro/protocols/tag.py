"""TAG: Tiny AGgregation (Madden et al., OSDI'02) — the paper's baseline.

A single spanning tree rooted at the base station is built by a HELLO
flood (first HELLO heard wins as parent); aggregation then runs as a
depth-scheduled convergecast — nodes at hop ``h`` transmit their
partial sum in the epoch slot for depth ``h``, deepest first, exactly
as TAG divides its epoch.  No privacy, no integrity: each node sends
two frames per query (HELLO + partial result), the 2-message budget
Figure 4(a) shows.  The flood, the schedule and the report path are the
shared ones of :mod:`repro.protocols.convergecast`; phase timing is
:class:`~repro.core.config.TimingConfig`'s defaults.

Loss tolerance (``robustness=``, opt-in, mirroring iPDA's): partial
results become end-to-end acknowledged with bounded retransmissions
under jittered backoff; on exhausting the per-parent retry budget a
node fails over to the next strictly-shallower parent candidate it
heard during the HELLO flood.  Each partial result carries the node
ids it covers so merge points can drop re-delivered subtrees (an ACK
lost after delivery otherwise double-counts the whole branch).  The
default remains TAG's classic fire-and-forget convergecast.
"""

from __future__ import annotations

from typing import Mapping, Optional, Set, Tuple

from ..core.config import RobustnessConfig
from ..net.topology import Topology
from ..rng import RngStreams
from ..sim.mac import MacConfig
from ..sim.messages import AckMessage, AggregateMessage, HelloMessage, Message
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from .base import AggregationProtocol, RoundOutcome, validate_readings
from .convergecast import SingleTreeNode, count_depth_overflow, round_horizon

__all__ = ["TagProtocol"]


class _TagNode(SingleTreeNode):
    """A sensor running TAG."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.reading = 0
        self.contributes = False
        self.child_sum = 0
        self.child_count = 0

    def on_receive(self, message: Message) -> None:
        if isinstance(message, HelloMessage):
            self._handle_hello(message)
        elif isinstance(message, AggregateMessage):
            self._handle_aggregate(message)
        elif isinstance(message, AckMessage):
            self._handle_ack(message)

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if self.robust is not None and not self._admit_report(message):
            return
        self.child_sum += message.value
        self.child_count += message.contributor_count
        if self.robust is not None:
            self._forward_late(message)

    def _own_share(self) -> Tuple[int, int]:
        """This node's own ``(value, count)`` before its children's."""
        if self.contributes:
            return self.reading, 1
        return 0, 0

    def _report_payload(self) -> Tuple[int, int]:
        value, count = self._own_share()
        return value + self.child_sum, count + self.child_count


class _TagBaseStation(_TagNode):
    """The root: floods the HELLO and keeps the final sums."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        #: when the last partial result arrived — the round's latency.
        self.last_result_time = 0.0

    def on_receive(self, message: Message) -> None:
        super().on_receive(message)
        if isinstance(message, AggregateMessage):
            self.last_result_time = self.now

    def start(self) -> None:
        self.hops = 0
        self._forward_hello()

    def _handle_hello(self, message: HelloMessage) -> None:
        return  # the root never re-parents

    @property
    def collected(self) -> int:
        return self._own_share()[0] + self.child_sum


class TagProtocol(AggregationProtocol):
    """Runner for TAG rounds over the full radio stack."""

    name = "tag"
    node_class = _TagNode
    root_class = _TagBaseStation

    def __init__(
        self,
        *,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
        robustness: Optional[RobustnessConfig] = None,
    ):
        self.radio_config = radio_config
        self.mac_config = mac_config
        self.base_station = base_station
        #: opt-in ACK'd convergecast; None keeps classic fire-and-forget.
        self.robustness = robustness

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        fault_plan=None,
    ) -> RoundOutcome:
        """Run one TAG round; ``fault_plan`` injects crashes/burst loss."""
        validate_readings(topology, readings, self.base_station)
        network = self._run_tree(
            topology,
            readings,
            streams=streams,
            round_id=round_id,
            contributors=contributors,
            fault_plan=fault_plan,
        )
        root = network.node(self.base_station)
        joined = {
            node.id
            for node in network.iter_nodes()
            if node.id != self.base_station and node.parent is not None
        }
        eligible = contributors if contributors is not None else set(readings)
        return self._outcome(
            network,
            readings,
            round_id,
            joined & set(eligible),
            tree_size=len(joined),
            contributor_count_reported=root.child_count,
            coverage=root.child_count / max(len(eligible), 1),
            retries_used=sum(node.retries_used for node in network.iter_nodes()),
            reparent_count=sum(
                node.reparent_count for node in network.iter_nodes()
            ),
            latency=root.last_result_time,
        )

    def _run_tree(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int,
        contributors: Optional[Set[int]],
        fault_plan=None,
        **node_state,
    ) -> Network:
        """Flood the tree and run the round to quiescence.

        ``node_state`` is set on every node before the round starts.
        """

        def factory(node_id: int, network: Network) -> Node:
            if node_id == self.base_station:
                node = self.root_class(node_id, network)
            else:
                node = self.node_class(node_id, network)
            node.robust = self.robustness
            node.round_id = round_id
            node.reading = int(readings.get(node_id, 0))
            node.contributes = node_id != self.base_station and (
                contributors is None or node_id in contributors
            )
            for name, value in node_state.items():
                setattr(node, name, value)
            return node

        network = Network(
            topology,
            factory,
            streams=streams.spawn(self.name, round_id),
            radio_config=self.radio_config,
            mac_config=self.mac_config,
            fault_plan=fault_plan,
        )
        network.node(self.base_station).start()
        self._before_run(network)
        nodes = self.node_class
        network.run(until=round_horizon(nodes.timing, sliced=nodes.sliced))
        network.run()  # drain any MAC backoff tails
        return network

    def _before_run(self, network: Network) -> None:
        """Arm anything between the flood and the convergecast."""

    def _outcome(
        self,
        network: Network,
        readings: Mapping[int, int],
        round_id: int,
        participants: Set[int],
        **stats,
    ) -> RoundOutcome:
        """The round's outcome, ``stats`` among the stats every
        single-tree round reports."""
        trace = network.trace
        return RoundOutcome(
            protocol=self.name,
            round_id=round_id,
            reported=network.node(self.base_station).collected,
            true_total=sum(int(v) for v in readings.values()),
            participant_total=sum(int(readings[i]) for i in participants),
            participants=participants,
            bytes_sent=trace.total_bytes_sent,
            frames_sent=trace.total_frames_sent,
            stats={
                "sensor_count": network.topology.node_count - 1,
                **stats,
                "depth_overflow": count_depth_overflow(network.iter_nodes()),
                "loss_rate": trace.loss_rate(),
                "sent_bytes_by_node": dict(trace.sent_bytes_by_node),
                "trace": trace.summary(),
            },
        )
