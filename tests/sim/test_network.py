"""Tests for the Network container and Node runtime."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.topology import grid_deployment
from repro.sim.messages import BROADCAST, HelloMessage, Message
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import DropReason


class Recorder(Node):
    """Node that records everything it hears."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []
        self.overheard = []

    def on_receive(self, message: Message) -> None:
        self.received.append(message)

    def on_overhear(self, message: Message) -> None:
        self.overheard.append(message)


def make_network(**kwargs):
    topology = grid_deployment(1, 4, spacing=40.0, radio_range=50.0)
    return Network(topology, Recorder, **kwargs)


class TestWiring:
    def test_nodes_created_for_every_id(self):
        net = make_network()
        assert sorted(net.nodes) == [0, 1, 2, 3]
        assert all(isinstance(n, Recorder) for n in net.iter_nodes())

    def test_unknown_node_raises(self):
        net = make_network()
        with pytest.raises(SimulationError):
            net.node(42)

    def test_mac_instances_cached(self):
        net = make_network()
        assert net.mac(1) is net.mac(1)

    def test_node_rng_streams_distinct_and_cached(self):
        net = make_network()
        assert net.node_rng(1) is net.node_rng(1)
        assert net.node_rng(1) is not net.node_rng(2)

    def test_default_factory_builds_base_nodes(self):
        topology = grid_deployment(1, 3, spacing=40.0, radio_range=50.0)
        net = Network(topology)
        assert type(net.node(0)) is Node


class TestMessaging:
    def test_broadcast_dispatches_to_on_receive(self):
        net = make_network()
        net.node(1).send(HelloMessage(src=1, dst=BROADCAST))
        net.run()
        assert len(net.node(0).received) == 1
        assert len(net.node(2).received) == 1
        assert len(net.node(3).received) == 0  # out of range

    def test_unicast_overheard_by_bystanders(self):
        net = make_network()
        net.node(1).send(HelloMessage(src=1, dst=0))
        net.run()
        assert len(net.node(0).received) == 1
        assert len(net.node(2).overheard) == 1

    def test_dead_node_neither_sends_nor_receives(self):
        net = make_network()
        net.node(2).kill()
        net.node(2).send(HelloMessage(src=2, dst=BROADCAST))
        net.node(1).send(HelloMessage(src=1, dst=BROADCAST))
        net.run()
        assert net.trace.sent_by_node[2] == 0
        assert net.node(2).received == []

    def test_node_kill_drops_as_receiver_dead_until_revive(self):
        # Node.kill() alone (not Network.kill_node) must reach the
        # radio's liveness mask.
        net = make_network()
        net.node(2).kill()
        assert net.dead_count == 1
        assert not net.alive[2]
        net.node(1).send(HelloMessage(src=1, dst=BROADCAST))
        net.run()
        assert net.trace.dropped_by_link[(1, 2)] == {
            DropReason.RECEIVER_DEAD: 1
        }
        assert net.node(2).received == []
        assert len(net.node(0).received) == 1

        net.node(2).revive()
        assert net.dead_count == 0
        assert net.alive.all()
        net.node(1).send(HelloMessage(src=1, dst=BROADCAST))
        net.run()
        assert len(net.node(2).received) == 1
        assert net.trace.dropped_count[DropReason.RECEIVER_DEAD] == 1

    def test_kill_and_revive_are_idempotent(self):
        net = make_network()
        net.node(2).kill()
        net.node(2).kill()
        assert net.dead_count == 1
        net.node(2).revive()
        net.node(2).revive()
        assert net.dead_count == 0

    def test_overhearers_get_every_unicast_and_trace_is_unchanged(self):
        def run(factory):
            topology = grid_deployment(2, 3, spacing=40.0, radio_range=60.0)
            net = Network(topology, factory, seed=3, keep_frames=True)
            for node in net.iter_nodes():
                for dst in sorted(node.neighbors()):
                    node.send(HelloMessage(src=node.id, dst=dst))
            net.run()
            frames = [
                (f.src, f.dst, f.delivered_to, f.dropped_at)
                for f in net.trace.frames
            ]
            return net, frames, net.trace.summary()

        recorded, recorded_frames, recorded_summary = run(Recorder)
        plain, plain_frames, plain_summary = run(None)
        assert recorded_frames == plain_frames
        assert recorded_summary == plain_summary
        assert recorded.engine.now == plain.engine.now
        # Every decoded reception of a unicast by a bystander reached
        # its on_overhear hook.
        heard = {}
        for frame in recorded.trace.frames:
            lost = {receiver for receiver, _reason in frame.dropped_at}
            for receiver in recorded.topology.neighbors(frame.src):
                if receiver != frame.dst and receiver not in lost:
                    heard[receiver] = heard.get(receiver, 0) + 1
        assert heard
        for node in recorded.iter_nodes():
            assert len(node.overheard) == heard.get(node.id, 0)

    def test_dead_node_timers_suppressed(self):
        net = make_network()
        fired = []
        node = net.node(1)
        node.schedule(1.0, lambda: fired.append("x"))
        node.kill()
        net.run()
        assert fired == []

    def test_node_timers_fire(self):
        net = make_network()
        fired = []
        net.node(1).schedule(0.5, lambda: fired.append(net.engine.now))
        net.run()
        assert fired == [0.5]

    def test_node_timer_args_skipped_while_dead_then_fire_after_revive(self):
        net = make_network()
        fired = []
        node = net.node(1)

        def note(label, value):
            fired.append((label, value, net.engine.now))

        node.schedule(1.0, note, "while-dead", 1)
        node.schedule_at(2.0, note, "at-while-dead", 2)
        net.engine.schedule(0.5, node.kill)
        net.engine.schedule(2.5, node.revive)
        node.schedule(3.0, note, "after-revive", 3)
        node.schedule_at(4.0, note, "at-after-revive", 4)
        net.run()
        assert fired == [
            ("after-revive", 3, 3.0),
            ("at-after-revive", 4, 4.0),
        ]

    def test_neighbors_accessor(self):
        net = make_network()
        assert net.node(1).neighbors() == frozenset({0, 2})

    def test_repr_smoke(self):
        assert "Network" in repr(make_network())


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def run(seed):
            net = make_network(seed=seed)
            for node in net.iter_nodes():
                node.send(HelloMessage(src=node.id, dst=BROADCAST))
            net.run()
            return (
                net.trace.total_frames_sent,
                dict(net.trace.delivered_count),
                dict(net.trace.dropped_count),
                net.engine.now,
            )

        assert run(7) == run(7)

    def test_different_seeds_may_differ_in_timing(self):
        def end_time(seed):
            net = make_network(seed=seed)
            net.node(1).send(HelloMessage(src=1, dst=BROADCAST))
            net.run()
            return net.engine.now

        assert end_time(1) != end_time(2)
