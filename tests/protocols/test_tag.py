"""Tests for the TAG baseline protocol."""

from __future__ import annotations

import pytest

from repro import RngStreams
from repro.errors import ProtocolError
from repro.net.topology import grid_deployment, random_deployment
from repro.protocols.tag import TagProtocol
from repro.sim.radio import RadioConfig


@pytest.fixture
def dense():
    topology = random_deployment(150, area=250.0, seed=2)
    readings = {i: 2 + (i % 5) for i in range(1, topology.node_count)}
    return topology, readings


class TestRound:
    def test_perfect_channel_collects_everything(self, dense):
        topology, readings = dense
        outcome = TagProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(1))
        assert outcome.reported == sum(readings.values())
        assert outcome.accuracy == pytest.approx(1.0)

    def test_realistic_channel_close_to_truth(self, dense):
        topology, readings = dense
        outcome = TagProtocol().run_round(
            topology, readings, streams=RngStreams(1)
        )
        assert outcome.accuracy > 0.9

    def test_line_topology_exact(self, line_topology):
        readings = {i: 10 for i in range(1, 5)}
        outcome = TagProtocol().run_round(
            line_topology, readings, streams=RngStreams(3)
        )
        assert outcome.reported == 40
        assert outcome.participants == {1, 2, 3, 4}

    def test_two_messages_per_node(self, dense):
        topology, readings = dense
        outcome = TagProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(4))
        # HELLO + result per node (+1 for the root's HELLO-only budget).
        per_node = outcome.frames_sent / topology.node_count
        assert per_node == pytest.approx(2.0, abs=0.1)

    def test_contributors_restriction(self, dense):
        topology, readings = dense
        subset = set(list(readings)[:30])
        outcome = TagProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(
            topology, readings, streams=RngStreams(5), contributors=subset
        )
        assert outcome.reported == sum(readings[i] for i in subset)
        assert outcome.participants <= subset

    def test_contributor_count_travels(self, dense):
        topology, readings = dense
        outcome = TagProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(6))
        assert outcome.stats["contributor_count_reported"] == len(
            outcome.participants
        )

    def test_disconnected_node_missing_from_sum(self):
        from repro.net.geometry import Point
        from repro.net.topology import Topology

        topology = Topology(
            positions=[Point(0, 0), Point(40, 0), Point(500, 0)],
            radio_range=50.0,
        )
        readings = {1: 5, 2: 7}
        outcome = TagProtocol().run_round(
            topology, readings, streams=RngStreams(7)
        )
        assert outcome.reported == 5
        assert outcome.participants == {1}
        assert outcome.accuracy == pytest.approx(5 / 12)

    def test_deterministic(self, dense):
        topology, readings = dense
        a = TagProtocol().run_round(topology, readings, streams=RngStreams(8))
        b = TagProtocol().run_round(topology, readings, streams=RngStreams(8))
        assert a.reported == b.reported
        assert a.bytes_sent == b.bytes_sent

    def test_round_ids_decorrelate(self, dense):
        topology, readings = dense
        a = TagProtocol().run_round(
            topology, readings, streams=RngStreams(8), round_id=0
        )
        b = TagProtocol().run_round(
            topology, readings, streams=RngStreams(8), round_id=1
        )
        # Different rounds draw different MAC timings, visible in the
        # collision record even when both rounds collect everything.
        assert (
            a.stats["trace"]["drops_by_reason"]
            != b.stats["trace"]["drops_by_reason"]
        )

    def test_validates_readings(self, dense):
        topology, readings = dense
        bad = dict(readings)
        bad[0] = 1
        with pytest.raises(ProtocolError):
            TagProtocol().run_round(topology, bad, streams=RngStreams(1))
        with pytest.raises(ProtocolError):
            TagProtocol().run_round(topology, {1: 1}, streams=RngStreams(1))

