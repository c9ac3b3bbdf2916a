"""Tests for the full event-driven iPDA protocol."""

from __future__ import annotations

import pytest

import repro.protocols.ipda as ipda_module
from repro import IpdaConfig, RngStreams
from repro.crypto.keys import (
    GlobalKeyScheme,
    PairwiseKeyScheme,
    RandomPredistributionScheme,
)
from repro.errors import ProtocolError
from repro.net.topology import grid_deployment, random_deployment
from repro.protocols.ipda import IpdaProtocol, _IpdaNode
from repro.protocols.tag import TagProtocol
from repro.sim.messages import BROADCAST, HelloMessage, TreeColor
from repro.sim.network import Network
from repro.sim.radio import RadioConfig


@pytest.fixture(scope="module")
def dense():
    topology = random_deployment(200, area=300.0, seed=13)
    readings = {i: 1 + (i % 4) for i in range(1, topology.node_count)}
    return topology, readings


@pytest.fixture(scope="module")
def clean_outcome(dense):
    topology, readings = dense
    return IpdaProtocol().run_round(topology, readings, streams=RngStreams(2))


class TestHappyPath:
    def test_trees_agree(self, clean_outcome):
        assert clean_outcome.s_red == clean_outcome.s_blue

    def test_round_accepted(self, clean_outcome):
        assert clean_outcome.accepted
        assert clean_outcome.reported is not None

    def test_collected_equals_participant_total(self, clean_outcome):
        assert clean_outcome.s_red == clean_outcome.participant_total

    def test_participants_subset_of_covered(self, clean_outcome):
        assert clean_outcome.participants <= clean_outcome.covered

    def test_tree_counts_reported(self, clean_outcome):
        stats = clean_outcome.stats
        assert stats["red_aggregators"] > 0
        assert stats["blue_aggregators"] > 0
        assert (
            stats["red_aggregators"] + stats["blue_aggregators"]
            >= len(clean_outcome.covered)
        )

    def test_perfect_channel_exact(self, dense):
        topology, readings = dense
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(3))
        assert outcome.s_red == outcome.s_blue == outcome.participant_total

    def test_deterministic(self, dense):
        topology, readings = dense
        a = IpdaProtocol().run_round(topology, readings, streams=RngStreams(4))
        b = IpdaProtocol().run_round(topology, readings, streams=RngStreams(4))
        assert (a.s_red, a.s_blue, a.bytes_sent) == (
            b.s_red,
            b.s_blue,
            b.bytes_sent,
        )


class TestOverhead:
    def test_byte_ratio_near_analytic(self, dense):
        topology, readings = dense
        streams = RngStreams(5)
        tag = TagProtocol().run_round(topology, readings, streams=streams)
        for slices, expected in ((1, 1.5), (2, 2.5)):
            ipda = IpdaProtocol(IpdaConfig(slices=slices)).run_round(
                topology, readings, streams=streams
            )
            ratio = ipda.bytes_sent / tag.bytes_sent
            assert ratio == pytest.approx(expected, rel=0.25)

    def test_more_slices_more_bytes(self, dense):
        topology, readings = dense
        streams = RngStreams(6)
        sizes = [
            IpdaProtocol(IpdaConfig(slices=l))
            .run_round(topology, readings, streams=streams)
            .bytes_sent
            for l in (1, 2, 3)
        ]
        assert sizes[0] < sizes[1] < sizes[2]


class TestPollution:
    def test_aggregator_pollution_detected(self, dense, clean_outcome):
        topology, readings = dense
        polluter = max(clean_outcome.covered)
        outcome = IpdaProtocol().run_round(
            topology,
            readings,
            streams=RngStreams(2),
            polluters={polluter: 500},
        )
        assert not outcome.accepted
        assert outcome.reported is None
        assert abs(outcome.s_red - outcome.s_blue) >= 500 - 5

    def test_negative_offset_detected(self, dense, clean_outcome):
        topology, readings = dense
        polluter = max(clean_outcome.covered)
        outcome = IpdaProtocol().run_round(
            topology,
            readings,
            streams=RngStreams(2),
            polluters={polluter: -300},
        )
        assert not outcome.accepted

    def test_two_non_colluding_polluters_detected(self, dense, clean_outcome):
        topology, readings = dense
        covered = sorted(clean_outcome.covered)
        outcome = IpdaProtocol().run_round(
            topology,
            readings,
            streams=RngStreams(2),
            polluters={covered[-1]: 400, covered[-2]: 250},
        )
        # Equal-and-opposite collusion across trees is excluded by the
        # non-collusion assumption; independent offsets almost surely
        # leave the trees disagreeing.
        assert not outcome.accepted

    def test_same_attack_invisible_to_tag(self, dense):
        # TAG has no redundancy: the polluted result is simply accepted.
        topology, readings = dense
        tag = TagProtocol().run_round(topology, readings, streams=RngStreams(9))
        assert tag.reported is not None  # no rejection mechanism at all


class TestContributors:
    def test_exclusion_removes_readings(self, dense):
        topology, readings = dense
        include = set(list(sorted(readings))[: len(readings) // 2])
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(
            topology,
            readings,
            streams=RngStreams(7),
            contributors=include,
        )
        assert outcome.participants <= include
        assert outcome.s_red == outcome.participant_total


class TestKeySchemes:
    def test_global_key_scheme_works(self, dense):
        topology, readings = dense
        outcome = IpdaProtocol(
            key_scheme_factory=GlobalKeyScheme
        ).run_round(topology, readings, streams=RngStreams(8))
        assert outcome.s_red == outcome.s_blue

    def test_sparse_rings_lower_participation(self, dense):
        topology, readings = dense

        def sparse_scheme(n):
            return RandomPredistributionScheme(
                n, pool_size=1000, ring_size=15, seed=2
            )

        restricted = IpdaProtocol(
            key_scheme_factory=sparse_scheme,
            radio_config=RadioConfig(collisions_enabled=False),
        ).run_round(topology, readings, streams=RngStreams(9))
        unrestricted = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(9))
        assert len(restricted.participants) < len(unrestricted.participants)


class TestValidation:
    def test_rejects_base_station_reading(self, dense):
        topology, readings = dense
        bad = dict(readings)
        bad[0] = 1
        with pytest.raises(ProtocolError):
            IpdaProtocol().run_round(topology, bad, streams=RngStreams(1))

    def test_rejects_incomplete_readings(self, dense):
        topology, _ = dense
        with pytest.raises(ProtocolError):
            IpdaProtocol().run_round(topology, {1: 1}, streams=RngStreams(1))


class TestHelloColourMemory:
    """Each neighbour's first HELLO colour is remembered; a HELLO of the
    other colour from it blacklists it (Section III-B)."""

    @pytest.fixture
    def node(self):
        topology = grid_deployment(1, 4, spacing=40.0, radio_range=50.0)

        def factory(node_id, network):
            node = _IpdaNode(node_id, network)
            node.keys = PairwiseKeyScheme(topology.node_count)
            return node

        return Network(topology, factory, seed=0).node(1)

    @staticmethod
    def hello(src, color):
        return HelloMessage(src=src, dst=BROADCAST, color=color, hops=1)

    @pytest.mark.parametrize("color", [TreeColor.RED, TreeColor.BLUE])
    def test_repeated_colour_is_not_two_faced(self, node, color):
        node.on_receive(self.hello(2, color))
        node.on_receive(self.hello(2, color))
        assert node.blacklist == set()
        assert node.heard[color] == {2: 1}
        assert node._hello_colors == {2: color}

    @pytest.mark.parametrize(
        "first, second",
        [
            (TreeColor.RED, TreeColor.BLUE),
            (TreeColor.BLUE, TreeColor.RED),
        ],
    )
    def test_both_colours_blacklist_in_either_order(self, node, first, second):
        node.on_receive(self.hello(2, first))
        node.on_receive(self.hello(2, second))
        assert node.blacklist == {2}
        assert all(2 not in table for table in node.heard.values())

    @pytest.mark.parametrize(
        "first, second",
        [
            (TreeColor.RED, TreeColor.BLUE),
            (TreeColor.BLUE, TreeColor.RED),
        ],
    )
    def test_base_station_announcing_both_is_never_blacklisted(
        self, node, first, second
    ):
        node.base_station = 0
        node.on_receive(self.hello(0, first))
        node.on_receive(self.hello(0, second))
        node.on_receive(self.hello(0, first))
        assert node.blacklist == set()
        assert 0 in node.heard[TreeColor.RED]
        assert 0 in node.heard[TreeColor.BLUE]

    def test_memory_holds_one_colour_per_neighbour_after_a_round(
        self, dense, monkeypatch
    ):
        networks = []

        class RecordingNetwork(Network):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                networks.append(self)

        monkeypatch.setattr(ipda_module, "Network", RecordingNetwork)
        topology, readings = dense
        adversary = 25
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(
            topology, readings, streams=RngStreams(5), two_faced={adversary}
        )
        (network,) = networks
        memories = [node._hello_colors for node in network.iter_nodes()]
        assert sum(len(memory) for memory in memories) > topology.node_count
        assert all(
            isinstance(color, TreeColor)
            for memory in memories
            for color in memory.values()
        )
        blacklists = [node.blacklist for node in network.iter_nodes()]
        assert all(blacklist <= {adversary} for blacklist in blacklists)
        assert outcome.stats["adversary_blacklisted_by"] == sum(
            1 for blacklist in blacklists if blacklist
        ) > 0
