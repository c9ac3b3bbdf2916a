"""Tests for the deterministic RNG streams."""

from __future__ import annotations

import doctest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rng
from repro.net.topology import random_deployment
from repro.rng import RngStreams, derive_seed, seed_state_words
from repro.sim.network import Network


def reference_rng(seed: int, *labels: object) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *labels))


def test_module_docstring_example():
    failures, attempted = doctest.testmod(repro.rng)
    assert attempted > 0
    assert failures == 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_depends_on_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_depends_on_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_accepts_mixed_label_types(self):
        assert isinstance(derive_seed(0, 3, ("x", 4)), int)

    def test_is_64_bit(self):
        for label in range(50):
            assert 0 <= derive_seed(7, label) < 2**64


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(3)
        assert streams.get("mac") is streams.get("mac")

    def test_different_names_are_independent_generators(self):
        streams = RngStreams(3)
        assert streams.get("a") is not streams.get("b")

    def test_qualified_streams_distinct(self):
        streams = RngStreams(3)
        assert streams.get("node", 1) is not streams.get("node", 2)

    def test_reproducible_across_instances(self):
        a = RngStreams(42).get("x").random(5)
        b = RngStreams(42).get("x").random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).get("x").random(5)
        b = RngStreams(2).get("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_continues_not_restarts(self):
        streams = RngStreams(5)
        first = streams.get("s").random()
        second = streams.get("s").random()
        fresh = RngStreams(5).get("s").random()
        assert first == fresh
        assert second != first

    def test_spawn_derives_new_universe(self):
        parent = RngStreams(9)
        child = parent.spawn("rep", 0)
        assert child.seed != parent.seed
        # Deterministic: same spawn labels, same child seed.
        assert parent.spawn("rep", 0).seed == child.seed

    def test_spawn_labels_distinguish(self):
        parent = RngStreams(9)
        assert parent.spawn("rep", 0).seed != parent.spawn("rep", 1).seed

    def test_seed_property(self):
        assert RngStreams(17).seed == 17

    def test_repr_mentions_seed(self):
        assert "17" in repr(RngStreams(17))


class TestSeedStateWords:
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @staticmethod
    def reference(seed: int) -> np.ndarray:
        return np.random.SeedSequence(seed).generate_state(4, np.uint64)

    def test_edge_seeds(self):
        words = seed_state_words(self.EDGE_SEEDS)
        assert words.shape == (len(self.EDGE_SEEDS), 4)
        assert words.dtype == np.uint64
        for seed, row in zip(self.EDGE_SEEDS, words):
            assert np.array_equal(row, self.reference(seed)), seed

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_matches_seed_sequence(self, seeds):
        for seed, row in zip(seeds, seed_state_words(seeds)):
            assert np.array_equal(row, self.reference(seed)), seed

    def test_empty(self):
        assert seed_state_words([]).shape == (0, 4)


class TestPrime:
    def test_primed_stream_equals_default_rng(self):
        streams = RngStreams(11)
        streams.prime("node", range(5))
        for node_id in range(5):
            generator = streams.get("node", node_id)
            assert generator is streams.get("node", node_id)
            reference = reference_rng(11, "node", node_id)
            assert (
                generator.bit_generator.state
                == reference.bit_generator.state
            )
            assert np.array_equal(generator.random(4), reference.random(4))
            assert np.array_equal(
                generator.integers(0, 1000, 6), reference.integers(0, 1000, 6)
            )

    def test_unprimed_key_still_works(self):
        streams = RngStreams(11)
        streams.prime("node", range(3))
        assert np.array_equal(
            streams.get("node", 3).random(3),
            reference_rng(11, "node", 3).random(3),
        )
        assert np.array_equal(
            streams.get("mac", 0).random(3),
            reference_rng(11, "mac", 0).random(3),
        )

    def test_prime_leaves_built_streams_alone(self):
        streams = RngStreams(4)
        built = streams.get("node", 1)
        first = built.random()
        streams.prime("node", range(3))
        assert streams.get("node", 1) is built
        reference = reference_rng(4, "node", 1)
        assert reference.random() == first
        assert built.random() == reference.random()

    def test_network_streams_match_reference_before_first_draw(self):
        topology = random_deployment(300, seed=8)
        network = Network(topology, streams=RngStreams(21))
        for node_id in range(topology.node_count):
            for name in ("node", "mac"):
                generator = network.streams.get(name, node_id)
                reference = reference_rng(21, name, node_id)
                assert (
                    generator.bit_generator.state
                    == reference.bit_generator.state
                ), (name, node_id)
