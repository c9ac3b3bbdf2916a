"""Tests for the key-management schemes."""

from __future__ import annotations

import pytest

from repro.crypto.keys import (
    GlobalKeyScheme,
    PairwiseKeyScheme,
    RandomPredistributionScheme,
    _derive_key,
)
from repro.errors import CryptoError, KeyNotFoundError


class TestPairwise:
    def test_symmetric(self):
        scheme = PairwiseKeyScheme(10)
        assert scheme.link_key(2, 7) == scheme.link_key(7, 2)

    def test_distinct_per_pair(self):
        scheme = PairwiseKeyScheme(10)
        assert scheme.link_key(1, 2) != scheme.link_key(1, 3)

    def test_holders_are_exactly_endpoints(self):
        scheme = PairwiseKeyScheme(10)
        assert scheme.key_holders(3, 4) == frozenset({3, 4})

    def test_every_pair_can_communicate(self):
        scheme = PairwiseKeyScheme(5)
        for a in range(5):
            for b in range(5):
                if a != b:
                    assert scheme.can_communicate(a, b)

    def test_self_link_rejected(self):
        with pytest.raises(CryptoError):
            PairwiseKeyScheme(5).link_key(2, 2)

    def test_unknown_nodes_rejected(self):
        with pytest.raises(KeyNotFoundError):
            PairwiseKeyScheme(5).link_key(1, 7)

    def test_seed_changes_keys(self):
        a = PairwiseKeyScheme(5, seed=1).link_key(0, 1)
        b = PairwiseKeyScheme(5, seed=2).link_key(0, 1)
        assert a != b


class TestGlobal:
    def test_single_key_everywhere(self):
        scheme = GlobalKeyScheme(6)
        assert scheme.link_key(0, 1) == scheme.link_key(4, 5)

    def test_everyone_holds_it(self):
        scheme = GlobalKeyScheme(6)
        assert scheme.key_holders(0, 1) == frozenset(range(6))


class TestRandomPredistribution:
    def test_rings_have_configured_size(self):
        scheme = RandomPredistributionScheme(
            20, pool_size=100, ring_size=10, seed=1
        )
        for node in range(20):
            assert len(scheme.ring(node)) == 10

    def test_link_key_exists_iff_rings_intersect(self):
        scheme = RandomPredistributionScheme(
            30, pool_size=200, ring_size=20, seed=2
        )
        for a in range(5):
            for b in range(a + 1, 10):
                shares = bool(scheme.shared_key_ids(a, b))
                assert scheme.can_communicate(a, b) == shares

    def test_no_shared_key_raises(self):
        # Tiny rings over a huge pool: disjoint with near certainty.
        scheme = RandomPredistributionScheme(
            2, pool_size=100_000, ring_size=1, seed=3
        )
        if not scheme.shared_key_ids(0, 1):
            with pytest.raises(KeyNotFoundError):
                scheme.link_key(0, 1)

    def test_third_party_holders_detected(self):
        # Full-pool rings: everyone holds every key.
        scheme = RandomPredistributionScheme(
            5, pool_size=10, ring_size=10, seed=4
        )
        assert scheme.key_holders(0, 1) == frozenset(range(5))

    def test_holders_superset_of_endpoints(self):
        scheme = RandomPredistributionScheme(
            40, pool_size=100, ring_size=30, seed=5
        )
        for a, b in [(0, 1), (2, 9), (11, 30)]:
            if scheme.can_communicate(a, b):
                assert {a, b} <= scheme.key_holders(a, b)

    def test_connectivity_probability_matches_empirical(self):
        scheme = RandomPredistributionScheme(
            300, pool_size=200, ring_size=20, seed=6
        )
        analytic = scheme.connectivity_probability()
        connected = sum(
            1
            for a in range(0, 100, 2)
            if scheme.can_communicate(a, a + 1)
        )
        empirical = connected / 50
        assert abs(empirical - analytic) < 0.25

    def test_connectivity_probability_limits(self):
        dense = RandomPredistributionScheme(
            2, pool_size=10, ring_size=9, seed=0
        )
        assert dense.connectivity_probability() == pytest.approx(1.0)
        sparse = RandomPredistributionScheme(
            2, pool_size=100_000, ring_size=2, seed=0
        )
        assert sparse.connectivity_probability() < 0.001

    def test_validation(self):
        with pytest.raises(CryptoError):
            RandomPredistributionScheme(5, pool_size=10, ring_size=11)
        with pytest.raises(CryptoError):
            RandomPredistributionScheme(5, pool_size=10, ring_size=0)


class TestMemoisedLinkKeys:
    """Each scheme memoises its link keys; a cached key must equal a
    fresh derivation, whichever way round the endpoints are named."""

    PAIRS = [(0, 1), (3, 8), (9, 2), (5, 4)]

    def test_pairwise_matches_derivation(self):
        scheme = PairwiseKeyScheme(10, seed=3)
        for _ in range(2):  # cold, then memoised
            for a, b in self.PAIRS:
                fresh = _derive_key("pairwise", 3, min(a, b), max(a, b))
                assert scheme.link_key(a, b) == fresh
                assert scheme.link_key(b, a) == fresh

    def test_global_matches_derivation(self):
        scheme = GlobalKeyScheme(10, seed=3)
        fresh = _derive_key("global", 3)
        for a, b in self.PAIRS:
            assert scheme.link_key(a, b) == fresh
            assert scheme.link_key(b, a) == fresh

    def test_random_predistribution_matches_derivation(self):
        scheme = RandomPredistributionScheme(
            10, pool_size=40, ring_size=12, seed=3
        )
        checked = 0
        for _ in range(2):
            for a, b in self.PAIRS:
                shared = scheme.shared_key_ids(a, b)
                if not shared:
                    continue
                fresh = _derive_key("eg-pool", 3, min(shared))
                assert scheme.link_key(a, b) == fresh
                assert scheme.link_key(b, a) == fresh
                checked += 1
        assert checked

    def test_memo_keeps_errors(self):
        scheme = PairwiseKeyScheme(5)
        scheme.link_key(1, 2)
        with pytest.raises(CryptoError):
            scheme.link_key(2, 2)
        with pytest.raises(KeyNotFoundError):
            scheme.link_key(2, 7)
        with pytest.raises(CryptoError):
            GlobalKeyScheme(5).link_key(3, 3)


class TestCanCommunicate:
    """``can_communicate`` answers without deriving a key, with the same
    True/False and the same errors as a ``link_key`` probe."""

    def test_out_of_universe_id(self):
        scheme = PairwiseKeyScheme(5)
        assert not scheme.can_communicate(1, 5)
        assert not scheme.can_communicate(7, 2)
        assert not scheme.can_communicate(-1, 2)
        assert scheme.can_communicate(0, 4)
        eg = RandomPredistributionScheme(5, pool_size=10, ring_size=10)
        assert not eg.can_communicate(1, 5)

    def test_self_link_raises(self):
        for scheme in (
            PairwiseKeyScheme(5),
            GlobalKeyScheme(5),
            RandomPredistributionScheme(5, pool_size=10, ring_size=10),
        ):
            with pytest.raises(CryptoError):
                scheme.can_communicate(2, 2)

    def test_eg_rings_without_shared_key(self):
        # Disjoint one-key rings: every pair that shares nothing
        # cannot communicate, and link_key agrees.
        scheme = RandomPredistributionScheme(
            6, pool_size=100_000, ring_size=1, seed=3
        )
        disjoint = [
            (a, b)
            for a in range(6)
            for b in range(a + 1, 6)
            if not scheme.shared_key_ids(a, b)
        ]
        assert disjoint
        for a, b in disjoint:
            assert not scheme.can_communicate(a, b)
            with pytest.raises(KeyNotFoundError):
                scheme.link_key(a, b)

    def test_pairwise_probe_derives_nothing(self):
        scheme = PairwiseKeyScheme(5)
        assert scheme.can_communicate(1, 3)
        assert scheme._keys == {}
