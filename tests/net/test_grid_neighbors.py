"""Cell-grid neighbor search vs the O(n^2) reference, exactly.

The scale path's correctness contract is *bit-for-bit* equality with
the historical distance-matrix implementation — same pairs, same
order — on every deployment shape the repo uses (uniform random, grid,
circle layouts), including the adversarial cases: points exactly on
the radius boundary, coincident points, cell-border straddlers, and
degenerate sizes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.net.geometry import (
    Point,
    coords_array,
    grid_coords,
    iter_grid_positions,
    neighbor_pairs,
    pairwise_distances,
    points_within_range,
)


def _points_within_range_reference(points, radius):
    """Original O(n^2) matrix-walk implementation: the oracle the
    cell-grid search is property-tested against."""
    dists = pairwise_distances(points)
    n = len(points)
    pairs = []
    for i in range(n):
        close = np.nonzero(dists[i, i + 1 :] <= radius)[0]
        pairs.extend((i, i + 1 + int(j)) for j in close)
    return pairs


def _reference_pairs(coords: np.ndarray, radius: float):
    points = [Point(float(x), float(y)) for x, y in coords]
    return _points_within_range_reference(points, radius)


def _grid_pairs(coords: np.ndarray, radius: float):
    return [(int(i), int(j)) for i, j in neighbor_pairs(coords, radius)]


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_deployments(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        area = float(rng.uniform(10.0, 500.0))
        radius = float(rng.uniform(1.0, area / 2.0))
        coords = rng.uniform(0.0, area, size=(n, 2))
        assert _grid_pairs(coords, radius) == _reference_pairs(
            coords, radius
        )

    @pytest.mark.parametrize("rows,cols,spacing,radius", [
        (1, 1, 10.0, 5.0),
        (1, 7, 10.0, 10.0),       # radius lands exactly on neighbours
        (5, 5, 30.0, 65.0),
        (8, 3, 12.5, 25.0),       # 2x spacing: exact boundary again
        (10, 10, 1.0, 1.5),
    ])
    def test_grid_deployments(self, rows, cols, spacing, radius):
        coords = grid_coords(rows, cols, spacing)
        assert _grid_pairs(coords, radius) == _reference_pairs(
            coords, radius
        )

    def test_circle_layout(self):
        # regular_topology's synthesised positions
        n = 60
        radius_of_circle = max(1.0, n / math.pi)
        angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        coords = np.empty((n, 2))
        for i, a in enumerate(angles):
            coords[i] = (
                radius_of_circle * math.cos(a) + radius_of_circle,
                radius_of_circle * math.sin(a) + radius_of_circle,
            )
        for search_radius in (1.0, 5.0, 4.0 * radius_of_circle):
            assert _grid_pairs(coords, search_radius) == _reference_pairs(
                coords, search_radius
            )

    def test_negative_coordinates(self):
        rng = np.random.default_rng(99)
        coords = rng.uniform(-200.0, 50.0, size=(150, 2))
        assert _grid_pairs(coords, 17.0) == _reference_pairs(coords, 17.0)


class TestBoundaryExactness:
    def test_pair_exactly_on_radius_is_included(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5 exactly
        assert _grid_pairs(coords, 5.0) == [(0, 1)]

    def test_pair_one_ulp_outside_is_excluded(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        radius = math.nextafter(5.0, 0.0)
        assert _grid_pairs(coords, radius) == []

    def test_boundary_follows_reference_float_semantics(self):
        # Distances that are irrational in exact arithmetic: whatever
        # float64 says, both implementations must say the same thing.
        rng = np.random.default_rng(7)
        base = rng.uniform(0.0, 100.0, size=(40, 2))
        radius = 10.0
        # plant near-boundary pairs at distance ~radius in all quadrants
        shifted = base + np.array([radius / math.sqrt(2)] * 2)
        coords = np.vstack((base, shifted))
        assert _grid_pairs(coords, radius) == _reference_pairs(
            coords, radius
        )

    def test_coincident_points_pair_up(self):
        coords = np.array([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        assert _grid_pairs(coords, 1.0) == [(0, 1), (0, 2), (1, 2)]


class TestDegenerateInputs:
    def test_empty(self):
        assert neighbor_pairs(np.empty((0, 2)), 5.0).shape == (0, 2)
        assert points_within_range([], 5.0) == []

    def test_single_point(self):
        assert _grid_pairs(np.array([[1.0, 2.0]]), 5.0) == []
        assert points_within_range([Point(1.0, 2.0)], 5.0) == []

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            neighbor_pairs(np.zeros((2, 2)), 0.0)

    def test_points_within_range_zero_radius_keeps_old_semantics(self):
        # Historically, radius 0 paired only coincident points.
        points = [Point(0.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0)]
        assert points_within_range(points, 0.0) == [(0, 1)]


class TestOutputContract:
    def test_pairs_are_lexicographically_sorted_i_lt_j(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0.0, 80.0, size=(200, 2))
        pairs = neighbor_pairs(coords, 12.0)
        assert pairs.dtype == np.int64
        as_list = [tuple(p) for p in pairs]
        assert as_list == sorted(as_list)
        assert all(i < j for i, j in as_list)

    def test_points_within_range_accepts_points_and_arrays(self):
        points = [Point(0.0, 0.0), Point(1.0, 0.0), Point(10.0, 0.0)]
        from_points = points_within_range(points, 2.0)
        from_array = _grid_pairs(coords_array(points), 2.0)
        assert from_points == from_array == [(0, 1)]

    def test_grid_coords_matches_iter_grid_positions(self):
        coords = grid_coords(4, 6, 2.5)
        legacy = [p.as_tuple() for p in iter_grid_positions(4, 6, 2.5)]
        assert [tuple(c) for c in coords] == legacy
