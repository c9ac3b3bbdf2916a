"""Planar geometry primitives used by deployments and radio propagation.

Scale notes: the unit-disc edge set used to be derived from the full
``(n, n)`` distance matrix, which is O(n^2) memory (~80 GB at 10^5
nodes) and walks its rows in a Python loop.  :func:`neighbor_pairs`
replaces that with a spatial cell grid: points are binned into
``radius``-sized cells and only the 9-cell neighbourhood of each cell
is compared, which is O(n * k) time and O(n) memory for bounded
density k.  The candidate filter computes ``sqrt(dx^2 + dy^2) <=
radius`` with the exact same float64 operations as the matrix path, so
the returned edge set is bit-for-bit identical to the O(n^2) reference
(``tests/net/test_grid_neighbors.py`` asserts this property).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Point",
    "coords_array",
    "distance",
    "grid_coords",
    "iter_grid_positions",
    "neighbor_pairs",
    "pairwise_distances",
    "points_within_range",
]


@dataclass(frozen=True, order=True)
class Point:
    """A point in the 2-D deployment plane, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def coords_array(points: Sequence[Point]) -> np.ndarray:
    """``(n, 2)`` float64 coordinate array for a point sequence."""
    if isinstance(points, np.ndarray):
        coords = np.asarray(points, dtype=float)
        if coords.ndim != 2 or (coords.size and coords.shape[1] != 2):
            raise ValueError("coordinate array must have shape (n, 2)")
        return coords.reshape(-1, 2)
    return np.array(
        [(p.x, p.y) for p in points], dtype=float
    ).reshape(-1, 2)


def pairwise_distances(points: Sequence[Point]) -> np.ndarray:
    """Return the symmetric ``(n, n)`` matrix of pairwise distances.

    Vectorised with numpy but O(n^2) memory — fine for the network
    sizes the paper evaluates (hundreds to a few thousand nodes), and
    kept as the reference the cell-grid search is verified against.
    Scale-path code should use :func:`neighbor_pairs` instead.
    """
    coords = coords_array(points)
    if coords.size == 0:
        return np.zeros((0, 0))
    deltas = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((deltas**2).sum(axis=-1))


def neighbor_pairs(coords: np.ndarray, radius: float) -> np.ndarray:
    """All index pairs ``(i, j)``, ``i < j``, at distance <= ``radius``.

    Cell-grid neighbour search: bin points into ``radius``-sized cells
    and compare only the half neighbourhood of each cell (the cell
    itself plus 4 of its 8 neighbours), so every cell pair — and hence
    every point pair — is considered exactly once.  Returns an
    ``(m, 2)`` int64 array sorted lexicographically.

    The distance predicate is evaluated as ``sqrt(dx*dx + dy*dy) <=
    radius`` in float64, matching :func:`pairwise_distances` +
    comparison bit-for-bit, including points exactly on the boundary.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)

    # Bin into radius-sized cells; any pair within `radius` lands in
    # the same or an adjacent cell.  Shift cy by +1 and key with
    # M = ny + 2 so neighbour-key arithmetic can never wrap a column
    # boundary onto a real cell.
    cx = np.floor(coords[:, 0] / radius).astype(np.int64)
    cy = np.floor(coords[:, 1] / radius).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    cy += 1
    m_key = int(cy.max()) + 2
    key = cx * m_key + cy

    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    uniq_keys, cell_starts = np.unique(sorted_key, return_index=True)
    cell_counts = np.diff(np.append(cell_starts, n))

    xs = coords[:, 0]
    ys = coords[:, 1]
    out_i: List[np.ndarray] = []
    out_j: List[np.ndarray] = []

    # Half stencil: (0, 0) pairs within a cell; the other four offsets
    # pair each cell with one of its 8 neighbours such that every
    # unordered cell pair appears exactly once.
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        if dx == 0 and dy == 0:
            a_sel = b_sel = np.arange(uniq_keys.size)
        else:
            shifted = uniq_keys + (dx * m_key + dy)
            pos = np.searchsorted(uniq_keys, shifted)
            pos_clipped = np.minimum(pos, uniq_keys.size - 1)
            hit = uniq_keys[pos_clipped] == shifted
            a_sel = np.nonzero(hit)[0]
            b_sel = pos_clipped[hit]
            if a_sel.size == 0:
                continue

        a_starts = cell_starts[a_sel]
        a_counts = cell_counts[a_sel]
        b_starts = cell_starts[b_sel]
        b_counts = cell_counts[b_sel]
        sizes = a_counts * b_counts
        total = int(sizes.sum())
        if total == 0:
            continue
        grp = np.repeat(np.arange(sizes.size), sizes)
        local = np.arange(total) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        ai = a_starts[grp] + local // b_counts[grp]
        bi = b_starts[grp] + local % b_counts[grp]
        pi = order[ai]
        pj = order[bi]
        if dx == 0 and dy == 0:
            keep = pi < pj
        else:
            keep = np.ones(total, dtype=bool)
        dxs = xs[pi] - xs[pj]
        dys = ys[pi] - ys[pj]
        keep &= np.sqrt(dxs * dxs + dys * dys) <= radius
        pi = pi[keep]
        pj = pj[keep]
        lo = np.minimum(pi, pj)
        hi = np.maximum(pi, pj)
        out_i.append(lo)
        out_j.append(hi)

    if not out_i:
        return np.empty((0, 2), dtype=np.int64)
    i_all = np.concatenate(out_i)
    j_all = np.concatenate(out_j)
    sort = np.lexsort((j_all, i_all))
    pairs = np.empty((i_all.size, 2), dtype=np.int64)
    pairs[:, 0] = i_all[sort]
    pairs[:, 1] = j_all[sort]
    return pairs


def points_within_range(
    points: Sequence[Point], radius: float
) -> List[Tuple[int, int]]:
    """Return index pairs ``(i, j)`` with ``i < j`` at distance <= radius.

    This is the edge set of the unit-disc graph the paper's network model
    (Section II-A) uses: an edge exists iff two sensors can communicate
    directly.  Delegates to the cell-grid :func:`neighbor_pairs`;
    output order (by ``i`` then ``j``) and contents are identical to
    the historical O(n^2) implementation.
    """
    if radius <= 0:
        # Degenerate ranges (only coincident points can ever pair up)
        # predate the cell grid, which needs a positive cell size; keep
        # the historical distance-matrix semantics.
        close = np.triu(pairwise_distances(points) <= radius, k=1)
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(close))]
    pairs = neighbor_pairs(coords_array(points), radius)
    return [(int(i), int(j)) for i, j in pairs]


def iter_grid_positions(
    rows: int, cols: int, spacing: float
) -> Iterable[Point]:
    """Yield ``rows * cols`` grid points with the given spacing."""
    for r in range(rows):
        for c in range(cols):
            yield Point(c * spacing, r * spacing)


def grid_coords(rows: int, cols: int, spacing: float) -> np.ndarray:
    """Vectorised ``(rows * cols, 2)`` grid coordinates.

    Same point order as :func:`iter_grid_positions` (row-major).
    """
    xs = np.tile(np.arange(cols, dtype=float) * spacing, rows)
    ys = np.repeat(np.arange(rows, dtype=float) * spacing, cols)
    return np.column_stack((xs, ys))
