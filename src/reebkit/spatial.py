"""Uniform-grid spatial hashing: the one proximity index of the package.

Points are bucketed into cubic cells.  Each integer cell key k is hashed
linearly modulo 2^64, code(k) = sum_i k_i m_i for fixed multipliers m_i,
so the 3^d neighbour cells of a cell sit at fixed code offsets.  The codes
are sorted once and cells are found with ``np.searchsorted``; a radius
query inspects the neighbour cells of the query cell, so it is exact for
radii up to the cell size.  Distinct cells whose codes collide only add
candidates, which the distance test drops.  This is the spatial hashing
of Teschner et al., "Optimized Spatial Hashing for Collision Detection of
Deformable Objects" (VMV 2003), with a sorted table instead of buckets.
"""

from __future__ import annotations

import numpy as np

# Cells are this much wider than ``cell_size``, so rounding in the keys
# cannot put two points within ``cell_size`` of each other two cells apart
# (while the points span fewer than ~1e10 cells per axis).
_SLACK = 2.0**-16
# The hash multipliers are the powers of this odd constant (2^64 / phi).
_GOLDEN = 0x9E3779B97F4A7C15
# Neighbour-cell probes per block of ``close_pairs``, bounding its memory.
_BLOCK_PROBES = 2**14


class GridIndex:
    """Immutable index of a non-empty (N, d) point set."""

    def __init__(self, points: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = np.asarray(points, dtype=float)
        self.cell_size = float(cell_size)
        dim = self.points.shape[1]
        self._origin = self.points.min(axis=0)
        self._mult = np.array([pow(_GOLDEN, k + 1, 2**64) for k in range(dim)], dtype=np.uint64)
        # offsets with colliding codes would probe the same cells twice
        self._stencil = np.unique(self._hash(np.indices((3,) * dim).reshape(dim, -1).T - 1))
        self._codes = self._hash(self._keys(self.points))
        self._order = np.argsort(self._codes, kind="stable")
        self._cells, self._starts, self._counts = np.unique(
            self._codes[self._order], return_index=True, return_counts=True
        )
        # occupancy of the top bits of the cell codes: most probes miss
        # and are dropped by one lookup here instead of a binary search
        self._shift = np.uint64(64 - len(self._cells).bit_length() - 6)
        self._occupied = np.zeros(1 << (64 - int(self._shift)), dtype=bool)
        self._occupied[self._cells >> self._shift] = True

    def _keys(self, points) -> np.ndarray:
        return np.floor((points - self._origin) / (self.cell_size * (1 + _SLACK)))

    def _hash(self, keys) -> np.ndarray:
        return (keys.astype(np.int64).view(np.uint64) * self._mult).sum(axis=-1, dtype=np.uint64)

    def _probe(self, codes: np.ndarray):
        """(query row, stored index) for every stored point in the
        neighbour cells of each query cell code, grouped by query row."""
        probes = codes[:, None] + self._stencil
        rows, cols = np.nonzero(self._occupied[probes >> self._shift])
        probes = probes[rows, cols]
        k = np.minimum(np.searchsorted(self._cells, probes), len(self._cells) - 1)
        hit = self._cells[k] == probes
        rows, k = rows[hit], k[hit]
        counts = self._counts[k]
        first = self._starts[k] - np.cumsum(counts) + counts
        return np.repeat(rows, counts), self._order[np.repeat(first, counts) + np.arange(counts.sum())]

    def query_ball(self, points: np.ndarray, radius: float):
        """(rows, indices) of the stored points within ``radius`` of each row
        of ``points`` (Q, d), in ascending (row, index) order."""
        if radius > self.cell_size:
            raise ValueError("radius exceeds cell size; rebuild with a larger cell")
        rows, hits = self._probe(self._hash(self._keys(points)))
        near = np.flatnonzero(np.sum((self.points[hits] - points[rows]) ** 2, axis=1) <= radius * radius)
        near = near[np.lexsort((hits[near], rows[near]))]
        return rows[near], hits[near]

    def nearest_within(self, points: np.ndarray, radius: float):
        """(indices, distances) of the closest stored point within ``radius``
        of each row of ``points`` (Q, d), the lowest index on a tie; -1 and
        inf where none is in reach."""
        rows, hits = self.query_ball(points, radius)
        d = np.linalg.norm(self.points[hits] - points[rows], axis=1)
        first = np.lexsort((d, rows))  # stable: ascending index within a tie
        first = first[np.flatnonzero(np.diff(rows[first], prepend=-1))]
        index, dist = np.full(len(points), -1), np.full(len(points), np.inf)
        index[rows[first]], dist[rows[first]] = hits[first], d[first]
        return index, dist

    def close_pairs(self, radius: float):
        """Yield (P, 2) arrays of index pairs i < j of points within
        ``radius`` of each other, one block of i at a time, in ascending
        (i, j) order."""
        if radius > self.cell_size:
            raise ValueError("radius exceeds cell size; rebuild with a larger cell")
        block = max(1, _BLOCK_PROBES // len(self._stencil))
        for lo in range(0, len(self.points), block):
            rows, j = self._probe(self._codes[lo : lo + block])
            upper = rows + lo < j
            i, j = rows[upper] + lo, j[upper]
            near = np.sum((self.points[i] - self.points[j]) ** 2, axis=1) <= radius * radius
            i, j = i[near], j[near]
            order = np.lexsort((j, i))
            yield np.stack([i[order], j[order]], axis=1)
