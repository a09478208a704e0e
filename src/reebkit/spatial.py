"""Uniform-grid spatial hashing: the one proximity index of the package.

Points are bucketed into cubic cells.  Each integer cell key k is hashed
linearly modulo 2^64, code(k) = sum_i k_i m_i for fixed multipliers m_i,
so the 3^d neighbour cells of a cell sit at fixed code offsets.  The codes
are sorted once and cells are found with ``np.searchsorted``; a radius
query inspects the neighbour cells of the query cell, so it is exact for
radii up to the cell size.  Close pairs are enumerated per occupied cell
instead of per point: each cell is paired with itself and with the cells
at one code of each +-pair of neighbour offsets, so every pair of
neighbouring cells is visited once, and a point meets a neighbour cell's
points only when it is within the radius of their bounding box.  Distinct
cells whose codes collide only add candidates, which the distance test
drops.  This is the spatial hashing of Teschner et al., "Optimized Spatial
Hashing for Collision Detection of Deformable Objects" (VMV 2003), with a
sorted table instead of buckets.
"""

from __future__ import annotations

import numpy as np

# Cells are this much wider than ``cell_size``, so rounding in the keys
# cannot put two points within ``cell_size`` of each other two cells apart
# (while the points span fewer than ~1e10 cells per axis).
_SLACK = 2.0**-16
# The hash multipliers are the powers of this odd constant (2^64 / phi).
_GOLDEN = 0x9E3779B97F4A7C15
# Cell probes, and candidate point pairs, per block of ``close_pairs``,
# bounding its memory.
_BLOCK = 2**15


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
        # the stencil codes come in pairs c, -c (mod 2^64) around 0; the
        # half stencil is 0 and the lower code of each pair
        self._half = self._stencil[self._stencil <= -self._stencil]
        self._codes = self._hash(self._keys(self.points))
        self._order = np.argsort(self._codes, kind="stable")
        self._cells, self._starts, self._counts = np.unique(
            self._codes[self._order], return_index=True, return_counts=True
        )
        # the coordinates column by column in cell order: cell c holds the
        # slots starts[c] to starts[c] + counts[c] - 1, in ascending index order
        self._columns = np.take(np.ascontiguousarray(self.points.T), self._order, axis=1)
        # occupancy of the top bits of the cell codes: most probes miss
        # and are dropped by one lookup here instead of a binary search
        self._shift = np.uint64(64 - len(self._cells).bit_length() - 6)
        self._occupied = np.zeros(1 << (64 - int(self._shift)), dtype=bool)
        self._occupied[self._cells >> self._shift] = True

    def _keys(self, points) -> np.ndarray:
        return np.floor((points - self._origin) / (self.cell_size * (1 + _SLACK)))

    def _hash(self, keys) -> np.ndarray:
        return (keys.astype(np.int64).view(np.uint64) * self._mult).sum(axis=-1, dtype=np.uint64)

    def _check_radius(self, radius: float) -> None:
        if not np.isfinite(radius) or radius < 0:
            raise ValueError("radius must be finite and non-negative")
        if radius > self.cell_size:
            raise ValueError("radius exceeds cell size; rebuild with a larger cell")

    def _neighbour_cells(self, codes: np.ndarray, stencil: np.ndarray):
        """(row, cell) for every occupied cell at code ``codes[row] + s``,
        s in ``stencil``, grouped by row: the occupancy bitmap drops most
        misses, a binary search finds the rest."""
        probes = codes[:, None] + stencil
        rows, cols = np.nonzero(self._occupied[probes >> self._shift])
        probes = probes[rows, cols]
        k = np.minimum(np.searchsorted(self._cells, probes), len(self._cells) - 1)
        hit = self._cells[k] == probes
        return rows[hit], k[hit]

    def _probe(self, codes: np.ndarray):
        """(query row, slot) for every stored point in the neighbour cells
        of each query cell code, grouped by query row."""
        rows, k = self._neighbour_cells(codes, self._stencil)
        counts = self._counts[k]
        first = self._starts[k] - np.cumsum(counts) + counts
        return np.repeat(rows, counts), np.repeat(first, counts) + np.arange(counts.sum())

    def _boxes(self):
        """(low, high), each (d, cells): the bounding box of each cell's points."""
        home = np.repeat(np.arange(len(self._cells)), self._counts)  # the cell of each slot
        low = np.full((len(self._columns), len(self._cells)), np.inf)
        high = -low
        for x, x_lo, x_hi in zip(self._columns, low, high):
            np.minimum.at(x_lo, home, x)
            np.maximum.at(x_hi, home, x)
        return low, high

    def query_ball(self, points: np.ndarray, radius: float):
        """(rows, indices, d2) of the stored points within ``radius`` of each
        row of ``points`` (Q, d), in ascending (row, index) order, with
        their squared distances to the row."""
        self._check_radius(radius)
        rows, slots = self._probe(self._hash(self._keys(points)))
        d2 = np.zeros(len(rows))
        for x, q in zip(self._columns, points.T):  # in order: for d < 8 the sums of np.sum over a row
            d2 += (x[slots] - q[rows]) ** 2
        near = np.flatnonzero(d2 <= radius * radius)
        keys = rows[near] * len(self.points) + self._order[slots[near]]
        order = np.argsort(keys)  # unique keys, so in (row, index) order
        return (*np.divmod(keys[order], len(self.points)), d2[near[order]])

    def nearest_within(self, points: np.ndarray, radius: float):
        """(indices, distances) of the closest stored point within ``radius``
        of each row of ``points`` (Q, d), the lowest index on a tie; -1 and
        inf where none is in reach."""
        rows, hits, d2 = self.query_ball(points, radius)
        d = np.sqrt(d2)  # below 8 dimensions bit for bit np.linalg.norm over a row
        first = np.lexsort((d, rows))  # stable: ascending index within a tie
        first = first[np.flatnonzero(np.diff(rows[first], prepend=-1))]
        index, dist = np.full(len(points), -1), np.full(len(points), np.inf)
        index[rows[first]], dist[rows[first]] = hits[first], d[first]
        return index, dist

    def close_pairs(self, radius: float, keep=None) -> np.ndarray:
        """(P, 2) array of the index pairs i < j of points within ``radius``
        of each other, in ascending (i, j) order.

        Each occupied cell a is paired with itself and with the cells b at
        its half stencil.  A lane is one point of cell a against one cell
        b; it is dropped when the point is farther than ``radius`` from the
        bounding box of b's points, with the gaps (a coordinate less its
        clamp into the box) squared and summed column by column like the
        distances: a gap is at most the coordinate difference in size, and
        rounding keeps that order, so no close pair is lost.  The lanes that remain expand to point pairs, about
        ``_BLOCK`` candidates at a time, and the squared distances decide
        them.  ``keep(i, j)``, given index arrays with i < j, masks the
        pairs within ``radius`` only."""
        self._check_radius(radius)
        r2 = radius * radius
        step = max(1, _BLOCK // len(self._half))
        a, b = [], []  # the cell pairs: each occupied cell a and a cell b of its half stencil
        for lo in range(0, len(self._cells), step):
            rows, cells = self._neighbour_cells(self._cells[lo : lo + step], self._half)
            a.append(rows + lo)
            b.append(cells)
        a, b = np.concatenate(a), np.concatenate(b)
        a, b = np.minimum(a, b), np.maximum(a, b)  # the slots of cell a come first
        # a lane is a point of cell a against cell b; within one cell, the
        # last point has no later point to pair with
        start, lanes = self._starts[a], self._counts[a] - (a == b)
        # lane k of cell pair p opens candidate end[p] - (lanes[p] - k) counts[b[p]]
        end = np.cumsum(lanes * self._counts[b])
        low, high = self._boxes()
        stops = self._starts + self._counts
        n, total, keys = len(self.points), int(end[-1]), [np.zeros(0, dtype=int)]
        for lo in range(0, total, _BLOCK):
            # the lanes k0 to k1 - 1 of the cell pairs p open a candidate in [lo, hi)
            hi = min(lo + _BLOCK, total)
            p = slice(np.searchsorted(end, lo, side="right"), np.searchsorted(end, hi - 1, side="right") + 1)
            width = self._counts[b[p]]
            begin = end[p] - lanes[p] * width
            k0 = np.maximum(-((begin - lo) // width), 0)
            k1 = np.minimum(-((begin - hi) // width), lanes[p])
            count = k1 - k0
            s = np.repeat(start[p] + k0 - np.cumsum(count) + count, count) + np.arange(count.sum())
            cell = np.repeat(b[p], count)
            gap2 = np.zeros(len(s))
            for x, x_lo, x_hi in zip(self._columns, low, high):
                x_s = x[s]
                gap2 += (np.minimum(np.maximum(x_s, x_lo[cell]), x_hi[cell]) - x_s) ** 2
            live = gap2 <= r2
            s, cell = s[live], cell[live]
            first = np.maximum(self._starts[cell], s + 1)  # the slots of b, those after s in its own cell
            count = stops[cell] - first
            u = np.repeat(s, count)
            t = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
            d2 = np.zeros(len(t))
            for x in self._columns:  # in order: for d < 8 the sums of np.sum over a row
                d2 += (x[u] - x[t]) ** 2
            near = d2 <= r2
            i, j = self._order[u[near]], self._order[t[near]]
            i, j = np.minimum(i, j), np.maximum(i, j)
            if keep is not None:
                kept = keep(i, j)
                i, j = i[kept], j[kept]
            keys.append(i * n + j)
        keys = np.sort(np.concatenate(keys))
        return np.stack(np.divmod(keys, n), axis=1)
