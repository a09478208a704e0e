"""The grid index against brute force, and the fiber field that queries it
against an all-nodes scan."""

import numpy as np
import pytest

from reebkit import catalog_get, primitive
from reebkit.collar import FiberBumpField
from reebkit.spatial import GridIndex

CELL = 0.1


def _points(dim: int, seed: int) -> np.ndarray:
    """500 random points in [-0.25, 0.25]^d, 150 of them snapped onto cell
    edges (every coordinate a multiple of the cell size), so pairs one cell
    size apart and points on cell boundaries occur."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.25, 0.25, size=(500, dim))
    pts[:150] = np.round(pts[:150] / CELL) * CELL
    pts[100:110] = pts[:10] + CELL * np.eye(dim)[0]  # one-cell steps along the first axis
    return pts


def _brute_pairs(pts: np.ndarray, radius: float) -> np.ndarray:
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    i, j = np.nonzero(np.triu(d2 <= radius * radius, k=1))
    return np.stack([i, j], axis=1)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [CELL, 0.6 * CELL])
def test_close_pairs_match_brute_force(dim, radius):
    pts = _points(dim, seed=dim)
    blocks = list(GridIndex(pts, cell_size=CELL).close_pairs(radius))
    assert all(b.ndim == 2 and b.shape[1] == 2 for b in blocks)
    got = np.concatenate(blocks)
    want = _brute_pairs(pts, radius)  # ascending (i, j) by construction
    assert len(want) >= 10  # the test sees real neighbours
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_close_pairs_on_a_long_lattice(dim):
    # one-cell steps far from the grid origin: the two ends of a step get
    # their cell keys from independently rounded quotients
    pts = np.zeros((400, dim))
    pts[:, 0] = np.arange(-200, 200) * CELL
    got = np.concatenate(list(GridIndex(pts, cell_size=CELL).close_pairs(CELL)))
    assert np.array_equal(got, _brute_pairs(pts, CELL))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [CELL, 0.6 * CELL])
def test_ball_and_nearest_match_brute_force(dim, radius):
    pts = _points(dim, seed=10 + dim)
    index = GridIndex(pts, cell_size=CELL)
    rng = np.random.default_rng(dim)
    queries = np.concatenate([pts[::7], rng.uniform(-0.4, 0.4, size=(60, dim))])
    queries[-5:] = np.round(queries[-5:] / CELL) * CELL
    for q in queries:
        d2 = np.sum((pts - q) ** 2, axis=1)
        want = np.flatnonzero(d2 <= radius * radius)
        assert np.array_equal(index.query_ball(q, radius), want)
        hit = index.nearest_within(q, radius)
        if want.size == 0:
            assert hit is None
        else:
            d = np.linalg.norm(pts[want] - q, axis=1)
            assert hit == (int(want[np.argmin(d)]), float(np.min(d)))


def test_radius_beyond_cell_rejected():
    index = GridIndex(_points(3, seed=0), cell_size=CELL)
    with pytest.raises(ValueError):
        index.query_ball(np.zeros(3), 1.01 * CELL)
    with pytest.raises(ValueError):
        index.nearest_within(np.zeros(3), 1.01 * CELL)
    with pytest.raises(ValueError):
        next(index.close_pairs(1.01 * CELL))
    with pytest.raises(ValueError):
        GridIndex(np.zeros((2, 3)), cell_size=0.0)


def _clusters_scan(adjacency, near):
    """Groups of ``near`` nodes connected through the mesh, in discovery
    order, each a list of nodes in discovery order."""
    near_set = set(near)
    seen, out = set(), []
    for start in near:
        if start in seen:
            continue
        comp, stack = [start], [start]
        seen.add(start)
        while stack:
            for b in adjacency[stack.pop()]:
                if b in near_set and b not in seen:
                    seen.add(b)
                    comp.append(b)
                    stack.append(b)
        out.append(comp)
    return out


def fiber_data_scan(fld, shadow_point):
    """Reference for ``FiberBumpField.fiber_data``: scans all nodes."""
    d2 = np.sum((fld.proj - shadow_point) ** 2, axis=1)
    near = np.nonzero(d2 <= fld.r_cut * fld.r_cut)[0]
    if near.size == 0:
        return None
    adjacency = fld.slice.mesh.neighbors()
    reps = [c[int(np.argmin(d2[c]))] for c in _clusters_scan(adjacency, near.tolist())]
    reps = sorted(reps, key=lambda r: fld.heights[r])
    zs = np.array([fld.heights[r] for r in reps])
    vs = np.array([fld.prescriptions[r] for r in reps])
    return zs, vs, reps, float(np.sqrt(np.min(d2)))


def test_fiber_data_matches_all_nodes_scan():
    entry = catalog_get("sheared_unknot", {"c": 0.1, "resolution": 256})
    slc = entry.slice
    fld = FiberBumpField(slc, primitive(entry.model, slc), margin=0.05, runway=1.0)
    rng = np.random.default_rng(3)
    lo, hi = fld.proj.min(axis=0) - 2 * fld.r_cut, fld.proj.max(axis=0) + 2 * fld.r_cut
    shadows = np.concatenate([fld.proj, rng.uniform(lo, hi, size=(200, 2)), [[5.0, 5.0]]])
    crossings = 0
    for p in shadows:
        got, want = fld.fiber_data(p), fiber_data_scan(fld, p)
        if want is None:
            assert got is None
            continue
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert [int(r) for r in got[2]] == [int(r) for r in want[2]]
        assert got[3] == want[3]
        crossings += len(want[2]) > 1
    assert crossings > 0  # the double point of the projection is queried
