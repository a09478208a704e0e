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
    queries = np.concatenate([pts[::7], rng.uniform(-0.4, 0.4, size=(60, dim)), np.full((1, dim), 5.0)])
    queries[-6:-1] = np.round(queries[-6:-1] / CELL) * CELL
    rows, hits = index.query_ball(queries, radius)  # the whole stack in one call
    nearest, dist = index.nearest_within(queries, radius)
    assert np.array_equal(np.lexsort((hits, rows)), np.arange(len(rows)))  # ascending (row, index)
    misses = 0
    for k, q in enumerate(queries):
        d2 = np.sum((pts - q) ** 2, axis=1)
        want = np.flatnonzero(d2 <= radius * radius)
        assert np.array_equal(hits[rows == k], want)
        if want.size == 0:
            assert (nearest[k], dist[k]) == (-1, np.inf)
            misses += 1
        else:
            d = np.linalg.norm(pts[want] - q, axis=1)
            assert (nearest[k], dist[k]) == (want[np.argmin(d)], np.min(d))
    assert misses > 0
    for got in (*index.query_ball(np.zeros((0, dim)), radius), *index.nearest_within(np.zeros((0, dim)), radius)):
        assert got.shape == (0,)


def test_nearest_tie_goes_to_lowest_index():
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.5, -0.5]]) / 8
    index = GridIndex(pts, cell_size=0.125)
    nearest, dist = index.nearest_within(np.array([[0.0, 0.0], [0.0625, 0.0], [0.03125, 0.03125]]), 0.125)
    assert nearest.tolist() == [1, 0, 1]  # duplicates 1 and 3; all five equidistant; 1, 2 and 3 equidistant
    assert dist[0] == 0.0


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
    """Reference for the fiber pass of ``FiberBumpField``: scans all nodes
    and walks the mesh adjacency lists; the nearest node of a group wins,
    the lowest such node on an exact tie."""
    d2 = np.sum((fld.proj - shadow_point) ** 2, axis=1)
    near = np.nonzero(d2 <= fld.r_cut * fld.r_cut)[0]
    if near.size == 0:
        return None
    adjacency = [[] for _ in range(len(fld.proj))]  # from the grid edges, independent of Mesh.neighbors
    for a, b in fld.slice.mesh.edges().tolist():
        adjacency[a].append(b)
        adjacency[b].append(a)
    reps = [min(c, key=lambda r: (d2[r], r)) for c in _clusters_scan(adjacency, near.tolist())]
    reps = sorted(reps, key=lambda r: fld.heights[r])
    zs = np.array([fld.heights[r] for r in reps])
    vs = np.array([fld.prescriptions[r] for r in reps])
    return zs, vs, reps, float(np.sqrt(np.min(d2)))


def _sheared_unknot():
    entry = catalog_get("sheared_unknot", {"c": 0.1, "resolution": 256})
    return entry.model, entry.slice


@pytest.mark.parametrize("build", ["sheared_unknot", "exact_torus"])
def test_fiber_data_matches_all_nodes_scan(build, exact_torus):
    # the 1-D curve has one double point in its projection; the 2-D torus
    # folds its projection up to 4:1, and symmetric shadows tie exactly
    model, slc = _sheared_unknot() if build == "sheared_unknot" else exact_torus(24)[:2]
    fld = FiberBumpField(slc, primitive(model, slc), margin=0.05, runway=1.0)
    rng = np.random.default_rng(3)
    lo, hi = fld.proj.min(axis=0) - 2 * fld.r_cut, fld.proj.max(axis=0) + 2 * fld.r_cut
    shadows = np.concatenate([fld.proj, rng.uniform(lo, hi, size=(300, lo.size)), np.full((1, lo.size), 5.0)])
    nodes, counts, dist = fld.fibers(shadows)  # every shadow in one pass
    wants = [fiber_data_scan(fld, p) for p in shadows]
    crossings = 0
    for got, got_dist, want in zip(np.split(nodes, np.cumsum(counts)[:-1]), dist, wants):
        if want is None:
            assert got.size == 0 and got_dist == np.inf
            continue
        assert got.tolist() == want[2]
        assert got_dist == want[3]  # the bump input
        crossings += len(want[2]) > 1
    assert crossings > 0  # shadows over several fiber intersections are queried
    # the table rows, built in blocks: shadows equal to 12 digits share
    # the row of the first of them
    rows = fld.rows(shadows)
    for row, k in zip(*np.unique(rows, return_index=True)):
        reps, profile = fld.reps[row], fld.profiles[row]
        if wants[k] is None:
            assert np.all(reps == -1) and fld.bumps[row] == 0.0
            continue
        m = len(wants[k][2])
        assert reps[:m].tolist() == wants[k][2] and np.all(reps[m:] == -1)
        assert np.array_equal(profile[1 : m + 1, 0], wants[k][0])  # the prescribed heights
        assert np.array_equal(profile[1 : m + 1, 2], wants[k][1])  # and values
        assert np.all(profile[m + 1 :] == profile[m])  # padding repeats the last row
