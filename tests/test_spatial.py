"""The grid index against brute force and against the per-point probe it
replaced, and the fiber field that queries it against an all-nodes scan."""

import tracemalloc

import numpy as np
import pytest

from reebkit import catalog_get, chords_projection, primitive
from reebkit.chords import _exclusion_radius
from reebkit.collar import FiberBumpField
from reebkit.models import StandardRModel
from reebkit.slices import Mesh, ParamSlice, _ambient_spacing, circle_factor, interval_factor
from reebkit.spatial import GridIndex

CELL = 0.1
CIRCLE = circle_factor(2 * np.pi)


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
    got = GridIndex(pts, cell_size=CELL).close_pairs(radius)
    want = _brute_pairs(pts, radius)  # ascending (i, j) by construction
    assert len(want) >= 10  # the test sees real neighbours
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_close_pairs_keep_sees_exactly_the_pairs_within_the_radius(dim):
    pts = _points(dim, seed=20 + dim)
    seen = []

    def odd_sum(i, j):
        assert np.all(i < j)
        seen.append(np.stack([i, j], axis=1))
        return (i + j) % 2 == 1

    got = GridIndex(pts, cell_size=CELL).close_pairs(CELL, keep=odd_sum)
    brute = _brute_pairs(pts, CELL)
    want = brute[brute.sum(axis=1) % 2 == 1]
    assert len(want) >= 10
    assert np.array_equal(got, want)
    seen = np.concatenate(seen)
    assert len(seen) == len(brute)  # each close pair once, after the distance test
    assert np.array_equal(np.unique(seen, axis=0), brute)


# integer offsets of length 5 per dimension, across cell faces and corners
_RADIUS_OFFSETS = {
    1: [[5]],
    2: [[3, 4], [5, 0]],
    3: [[0, 3, 4], [4, 3, 0], [0, 0, 5]],
    4: [[1, 2, 2, 4], [0, 0, 3, 4]],
    5: [[2, 2, 2, 2, 3], [1, 2, 2, 4, 0], [0, 0, 0, 0, 5]],
}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [2.0**-7, 2.0**-1, 2.0**4])
def test_close_pairs_exact_at_the_radius(dim, scale):
    # radius 5 scale and points on the grid of multiples of scale, so every
    # coordinate difference and square is exact: pairs planted at distance
    # exactly the radius, with random signs, across cell faces and corners,
    # pairs one step of rounding beyond it, and duplicates
    rng = np.random.default_rng(dim)
    radius = 5 * scale
    base = rng.integers(-30, 30, size=(80, dim)) * scale
    offsets = np.array(_RADIUS_OFFSETS[dim])[rng.integers(0, len(_RADIUS_OFFSETS[dim]), size=80)]
    exact = base + offsets * rng.choice([-1, 1], size=(80, dim)) * scale
    rows, axes = np.arange(20), np.argmax(offsets[:20], axis=1)  # a nonzero offset of each row
    beyond = exact[:20].copy()
    away = np.where(exact[rows, axes] > base[rows, axes], np.inf, -np.inf)
    beyond[rows, axes] = np.nextafter(exact[rows, axes], away)
    pts = np.concatenate([base, exact, beyond, base[:10], exact[:10]])
    index = GridIndex(pts, cell_size=radius)
    brute = _brute_pairs(pts, radius)
    assert set(zip(range(80), range(80, 160))) <= set(map(tuple, brute.tolist()))  # every planted pair at r
    assert np.array_equal(index.close_pairs(radius), brute)

    def every_third(i, j):
        return (3 * i + j) % 3 != 0

    want = brute[(3 * brute[:, 0] + brute[:, 1]) % 3 != 0]
    assert np.array_equal(index.close_pairs(radius, keep=every_third), want)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_close_pairs_without_a_pair(dim):
    # a single point; points three cells apart on the diagonal (no two in
    # neighbouring cells); points in neighbouring cells beyond the radius
    apart = np.arange(6)[:, None] * np.full(dim, 3 * CELL)
    steps = np.zeros((6, dim))
    steps[:, 0] = 1.5 * CELL * np.arange(6)
    for pts in (np.zeros((1, dim)), apart, steps):
        index = GridIndex(pts, cell_size=CELL)
        for keep in (None, lambda i, j: np.ones(len(i), dtype=bool)):
            got = index.close_pairs(CELL, keep=keep)
            assert got.shape == (0, 2)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_close_pairs_in_one_cell_with_duplicates(dim):
    # every point in one cell, a third of them repeated: the cell pairs
    # with itself only, and a duplicate is a pair at distance 0
    rng = np.random.default_rng(dim)
    pts = rng.uniform(0.0, 0.4 * CELL, size=(120, dim))
    pts[80:] = pts[rng.integers(0, 80, size=40)]
    index = GridIndex(pts, cell_size=CELL)
    assert len(index._cells) == 1
    for radius in (CELL, 0.1 * CELL, 0.0):
        assert np.array_equal(index.close_pairs(radius), _brute_pairs(pts, radius))
    assert len(index.close_pairs(0.0)) >= 40


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_half_stencil_visits_each_neighbour_cell_pair_once(dim):
    # no two of the 3^d offsets share a code, and none but 0 hashes to 0 or
    # to its own negative, so the half stencil holds 0 and one code of each
    # pair of opposite offsets
    index = GridIndex(np.zeros((1, dim)), cell_size=CELL)
    assert len(index._stencil) == 3**dim
    assert len(index._half) == (3**dim + 1) // 2
    assert np.array_equal(np.union1d(index._half, -index._half), index._stencil)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_close_pairs_on_a_long_lattice(dim):
    # one-cell steps far from the grid origin: the two ends of a step get
    # their cell keys from independently rounded quotients
    pts = np.zeros((400, dim))
    pts[:, 0] = np.arange(-200, 200) * CELL
    got = GridIndex(pts, cell_size=CELL).close_pairs(CELL)
    assert np.array_equal(got, _brute_pairs(pts, CELL))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [CELL, 0.6 * CELL])
def test_ball_and_nearest_match_brute_force(dim, radius):
    pts = _points(dim, seed=10 + dim)
    index = GridIndex(pts, cell_size=CELL)
    rng = np.random.default_rng(dim)
    queries = np.concatenate([pts[::7], rng.uniform(-0.4, 0.4, size=(60, dim)), np.full((1, dim), 5.0)])
    queries[-6:-1] = np.round(queries[-6:-1] / CELL) * CELL
    rows, hits, _ = index.query_ball(queries, radius)  # the whole stack in one call
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


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("radius", [CELL, 0.6 * CELL])
def test_ball_query_matches_sum_and_lexsort_reference(dim, radius):
    # two points planted per query at radius * (1 -+ 1e-12), one just inside
    # the ball and one just outside it
    rng = np.random.default_rng(40 + dim)
    queries = rng.uniform(-0.25, 0.25, size=(40, dim))
    directions = rng.normal(size=(40, 2, dim))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    planted = queries[:, None] + radius * np.array([1 - 1e-12, 1 + 1e-12])[:, None] * directions
    pts = np.concatenate([rng.uniform(-0.25, 0.25, size=(300, dim)), planted.reshape(-1, dim)])
    index = GridIndex(pts, cell_size=CELL)
    rows, hits, d2 = index.query_ball(queries, radius)
    # the reference: np.sum distances over every (query, point) pair, in
    # the lexsort order of (row, index)
    r, h = np.divmod(np.arange(len(queries) * len(pts)), len(pts))
    ref_d2 = np.sum((pts[h] - queries[r]) ** 2, axis=1)
    near = np.flatnonzero(ref_d2 <= radius * radius)
    near = near[np.lexsort((h[near], r[near]))]
    assert np.array_equal(rows, r[near]) and np.array_equal(hits, h[near])
    assert np.array_equal(d2, ref_d2[near])  # bit for bit, in the same order
    inside = set(zip(rows.tolist(), hits.tolist()))
    for k in range(len(queries)):
        assert (k, 300 + 2 * k) in inside and (k, 301 + 2 * k) not in inside
    nearest, dist = index.nearest_within(queries, radius)
    for k, q in enumerate(queries):
        want = hits[rows == k]
        d = np.linalg.norm(pts[want] - q, axis=1)
        assert (nearest[k], dist[k]) == (want[np.argmin(d)], np.min(d))


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
        index.close_pairs(1.01 * CELL)
    for radius in (-0.1 * CELL, -0.0 - 1e-300, np.nan, np.inf, -np.inf):
        for query in (
            lambda r: index.query_ball(np.zeros((1, 3)), r),
            lambda r: index.nearest_within(np.zeros((1, 3)), r),
            lambda r: index.close_pairs(r),
        ):
            with pytest.raises(ValueError):
                query(radius)
    with pytest.raises(ValueError):
        GridIndex(np.zeros((2, 3)), cell_size=0.0)


def per_point_close_pairs(index: GridIndex, radius: float) -> np.ndarray:
    """Reference for ``GridIndex.close_pairs``: the per-point probe it
    replaced.  Each point probes all 3^d neighbour cells of its own cell, in
    blocks of points; the i < j half within ``radius`` is kept, sorted by
    (i, j) per block."""
    blocks = []
    for lo in range(0, len(index.points), 200):
        rows, slots = index._probe(index._codes[lo : lo + 200])
        j = index._order[slots]
        upper = rows + lo < j
        i, j = rows[upper] + lo, j[upper]
        near = np.sum((index.points[i] - index.points[j]) ** 2, axis=1) <= radius * radius
        i, j = i[near], j[near]
        order = np.lexsort((j, i))
        blocks.append(np.stack([i[order], j[order]], axis=1))
    return np.concatenate(blocks)


@pytest.mark.parametrize(
    "name, params, n_close, n_seeds",
    [
        ("torus_r5", {"resolution": 96}, 129_024, 0),
        ("sheared_unknot", {"c": 0.1, "resolution": 4096}, None, 749),
        ("warped_torus", {}, 115_912, 0),
    ],
)
def test_projection_seeds_match_per_point_probe(stack_solves, name, params, n_close, n_seeds):
    # the seed pairs: close projections (per-point probe) whose parameters
    # are beyond the exclusion radius (param_distance), as before the half
    # stencil and the offset test
    entry = catalog_get(name, params)
    slc, mesh = entry.slice, entry.slice.mesh
    seed_radius, exclusion = slc.projection_index.cell_size, _exclusion_radius(slc)
    index = GridIndex(slc.points[:, :-1], cell_size=seed_radius)
    close = per_point_close_pairs(index, seed_radius)
    assert np.array_equal(index.close_pairs(seed_radius), close)
    if n_close is not None:
        assert len(close) == n_close
    want = close[mesh.param_distance(mesh.params[close[:, 0]], mesh.params[close[:, 1]]) > exclusion]
    assert len(want) == n_seeds
    chords_projection(entry.model, entry.slice)
    ((seeds, _, _),) = stack_solves
    assert np.array_equal(seeds, np.concatenate([mesh.params[want[:, 0]], mesh.params[want[:, 1]]], axis=1))


def test_projection_seed_scan_work_on_torus(monkeypatch):
    # on torus_r5 at 96x96 the projection distance test leaves the 129,024
    # close pairs of the per-point probe for the grid-offset rule, which
    # keeps none of them (no parameters beyond the exclusion radius): no seed
    candidates, tested = [], []
    original = Mesh.far_apart

    def counted(mesh, i, j, radius):
        far = original(mesh, i, j, radius)
        candidates.append(len(i))
        tested.append(int(np.sum(far)))
        return far

    monkeypatch.setattr(Mesh, "far_apart", counted)
    entry = catalog_get("torus_r5", {"resolution": 96})
    assert chords_projection(entry.model, entry.slice) == []
    assert sum(candidates) == 129_024
    assert sum(tested) == 0


def test_projection_seed_scan_memory_on_torus():
    # torus_r5 at 192x192 (36,864 nodes): the cell pairs expand to lanes and
    # candidates a block at a time, so the scan's traced peak stays small
    entry = catalog_get("torus_r5", {"resolution": 192})
    slc, mesh = entry.slice, entry.slice.mesh
    seed_radius, exclusion = slc.projection_index.cell_size, _exclusion_radius(slc)
    index = GridIndex(slc.points[:, :-1], cell_size=seed_radius)
    tracemalloc.start()
    try:
        pairs = index.close_pairs(seed_radius, keep=lambda i, j: mesh.far_apart(i, j, exclusion))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.shape == (0, 2)
    assert peak < 6 * 2**20


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


FOLD = interval_factor(0.3, 2 * np.pi - 0.3)  # cos folds it 2:1


def _fiber_input(build, exact_torus):
    """(model, slice) of one input of the fiber pass test."""
    if build == "sheared_unknot":
        entry = catalog_get("sheared_unknot", {"c": 0.1, "resolution": 256})
        return entry.model, entry.slice
    if build == "interval_curve":  # a figure eight, its double point at u = pi/2 and 3 pi/2
        return StandardRModel(2), ParamSlice(
            [FOLD], lambda w: np.stack([np.cos(w[..., 0]), np.sin(2 * w[..., 0]) / 2, np.sin(w[..., 0])], axis=-1),
            resolution=[200],
        )
    if build == "line_ends":
        # x = u + v over integer u and v in [0, 1]: node (i, m - 1) has the
        # shadow of node (i + 1, 0), the next index, with no edge between
        # them; the u-edges are longer than the fiber radius
        return StandardRModel(2), ParamSlice(
            [interval_factor(0.0, 3.0), interval_factor(0.0, 1.0)],
            lambda w: np.stack([w[..., 0] + w[..., 1], np.zeros(w.shape[:-1]), w[..., 0]], axis=-1),
            resolution=[4, 12],
        )
    factors = {"exact_torus": [CIRCLE] * 2, "interval_x_circle": [FOLD, CIRCLE], "circle_x_interval": [CIRCLE, FOLD]}
    return exact_torus(24, factors[build])[:2]


@pytest.mark.parametrize(
    "build",
    ["sheared_unknot", "exact_torus", "interval_curve", "interval_x_circle", "circle_x_interval", "line_ends"],
)
def test_fiber_data_matches_all_nodes_scan(build, exact_torus):
    # the 1-D curves have double points in their projections; the 2-D torus
    # folds its projection up to 4:1, and symmetric shadows tie exactly; the
    # strips end on intervals, along the last axis or the first
    model, slc = _fiber_input(build, exact_torus)
    fld = FiberBumpField(slc, primitive(model, slc), margin=0.05)
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
    # the table rows, appended in one step after fiber passes of
    # _FIBER_BLOCK shadows: bitwise equal shadows share the row of the
    # first of them
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


def test_projection_index_is_built_once_per_slice(monkeypatch):
    # the projection seed scan and the fiber field share the slice's index
    # over the node shadows; the fiber radii stay 3x and 1.5x the projected
    # spacing, bit for bit
    entry = catalog_get("sheared_unknot", {"c": 0.1, "resolution": 256})
    slc, built, init = entry.slice, [], GridIndex.__init__

    def counted(index, points, cell_size):
        built.append(np.array_equal(points, slc.points[:, :-1]))
        init(index, points, cell_size)

    monkeypatch.setattr(GridIndex, "__init__", counted)
    chords_projection(entry.model, slc)
    fld = FiberBumpField(slc, primitive(entry.model, slc), margin=0.05)
    assert sum(built) == 1 and fld._index is slc.projection_index
    spacing = _ambient_spacing(slc.points[:, :-1], slc.mesh)
    assert fld.r_cut == 3.0 * spacing and fld.r_plateau == 1.5 * spacing
