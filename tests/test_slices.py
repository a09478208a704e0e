import itertools
from collections import deque

import numpy as np
import pytest

from reebkit.errors import NonExact, NotClosed
from reebkit.models import StandardRModel
from reebkit.numerics import line_quadrature
from reebkit.catalog import catalog_get
from reebkit.slices import (
    COINCIDENT_TOL,
    DomainFactor,
    Mesh,
    ParamSlice,
    _cochain,
    _sweep_direction,
    _tree_sums,
    check_closed,
    check_transverse,
    circle_factor,
    edge_cochain,
    interval_factor,
    load_mesh_slice,
    periods,
    primitive,
    pullback_alpha,
)

TWO_PI = 2 * np.pi


def test_pullback_unknot_vanishes(unknot_entry):
    m, slc = unknot_entry.model, unknot_entry.slice
    vals = pullback_alpha(m, slc, slc.mesh.params)
    assert np.max(np.abs(vals)) < 1e-9


def test_pullback_circle(circle_entry):
    m, slc = circle_entry.model, circle_entry.slice
    thetas = np.linspace(0, TWO_PI, 37)[:, None]
    vals = pullback_alpha(m, slc, thetas)
    assert np.allclose(vals[:, 0], np.sin(thetas[:, 0]) ** 2, atol=1e-9)


def test_pullback_torus(torus_entry):
    m, slc = torus_entry.model, torus_entry.slice
    rng = np.random.default_rng(0)
    u = rng.uniform(0, TWO_PI, size=(40, 2))
    vals = pullback_alpha(m, slc, u)
    assert np.allclose(vals[:, 0], np.sin(u[:, 0]) ** 2, atol=1e-9)
    assert np.allclose(vals[:, 1], np.sin(u[:, 1]) ** 2, atol=1e-9)


def test_check_closed_curve_vacuous(circle_entry):
    res = check_closed(circle_entry.model, circle_entry.slice)
    assert res.passed
    assert res.value == 0.0


def test_check_closed_torus(torus_entry):
    res = check_closed(torus_entry.model, torus_entry.slice)
    assert res.passed
    assert res.value < 1e-6


def test_check_closed_warped_torus_fails(warped_entry):
    # antisymmetrized derivative is cos(t2) sin(t1), max 1
    res = check_closed(warped_entry.model, warped_entry.slice)
    assert not res.passed
    assert res.value > 0.1
    assert res.value == pytest.approx(1.0, abs=1e-3)


def test_check_transverse_circle(circle_entry):
    res = check_transverse(circle_entry.model, circle_entry.slice)
    assert res.passed
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_check_transverse_vertical_segment(vertical_entry):
    res = check_transverse(vertical_entry.model, vertical_entry.slice)
    assert not res.passed
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_check_transverse_unknot(unknot_entry):
    res = check_transverse(unknot_entry.model, unknot_entry.slice)
    assert res.passed
    assert res.value > 0.1


def test_periods_unknot(unknot_entry):
    assert periods(unknot_entry.model, unknot_entry.slice, check_closed(unknot_entry.model, unknot_entry.slice)) == [0.0]


def test_periods_circle(circle_entry):
    vals = periods(circle_entry.model, circle_entry.slice, check_closed(circle_entry.model, circle_entry.slice))
    assert len(vals) == 1
    assert vals[0] == pytest.approx(np.pi, abs=1e-8)


def test_periods_torus(torus_entry):
    vals = periods(torus_entry.model, torus_entry.slice, check_closed(torus_entry.model, torus_entry.slice))
    assert len(vals) == 2
    assert np.allclose(vals, [np.pi, np.pi], atol=1e-8)


def test_periods_refuses_non_closed(warped_entry):
    with pytest.raises(NotClosed):
        periods(warped_entry.model, warped_entry.slice, check_closed(warped_entry.model, warped_entry.slice))


def test_periods_mesh_refinement_stability(circle_entry):
    from reebkit.catalog import catalog_get

    coarse = periods(circle_entry.model, circle_entry.slice, check_closed(circle_entry.model, circle_entry.slice))
    fine_entry = catalog_get("circle", {"resolution": 512})
    fine = periods(fine_entry.model, fine_entry.slice, check_closed(fine_entry.model, fine_entry.slice))
    assert abs(coarse[0] - fine[0]) < 1e-7


def test_primitive_unknot(primitives):
    f = primitives["unknot"]
    assert f.max_abs() < 1e-8
    assert f.cycle_residual < 1e-6


def test_primitive_sheared(primitives):
    # f(t) = c sin t anchored at t = 0
    f = primitives[("sheared_unknot", -0.5)]
    assert f.value_at([np.pi / 2]) == pytest.approx(-0.5, abs=1e-6)
    assert f.value_at([3 * np.pi / 2]) == pytest.approx(0.5, abs=1e-6)
    diff = f.value_at([np.pi / 2]) - f.value_at([3 * np.pi / 2])
    assert diff == pytest.approx(-1.0, abs=1e-6)


def test_primitive_circle_non_exact(circle_entry):
    with pytest.raises(NonExact) as err:
        primitive(circle_entry.model, circle_entry.slice)
    assert err.value.period == pytest.approx(np.pi, abs=1e-8)


def test_reeb_shear_covariance(unknot_entry, sheared_entries):
    # shearing by g along the Reeb direction adds the differential of g to
    # the pullback and g (up to a constant) to the primitive
    c = 0.25
    base = unknot_entry
    sheared = sheared_entries[c]
    ts = np.linspace(0, TWO_PI, 50, endpoint=False)[:, None]
    d_base = pullback_alpha(base.model, base.slice, ts)
    d_shear = pullback_alpha(sheared.model, sheared.slice, ts)
    assert np.allclose(d_shear - d_base, c * np.cos(ts), atol=1e-8)

    f_base = primitive(base.model, base.slice)
    f_shear = primitive(sheared.model, sheared.slice)
    # both anchored at t=0 where g = c sin 0 = 0
    for t in (0.5, 2.0, 4.4):
        expected = c * np.sin(t)
        assert f_shear.value_at([t]) - f_base.value_at([t]) == pytest.approx(expected, abs=1e-6)


def test_primitive_gauge_shift(primitives):
    f = primitives[("sheared_unknot", -0.5)]
    shifted = f.shifted(13.7)
    a = f.value_at([1.1])
    b = shifted.value_at([1.1])
    assert b - a == pytest.approx(13.7, abs=1e-9)


def _adjacency(mesh: Mesh) -> list[list[int]]:
    """Adjacency lists of the grid graph, built from its edges."""
    adj: list[list[int]] = [[] for _ in range(mesh.n_nodes)]
    for a, b in mesh.edges().tolist():
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _label_components(mesh: Mesh) -> np.ndarray:
    """Reference labelling: connected components of the mesh graph by
    depth-first search, numbered in order of their lowest node."""
    labels = np.full(mesh.n_nodes, -1, dtype=int)
    adj = _adjacency(mesh)
    comp = 0
    for root in range(mesh.n_nodes):
        if labels[root] >= 0:
            continue
        stack = [root]
        labels[root] = comp
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if labels[b] < 0:
                    labels[b] = comp
                    stack.append(b)
        comp += 1
    return labels


@pytest.mark.parametrize(
    "factors, resolution",
    [
        ([circle_factor(TWO_PI)], [5]),
        ([interval_factor(0.0, 1.0)], [4]),
        ([circle_factor(TWO_PI), circle_factor(1.0)], [4, 3]),
        ([circle_factor(TWO_PI), interval_factor(0.0, 1.0)], [3, 4]),
        ([interval_factor(0.0, 1.0), interval_factor(-1.0, 1.0)], [3, 2]),
        ([circle_factor(TWO_PI), interval_factor(0.0, 1.0), circle_factor(TWO_PI)], [3, 2, 4]),
        ([circle_factor(TWO_PI)], [2]),
        ([circle_factor(TWO_PI), circle_factor(TWO_PI)], [2, 2]),
        ([circle_factor(TWO_PI), interval_factor(0.0, 1.0)], [2, 2]),
    ],
)
def test_product_grid_is_connected(factors, resolution):
    slc = ParamSlice(factors, lambda u: np.asarray(u, dtype=float), resolution=resolution)
    assert _label_components(slc.mesh).tolist() == [0] * slc.mesh.n_nodes


def test_embedding_proxy(unknot_entry):
    slc = unknot_entry.slice
    assert slc.embedded_at_mesh_scale(5.0 * slc.mesh.max_spacing())
    # constant map collapses everything: coincident points at all distances
    squash = ParamSlice(
        [circle_factor(TWO_PI)],
        lambda u: np.broadcast_to(np.array([1.0, 0.0, 0.0]), u.shape[:-1] + (3,)).copy(),
        resolution=[32],
    )
    assert not squash.embedded_at_mesh_scale(5.0 * squash.mesh.max_spacing())
    # the end nodes t = 0 and t = pi collide 2e-16 apart (scale 1), on
    # either side of z = 0.5e-9: rounding z / 1e-9 to buckets splits them
    straddle = ParamSlice(
        [interval_factor(0.0, np.pi)],
        lambda u: np.stack(
            [np.sin(u[..., 0]), np.sin(2 * u[..., 0]) / 2, 0.4999999e-9 + 2e-16 * u[..., 0] / np.pi], axis=-1
        ),
        resolution=[32],
    )
    assert np.max(np.abs(straddle.points)) <= 1.0
    assert straddle.points[0, 2] == 0.4999999e-9
    assert straddle.points[-1, 2] == pytest.approx(0.5000001e-9, abs=1e-22)
    assert straddle.coincident_point_pairs().tolist() == [[0, 31]]
    assert not straddle.embedded_at_mesh_scale(5.0 * straddle.mesh.max_spacing())


def _cloud_slice(cloud: np.ndarray) -> ParamSlice:
    """A 1-D slice whose node k is the point cloud[k]."""
    return ParamSlice(
        [interval_factor(0.0, len(cloud) - 1.0)],
        lambda u: cloud[np.rint(u[..., 0]).astype(int)],
        resolution=[len(cloud)],
    )


def _brute_coincident_pairs(points: np.ndarray) -> np.ndarray:
    """Every pair i < j with the squared distance, summed column by
    column, at most tol^2: the O(N^2) reference."""
    tol = COINCIDENT_TOL * max(1.0, float(np.max(np.abs(points))))
    i, j = np.triu_indices(len(points), k=1)
    d2 = np.zeros(len(i))
    for x in points.T:
        d2 += (x[i] - x[j]) ** 2
    near = d2 <= tol * tol
    return np.stack([i[near], j[near]], axis=1)


def _planted_cloud(dim: int, seed: int):
    """A seeded cloud in [-1, 1]^dim (so the tolerance is COINCIDENT_TOL)
    with planted pairs, and the (inside, outside) node pairs planted at
    tol (1 -+ 1e-12) apart.  Those sit within 1e-6 of the origin, where
    the coordinates resolve the 1e-12; other pairs, tol / 2 apart along
    the sweep direction, straddle the faces of its 1-D cells."""
    rng = np.random.default_rng(seed)
    tol, w = COINCIDENT_TOL, _sweep_direction(dim)
    cloud = [rng.uniform(-1.0, 1.0, size=(400, dim))]
    inside, outside = [], []
    for k in range(16):
        base = (k + 1) * 1e-7 * rng.choice([-1.0, 1.0], size=dim)
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        planted = inside if k % 2 else outside
        planted.append((sum(map(len, cloud)), sum(map(len, cloud)) + 1))
        cloud.append(np.stack([base, base + (1 - 1e-12 if k % 2 else 1 + 1e-12) * tol * u]))
    origin = float(np.min(cloud[0] @ w))
    cell = 2 * tol * (1 + 2.0**-16)
    for x in rng.uniform(-0.9, 0.9, size=(20, dim)):
        face = origin + cell * np.ceil((x @ w - origin) / cell)  # the next face of x's cell along w
        p = x + (face - x @ w - tol / 4) * w
        cloud.append(np.stack([p, p + tol / 2 * w]))
    return np.concatenate(cloud), inside, outside


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coincident_pairs_match_brute_force(dim, seed):
    cloud, inside, outside = _planted_cloud(dim, seed)
    got = _cloud_slice(cloud).coincident_point_pairs()
    expected = _brute_coincident_pairs(cloud)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    found = set(map(tuple, got.tolist()))
    assert set(inside) <= found
    assert not set(outside) & found
    assert len(found) == len(inside) + 20  # and the planted face straddlers


@pytest.mark.parametrize("dim", [3, 5])
def test_coincident_pairs_on_one_sweep_value(dim):
    # every point lies in the hyperplane orthogonal to the sweep
    # direction, so all share one 1-D cell: the pairs stay exact, and the
    # candidates are expanded block by block instead of all N^2 / 2 at once
    import tracemalloc

    rng = np.random.default_rng(dim)
    w = _sweep_direction(dim)
    basis = np.linalg.qr(np.column_stack([w, rng.normal(size=(dim, dim - 1))]))[0][:, 1:]
    cloud = rng.uniform(-0.5, 0.5, size=(2000, dim - 1)) @ basis.T
    cloud[1::50] = cloud[::50] + 0.4 * COINCIDENT_TOL * basis[:, 0]
    assert np.ptp(cloud @ w) < COINCIDENT_TOL
    slc = _cloud_slice(cloud)
    tracemalloc.start()
    try:
        got = slc.coincident_point_pairs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _brute_coincident_pairs(cloud))
    assert len(got) == 40
    assert peak < 16 * 2**20  # all 2M candidates at once take over 100 MB


def test_coincident_scan_keeps_few_candidates(torus_entry, monkeypatch):
    # torus_r5 at 96 x 96: the 1-D sweep passes at most one candidate per
    # node to the exact distance test
    import reebkit.slices
    from reebkit.spatial import GridIndex

    slc = torus_entry.slice
    assert slc.mesh.shape == (96, 96)
    tested = []

    class Counted(GridIndex):
        def close_pairs(self, radius, keep=None):
            assert self.points.shape == (slc.mesh.n_nodes, 1)

            def counted(i, j):
                tested.append(len(i))
                return keep(i, j)

            return super().close_pairs(radius, keep=counted)

    monkeypatch.setattr(reebkit.slices, "GridIndex", Counted)
    assert slc.coincident_point_pairs().shape == (0, 2)
    assert sum(tested) <= slc.mesh.n_nodes


@pytest.mark.parametrize("name", ["circle", "unknot", "hopf_circle", "vertical_segment"])
def test_periods_from_shared_cochain_match_bitwise(name):
    # a 1-D slice's one generator loop is all of edges(), in order: the
    # periods summed from the all-edge cochain are the integrated ones
    entry = catalog_get(name)
    model, slc = entry.model, entry.slice
    closed = check_closed(model, slc)
    cochain = edge_cochain(model, slc)
    assert periods(model, slc, closed, cochain) == periods(model, slc, closed)
    if name != "circle":
        shared, own = primitive(model, slc, cochain), primitive(model, slc)
        assert np.array_equal(shared.values, own.values)


def test_periods_read_from_the_cochain_on_a_torus(torus_entry):
    # on 2-D meshes the loops read from the all-edge cochain agree with
    # the loops integrated on their own up to round-off
    model, slc = torus_entry.model, torus_entry.slice
    closed = check_closed(model, slc)
    shared = periods(model, slc, closed, edge_cochain(model, slc))
    assert shared == pytest.approx(periods(model, slc, closed), rel=1e-12)
    assert shared == pytest.approx([np.pi, np.pi], rel=1e-6)


def test_on_manifold_at_nodes(hopf_entry):
    defect = np.abs(np.linalg.norm(hopf_entry.slice.points, axis=1) - 1.0)
    assert np.max(defect) < 1e-9


def test_mesh_file_round_trip(tmp_path, sheared_entries):
    entry = sheared_entries[-0.5]
    slc = entry.slice
    path = tmp_path / "mesh.csv"
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        for u, p in zip(slc.mesh.params, slc.points):
            fh.write(",".join(f"{v:.17g}" for v in [u[0], *p]) + "\n")
    loaded = load_mesh_slice(path, 1, [True])
    assert loaded.mesh.n_nodes == slc.mesh.n_nodes
    assert np.max(np.abs(loaded.points - slc.points)) < 1e-12
    vals = periods(entry.model, loaded, check_closed(entry.model, loaded))
    assert vals == [0.0]
    f = primitive(entry.model, loaded)
    assert f.value_at([np.pi / 2]) == pytest.approx(-0.5, abs=1e-5)


def test_mesh_file_rejects_partial_grid(tmp_path):
    path = tmp_path / "broken.csv"
    with open(path, "w") as fh:
        fh.write("u,v,x,y,z\n")
        fh.write("0,0,1,0,0\n0,1,0,1,0\n1,0,0,0,1\n")  # 3 rows cannot fill a 2x2 grid
    with pytest.raises(ValueError):
        load_mesh_slice(path, 2, [False, False])


def test_interval_factor_mesh():
    slc = ParamSlice(
        [interval_factor(0.0, 1.0)],
        lambda u: np.stack([u[..., 0], np.zeros_like(u[..., 0]), np.zeros_like(u[..., 0])], axis=-1),
        resolution=[17],
    )
    assert slc.mesh.n_nodes == 17
    assert slc.mesh.params[0, 0] == 0.0
    assert slc.mesh.params[-1, 0] == 1.0
    res = check_transverse(StandardRModel(2), slc)
    assert res.passed  # horizontal segment is transverse to the vertical Reeb field


def test_mesh_edges_order():
    # axis 0 edges first (periodic, wrapping), then axis 1 (interval), each
    # in row-major order of the first node
    mesh = Mesh([circle_factor(TWO_PI), interval_factor(0.0, 1.0)], [3, 2])
    expected = [(0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1), (0, 1), (2, 3), (4, 5)]
    assert mesh.edges().tolist() == [list(e) for e in expected]
    # each node's neighbours in the order of its edges, padded with -1
    assert mesh.neighbors().tolist() == [[2, 4, 1], [3, 5, 0], [0, 4, 3], [1, 5, 2], [2, 0, 5], [3, 1, 4]]
    assert Mesh([interval_factor(0.0, 1.0)], [3]).neighbors().tolist() == [[1, -1], [0, 2], [1, -1]]
    views = mesh.axis_views(mesh.edges())  # one grid of edges per axis
    assert [v.shape for v in views] == [(3, 2, 2), (3, 1, 2)]
    assert views[0][2, 1].tolist() == [5, 1] and views[1][1, 0].tolist() == [2, 3]
    vec = mesh.edge_vector(mesh.edges()[:, 0], mesh.edges()[:, 1])
    assert np.allclose(vec[:6], [[TWO_PI / 3, 0.0]] * 6)  # the seam edge is unwrapped
    assert np.allclose(vec[6:], [[0.0, 1.0]] * 3)


@pytest.mark.parametrize("name, params", [("sheared_unknot", {"c": -0.5}), ("torus_r5", {"resolution": 16})])
def test_stacked_quadrature_matches_per_edge_loop(name, params):
    from reebkit.catalog import catalog_get

    entry = catalog_get(name, params)
    model, slc = entry.model, entry.slice
    edges = slc.mesh.edges()
    u_a = slc.mesh.params[edges[:, 0]]
    u_b = u_a + slc.mesh.edge_vector(edges[:, 0], edges[:, 1])
    form = lambda u: pullback_alpha(model, slc, u)
    stacked = line_quadrature(form, u_a, u_b, segments=4)
    looped = np.array([line_quadrature(form, a, b, segments=4) for a, b in zip(u_a, u_b)])
    assert stacked.shape == (len(edges),)
    # the stack sums in another order, so allow a few ulp of the edge values
    assert np.max(np.abs(stacked - looped)) <= 8 * np.finfo(float).eps


def test_primitive_exact_torus(exact_torus):
    # the primitive anchored at node 0 = (0, 0) is g - g(0, 0)
    model, slc, g = exact_torus(48)
    assert periods(model, slc, check_closed(model, slc)) == [0.0, 0.0]
    f = primitive(model, slc)
    u, v = slc.mesh.params[:, 0], slc.mesh.params[:, 1]
    assert np.max(np.abs(f.values - (g(u, v) - g(0.0, 0.0)))) < 1e-6
    assert f.cycle_residual < 1e-6
    for w in ([1.0, 2.0], [6.2, 0.05], [3.3, 5.9]):
        assert f.value_at(w) == pytest.approx(g(*w) - g(0.0, 0.0), abs=1e-6)


def _bfs_primitive(mesh: Mesh, cochain: np.ndarray) -> np.ndarray:
    """Reference: node values from 0 at node 0, adding the cochain (minus
    it against an edge's orientation) along a breadth-first search over
    adjacency lists of the grid edges."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(mesh.n_nodes)]
    for a, b, c in zip(*mesh.edges().T.tolist(), cochain.tolist()):
        adj[a].append((b, c))
        adj[b].append((a, -c))
    values = np.zeros(mesh.n_nodes)
    visited = np.zeros(mesh.n_nodes, dtype=bool)
    visited[0] = True
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b, c in adj[a]:
            if not visited[b]:
                visited[b] = True
                values[b] = values[a] + c
                queue.append(b)
    return values


def _small_grids():
    """Every grid of 1-2 factors with 2-9 nodes each and of 3 factors with
    2-5 nodes each, every factor periodic or not."""
    for k, sizes in ((1, range(2, 10)), (2, range(2, 10)), (3, range(2, 6))):
        for resolution in itertools.product(sizes, repeat=k):
            for periodic in itertools.product((False, True), repeat=k):
                yield Mesh([DomainFactor(0.0, 1.0, p) for p in periodic], resolution)


def test_tree_sums_match_bfs_bitwise_on_small_grids():
    # random cochains of magnitudes 1e-8 to 1e2 and both signs, so a
    # different summation order or tree would show in the last bits
    rng = np.random.default_rng(11)
    count = 0
    for mesh in _small_grids():
        n_edges = len(mesh.edges())
        cochain = rng.choice([-1.0, 1.0], n_edges) * 10.0 ** rng.uniform(-8.0, 2.0, n_edges)
        want = _bfs_primitive(mesh, cochain)
        got = _tree_sums(mesh, cochain)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (mesh.shape, [f.periodic for f in mesh.factors])
        count += 1
    assert count == 784


@pytest.mark.parametrize("name", ["sheared_unknot", "hopf_circle", "exact_torus"])
def test_primitive_matches_bfs_bitwise(name, exact_torus):
    if name == "exact_torus":
        model, slc, _ = exact_torus(47)
    else:
        params = {"c": 0.1, "resolution": 4096} if name == "sheared_unknot" else {}
        entry = catalog_get(name, params)
        model, slc = entry.model, entry.slice
    values = primitive(model, slc).values
    want = _bfs_primitive(slc.mesh, _cochain(model, slc, slc.mesh.edges()))
    assert np.array_equal(values.view(np.int64), want.view(np.int64))


def test_far_apart_matches_param_distance_on_small_grids():
    # radii exactly on offset lengths (k steps along an axis, and the
    # distances of node pairs themselves) put pairs on the boundary, where
    # the parameters decide
    rng = np.random.default_rng(5)
    count = 0
    for mesh in _small_grids():
        i, j = (g.ravel() for g in np.meshgrid(np.arange(mesh.n_nodes), np.arange(mesh.n_nodes), indexing="ij"))
        dist = mesh.param_distance(mesh.params[i], mesh.params[j])
        radii = [k * mesh.spacing(0) for k in (1, 2, 5)] + [5.0 * mesh.max_spacing(), 0.0]
        radii += rng.choice(dist, size=3).tolist()
        for radius in radii:
            assert np.array_equal(mesh.far_apart(i, j, radius), dist > radius), (mesh.shape, radius)
        count += 1
    assert count == 784
