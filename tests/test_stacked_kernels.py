"""The stacked Newton, reparametrized-flow and primitive kernels against
the one-seed, one-chord and one-point loops they replaced.  The loops are
kept below as references; every lane of a stack must reproduce its own
loop bit for bit: iterate, residual, iteration count and failure reason
for Newton, rescaled time and endpoint drift for the reparametrized flow,
nearest node and chord action for the primitive.  The one exception is
where BLAS sums a stack in another order than a lone lane, named at its
tolerance."""

import numpy as np
import pytest

from reebkit import catalog_get, numerics
from reebkit.chords import ChordRecord, chords_projection, chords_shooting
from reebkit.collar import (
    REPARAM_DRIFT_TOL,
    REPARAM_ROOT_ITERATIONS,
    REPARAM_ROOT_TOL,
    Verdict,
    chord_action,
    collar_report,
    directional_dh_reeb,
    extend_h,
    reeb_reparam_check,
)
from reebkit.errors import NonFinite, ReparamDegenerate, ReparamUnresolved
from reebkit.models import StandardRModel, _smoothstep
from reebkit.numerics import NewtonResult, integrate_flow, jacobian_fd, newton_solve_stack
from reebkit.slices import ParamSlice, _edge_integrals, circle_factor, interval_factor, primitive

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def reference_newton(system, seed, residual_tol):
    """Damped Newton on one seed, as run once per seed before stacking, with
    the iteration count and damping the stack reads at call time."""
    x = np.atleast_1d(np.array(seed, dtype=float))
    fx = np.atleast_1d(np.asarray(system(x), dtype=float))
    res = float(np.linalg.norm(fx))
    if res <= residual_tol:
        return NewtonResult(True, x, res, 0)
    singular_seen = False
    for it in range(1, numerics.NEWTON_MAX_ITERATIONS + 1):
        jac = jacobian_fd(lambda v: np.atleast_1d(system(v)), x)
        try:
            delta = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            delta, _, rank, _ = np.linalg.lstsq(jac, -fx, rcond=None)
            singular_seen = rank < x.size
        if not np.all(np.isfinite(delta)):
            return NewtonResult(False, x, res, it, failure="singular_jacobian")
        scale = 1.0
        best_x, best_res = None, np.inf
        for _ in range(21):
            x_try = x + scale * delta
            f_try = np.atleast_1d(np.asarray(system(x_try), dtype=float))
            if np.all(np.isfinite(f_try)):
                r_try = float(np.linalg.norm(f_try))
                if r_try < best_res:
                    best_x, best_fx, best_res = x_try, f_try, r_try
                if r_try < res:
                    break
            scale *= numerics.NEWTON_DAMPING
        if best_x is None:
            return NewtonResult(False, x, res, it, failure="singular_jacobian")
        x, fx, res = best_x, best_fx, best_res
        if res <= residual_tol:
            return NewtonResult(True, x, res, it)
    reason = "singular_jacobian" if singular_seen else "max_iterations"
    return NewtonResult(False, x, res, numerics.NEWTON_MAX_ITERATIONS, failure=reason)


def reference_fiber_root(model, h, states, time, seed):
    """The endpoint of one chord's rescaled flow after ``time``: the root of
    g = z + h at g(start) + time on the fiber of ``states[0]`` (the start),
    bracketed by the two samples around it and refined by Newton steps
    seeded at ``seed`` that bisect when they leave the bracket."""
    g = states[:, -1] + h(states)
    target = g[0] + time
    k = int(np.searchsorted(g, target, side="right"))
    assert 0 < k < len(g)
    lo, hi = states[k - 1, -1], states[k, -1]
    end = states[0].copy()
    end[-1] = min(max(seed, lo), hi)
    for _ in range(REPARAM_ROOT_ITERATIONS):
        z = end[-1]
        residual = z + h(end) - target
        rate = 1.0 + directional_dh_reeb(model, h, end)
        if residual < 0.0:
            lo = z
        elif residual > 0.0:
            hi = z
        newton = z - residual / rate
        tol = REPARAM_ROOT_TOL * (1.0 + abs(z))
        if abs(newton - z) <= tol or hi - lo <= tol:
            return end
        end[-1] = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise AssertionError("the reference root solve did not converge")


def reference_reparam(model, h, chords, samples=256):
    """(rescaled times, endpoints (C, d), max endpoint drift) of the
    per-chord loop for a constructed profile h: the Simpson time and the
    fiber root of z + h = (z_0 + h_0) + time, on samples that run from the
    chord's start to one step past its end."""
    times, ends = [], []
    n = samples + samples % 2
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for chord in chords:
        dt = chord.length / n
        states = model.flow(chord.start_point, dt * np.arange(n + 2))
        vals = 1.0 + directional_dh_reeb(model, h, states[:-1])
        times.append(float(dt / 3.0 * np.dot(weights, vals)))
        ends.append(reference_fiber_root(model, h, states, times[-1], chord.end_point[-1]))
    drift = max([0.0, *(float(np.linalg.norm(end - c.end_point)) for end, c in zip(ends, chords))])
    return times, np.array(ends), drift


def reference_node_distances(slc, u):
    """Squared distances from one parameter point to every mesh node,
    shortest way around periodic factors, as scanned once per point before
    stacking."""
    d = slc.mesh.params - slc.mesh.wrap(np.asarray(u, dtype=float))
    for j, f in enumerate(slc.factors):
        if f.periodic:
            d[:, j] = (d[:, j] + 0.5 * f.span) % f.span - 0.5 * f.span
    return np.sum(d * d, axis=1)


def reference_segment(slc, u):
    """(nearest node, segment start, segment end) of one parameter point:
    the segment runs from the node to the point, unwrapped across seams."""
    mesh = slc.mesh
    node = int(np.argmin(reference_node_distances(slc, u)))
    u_node = mesh.params[node]
    return node, u_node, u_node + mesh.unwrap(mesh.wrap(u) - u_node)


def reference_value(prim, u):
    """Primitive at one parameter point: its nearest node's value plus one
    one-segment edge integral, as evaluated per chord endpoint before
    stacking."""
    node, u_a, u_b = reference_segment(prim.slice, u)
    return float(prim.values[node]) + _edge_integrals(prim.model, prim.slice, u_a, u_b)


def reference_actions(prim, chords):
    return np.array([reference_value(prim, c.start_param) - reference_value(prim, c.end_param) for c in chords])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def assert_lanes_match(stack, refs):
    assert len(refs) == len(stack.x)
    for i, ref in enumerate(refs):
        lane = stack.lane(i)
        assert lane.converged == ref.converged, i
        assert np.array_equal(lane.x, ref.x), i
        assert lane.residual_norm == ref.residual_norm, i
        assert lane.iterations == ref.iterations, i
        assert lane.failure == ref.failure, i


def projection_system(slc):
    pdim = slc.param_dim

    def system(w):
        return slc.immerse(w[:pdim])[:-1] - slc.immerse(w[pdim:])[:-1]

    return system


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------


def test_projection_stack_matches_seed_loop(stack_solves):
    entry = catalog_get("sheared_unknot", {"c": 0.1, "resolution": 4096})
    found = chords_projection(entry.model, entry.slice)
    assert len(found) == 1
    ((seeds, residual_tol, result),) = stack_solves
    assert len(seeds) == 749
    system = projection_system(entry.slice)
    assert_lanes_match(result, [reference_newton(system, s, residual_tol) for s in seeds])


def test_projection_stack_matches_seed_loop_r5_curve(stack_solves):
    # the unknot embedded in r5 as (x, y, 0, 0, z): 4 equations in 2
    # unknowns, so every lane takes the Gauss-Newton step
    immersion = catalog_get("unknot").slice.immersion

    def immersion5(u):
        x, y, z = np.moveaxis(immersion(u), -1, 0)
        return np.stack([x, y, np.zeros_like(x), np.zeros_like(x), z], axis=-1)

    slc = ParamSlice([circle_factor()], immersion5, resolution=[128])
    found = chords_projection(StandardRModel(3), slc)
    assert len(found) == 1
    ((seeds, residual_tol, result),) = stack_solves
    assert len(seeds) > 1
    assert_lanes_match(result, [reference_newton(projection_system(slc), s, residual_tol) for s in seeds])


def test_shooting_stack_matches_seed_loop(stack_solves):
    entry = catalog_get("hopf_circle")
    model, slc = entry.model, entry.slice
    chords_shooting(model, slc, 2.0)
    ((seeds, residual_tol, result),) = stack_solves
    assert len(seeds) == 34

    def seed_system(seed):
        # the landing system with the tangent basis at the seed's end node
        node_v = int(np.flatnonzero(np.all(slc.mesh.params == seed[2:], axis=1))[0])
        p = slc.points[node_v]
        basis = np.linalg.svd(p[None, :] / np.linalg.norm(p))[2][1:]

        def system(w):
            big_t = w[1] if w[1] > 0 else 1e-12
            return basis @ (model.flow(slc.immerse(w[:1]), big_t) - slc.immerse(w[2:]))

        return system

    assert_lanes_match(result, [reference_newton(seed_system(s), s, residual_tol) for s in seeds])


def _mixed_lanes():
    def at_root(x):
        return np.array([x[0] - 1.0, x[1] - 2.0])

    def singular(x):  # x1 never enters: a zero Jacobian column, no root
        return np.array([x[0] - 1.0, x[0] + 5.0])

    def nonfinite_trials(x):  # undefined beyond the derivative stencil
        return np.array([np.nan, np.nan]) if x[0] - 1.0 > 1e-4 else np.array([x[0] - 1001.0, x[1]])

    def no_root(x):
        return np.array([x[0] ** 2 + 1.0, x[1]])

    def regular(x):
        return np.array([x[0] ** 2 - 4.0, x[1] - x[0]])

    return [
        (at_root, [1.0, 2.0], (True, 0, None)),
        (singular, [0.0, 0.0], (False, 15, "singular_jacobian")),
        (nonfinite_trials, [1.0, 0.0], (False, 1, "singular_jacobian")),
        (no_root, [0.5, 0.0], (False, 15, "max_iterations")),
        (regular, [3.0, 1.0], (True, None, None)),
    ]


def test_mixed_newton_stack_matches_seed_loop(monkeypatch):
    monkeypatch.setattr(numerics, "NEWTON_MAX_ITERATIONS", 15)
    lanes_spec = _mixed_lanes()
    fns = [fn for fn, _, _ in lanes_spec]
    seeds = np.array([seed for _, seed, _ in lanes_spec])

    def system(x, lanes):
        return np.stack([fns[lane](row) for lane, row in zip(lanes, x)])

    result = newton_solve_stack(system, seeds, 1e-10)
    refs = [reference_newton(fn, seed, 1e-10) for fn, seed, _ in lanes_spec]
    assert_lanes_match(result, refs)
    for ref, (_, _, (converged, iterations, failure)) in zip(refs, lanes_spec):
        assert ref.converged == converged
        assert iterations is None or ref.iterations == iterations
        assert ref.failure == failure


def test_newton_stack_without_lanes():
    result = newton_solve_stack(lambda x, lanes: x, np.zeros((0, 2)), 1e-10)
    assert result.x.shape == (0, 2)
    assert result.converged.shape == result.iterations.shape == (0,)


# ---------------------------------------------------------------------------
# reparametrized-flow check
# ---------------------------------------------------------------------------


def _vertical_chords(xs, lengths):
    return [
        ChordRecord(np.zeros(1), np.zeros(1), np.array([x, 0.3, -0.5]), np.array([x, 0.3, -0.5 + ell]), ell)
        for x, ell in zip(xs, lengths)
    ]


def _bump_profile(p):
    planar = 1.0 - _smoothstep((np.abs(p[..., 0]) - 0.2) / 0.6)
    return 0.3 * planar * _smoothstep((p[..., 2] + 0.9) / 1.5)


def test_reparam_stack_matches_chord_loop():
    model = StandardRModel(2)
    slc = catalog_get("unknot").slice
    chords = _vertical_chords([-0.5, 0.0, 0.1, 0.7, 2.0], [1.0, 1.3, 0.4, 2.0, 0.9])
    out = reeb_reparam_check(model, slc, _bump_profile, chords)
    _, _, drift = reference_reparam(model, _bump_profile, chords)
    assert out["max_endpoint_drift"] == drift
    assert out["pass"]


def test_reparam_root_matches_integrated_rescaled_field():
    # independent of the root solve: Dormand-Prince on the rescaled field
    # R/(1 + dh(R)) for the same Simpson times lands on the same endpoints
    model = StandardRModel(2)
    chords = _vertical_chords([-0.5, 0.0, 0.1, 0.7, 2.0], [1.0, 1.3, 0.4, 2.0, 0.9])
    times, ends, drift = reference_reparam(model, _bump_profile, chords)

    def rescaled(p):
        return model.reeb(p) / (1.0 + directional_dh_reeb(model, _bump_profile, p))

    integrated = np.array([integrate_flow(rescaled, c.start_point, t, tol=1e-10) for c, t in zip(chords, times)])
    assert np.max(np.abs(integrated - ends)) <= 1e-8
    assert np.array_equal(integrated[:, :-1], ends[:, :-1])  # both stay on the start's fiber
    assert 1e-9 < drift < REPARAM_DRIFT_TOL  # the Simpson error shows, well inside the tolerance


def _forbid_integration(monkeypatch):
    import reebkit.numerics

    def never(*args, **kwargs):
        raise AssertionError("a collar run integrated a flow")

    monkeypatch.setattr(reebkit.numerics, "integrate_flow", never)


@pytest.mark.parametrize("name", ["hopf_circle", "unknot"])
def test_trivial_profile_never_integrates(monkeypatch, name):
    # a Legendrian slice's trivial profile rescales nothing: there is no
    # reparam check to run, and the collar verdict needs no integration
    _forbid_integration(monkeypatch)
    entry = catalog_get(name)
    report = collar_report(entry.model, entry.slice)
    assert report.verdict == Verdict.COLLARABLE
    assert report.h_diagnostics["trivial"]
    assert report.h_diagnostics["reparam_pass"] is None
    assert report.h_diagnostics["reparam_max_drift"] is None


@pytest.mark.parametrize("c, verdict", [(0.1, Verdict.COLLARABLE), (-0.5, Verdict.SCHEME_OBSTRUCTED)])
def test_constructed_profile_never_integrates(monkeypatch, c, verdict):
    # a constructed profile's rescaled flow is a root solve along the fiber
    _forbid_integration(monkeypatch)
    entry = catalog_get("sheared_unknot", {"c": c})
    report = collar_report(entry.model, entry.slice)
    assert report.verdict == verdict
    assert not report.h_diagnostics["trivial"]
    assert report.h_diagnostics["reparam_pass"]
    assert 0.0 < report.h_diagnostics["reparam_max_drift"] < 1e-8


def _with_end_height(chord, dz):
    end = chord.end_point.copy()
    end[-1] += dz
    return ChordRecord(chord.start_param, chord.end_param, chord.start_point, end, chord.length)


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_reparam_drift_of_a_shifted_end(sheared_entries, projection_chords, primitives, delta):
    # on c = -0.5 the Simpson time overshoots: the rescaled flow ends past
    # the last sample, which is the recorded end; a record whose end height
    # is off by delta must drift by that, whichever way it is off
    entry = sheared_entries[-0.5]
    (chord,) = projection_chords[("sheared_unknot", -0.5)]
    h = extend_h(entry.model, entry.slice, primitives[("sheared_unknot", -0.5)]).h
    _, (end,), drift = reference_reparam(entry.model, h, [chord])
    last_sample = entry.model.flow(chord.start_point, chord.length / 256 * 256)
    assert end[-1] - last_sample[-1] > 1e-10 and drift > 1e-10
    shifted = _with_end_height(chord, delta)
    out = reeb_reparam_check(entry.model, entry.slice, h, [shifted])
    assert not out["pass"]
    assert out["max_endpoint_drift"] == pytest.approx(abs(delta), abs=1e-8)
    assert out["max_endpoint_drift"] == pytest.approx(float(np.linalg.norm(end - shifted.end_point)), abs=1e-13)


def _hidden_drops(depth, gaps):
    """Profile that drops by ``depth`` inside each of the sample gaps
    ``gaps`` of a unit chord from z = -0.5 (256 samples), so the Simpson
    time, which sees dh(R) = 0 at every sample, misses every drop."""
    dt = 1.0 / 256

    def h(p):
        z = p[..., 2]
        return -depth * sum(_smoothstep((z + 0.5 - (k + 0.25) * dt) / (0.5 * dt)) for k in gaps)

    return h


def test_reparam_root_past_the_last_sample():
    # a drop of 5e-4 that no sample sees: the rescaled flow ends 5e-4 past
    # the chord's last sample and end, and the check must say so
    model = StandardRModel(2)
    slc = catalog_get("unknot").slice
    chords = _vertical_chords([0.4], [1.0])
    h = _hidden_drops(5e-4, [100])
    out = reeb_reparam_check(model, slc, h, chords)
    times, _, _ = reference_reparam(model, h, chords)
    assert times == [1.0]
    assert not out["pass"]
    assert out["max_endpoint_drift"] == pytest.approx(5e-4, abs=1e-13)


def test_reparam_root_beyond_the_samples():
    # three hidden drops of 0.6 sample widths put the endpoint 1.8 sample
    # widths past the chord end, beyond the last sample: not located
    model = StandardRModel(2)
    slc = catalog_get("unknot").slice
    h = _hidden_drops(0.6 / 256, [10, 20, 30])
    with pytest.raises(ReparamUnresolved, match="chord 0"):
        reeb_reparam_check(model, slc, h, _vertical_chords([0.4], [1.0]))


def test_reparam_root_solve_has_a_cap(monkeypatch):
    # the sheared profile's root takes two iterations; with a cap of one
    # the solve must fail, never accept the unconverged iterate
    import reebkit.collar

    entry = catalog_get("sheared_unknot", {"c": 0.1})
    h = extend_h(entry.model, entry.slice, primitive(entry.model, entry.slice)).h
    chords = chords_projection(entry.model, entry.slice)
    assert reeb_reparam_check(entry.model, entry.slice, h, chords)["pass"]
    monkeypatch.setattr(reebkit.collar, "REPARAM_ROOT_ITERATIONS", 1)
    with pytest.raises(ReparamUnresolved, match="did not converge"):
        reeb_reparam_check(entry.model, entry.slice, h, chords)


def test_reparam_nonfinite_profile():
    # the profile is NaN on the sample one step past the chord end
    model = StandardRModel(2)
    slc = catalog_get("unknot").slice
    h = lambda p: np.where(p[..., 2] > 0.502, np.nan, 0.0)  # noqa: E731
    with pytest.raises(NonFinite):
        reeb_reparam_check(model, slc, h, _vertical_chords([0.4], [1.0]))


def test_reparam_degenerate_on_one_chord():
    model = StandardRModel(2)
    slc = catalog_get("unknot").slice
    h = lambda p: np.where(p[..., 0] > 0.0, -2.0 * p[..., 2], 0.0)  # noqa: E731  dh(R) = -2 for x > 0
    chords = _vertical_chords([-1.0, 1.0, -2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ReparamDegenerate):
        reeb_reparam_check(model, slc, h, chords)
    assert reeb_reparam_check(model, slc, h, chords[::2])["pass"]


# ---------------------------------------------------------------------------
# primitive evaluation
# ---------------------------------------------------------------------------


def _torus_queries(slc):
    """Parameters on the exact torus: random points well outside the
    fundamental domain, points on and one period past the seams, and
    points midway between neighbouring nodes along one axis and both."""
    two_pi, h = 2 * np.pi, slc.mesh.spacing(0)
    axis = slc.mesh.axes[0]
    k = np.arange(24)
    return np.concatenate(
        [
            np.random.default_rng(5).uniform(-3 * np.pi, 5 * np.pi, size=(101, 2)),
            [[0.0, 1.0], [two_pi, 2.0], [-two_pi, 0.3], [1.0, two_pi], [two_pi, two_pi], [0.0, 0.0], [2 * two_pi, -two_pi]],
            np.stack([(k + 0.5) * h, axis[k % 3]], axis=-1),
            np.stack([axis[k % 5], axis[k] + 0.5 * h], axis=-1),
            np.stack([(k + 0.5) * h - two_pi, (k + 0.5) * h + two_pi], axis=-1),
            np.stack([axis[k] + 0.5 * h, np.full(24, two_pi)], axis=-1),
        ]
    )


def test_value_at_stack_matches_point_loop(exact_torus):
    model, slc, _ = exact_torus(24)
    prim = primitive(model, slc)
    u = _torus_queries(slc)
    assert len(u) >= 200
    dists = [reference_node_distances(slc, q) for q in u]
    ties = sum(int(np.sum(d == d.min())) > 1 for d in dists)
    assert ties >= 24  # the lowest-index rule decides these
    nodes, u_a, u_b = (np.array(col) for col in zip(*(reference_segment(slc, q) for q in u)))
    assert np.array_equal(slc.nearest_node(u), nodes)
    values = prim.value_at(u)
    # the same nodes and segments, integrated as one stack: bit for bit
    assert np.array_equal(values, prim.values[nodes] + _edge_integrals(model, slc, u_a, u_b))
    # one point at a time: BLAS sums a lone segment's nine Simpson terms
    # (a dot product) in another order than a stack's (a matrix-vector
    # product), so a lane may differ in its last bits
    loop = np.array([reference_value(prim, q) for q in u])
    assert np.max(np.abs(values - loop)) <= 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(loop)))
    # any leading shape, one point as a float, no points as an empty array
    assert np.array_equal(prim.value_at(u.reshape(-1, 3, 1, 2)), values.reshape(-1, 3, 1))
    assert prim.value_at(u[7]) == loop[7] and isinstance(prim.value_at(u[7]), float)
    assert isinstance(slc.nearest_node(u[7]), int)
    assert prim.value_at(np.empty((0, 2))).shape == (0,)
    # chords between these points, as one stack
    chords = [ChordRecord(a, b, slc.immerse(a), slc.immerse(b), 1.0) for a, b in zip(u[::2], u[1::2])]
    actions = chord_action(prim, chords)
    assert np.array_equal(actions, values[::2] - values[1::2])
    assert np.max(np.abs(actions - reference_actions(prim, chords))) <= 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(loop)))


def _grid_slice(factors, resolution):
    return ParamSlice(factors, lambda u: np.concatenate([u, np.sum(u, axis=-1, keepdims=True)], axis=-1),
                      resolution=resolution)


@pytest.mark.parametrize(
    "slc",
    [
        pytest.param(lambda: catalog_get("hopf_circle", {"resolution": 4096}).slice, id="hopf_circle_4096"),
        pytest.param(lambda: catalog_get("sheared_unknot", {"resolution": 4096}).slice, id="sheared_unknot_4096"),
        pytest.param(lambda: catalog_get("torus_r5", {"resolution": 24}).slice, id="torus_r5_24"),
        pytest.param(lambda: catalog_get("unknot", {"resolution": 7}).slice, id="unknot_7"),
        pytest.param(lambda: _grid_slice([interval_factor(0.0, 1.0)], [129]), id="interval_129"),
        pytest.param(lambda: _grid_slice([interval_factor(-1.0, 2.0), circle_factor()], [17, 30]), id="interval_circle"),
        pytest.param(lambda: _grid_slice([interval_factor(0.0, 1.0), circle_factor(1.0), circle_factor(3.0)], [5, 3, 2]),
                     id="interval_circle_circle"),
    ],
)
def test_nearest_node_matches_scan(slc):
    # the 4^d grid candidates against the scan over every node: random
    # points over three spans of the domain, the nodes and the midpoints
    # between neighbours along each axis and all axes, each also shifted by
    # +-1e-17, and the domain's corners
    slc = slc()
    mesh = slc.mesh
    lo = np.array([f.lo for f in slc.factors])
    hi = np.array([f.hi for f in slc.factors])
    half = 0.5 * np.array([mesh.spacing(j) for j in range(slc.param_dim)])
    nodes = mesh.params[:: max(1, mesh.n_nodes // 256)]
    shifts = [np.zeros(slc.param_dim), half, *(half * (np.arange(slc.param_dim) == j) for j in range(slc.param_dim))]
    u = np.concatenate(
        [np.random.default_rng(9).uniform(2 * lo - hi, 2 * hi - lo, size=(512, slc.param_dim)), lo[None], hi[None]]
        + [nodes + shift + eps for shift in shifts for eps in (0.0, 1e-17, -1e-17)]
    )
    reference = np.array([np.argmin(reference_node_distances(slc, q)) for q in u])
    assert np.array_equal(slc.nearest_node(u), reference)
    assert np.array_equal(slc.nearest_node(u.reshape(-1, 1, slc.param_dim)), reference[:, None])
    assert slc.nearest_node(np.empty((0, slc.param_dim))).shape == (0,)


@pytest.mark.parametrize(
    "key, search",
    [
        ("hopf_circle", "shooting"),
        (("sheared_unknot", 0.1), "projection"),
        (("sheared_unknot", -0.5), "projection"),
        ("unknot", "projection"),
    ],
    ids=["hopf_circle", "sheared_unknot_0.1", "sheared_unknot_-0.5", "unknot"],
)
def test_chord_action_stack_matches_chord_loop(key, search, projection_chords, shooting_chords, primitives):
    chords = (shooting_chords if search == "shooting" else projection_chords)[key]
    assert chords
    actions = chord_action(primitives[key], chords)
    assert actions.shape == (len(chords),)
    assert np.array_equal(actions, reference_actions(primitives[key], chords))
