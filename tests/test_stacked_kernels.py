"""The stacked Newton, Dormand-Prince and primitive kernels against the
one-seed, one-start and one-point loops they replaced.  The loops are kept
below as references; every lane of a stack must reproduce its own loop bit
for bit: iterate, residual, iteration count and failure reason for Newton,
endpoint for the flow, nearest node and chord action for the primitive.
The one exception is where BLAS sums a stack in another order than a lone
lane, named at its tolerance."""

import numpy as np
import pytest

from reebkit import catalog_get
from reebkit.chords import ChordRecord, SearchOptions, chords_projection, chords_shooting
from reebkit.collar import Verdict, chord_action, collar_report, directional_dh_reeb, reeb_reparam_check
from reebkit.errors import NonFinite, ReparamDegenerate, StepUnderflow
from reebkit.models import StandardRModel, _smoothstep
from reebkit.numerics import NewtonOptions, NewtonResult, integrate_flow, jacobian_fd, newton_solve_stack
from reebkit.slices import _NEAREST_BLOCK, ParamSlice, _edge_integrals, circle_factor, primitive

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def reference_newton(system, seed, opts):
    """Damped Newton on one seed, as run once per seed before stacking."""
    x = np.atleast_1d(np.array(seed, dtype=float))
    fx = np.atleast_1d(np.asarray(system(x), dtype=float))
    res = float(np.linalg.norm(fx))
    if res <= opts.residual_tol:
        return NewtonResult(True, x, res, 0)
    singular_seen = False
    for it in range(1, opts.max_iterations + 1):
        jac = jacobian_fd(lambda v: np.atleast_1d(system(v)), x, opts.fd_step)
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
            scale *= opts.damping
        if best_x is None:
            return NewtonResult(False, x, res, it, failure="singular_jacobian")
        x, fx, res = best_x, best_fx, best_res
        if res <= opts.residual_tol:
            return NewtonResult(True, x, res, it)
    reason = "singular_jacobian" if singular_seen else "max_iterations"
    return NewtonResult(False, x, res, opts.max_iterations, failure=reason)


_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def reference_flow(field, start, duration, tol=1e-10):
    """Dormand-Prince 5(4) on one start, as run once per chord before
    stacking."""
    y = np.array(start, dtype=float)
    if duration == 0.0:
        return y
    h_floor = 1e-14 * max(1.0, duration)
    h = duration / 100.0
    t = 0.0
    k1 = np.asarray(field(y), dtype=float)
    while t < duration:
        h = min(h, duration - t)
        if h < h_floor:
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t:.6g}")
        k = np.empty((7,) + y.shape)
        k[0] = k1
        for i in range(1, 7):
            k[i] = field(y + h * np.tensordot(np.array(_DP_A[i]), k[:i], axes=(0, 0)))
        err = h * float(np.linalg.norm(np.tensordot(_DP_ERR, k, axes=(0, 0))))
        if err <= tol:
            y = y + h * np.tensordot(_DP_B5, k, axes=(0, 0))
            t += h
            k1 = k[6]
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        h *= factor
    return y


def reference_reparam(model, h, chords, samples=256):
    """(rescaled times, max endpoint drift) of the per-chord loop: for the
    trivial profile (h None) the closed-form flow for the chord's length,
    for a constructed one Simpson times and Dormand-Prince endpoints."""
    times, drift = [], 0.0
    if h is None:
        for chord in chords:
            times.append(chord.length)
            end = model.flow(chord.start_point, chord.length)
            drift = max(drift, float(np.linalg.norm(end - chord.end_point)))
        return times, drift
    n = samples + samples % 2
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0

    def field(p):
        return model.reeb(p) / (1.0 + directional_dh_reeb(model, h, p))

    for chord in chords:
        dt = chord.length / n
        states = model.flow(chord.start_point, dt * np.arange(n + 1))
        vals = 1.0 + directional_dh_reeb(model, h, states)
        times.append(float(dt / 3.0 * np.dot(weights, vals)))
        end = reference_flow(field, chord.start_point, times[-1])
        drift = max(drift, float(np.linalg.norm(end - chord.end_point)))
    return times, drift


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
    found = chords_projection(entry.model, entry.slice, SearchOptions())
    assert len(found) == 1
    ((seeds, opts, result),) = stack_solves
    assert len(seeds) == 749
    system = projection_system(entry.slice)
    assert_lanes_match(result, [reference_newton(system, s, opts) for s in seeds])


def test_projection_stack_matches_seed_loop_r5_curve(stack_solves):
    # the unknot embedded in r5 as (x, y, 0, 0, z): 4 equations in 2
    # unknowns, so every lane takes the Gauss-Newton step
    immersion = catalog_get("unknot").slice.immersion

    def immersion5(u):
        x, y, z = np.moveaxis(immersion(u), -1, 0)
        return np.stack([x, y, np.zeros_like(x), np.zeros_like(x), z], axis=-1)

    slc = ParamSlice([circle_factor()], immersion5, resolution=[128])
    found = chords_projection(StandardRModel(3), slc, SearchOptions())
    assert len(found) == 1
    ((seeds, opts, result),) = stack_solves
    assert len(seeds) > 1
    assert_lanes_match(result, [reference_newton(projection_system(slc), s, opts) for s in seeds])


def test_shooting_stack_matches_seed_loop(stack_solves):
    entry = catalog_get("hopf_circle")
    model, slc = entry.model, entry.slice
    chords_shooting(model, slc, SearchOptions(max_time=2.0))
    ((seeds, opts, result),) = stack_solves
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

    assert_lanes_match(result, [reference_newton(seed_system(s), s, opts) for s in seeds])


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


def test_mixed_newton_stack_matches_seed_loop():
    lanes_spec = _mixed_lanes()
    fns = [fn for fn, _, _ in lanes_spec]
    seeds = np.array([seed for _, seed, _ in lanes_spec])
    opts = NewtonOptions(max_iterations=15)

    def system(x, lanes):
        return np.stack([fns[lane](row) for lane, row in zip(lanes, x)])

    result = newton_solve_stack(system, seeds, opts)
    refs = [reference_newton(fn, seed, opts) for fn, seed, _ in lanes_spec]
    assert_lanes_match(result, refs)
    for ref, (_, _, (converged, iterations, failure)) in zip(refs, lanes_spec):
        assert ref.converged == converged
        assert iterations is None or ref.iterations == iterations
        assert ref.failure == failure


def test_newton_stack_without_lanes():
    result = newton_solve_stack(lambda x, lanes: x, np.zeros((0, 2)))
    assert result.x.shape == (0, 2)
    assert result.converged.shape == result.iterations.shape == (0,)


# ---------------------------------------------------------------------------
# Dormand-Prince
# ---------------------------------------------------------------------------


def twisted3(y):
    return np.stack([-y[..., 1] + 0.1 * np.sin(y[..., 2]), y[..., 0], 0.5 * np.cos(y[..., 0]) * y[..., 1]], axis=-1)


def twisted4(y):
    return np.stack([-y[..., 1], y[..., 0] + 0.2 * y[..., 3] ** 2, -2.0 * y[..., 3], 2.0 * y[..., 2]], axis=-1)


@pytest.mark.parametrize("field, d", [(twisted3, 3), (twisted4, 4)])
def test_flow_stack_matches_start_loop(field, d):
    starts = np.random.default_rng(d).uniform(-1.0, 1.0, size=(6, d))
    durations = np.array([0.7, 2.5, 0.0, 1.3, 4.0, 1e-3])
    ends = integrate_flow(field, starts, durations)
    assert ends.shape == starts.shape
    for start, duration, end in zip(starts, durations, ends):
        assert np.array_equal(end, reference_flow(field, start, duration))
    assert np.array_equal(ends[2], starts[2])
    # a single start and a scalar duration run as a one-lane stack
    assert np.array_equal(integrate_flow(field, starts[1], 2.5), ends[1])


def test_flow_stack_step_underflow_names_lane():
    # y' = 1/(1-y) blows up at t = 0.5 from y = 0 only
    field = lambda y: 1.0 / np.maximum(1e-300, 1.0 - y)  # noqa: E731
    with pytest.raises(StepUnderflow, match="lane 1"), pytest.warns(RuntimeWarning, match="overflow"):
        integrate_flow(field, np.array([[-10.0], [0.0], [-20.0]]), 2.0)


def test_flow_stack_nonfinite_names_lane():
    field = lambda y: np.where(y > 5.0, np.nan, 1.0)  # noqa: E731
    with pytest.raises(NonFinite, match="lane 2"):
        integrate_flow(field, np.array([[0.0], [3.0], [4.9]]), np.array([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# reparametrized-flow check
# ---------------------------------------------------------------------------


def _vertical_chords(xs, lengths):
    return [
        ChordRecord(np.zeros(1), np.zeros(1), np.array([x, 0.3, -0.5]), np.array([x, 0.3, -0.5 + ell]), ell)
        for x, ell in zip(xs, lengths)
    ]


def test_reparam_stack_matches_chord_loop():
    model = StandardRModel(2)
    slc = catalog_get("unknot").slice

    def h(p):
        planar = 1.0 - _smoothstep((np.abs(p[..., 0]) - 0.2) / 0.6)
        return 0.3 * planar * _smoothstep((p[..., 2] + 0.9) / 1.5)

    chords = _vertical_chords([-0.5, 0.0, 0.1, 0.7, 2.0], [1.0, 1.3, 0.4, 2.0, 0.9])
    out = reeb_reparam_check(model, slc, h, chords)
    times, drift = reference_reparam(model, h, chords)
    assert out["rescaled_times"] == times
    assert out["max_endpoint_drift"] == drift
    assert out["pass"]


def test_reparam_stack_matches_chord_loop_hopf(shooting_chords, hopf_entry):
    chords = shooting_chords["hopf_circle"]
    assert len(chords) > 1
    out = reeb_reparam_check(hopf_entry.model, hopf_entry.slice, None, chords)
    times, drift = reference_reparam(hopf_entry.model, None, chords)
    assert out["rescaled_times"] == times
    assert out["max_endpoint_drift"] == drift


@pytest.mark.parametrize("name", ["hopf_circle", "unknot"])
def test_trivial_profile_never_integrates(monkeypatch, name):
    # a Legendrian slice's trivial profile rescales nothing: its check is
    # the closed-form flow, and the collar verdict needs no integration
    import reebkit.collar

    def never(*args, **kwargs):
        raise AssertionError("the trivial profile was integrated")

    monkeypatch.setattr(reebkit.collar, "integrate_flow", never)
    entry = catalog_get(name)
    report = collar_report(entry.model, entry.slice)
    assert report.verdict == Verdict.COLLARABLE
    assert report.h_diagnostics["trivial"]
    assert report.h_diagnostics["reparam_pass"]
    assert report.h_diagnostics["reparam_max_drift"] < 1e-12


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
    assert len(u) >= 200 and len(u) > _NEAREST_BLOCK
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
