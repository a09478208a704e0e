import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebkit import numerics
from reebkit.errors import NonFinite, StepUnderflow
from reebkit.numerics import (
    integrate_fixed,
    integrate_flow,
    jacobian_fd,
    line_quadrature,
    newton_solve,
)


def rotation(y):
    return np.array([-y[1], y[0]])


def test_flow_constant_field():
    end = integrate_flow(lambda y: np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 0.0], 2.0)
    assert np.allclose(end, [0, 0, 2], atol=1e-12)


def test_flow_rotation_half_turn():
    end = integrate_flow(rotation, [1.0, 0.0], np.pi, tol=1e-10)
    assert np.linalg.norm(end - np.array([-1.0, 0.0])) < 1e-8


def test_flow_zero_duration():
    end = integrate_flow(rotation, [3.0, 4.0], 0.0)
    assert np.allclose(end, [3, 4])


def test_flow_nonfinite_field():
    with pytest.raises(NonFinite):
        integrate_flow(lambda y: np.array([np.nan]), [0.0], 1.0)


def test_flow_step_underflow_near_blowup():
    # y' = 1/(1-y) reaches y=1 at t=0.5 with unbounded derivative
    field = lambda y: np.array([1.0 / max(1e-300, 1.0 - y[0])])
    # the step norm overflows on the way down to the underflow
    with pytest.raises(StepUnderflow), pytest.warns(RuntimeWarning, match="overflow"):
        integrate_flow(field, [0.0], 2.0, tol=1e-10)


def test_flow_convergence_order_fixed_scheme():
    exact = np.array([-1.0, 0.0])
    errors = []
    for steps in (64, 128, 256):
        end = integrate_fixed(rotation, [1.0, 0.0], np.pi, steps)
        errors.append(np.linalg.norm(end - exact))
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 3.8


def test_jacobian_identity():
    jac = jacobian_fd(lambda x: x, np.array([0.3, -2.0, 5.0]))
    assert np.allclose(jac, np.eye(3), atol=1e-10)


def test_jacobian_polynomial():
    jac = jacobian_fd(lambda x: np.array([x[0] ** 2, x[1]]), np.array([3.0, 1.0]), step=1e-5)
    assert np.allclose(jac, [[6.0, 0.0], [0.0, 1.0]], atol=1e-6)


def test_jacobian_unknot_tangent():
    # d/dt (cos t, -sin 2t, (2/3) sin^3 t) at t=0 is (0, -2, 0)
    def unknot(u):
        t = u[0]
        return np.array([np.cos(t), -np.sin(2 * t), (2 / 3) * np.sin(t) ** 3])

    jac = jacobian_fd(unknot, np.array([0.0]))
    assert np.allclose(jac[:, 0], [0.0, -2.0, 0.0], atol=1e-6)


def test_jacobian_stack_matches_per_point_calls():
    # a stack of points takes the same per-point steps as single calls
    def fmap(x):
        return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 2] ** 3 - x[..., 0]], axis=-1)

    pts = np.random.default_rng(5).uniform(-4.0, 4.0, size=(64, 3))
    stacked = jacobian_fd(fmap, pts)
    assert stacked.shape == (64, 2, 3)
    assert np.array_equal(stacked, np.stack([jacobian_fd(fmap, p) for p in pts]))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-7, max_value=-3),
)
def test_jacobian_exact_on_affine_maps(seed, log_step):
    # unit-scale data: at step 1e-7 the cancellation floor |f| eps / (2s)
    # must stay under the 1e-9 bound, which needs |f| below ~1
    rng = np.random.default_rng(seed)
    A = rng.uniform(-0.3, 0.3, size=(3, 3))
    b = rng.uniform(-0.3, 0.3, size=3)
    x = rng.uniform(-0.3, 0.3, size=3)
    jac = jacobian_fd(lambda v: A @ v + b, x, step=10.0 ** log_step)
    assert np.max(np.abs(jac - A)) < 1e-9


def test_newton_scalar():
    res = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), [3.0], 1e-10)
    assert res.converged
    assert abs(res.x[0] - 2.0) < 1e-10


def test_newton_linear_system():
    res = newton_solve(lambda v: np.array([v[0] + v[1] - 3.0, v[0] - v[1] - 1.0]), [0.0, 0.0], 1e-10)
    assert res.converged
    assert np.allclose(res.x, [2.0, 1.0], atol=1e-10)


def test_newton_sheared_double_point_system():
    # equal-projection system for the sheared curve: the shear only moves
    # the height, so the root is the double point (pi/2, 3pi/2)
    def system(w):
        t1, t2 = w
        return np.array([np.cos(t1) - np.cos(t2), -np.sin(2 * t1) + np.sin(2 * t2)])

    res = newton_solve(system, [1.5, 4.8], 1e-10)
    assert res.converged
    assert np.allclose(res.x, [np.pi / 2, 3 * np.pi / 2], atol=1e-6)


def test_newton_idempotent_at_root():
    res = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), [3.0], 1e-10)
    again = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), res.x, 1e-10)
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.x, res.x)


def test_newton_failure_report(monkeypatch):
    monkeypatch.setattr(numerics, "NEWTON_MAX_ITERATIONS", 15)
    res = newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]), [0.5], 1e-10)
    assert not res.converged
    assert res.failure in ("max_iterations", "singular_jacobian")
    assert res.iterations == 15
    assert res.residual_norm > 0


def test_quadrature_dx():
    assert line_quadrature(lambda u: np.ones_like(u), 0.0, 1.0, segments=1) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_sin_squared_full_period():
    val = line_quadrature(lambda u: np.sin(u) ** 2, 0.0, 2 * np.pi, segments=64)
    assert abs(val - np.pi) < 1e-8


def test_quadrature_cosine_antiderivative():
    eps = 0.1
    val = line_quadrature(lambda u: eps * np.cos(u), np.pi / 2, 3 * np.pi / 2, segments=128)
    assert abs(val - (-0.2)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_quadrature_additive_on_cubics(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2, 2, size=4)
    a, b, c = sorted(rng.uniform(-3, 3, size=3))
    form = lambda u: np.polyval(coeffs, u)
    left = line_quadrature(form, a, b, segments=8)
    right = line_quadrature(form, b, c, segments=8)
    whole = line_quadrature(form, a, c, segments=8)
    assert abs(left + right - whole) < 1e-10


def test_quadrature_stack_shapes():
    # a (2, 3) stack of segments in the plane gives a (2, 3) array; the
    # exact 1-form d(xy) integrates to the endpoint differences of xy
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(2, 3, 2))
    b = rng.uniform(-1, 1, size=(2, 3, 2))
    form = lambda u: np.stack([u[..., 1], u[..., 0]], axis=-1)
    vals = line_quadrature(form, a, b, segments=2)
    assert vals.shape == (2, 3)
    assert np.allclose(vals, b[..., 0] * b[..., 1] - a[..., 0] * a[..., 1], atol=1e-14)
    assert isinstance(line_quadrature(form, a[0, 0], b[0, 0], segments=2), float)
