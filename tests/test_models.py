import numpy as np
import pytest

from reebkit.errors import OffManifold, UnsupportedModel
from reebkit.models import (
    COLLAR_EPSILON,
    DeformationSpec,
    StandardRModel,
    StandardSphereModel,
    SymplectizationModel,
    hamiltonian_field,
    liouville_deformed,
    make_model,
    reeb_at,
    rho,
    rho_derivative,
)
from reebkit.numerics import integrate_flow

ALL_MODEL_NAMES = ("r3", "r5", "r7", "s3", "s5")


def sample_points(model, n, seed=0):
    rng = np.random.default_rng(seed)
    if isinstance(model, StandardSphereModel):
        pts = rng.normal(size=(n, model.ambient_dim))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return rng.uniform(-2.0, 2.0, size=(n, model.ambient_dim))


def tangent_frame(model, p):
    """Orthonormal basis of the tangent space at p (ambient basis for the
    Euclidean models, orthogonal complement of p on spheres)."""
    if isinstance(model, StandardRModel):
        return np.eye(model.ambient_dim)
    _, _, vt = np.linalg.svd(p[None, :])
    return vt[1:]


def test_reeb_at_examples():
    assert np.allclose(reeb_at(StandardRModel(2), [0.3, -1.0, 5.0]), [0, 0, 1])
    assert np.allclose(reeb_at(StandardSphereModel(2), [1.0, 0, 0, 0]), [0, 2, 0, 0])
    assert np.allclose(reeb_at(StandardRModel(3), [0.1, 0.2, 0.3, 0.4, 0.5]), [0, 0, 0, 0, 1])


def test_reeb_at_off_manifold():
    with pytest.raises(OffManifold):
        reeb_at(StandardSphereModel(2), [2.0, 0, 0, 0])


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_reeb_identities(name):
    model = make_model(name)
    pts = sample_points(model, 1000)
    r = model.reeb(pts)
    assert np.max(np.abs(model.alpha(pts, r) - 1.0)) < 1e-12
    worst = 0.0
    for p, rv in zip(pts[:100], r[:100]):
        for v in tangent_frame(model, p):
            worst = max(worst, abs(float(model.d_alpha(p, rv, v))))
    assert worst < 1e-12


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_d_alpha_antisymmetry(name):
    model = make_model(name)
    rng = np.random.default_rng(3)
    pts = sample_points(model, 64, seed=4)
    u = rng.normal(size=pts.shape)
    v = rng.normal(size=pts.shape)
    val = model.d_alpha(pts, u, v) + model.d_alpha(pts, v, u)
    assert np.max(np.abs(val)) < 1e-12


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_d_alpha_matches_fd_exterior_derivative(name):
    # d(alpha)(u, v) for constant extensions: D_u[alpha(.)(v)] - D_v[alpha(.)(u)]
    model = make_model(name)
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(20):
        if isinstance(model, StandardSphereModel):
            p = rng.normal(size=model.ambient_dim)
            p /= np.linalg.norm(p)
            u, v = 1e-4 * rng.normal(size=(2, model.ambient_dim))
        else:
            p = rng.uniform(-1, 1, size=model.ambient_dim)
            u, v = rng.normal(size=(2, model.ambient_dim))
        fd = (
            float(model.alpha(p + eps * u, v)) - float(model.alpha(p - eps * u, v))
        ) / (2 * eps) - (
            float(model.alpha(p + eps * v, u)) - float(model.alpha(p - eps * v, u))
        ) / (2 * eps)
        assert abs(fd - float(model.d_alpha(p, u, v))) < 1e-6


def test_sphere_flow_closure():
    model = StandardSphereModel(2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        end = integrate_flow(model.reeb, p, np.pi, tol=1e-10)
        assert np.linalg.norm(end - p) < 1e-8


def test_sphere_flow_closed_form():
    # flow is z_j -> e^{2it} z_j in complex pairs
    model = StandardSphereModel(2)
    p = np.array([0.6, 0.0, 0.8, 0.0])
    t = 0.7
    z1 = (p[0] + 1j * p[1]) * np.exp(2j * t)
    z2 = (p[2] + 1j * p[3]) * np.exp(2j * t)
    expected = [z1.real, z1.imag, z2.real, z2.imag]
    assert np.allclose(integrate_flow(model.reeb, p, t, tol=1e-12), expected, atol=1e-9)
    assert np.allclose(model.flow(p, t), expected, atol=1e-15)
    # model.flow is the time-t map of model.reeb on every model, including
    # the scale-invariant extension inside the sphere band
    rng = np.random.default_rng(5)
    for name in ALL_MODEL_NAMES:
        model = make_model(name)
        pts = sample_points(model, 4, seed=6)
        if isinstance(model, StandardSphereModel):
            pts[-1] *= 1.0 + 0.5 * model.PROJECT_TOL
        for p, t in zip(pts, rng.uniform(0.0, 6.0, size=len(pts))):
            reference = integrate_flow(model.reeb, p, t, tol=1e-10)
            assert np.linalg.norm(model.flow(p, t) - reference) < 1e-8


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_flow_group_law(name):
    model = make_model(name)
    rng = np.random.default_rng(12)
    pts = sample_points(model, 8, seed=13)
    s, t = rng.uniform(-3.0, 3.0, size=(2, 8))
    assert np.allclose(model.flow(model.flow(pts, s), t), model.flow(pts, s + t), atol=1e-12)
    assert np.array_equal(model.flow(pts, 0.0), pts)


@pytest.mark.parametrize("name", ["s3", "s5"])
def test_sphere_flow_period_and_unitary_symmetry(name):
    model = make_model(name)
    n = model.n
    pts = sample_points(model, 6, seed=14)
    assert np.allclose(model.flow(pts, np.pi), pts, atol=1e-12)
    # a random U(n) acting on the complex pairs (x_j + i y_j) commutes with the flow
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    def rotate(p):
        w = (p[..., 0::2] + 1j * p[..., 1::2]) @ q.T
        out = np.empty_like(p)
        out[..., 0::2], out[..., 1::2] = w.real, w.imag
        return out

    t = rng.uniform(0.0, 6.0, size=len(pts))
    assert np.allclose(model.flow(rotate(pts), t), rotate(model.flow(pts, t)), atol=1e-12)


def test_sphere_flow_off_manifold():
    model = StandardSphereModel(2)
    p = np.array([1.0, 0.0, 0.0, 0.0])
    inside = p * (1.0 + 0.5 * model.PROJECT_TOL)
    assert np.linalg.norm(model.flow(inside, 2.5)) == pytest.approx(np.linalg.norm(inside), abs=1e-15)
    with pytest.raises(OffManifold):
        model.flow(p * (1.0 + 2.0 * model.PROJECT_TOL), 0.5)
    with pytest.raises(OffManifold):
        model.flow(np.stack([p, 2.0 * p]), 0.5)


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_flow_broadcasts_times(name):
    model = make_model(name)
    pts = sample_points(model, 3, seed=16)
    ts = np.linspace(0.0, 6.0, 5)
    fan = model.flow(pts[0], ts)
    assert fan.shape == (5, model.ambient_dim)
    for t, row in zip(ts, fan):
        assert np.allclose(row, model.flow(pts[0], t), atol=1e-15)
    per_point = model.flow(pts, ts[:3])
    assert per_point.shape == pts.shape
    for p, t, row in zip(pts, ts[:3], per_point):
        assert np.allclose(row, model.flow(p, t), atol=1e-15)
    grid = model.flow(pts[:, None, :], ts[None, :])
    assert grid.shape == (3, 5, model.ambient_dim)
    assert np.allclose(grid[:, 2], model.flow(pts, ts[2]), atol=1e-15)


def test_rho_profile_shape():
    # the one ramp: 0 at 1 - eps, 1 at t = 1 with zero slope, nondecreasing
    assert rho(1.0) == pytest.approx(1.0, abs=1e-15)
    assert rho_derivative(1.0) == pytest.approx(0.0, abs=1e-15)
    assert rho(1.0 - COLLAR_EPSILON) == 0.0
    assert rho(0.5) == 0.0
    ts = np.linspace(0.75, 1.0, 200)
    vals = rho(ts)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(rho_derivative(ts) >= 0.0)
    assert SymplectizationModel(StandardRModel(2)).t_range == (1.0 - COLLAR_EPSILON, 1.0 + COLLAR_EPSILON)


def test_symplectization_expansion_field():
    sym = SymplectizationModel(StandardRModel(2))
    rng = np.random.default_rng(2)
    for _ in range(25):
        t = rng.uniform(0.85, 1.15)
        p = rng.uniform(-1, 1, size=3)
        v = sym.liouville_field(t, p)
        assert v[0] == pytest.approx(t, abs=1e-15)
        # contraction identity: omega(V, w) = t * alpha(w) for any w
        w = rng.normal(size=4)
        assert sym.omega(t, p, v, w) == pytest.approx(sym.liouville_form(t, p, w), abs=1e-12)


def test_symplectization_omega_matches_fd_exterior_derivative():
    sym = SymplectizationModel(StandardRModel(2))
    rng = np.random.default_rng(5)
    eps = 1e-6

    def lam(tp, w):
        return tp[0] * float(sym.base.alpha(tp[1:], w[1:]))

    for _ in range(20):
        tp = np.concatenate([[rng.uniform(0.9, 1.1)], rng.uniform(-1, 1, size=3)])
        u, v = rng.normal(size=(2, 4))
        fd = (lam(tp + eps * u, v) - lam(tp - eps * u, v)) / (2 * eps) - (
            lam(tp + eps * v, u) - lam(tp - eps * v, u)
        ) / (2 * eps)
        assert abs(fd - sym.omega(tp[0], tp[1:], u, v)) < 1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_hamiltonian_field_contraction_identity(n):
    # iota_X omega must reproduce dH on arbitrary collar vectors
    model = StandardRModel(n)
    dim = model.ambient_dim
    sym = SymplectizationModel(model)
    spec = DeformationSpec(
        h=lambda p: np.sin(p[..., 0]) * np.cos(p[..., 1]) + 0.3 * p[..., -1] + 0.1 * p[..., -2] ** 2,
    )
    rng = np.random.default_rng(6)
    eps = 1e-6

    def H(t, p):
        return float(rho(t)) * float(spec.h(p))

    for _ in range(25):
        t = rng.uniform(0.85, 1.0)
        p = rng.uniform(-1, 1, size=dim)
        X = hamiltonian_field(sym, spec, t, p)
        w = rng.normal(size=1 + dim)
        dH = (H(t + eps, p) - H(t - eps, p)) / (2 * eps) * w[0]
        for j in range(dim):
            dp = np.zeros(dim)
            dp[j] = eps
            dH += (H(t, p + dp) - H(t, p - dp)) / (2 * eps) * w[1 + j]
        assert abs(sym.omega(t, p, X, w) - dH) < 1e-7


def _zero_profile(p):
    return np.zeros(np.shape(p)[:-1])


@pytest.mark.parametrize("margin", [0.0, -0.1, 1.0, 1.5, float("nan")])
def test_deformation_spec_rejects_margin_outside_unit_interval(margin):
    # the checks test 1 + dh(R) > margin and dt > margin, and the profile
    # slopes are scaled by 1 - margin: only 0 < margin < 1 is meaningful
    with pytest.raises(ValueError, match=r"margin must lie in \(0, 1\)"):
        DeformationSpec(h=_zero_profile, margin=margin)


def test_liouville_deformed_linear_height_profile():
    # dh(Reeb) = -(1 - delta) gives dt-component delta at t = 1
    delta = 0.25
    sym = SymplectizationModel(StandardRModel(2))
    spec = DeformationSpec(h=lambda p: -(1 - delta) * p[..., 2])
    v = liouville_deformed(sym, spec, 1.0, np.array([0.4, -0.7, 0.1]))
    assert abs(v[0] - delta) < 1e-6


def test_liouville_deformed_constant_h():
    sym = SymplectizationModel(StandardRModel(2))
    spec = DeformationSpec(h=lambda p: 1.7)
    v = liouville_deformed(sym, spec, 1.0, np.array([0.0, 0.0, 0.0]))
    assert abs(v[0] - 1.0) < 1e-9  # X_H has no dt-component when dh = 0


def test_liouville_deformed_unsupported_model():
    sym = SymplectizationModel(StandardSphereModel(2))
    spec = DeformationSpec(h=lambda p: p[..., 0])
    with pytest.raises(UnsupportedModel):
        liouville_deformed(sym, spec, 1.0, np.array([1.0, 0, 0, 0]))


def test_deformed_expansion_grid_identity():
    # dt(V_deformed) - t - rho(t) dh(R) vanishes on a (t, point) grid
    sym = SymplectizationModel(StandardRModel(2))
    spec = DeformationSpec(h=lambda p: 0.2 * np.sin(p[..., 2]))
    for t in np.linspace(0.85, 1.1, 6):
        for z in np.linspace(-1, 1, 5):
            p = np.array([0.3, 0.5, z])
            v = liouville_deformed(sym, spec, float(t), p)
            expected = t + float(rho(t)) * 0.2 * np.cos(z)
            assert abs(v[0] - expected) < 1e-6
