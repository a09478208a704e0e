"""The two slice checks against the methods they replaced, kept here as
oracles only: closedness as the antisymmetrized finite-difference
Jacobian of the pullback (a second derivative by nested differences),
transversality as the batched SVD of [Jacobian | Reeb]."""

import contextlib
import io
import json

import numpy as np
import pytest

import reebkit.slices
from reebkit.catalog import catalog_get, catalog_list
from reebkit.cli import main
from reebkit.errors import OffManifold
from reebkit.manifest import parse_manifest, resolve
from reebkit.models import MODEL_BUILDERS, StandardRModel
from reebkit.numerics import jacobian_fd
from reebkit.slices import (
    DEFAULT_CLOSED_TOL,
    DEFAULT_TRANSVERSE_TOL,
    ParamSlice,
    _min_singular_value,
    check_closed,
    check_transverse,
    interval_factor,
    load_mesh_slice,
    pullback_alpha,
)

MODEL_DIMS = {name: build().ambient_dim for name, build in MODEL_BUILDERS.items()}
EPS = np.finfo(float).eps


def fd_closed_residual(model, slc) -> float:
    """Oracle: the largest entry of the antisymmetrized central-difference
    Jacobian of the pullback over the nodes; 0 on a curve."""
    if slc.param_dim == 1:
        return 0.0
    jac = jacobian_fd(lambda u: pullback_alpha(model, slc, u), slc.mesh.params)
    return float(np.max(np.abs(jac - np.swapaxes(jac, -1, -2))))


def svd_min_sigma(model, slc) -> float:
    """Oracle: the smallest singular value of [Jacobian | Reeb] over the
    nodes, by a batched SVD."""
    mat = np.concatenate([slc.jacobian_at(slc.mesh.params), model.reeb(slc.points)[..., None]], axis=-1)
    return float(np.min(np.linalg.svd(mat, compute_uv=False)[:, -1]))


def assert_matches_oracles(model, slc, closed_rel=1e-6):
    closed, transverse = check_closed(model, slc), check_transverse(model, slc)
    want = fd_closed_residual(model, slc)
    # the nested differences carry about eps / step ~ 1e-10 of rounding
    assert closed.value == pytest.approx(want, rel=closed_rel, abs=1e-8)
    assert closed.passed == (want <= DEFAULT_CLOSED_TOL)
    sigma = svd_min_sigma(model, slc)
    # the SVD itself is accurate to about eps * sigma_max
    assert transverse.value == pytest.approx(sigma, rel=1e-12, abs=1e-11)
    assert transverse.passed == (sigma > DEFAULT_TRANSVERSE_TOL)


def write_mesh(path, params: np.ndarray, points: np.ndarray):
    """Write a node table: parameters (N, p), then points (N, d)."""
    header = [f"u{j}" for j in range(params.shape[1])] + [f"p{j}" for j in range(points.shape[1])]
    rows = "".join(",".join(f"{v:.17g}" for v in [*u, *p]) + "\n" for u, p in zip(params, points))
    path.write_text(",".join(header) + "\n" + rows)


def resolve_mesh(path, model: str, param_dim: int, periodic: list[bool]):
    """(model, slice) of a mesh file resolved through a manifest, as the
    commands read it."""
    slice_src = {"mesh_file": str(path), "param_dim": param_dim, "periodic": periodic}
    model_obj, slc, _ = resolve(parse_manifest({"model": model, "slice": slice_src}))
    return model_obj, slc


def grid(*axes) -> np.ndarray:
    """The product grid of the axes as parameter rows, last axis fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


@pytest.mark.parametrize("name", catalog_list())
def test_checks_match_oracles_on_catalog(name):
    entry = catalog_get(name)
    assert_matches_oracles(entry.model, entry.slice)


@pytest.mark.parametrize("param_dim", [1, 2])
@pytest.mark.parametrize("model", sorted(MODEL_DIMS))
def test_checks_match_oracles_on_mesh_files(model_mesh_files, model, param_dim):
    # at a node the interpolant of a 2-D file has a kink, where the nested
    # differences also pick up products of one-sided slopes, a relative
    # O(step) of about 1e-5 here
    periodic = [True] if param_dim == 1 else [False, True]
    model_obj, slc = resolve_mesh(model_mesh_files[param_dim, MODEL_DIMS[model]], model, param_dim, periodic)
    assert_matches_oracles(model_obj, slc, closed_rel=1e-4)


def test_checks_match_oracles_on_a_3d_mesh_file(tmp_path):
    # three circle factors in r7: [J | R] is 7 x 4, the batched-SVD branch
    t = 2 * np.pi * np.arange(6) / 6
    params = grid(t, t, t)
    u, v, w = params.T
    write_mesh(tmp_path / "mesh.csv", params, np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v), np.cos(w), np.sin(w), 0.1 * np.sin(u + w)], axis=-1))
    model, slc = resolve_mesh(tmp_path / "mesh.csv", "r7", 3, [True] * 3)
    assert slc.param_dim == 3
    assert_matches_oracles(model, slc, closed_rel=1e-4)
    assert check_transverse(model, slc).value > 0.1


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("factor", [1.0 - 1e-5, 1.0 + 1e-5])
def test_transverse_just_around_the_threshold(k, factor):
    # r3 segment (a s, 0, s), or r5 strip (s, 0, a t, 0, t): the tangent
    # (a, 0, 1) leans a little off the Reeb vector (0, ..., 0, 1), so
    # sigma_min is about a / sqrt(2); a is set from the SVD to put sigma_min
    # a relative 1e-5 below or above the threshold
    def build(a):
        if k == 2:
            fn = lambda u: np.stack([a * u[..., 0], 0 * u[..., 0], u[..., 0]], axis=-1)
            jac = lambda u: np.broadcast_to([[a], [0.0], [1.0]], u.shape[:-1] + (3, 1))
            return StandardRModel(2), ParamSlice([interval_factor(0.0, 1.0)], fn, jac, resolution=[9])

        def fn(u):
            s, t = u[..., 0], u[..., 1]
            return np.stack([s, 0 * s, a * t, 0 * s, t], axis=-1)

        cols = [[1.0, 0.0], [0.0, 0.0], [0.0, a], [0.0, 0.0], [0.0, 1.0]]
        jac = lambda u: np.broadcast_to(cols, u.shape[:-1] + (5, 2))
        return StandardRModel(3), ParamSlice([interval_factor(0.0, 1.0)] * 2, fn, jac, resolution=[5, 5])

    a = DEFAULT_TRANSVERSE_TOL * np.sqrt(2.0)
    for _ in range(3):  # fixed point of a -> a * target / sigma_svd
        a *= factor * DEFAULT_TRANSVERSE_TOL / svd_min_sigma(*build(a))
    model, slc = build(a)
    sigma = svd_min_sigma(model, slc)
    assert (sigma > DEFAULT_TRANSVERSE_TOL) == (factor > 1.0)
    result = check_transverse(model, slc)
    assert result.passed == (factor > 1.0)
    assert result.value == pytest.approx(sigma, rel=0, abs=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_min_singular_value_of_zero_matrices(k):
    assert np.array_equal(_min_singular_value(np.zeros((5, k, 3))), np.zeros(3))


def _stack(u, s, w):
    """Matrices U diag(s) W^T, (N, d, k), from (N, d, k), (N, k), (N, k, k)."""
    return (u * s[:, None, :]) @ np.swapaxes(w, -1, -2)


@pytest.mark.parametrize("k", [2, 3])
def test_min_singular_value_matches_svd(k):
    # random orthonormal frames with singular values spread over 1e-3 to 10,
    # then with the two smallest (k = 3: also the two largest) equal up to
    # 1e-9, where the trigonometric eigenvalues alone lose half the digits
    rng = np.random.default_rng(3)
    n, d = 400, 6
    u = np.linalg.qr(rng.standard_normal((n, d, k)))[0]
    w = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    spread = np.sort(10.0 ** rng.uniform(-3, 1, (n, k)), axis=1)[:, ::-1]
    pairs = spread.copy()
    pairs[:, -1] = pairs[:, -2] * (1 + 1e-9 * rng.uniform(-1, 1, n))
    cases = [spread, pairs]
    if k == 3:
        top = spread.copy()
        top[:, 0] = top[:, 1] * (1 + 1e-9 * rng.uniform(0, 1, n))
        cases.append(top)
    for s in cases:
        mat = _stack(u, s, w)
        want = np.linalg.svd(mat, compute_uv=False)
        got = _min_singular_value(np.moveaxis(mat, 0, -1))
        assert np.all(np.abs(got - want[:, -1]) <= 16 * EPS * want[:, 0] ** 2 / want[:, -1])


@pytest.mark.parametrize("k", [2, 3])
def test_min_singular_value_of_rank_deficient_stacks(k):
    # rank 1 and, for k = 3, rank 2: rounding level, never the quotient of
    # two rounding errors
    rng = np.random.default_rng(4)
    base = rng.standard_normal((200, 6, 1)) * 10.0 ** rng.uniform(-2, 1, (200, 1, 1))
    for rank in range(1, k):
        mat = base * rng.uniform(-2, 2, (200, 1, k))
        if rank == 2:
            mat[:, :, 1] = rng.standard_normal((200, 6))
        got = _min_singular_value(np.moveaxis(mat, 0, -1))
        assert np.all(got <= 1e-7 * np.linalg.norm(mat, axis=(1, 2)))


def test_vertical_segment_sigma_is_exactly_zero(vertical_entry):
    res = check_transverse(vertical_entry.model, vertical_entry.slice)
    assert res.value == 0.0 and not res.passed


def test_closed_check_makes_no_pullback(monkeypatch, torus_entry, warped_entry):
    def refused(*args):
        raise AssertionError("check_closed evaluated the pullback")

    monkeypatch.setattr(reebkit.slices, "pullback_alpha", refused)
    assert check_closed(torus_entry.model, torus_entry.slice).value == 0.0
    assert check_closed(warped_entry.model, warped_entry.slice).value == pytest.approx(1.0, abs=1e-12)


def off_sphere_mesh(path, param_dim: int):
    """Write an s3 mesh file whose nodes leave the sphere: a Clifford torus
    at radius 1.01, or a 12-node curve at radii between 0.9 and 1.1."""
    if param_dim == 2:
        t = 2 * np.pi * np.arange(8) / 8
        params = grid(t, t)
        u, v = params.T
        points = 1.01 * np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=-1) / np.sqrt(2)
    else:
        params = 2 * np.pi * np.arange(12)[:, None] / 12
        t = params[:, 0]
        radii = np.random.default_rng(0).uniform(0.9, 1.1, (12, 1))
        points = radii * np.stack([np.cos(t), np.sin(t), np.sin(2 * t), np.cos(2 * t)], axis=-1) / np.sqrt(2)
    write_mesh(path, params, points)


@pytest.mark.parametrize("param_dim", [1, 2])
def test_off_sphere_mesh_raises_off_manifold(tmp_path, param_dim):
    # read directly, the closedness check and the pullback refuse the file;
    # read through a manifest, resolve refuses it before any projection, so
    # every command exits 1 with the same message
    path = tmp_path / "mesh.csv"
    off_sphere_mesh(path, param_dim)
    periodic = [True] * param_dim
    model = MODEL_BUILDERS["s3"]()
    slc = load_mesh_slice(path, param_dim, periodic)
    message = "immersion image leaves the model manifold"
    if param_dim == 2:
        with pytest.raises(OffManifold, match=f"^{message}$"):
            check_closed(model, slc)
    with pytest.raises(OffManifold, match=f"^{message}$"):
        pullback_alpha(model, slc, slc.mesh.params)
    with pytest.raises(OffManifold, match=f"^{message}$"):
        resolve_mesh(path, "s3", param_dim, periodic)
    manifest = tmp_path / "m.json"
    slice_src = {"mesh_file": str(path), "param_dim": param_dim, "periodic": periodic}
    manifest.write_text(json.dumps({"model": "s3", "slice": slice_src}))
    for command in ("check", "chords", "collar"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(manifest)])
        assert (code, err.getvalue()) == (1, f"error: {message}\n")


@pytest.mark.parametrize("model", ["s3", "s5"])
def test_sphere_mesh_curve_lies_on_the_sphere(model_mesh_files, model):
    # the 12-node curve of the mesh-file grid, between its nodes too, with
    # the projected spline's Jacobian (I - p p^T) J / |x| tangent there
    model_obj, slc = resolve_mesh(model_mesh_files[1, MODEL_DIMS[model]], model, 1, [True])
    u = np.linspace(0.0, 2 * np.pi, 97)[:, None]
    points = slc.immerse(u)
    assert np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0)) < 1e-15
    jac = slc.jacobian_at(u)
    assert np.max(np.abs(np.sum(points * jac[..., 0], axis=-1))) < 1e-15
    assert np.allclose(jac, jacobian_fd(slc.immerse, u), rtol=0, atol=1e-8)
