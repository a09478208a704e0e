"""Parametrized slices: meshes, pullback of the contact form, the two
slice checks (closed pullback, transversality to the Reeb kernel),
periods over generator loops, and primitives of exact pullbacks.

Periods and primitives are both sums of one edge cochain: the integral of
the pullback over each mesh edge, from a single Simpson quadrature stacked
over the edges (a generator chain for a period, all edges for a primitive;
on a 1-D slice the two are one stack, which both may share).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonExact, NotClosed, OffManifold
from .numerics import jacobian_fd, line_quadrature
from .spatial import GridIndex

DEFAULT_CLOSED_TOL = 1e-6
DEFAULT_TRANSVERSE_TOL = 1e-4
PERIOD_ZERO_TOL = 1e-8
CYCLE_TOL = 1e-6  # largest edge defect of a primitive, f(b) - f(a) against the edge integral
COINCIDENT_TOL = 1e-9  # ambient distance, relative to the coordinate scale, of coincident nodes
EVEN_SPACING_TOL = 1e-9  # deviation of mesh-file parameter values from even spacing, relative to their span


@dataclass(frozen=True)
class DomainFactor:
    lo: float
    hi: float
    periodic: bool

    @property
    def span(self) -> float:
        return self.hi - self.lo


def circle_factor(period: float = 2 * np.pi) -> DomainFactor:
    return DomainFactor(0.0, period, True)


def interval_factor(lo: float, hi: float) -> DomainFactor:
    return DomainFactor(lo, hi, False)


def _sweep_direction(dim: int) -> np.ndarray:
    """Fixed generic unit vector of R^dim, (sqrt 2, ..., sqrt(dim + 1))
    normalized: few point sets line up across it by accident."""
    w = np.sqrt(np.arange(2.0, dim + 2))
    return w / np.sqrt(np.sum(w * w))


def _wrap(factors: Sequence[DomainFactor], u) -> np.ndarray:
    """Parameters (..., len(factors)) mapped into the fundamental domain,
    as a new array."""
    u = np.array(u, dtype=float)
    for j, f in enumerate(factors):
        if f.periodic:
            u[..., j] = f.lo + np.mod(u[..., j] - f.lo, f.span)
    return u


def _ambient_spacing(points: np.ndarray, mesh) -> float:
    """Median length of the mesh edges under ``points`` (N, k), one row per
    node: the differences of the grid-shaped points along each axis,
    across the seam of a circle factor."""
    grid = points.reshape(*mesh.shape, points.shape[-1])
    lengths = []
    for axis, f in enumerate(mesh.factors):
        step = np.roll(grid, -1, axis=axis) - grid if f.periodic else np.diff(grid, axis=axis)
        lengths.append(np.linalg.norm(step, axis=-1).ravel())
    return float(np.median(np.concatenate(lengths)))


class Mesh:
    """Regular grid on a product-of-intervals domain.

    Periodic factors omit the duplicate endpoint and wrap their edges, so
    the edge graph of a circle factor is a cycle.  Node order follows
    row-major multi-index order.
    """

    def __init__(self, factors: Sequence[DomainFactor], resolution: Sequence[int]):
        if len(factors) != len(resolution):
            raise ValueError("one resolution per domain factor required")
        self.factors = tuple(factors)
        axes = []
        for f, m in zip(self.factors, (int(r) for r in resolution)):
            if m < 2:
                raise ValueError("need at least 2 nodes per factor")
            if f.periodic:
                axes.append(f.lo + f.span * np.arange(m) / m)
            else:
                axes.append(np.linspace(f.lo, f.hi, m))
        self.axes = axes
        grids = np.meshgrid(*axes, indexing="ij")
        self.params = np.stack([g.ravel() for g in grids], axis=-1)
        self.shape = tuple(len(a) for a in axes)
        self.n_nodes = self.params.shape[0]

    @property
    def param_dim(self) -> int:
        return len(self.factors)

    def spacing(self, axis: int) -> float:
        f, m = self.factors[axis], self.shape[axis]
        return f.span / m if f.periodic else f.span / (m - 1)

    def max_spacing(self) -> float:
        return max(self.spacing(j) for j in range(self.param_dim))

    def edges(self) -> np.ndarray:
        """(E, 2) array of (node_a, node_b) index pairs for all grid edges,
        axis by axis, each axis in row-major order of node_a."""
        idx = np.arange(self.n_nodes).reshape(self.shape)
        out = []
        for axis, f in enumerate(self.factors):
            a = idx
            b = np.roll(idx, -1, axis=axis)
            if not f.periodic:
                sl = [slice(None)] * self.param_dim
                sl[axis] = slice(0, -1)
                a, b = a[tuple(sl)], b[tuple(sl)]
            out.append(np.stack([a.ravel(), b.ravel()], axis=-1))
        return np.concatenate(out)

    def neighbors(self) -> np.ndarray:
        """(N, K) neighbour table of the grid graph, padded with -1: each
        node's neighbours in the order of its edges in ``edges()``."""
        edges = self.edges()
        pairs = np.stack([edges, edges[:, ::-1]], axis=1).reshape(-1, 2)  # a -> b, then b -> a
        src, dst = pairs[np.argsort(pairs[:, 0], kind="stable")].T
        slot = np.arange(len(src)) - np.searchsorted(src, src)
        table = np.full((self.n_nodes, slot.max() + 1), -1)
        table[src, slot] = dst
        return table

    def axis_views(self, values) -> list[np.ndarray]:
        """An array (E, ...) in ``edges()`` order as one grid-shaped view
        per axis: view j has the grid's shape with m_j edges along axis j
        (m_j - 1 on an interval), followed by the array's trailing shape."""
        values = np.asarray(values)
        views, start = [], 0
        for axis, f in enumerate(self.factors):
            shape = list(self.shape)
            shape[axis] -= not f.periodic
            count = int(np.prod(shape))
            views.append(values[start : start + count].reshape(*shape, *values.shape[1:]))
            start += count
        return views

    def unwrap(self, d) -> np.ndarray:
        """Parameter displacements (..., param_dim) shifted by one period
        across periodic seams, so each component is within half a span."""
        d = np.array(d, dtype=float)
        for j, f in enumerate(self.factors):
            if f.periodic:
                x = d[..., j]
                d[..., j] = x - f.span * (x > 0.5 * f.span) + f.span * (x < -0.5 * f.span)
        return d

    def edge_vector(self, a, b) -> np.ndarray:
        """Parameter displacement from node(s) a to node(s) b along their
        edges, unwrapped across periodic seams."""
        return self.unwrap(self.params[b] - self.params[a])

    def param_distance(self, u, v) -> float:
        """Distance on the domain, shortest way around periodic factors."""
        d = np.abs(np.asarray(u, dtype=float) - np.asarray(v, dtype=float))
        for j, f in enumerate(self.factors):
            if f.periodic:
                d[..., j] = np.minimum(d[..., j], f.span - d[..., j])
        return float(np.linalg.norm(d)) if d.ndim == 1 else np.linalg.norm(d, axis=-1)

    def far_apart(self, i, j, radius: float) -> np.ndarray:
        """Mask of the node pairs (i, j), index arrays, at parameter distance
        above ``radius``: ``param_distance(params[i], params[j]) > radius``.

        The wrapped per-axis index offsets decide every pair whose offset
        length is off ``radius`` by more than a relative 1e-9, without a
        look at the parameters; ``param_distance`` decides the rest."""
        grid = np.indices(self.shape).reshape(self.param_dim, -1)
        length2 = np.zeros(np.shape(i))
        for axis, (f, m) in enumerate(zip(self.factors, self.shape)):
            steps = np.abs(np.arange(1 - m, m))  # index offsets -(m - 1) ... m - 1
            if f.periodic:
                steps = np.minimum(steps, m - steps)  # the shorter way round
            length2 += ((steps * self.spacing(axis)) ** 2)[(grid[axis] + m - 1)[i] - grid[axis][j]]
        far = length2 > (radius * (1 + 1e-9)) ** 2
        ring = np.flatnonzero(~far & (length2 > (radius * (1 - 1e-9)) ** 2))
        far[ring] = self.param_distance(self.params[i[ring]], self.params[j[ring]]) > radius
        return far

    def wrap(self, u: np.ndarray) -> np.ndarray:
        """Map parameters into the fundamental domain."""
        return _wrap(self.factors, u)


class ParamSlice:
    """Compact parametrized submanifold candidate with its mesh.

    ``immersion`` maps parameter arrays of shape (..., param_dim) to
    ambient points (..., ambient_dim); ``jacobian``, when given, returns
    (..., ambient_dim, param_dim).  Without it, derivatives fall back to
    central differences.  The mesh is one product grid of intervals and
    circles, ``resolution`` nodes per factor (at least 2), so it is always
    connected.
    """

    def __init__(
        self,
        factors: Sequence[DomainFactor],
        immersion: Callable[[np.ndarray], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        resolution: Sequence[int],
    ):
        self.factors = tuple(factors)
        self.immersion = immersion
        self.analytic_jacobian = jacobian
        self.mesh = Mesh(factors, resolution)
        self.points = np.asarray(immersion(self.mesh.params), dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] != self.mesh.n_nodes:
            raise ValueError("immersion must map (N, param_dim) to (N, ambient_dim)")
        self.ambient_dim = self.points.shape[1]

    @property
    def param_dim(self) -> int:
        return self.mesh.param_dim

    def immerse(self, u) -> np.ndarray:
        return np.asarray(self.immersion(np.asarray(u, dtype=float)), dtype=float)

    def jacobian_at(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.analytic_jacobian is not None:
            return np.asarray(self.analytic_jacobian(u), dtype=float)
        return jacobian_fd(self.immerse, u)

    @functools.cached_property
    def node_jacobian(self) -> np.ndarray:
        """The Jacobian (N, ambient_dim, param_dim) at the nodes, shared by the slice checks."""
        return self.jacobian_at(self.mesh.params)

    @functools.cached_property
    def projection_index(self) -> GridIndex:
        """Grid index over the node shadows (the nodes without their last
        coordinate) at 3x their spacing, or 3x the ambient one (at least
        1e-3) on a projection-degenerate slice such as a Reeb fiber."""
        spacing = _ambient_spacing(self.points[:, :-1], self.mesh)
        if spacing <= 0.0:
            spacing = max(_ambient_spacing(self.points, self.mesh), 1e-3)
        return GridIndex(self.points[:, :-1], cell_size=3.0 * spacing)

    def nearest_node(self, u):
        """Index of the nearest mesh node to each parameter point of u
        (..., param_dim), shortest way around periodic factors, the lowest
        index on a tie: an array of shape (...), an int for one point.

        The squared distance is a sum over the axes, and along each axis
        the nearest grid index is the floor index of (u - lo) / spacing or
        the next one.  So only the 4^d nodes whose indices lie within -1
        ... +2 of the floor indices (wrapped on a circle, clipped on an
        interval) are compared, in ascending order, which keeps the lowest
        index on a tie."""
        w = self.mesh.wrap(u)
        flat = w.reshape(-1, self.param_dim)
        candidates = np.zeros((len(flat), 1), dtype=int)
        for j, (f, m) in enumerate(zip(self.factors, self.mesh.shape)):
            k = np.floor((flat[:, j] - f.lo) / self.mesh.spacing(j)).astype(int)[:, None] + np.arange(-1, 3)
            k = np.mod(k, m) if f.periodic else np.clip(k, 0, m - 1)
            candidates = (candidates[:, :, None] * m + k[:, None, :]).reshape(len(flat), 4 * candidates.shape[1])
        candidates.sort(axis=1)
        d = self.mesh.params[candidates] - flat[:, None, :]
        for j, f in enumerate(self.factors):
            if f.periodic:
                d[..., j] = (d[..., j] + 0.5 * f.span) % f.span - 0.5 * f.span
        lanes = np.arange(len(flat))
        node = candidates[lanes, np.argmin(np.sum(d * d, axis=-1), axis=-1)]
        return int(node[0]) if w.ndim == 1 else node.reshape(w.shape[:-1])

    def coincident_point_pairs(self) -> np.ndarray:
        """Mesh node pairs i < j, as an (P, 2) array in ascending order,
        whose ambient images are within ``COINCIDENT_TOL`` times the scale
        max(1, max |coordinate|) of each other.

        Used by the embedding proxy: any such pair must be at parameter
        distance below the exclusion radius to count as benign.

        The candidates come from a 1-D grid index over the projections of
        the nodes onto the unit vector ``_sweep_direction``: |w . dp| <= |dp|,
        so every pair within the tolerance is within it along w as well,
        and twice the tolerance covers the rounding of the projections.
        Each candidate is decided by its squared distance summed column by
        column, d2 <= tol^2, as a grid index over the nodes decides it.
        """
        tol = COINCIDENT_TOL * max(1.0, float(np.max(np.abs(self.points))))
        columns = np.ascontiguousarray(self.points.T)
        along = np.zeros(self.mesh.n_nodes)
        for w, x in zip(_sweep_direction(self.ambient_dim), columns):
            along = along + w * x

        def within(i, j):
            d2 = np.zeros(len(i))
            for x in columns:
                d2 += (x[i] - x[j]) ** 2
            return d2 <= tol * tol

        return GridIndex(along[:, None], cell_size=2 * tol).close_pairs(2 * tol, keep=within)

    def embedded_at_mesh_scale(self, exclusion_radius: float) -> bool:
        pairs = self.coincident_point_pairs()
        return not np.any(self.mesh.far_apart(pairs[:, 0], pairs[:, 1], exclusion_radius))


@dataclass
class CheckResult:
    passed: bool
    value: float  # max residual for closedness, min singular value for transversality


def require_on_manifold(model, pts: np.ndarray) -> np.ndarray:
    """``pts`` (..., ambient_dim), once every point is within 1e-6 of the
    model manifold; raises OffManifold otherwise."""
    if not np.all(model.on_manifold(pts, tol=1e-6)):
        raise OffManifold("immersion image leaves the model manifold")
    return pts


def pullback_alpha(model, slc: ParamSlice, u) -> np.ndarray:
    """Components of the pulled-back contact form at parameter point(s) u.

    Component k is alpha(immersion(u), d(immersion)/du_k); shape (..., param_dim).
    """
    u = np.asarray(u, dtype=float)
    pts = require_on_manifold(model, slc.immerse(u))
    jac = slc.jacobian_at(u)
    comps = [model.alpha(pts, jac[..., k]) for k in range(slc.param_dim)]
    return np.stack(comps, axis=-1)


def check_closed(model, slc: ParamSlice, tol: float = DEFAULT_CLOSED_TOL) -> CheckResult:
    """Largest |d(i*alpha)(d_a, d_b)| over the parameter pairs a < b and
    the mesh nodes.

    The pullback commutes with d, so that is d_alpha(J_a, J_b) on the
    Jacobian columns J_a, J_b at each node: the slice's ``node_jacobian``,
    shared with ``check_transverse``, and the model's closed-form d_alpha.  On the sphere the columns are
    tangent, so the extension of alpha off the sphere does not enter.
    The nodes must lie on the model manifold, as for ``pullback_alpha``.
    One-dimensional domains pass vacuously with residual 0 (there are no
    2-forms on curves).
    """
    if slc.param_dim == 1:
        return CheckResult(True, 0.0)
    pts = require_on_manifold(model, slc.points)
    jac = slc.node_jacobian
    pairs = itertools.combinations(range(slc.param_dim), 2)
    residual = max(float(np.max(np.abs(model.d_alpha(pts, jac[..., a], jac[..., b])))) for a, b in pairs)
    return CheckResult(residual <= tol, residual)


def _min_singular_value(cols: np.ndarray) -> np.ndarray:
    """Smallest singular value of each (d, k) matrix M of a stack, d >= k,
    given coordinate-major as ``cols`` (d, k, N): ``cols[r, i]`` holds
    entry (r, i) of every matrix.

    For k <= 3 it is the square root of the smallest eigenvalue of the
    k x k Gram matrix G = M^T M, summed coordinate by coordinate in a fixed
    order, with no LAPACK call (``_smaller_eigenvalue``,
    ``_smallest_eigenvalue``).  The entries of G carry a rounding error of
    about eps * sigma_max^2, so sigma one of about eps * sigma_max^2 /
    sigma_min; M = 0 gives 0.  Wider stacks (k >= 4, a slice of three or
    more parameters) go through a batched SVD.
    """
    k = cols.shape[1]
    if k >= 4:
        return np.linalg.svd(np.moveaxis(cols, -1, 0), compute_uv=False)[:, -1]
    g = [[None] * k for _ in range(k)]
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        acc = cols[0, i] * cols[0, j]
        for row in cols[1:]:
            acc += row[i] * row[j]
        g[i][j] = g[j][i] = acc
    if k == 2:
        return np.sqrt(_smaller_eigenvalue(g[0][0], g[0][1], g[1][1]))
    return np.sqrt(_smallest_eigenvalue(g))


def _smaller_eigenvalue(a, b, c) -> np.ndarray:
    """Smaller eigenvalue of the positive semidefinite 2 x 2 matrices
    [[a, b], [b, c]]: det / lambda_max, with lambda_max = (a + c) / 2 +
    hypot((a - c) / 2, b), clamped at 0; 0 where lambda_max is 0."""
    det = a * c - b * b
    lam_max = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    return np.maximum(np.divide(det, lam_max, out=np.zeros_like(det), where=lam_max > 0), 0.0)


def _smallest_eigenvalue(g) -> np.ndarray:
    """Smallest eigenvalue of the positive semidefinite 3 x 3 matrices G
    given as nested lists of entry arrays, ``g[i][j]``.

    The trigonometric formula (q + 2 p cos(phi + 2 pi k / 3)) is accurate
    for the eigenvalue farther from the other two, but loses half the
    digits of both members of a close pair, such as a symmetric slice gives
    (two Jacobian columns of equal length).  So where the two largest are
    the closer pair (r = cos 3 phi <= 0), the smallest comes from the
    formula; elsewhere the largest does, and ``_deflated_smallest`` takes
    the smallest from the plane orthogonal to its eigenvector.
    """
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = g
    q = (g11 + g22 + g33) / 3.0
    b11, b22, b33 = g11 - q, g22 - q, g33 - q
    p = np.sqrt((b11 * b11 + b22 * b22 + b33 * b33 + 2.0 * (g12 * g12 + g13 * g13 + g23 * g23)) / 6.0)
    det_b = b11 * (b22 * b33 - g23 * g23) - g12 * (g12 * b33 - g23 * g13) + g13 * (g12 * g23 - b22 * g13)
    r = np.clip(np.divide(det_b, 2.0 * p**3, out=np.zeros_like(p), where=p > 0), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    out = np.maximum(q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), 0.0)
    top = np.flatnonzero(r > 0)
    if top.size:
        lam_max = q[top] + 2.0 * p[top] * np.cos(phi[top])
        out[top] = _deflated_smallest([[x[top] for x in row] for row in g], lam_max)
    return out


def _deflated_smallest(g, lam_max) -> np.ndarray:
    """Smallest eigenvalue of positive semidefinite 3 x 3 matrices G
    (``g[i][j]``) with a simple largest eigenvalue ``lam_max``:
    ``_smaller_eigenvalue`` of the 2 x 2 block of G on the plane orthogonal
    to its eigenvector v, i.e. det G / (lambda_max lambda_mid).  v is the
    column of the adjugate of G - lambda_max I (about c v v^T) of largest
    diagonal entry, the one of largest |v_i|."""
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = g
    a11, a22, a33 = g11 - lam_max, g22 - lam_max, g33 - lam_max
    d1, d2, d3 = a22 * a33 - g23 * g23, a11 * a33 - g13 * g13, a11 * a22 - g12 * g12
    e12, e13, e23 = g13 * g23 - g12 * a33, g12 * g23 - g13 * a22, g12 * g13 - a11 * g23
    first = (np.abs(d1) >= np.abs(d2)) & (np.abs(d1) >= np.abs(d3))
    second = ~first & (np.abs(d2) >= np.abs(d3))
    v = [np.where(first, x, np.where(second, y, z)) for x, y, z in ((d1, e12, e13), (e12, d2, e23), (e13, e23, d3))]
    norm = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    scale = np.where(v[0] < 0, -1.0, 1.0) / np.where(norm > 0, norm, 1.0)  # unit, v_1 >= 0
    v1, v2, v3 = (x * scale for x in v)
    v1 = np.where(norm > 0, v1, 1.0)  # a zero adjugate: any unit v
    # e, f: the other two columns of the Householder reflection taking the
    # first unit vector to v, an orthonormal basis of the plane
    h = 1.0 / (1.0 + v1)
    e = (-v2, 1.0 - v2 * v2 * h, -v2 * v3 * h)
    f = (-v3, -v2 * v3 * h, 1.0 - v3 * v3 * h)

    def times_g(x):
        return (
            g11 * x[0] + g12 * x[1] + g13 * x[2],
            g12 * x[0] + g22 * x[1] + g23 * x[2],
            g13 * x[0] + g23 * x[1] + g33 * x[2],
        )

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    ge = times_g(e)
    return _smaller_eigenvalue(dot(e, ge), dot(f, ge), dot(f, times_g(f)))


def check_transverse(model, slc: ParamSlice, tol: float = DEFAULT_TRANSVERSE_TOL) -> CheckResult:
    """Minimum singular value of [immersion Jacobian | Reeb] over the mesh.

    The kernel of d_alpha is spanned by the Reeb vector, so tangency to it
    (or a rank drop of the Jacobian) shows up as a vanishing singular value.
    The Jacobian at the nodes is the slice's ``node_jacobian``, shared
    with ``check_closed``; ``_min_singular_value`` reads the singular
    value from the Gram matrix of [J | R].
    """
    cols = np.empty((slc.ambient_dim, slc.param_dim + 1, slc.mesh.n_nodes))
    cols[:, :-1] = np.moveaxis(slc.node_jacobian, 0, -1)
    cols[:, -1] = model.reeb(slc.points).T
    min_sigma = float(np.min(_min_singular_value(cols)))
    return CheckResult(min_sigma > tol, min_sigma)


def _edge_integrals(model, slc: ParamSlice, u_a: np.ndarray, u_b: np.ndarray):
    """Integrals of the pullback along the straight segments u_a -> u_b,
    stacked over leading axes (a float for a single segment)."""
    form = lambda u: pullback_alpha(model, slc, u)
    return line_quadrature(form, u_a, u_b, segments=4)


def _cochain(model, slc: ParamSlice, edges: np.ndarray) -> np.ndarray:
    """Integral of the pullback over each edge (a, b), oriented a -> b."""
    u_a = slc.mesh.params[edges[:, 0]]
    return _edge_integrals(model, slc, u_a, u_a + slc.mesh.edge_vector(edges[:, 0], edges[:, 1]))


def _comb(grid: np.ndarray, axis: int, pdim: int) -> np.ndarray:
    """View of a grid-shaped array (pdim grid axes first) at coordinate 0
    on every grid axis after ``axis``: the lines along ``axis`` from the
    comb of the earlier axes; ``[(0,) * axis]`` is the one through node 0."""
    return grid[(slice(None),) * (axis + 1) + (0,) * (pdim - axis - 1)]


def _loops(mesh: Mesh, values: np.ndarray) -> list[np.ndarray]:
    """Entries of an array in ``edges()`` order on each periodic generator
    loop, in chain order: the line along a periodic axis through node 0."""
    views = zip(mesh.factors, mesh.axis_views(values))
    return [_comb(view, axis, mesh.param_dim)[(0,) * axis] for axis, (f, view) in enumerate(views) if f.periodic]


def _tree_sums(mesh: Mesh, cochain: np.ndarray) -> np.ndarray:
    """Node values (N,) from 0 at node 0 by adding an edge cochain (E,)
    along a spanning tree: the comb that runs along axis 0 through node 0,
    then from each of its nodes along axis 1, and so on.  Each line is a
    running sum seeded with its first node's value; on a circle of m
    nodes it runs forward to node m // 2 and backward from node 0 to the
    rest.  This is the breadth-first tree of the grid from node 0, summed
    in the same order."""
    grid = np.zeros(mesh.shape)
    for axis, (f, view) in enumerate(zip(mesh.factors, mesh.axis_views(cochain))):
        lines, steps = _comb(grid, axis, mesh.param_dim), _comb(view, axis, mesh.param_dim)
        half = mesh.shape[axis] // 2 if f.periodic else mesh.shape[axis] - 1
        seed = lines[..., :1]
        lines[..., 1 : half + 1] = np.cumsum(np.concatenate([seed, steps[..., :half]], axis=-1), axis=-1)[..., 1:]
        # backward from node 0 to nodes m - 1, ..., half + 1 (none on an interval)
        lines[..., :half:-1] = np.cumsum(np.concatenate([seed, -steps[..., :half:-1]], axis=-1), axis=-1)[..., 1:]
    return grid.ravel()


def _loop_period(values: np.ndarray) -> float:
    """Sequential sum of a loop's edge integrals, in chain order, snapped
    to exactly zero below 1e-8."""
    total = float(np.cumsum(values)[-1])
    return 0.0 if abs(total) < PERIOD_ZERO_TOL else total


def edge_cochain(model, slc: ParamSlice) -> np.ndarray:
    """Integral of the pullback over every mesh edge, in ``edges()`` order."""
    return _cochain(model, slc, slc.mesh.edges())


def periods(model, slc: ParamSlice, closed: CheckResult, cochain: Optional[np.ndarray] = None) -> list[float]:
    """Integral of the pullback around each periodic generator loop.

    Each loop is the chain of edges along one periodic axis through node 0;
    its period is the sum of the edge integrals in chain order.  Values
    below 1e-8 are snapped to exactly zero.  ``closed`` is the caller's
    ``check_closed`` result, which is not recomputed here; raises
    NotClosed when it failed.

    Each loop is integrated as its own stack, unless the caller passes the
    all-edge ``cochain`` (``edge_cochain``) to read the loops from.  On a
    circle the one loop is all of ``edges()``, in the same order, so the
    two agree bit for bit; on higher-dimensional meshes they differ in
    the last bits.
    """
    if not closed.passed:
        raise NotClosed(f"closedness residual {closed.value:.3e} exceeds the tolerance")
    if cochain is None:
        return [_loop_period(_cochain(model, slc, loop)) for loop in _loops(slc.mesh, slc.mesh.edges())]
    return [_loop_period(loop) for loop in _loops(slc.mesh, cochain)]


class PrimitiveField:
    """Discrete primitive f of the pulled-back form, one value per node.

    Gauge: f = 0 at node 0.  Off-node values are reconstructed by
    integrating the pullback from the nearest node, which keeps them
    exactly consistent with the discrete values.
    """

    def __init__(self, model, slc: ParamSlice, values: np.ndarray, cycle_residual: float):
        self.model = model
        self.slice = slc
        self.values = values
        self.cycle_residual = cycle_residual

    def value_at(self, u):
        """Primitive at parameter points u (..., param_dim): one nearest-node
        scan and one stacked edge quadrature from each query's node.  An
        array of shape (...), a float for one point."""
        mesh = self.slice.mesh
        node = self.slice.nearest_node(u)
        u_node = mesh.params[node]
        delta = mesh.unwrap(mesh.wrap(u) - u_node)
        values = self.values[node] + _edge_integrals(self.model, self.slice, u_node, u_node + delta)
        return float(values) if np.ndim(values) == 0 else values

    def shifted(self, offset: float) -> "PrimitiveField":
        """Copy with a constant added (gauge change)."""
        return PrimitiveField(self.model, self.slice, self.values + offset, self.cycle_residual)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def primitive(model, slc: ParamSlice, cochain: Optional[np.ndarray] = None) -> PrimitiveField:
    """Accumulate the edge integrals of the pullback along a spanning tree
    of the mesh graph rooted at node 0 (the gauge f = 0), by per-axis
    running sums (``_tree_sums``).  The integrals are the caller's
    ``edge_cochain`` when given, else computed here.

    Requires every period to vanish: each generator loop's period is
    summed from the same all-edge cochain, and a nonzero one raises
    NonExact with its value.  Path independence is verified on every edge:
    the endpoint difference of f must match the edge integral within
    ``CYCLE_TOL`` (NonExact with the worst defect otherwise).  There is no
    separate closedness check, so this never raises NotClosed.
    """
    mesh = slc.mesh
    edges = mesh.edges()
    if cochain is None:
        cochain = _cochain(model, slc, edges)
    for period in map(_loop_period, _loops(mesh, cochain)):
        if period != 0.0:
            raise NonExact(period)
    values = _tree_sums(mesh, cochain)
    worst = float(np.max(np.abs(values[edges[:, 0]] + cochain - values[edges[:, 1]])))
    if worst > CYCLE_TOL:
        raise NonExact(worst)
    return PrimitiveField(model, slc, values, worst)


def load_mesh_slice(path, param_dim: int, periodic: Sequence[bool]) -> ParamSlice:
    """Build a ParamSlice from a delimited node table, meshed at its own
    nodes.

    Row format: parameter coordinates first, ambient coordinates after; a
    header row names the columns.  Nodes must fill a regular grid (every
    combination of the per-factor coordinate values present exactly once)
    with at least 2 evenly spaced values per factor, and a periodic factor
    omits its endpoint: its last node slice must not repeat its first.
    Commas or whitespace delimit fields.
    """
    from scipy.interpolate import CubicSpline, RegularGridInterpolator

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError("mesh file needs a header row and at least one node row")
    delim = "," if "," in lines[0] else None
    header = [c.strip() for c in lines[0].split(delim)]
    rows = np.array([[float(c) for c in ln.split(delim)] for ln in lines[1:]])
    if not np.all(np.isfinite(rows)):
        raise ValueError("mesh file holds a value that is not a finite number")
    if rows.shape[1] != len(header):
        raise ValueError("row width does not match header")
    if rows.shape[1] <= param_dim:
        raise ValueError("fewer columns than param_dim + 1")
    if len(periodic) != param_dim:
        raise ValueError("one periodicity flag per parameter factor required")

    params, ambient = rows[:, :param_dim], rows[:, param_dim:]
    axes = [np.unique(params[:, j]) for j in range(param_dim)]
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != rows.shape[0]:
        raise ValueError("nodes do not form a full regular grid")
    order = np.lexsort(tuple(params[:, j] for j in reversed(range(param_dim))))
    grid_vals = ambient[order].reshape(shape + (ambient.shape[1],))

    tol = COINCIDENT_TOL * max(1.0, float(np.max(np.abs(ambient))))
    factors = []
    for j, per in enumerate(periodic):
        if len(axes[j]) < 2:
            raise ValueError(f"need at least 2 nodes per factor, factor {j} has 1")
        lo, hi = float(axes[j][0]), float(axes[j][-1])
        if np.max(np.abs(axes[j] - np.linspace(lo, hi, len(axes[j])))) > EVEN_SPACING_TOL * (hi - lo):
            raise ValueError(f"factor {j} values are not evenly spaced")
        if per:
            seam = np.take(grid_vals, -1, axis=j) - np.take(grid_vals, 0, axis=j)
            if np.all(np.linalg.norm(seam, axis=-1) <= tol):
                raise ValueError(f"periodic factor {j} repeats its first nodes at its end; omit the duplicate endpoint")
            step = float(np.median(np.diff(axes[j])))
            factors.append(DomainFactor(lo, hi + step, True))
        else:
            factors.append(DomainFactor(lo, hi, False))

    if param_dim == 1:
        xs = axes[0]
        if periodic[0]:
            xs_ext = np.append(xs, factors[0].hi)
            vals_ext = np.concatenate([grid_vals, grid_vals[:1]], axis=0)
            interp = CubicSpline(xs_ext, vals_ext, bc_type="periodic")
        else:
            interp = CubicSpline(xs, grid_vals)

        def immersion(u):
            return interp(np.asarray(u, dtype=float)[..., 0])

        def jacobian(u):
            return interp(np.asarray(u, dtype=float)[..., 0], 1)[..., None]

    else:
        ext_axes, vals = [], grid_vals
        for j, per in enumerate(periodic):
            if per:
                ext_axes.append(np.append(axes[j], factors[j].hi))
                vals = np.concatenate([vals, np.take(vals, [0], axis=j)], axis=j)
            else:
                ext_axes.append(axes[j])
        # linear extrapolation past an interval's ends, where finite
        # differences step, as the 1-D spline extrapolates
        rgi = RegularGridInterpolator(tuple(ext_axes), vals, method="linear", bounds_error=False, fill_value=None)

        def immersion(u):
            return rgi(_wrap(factors, u))

        jacobian = None

    return ParamSlice(factors, immersion, jacobian=jacobian, resolution=shape)


def radial_projection(slc: ParamSlice) -> ParamSlice:
    """The slice x / |x| on the unit sphere, on the same mesh as ``slc``.

    A mesh-file interpolant leaves the sphere between its nodes; this is
    the slice a sphere model reads from such a file.  With an analytic
    Jacobian J of x, the projection's is (I - p p^T) J / |x| at p = x / |x|;
    without one, derivatives are central differences of the projection.
    A point at the origin is left where it is, off the sphere.
    """

    def project(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        r[r == 0.0] = 1.0
        return x / r, r

    def immersion(u):
        return project(slc.immerse(u))[0]

    jacobian = None
    if slc.analytic_jacobian is not None:

        def jacobian(u):
            p, r = project(slc.immerse(u))
            jac = slc.jacobian_at(u)
            radial = np.sum(p[..., :, None] * jac, axis=-2, keepdims=True)  # p^T J, (..., 1, param_dim)
            return (jac - p[..., :, None] * radial) / r[..., None]

    return ParamSlice(slc.factors, immersion, jacobian, resolution=slc.mesh.shape)
