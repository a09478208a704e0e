"""Parametrized slices: meshes, pullback of the contact form, the two
slice checks (closed pullback, transversality to the Reeb kernel),
periods over generator loops, and primitives of exact pullbacks.

Periods and primitives are both sums of one edge cochain: the integral of
the pullback over each mesh edge, from a single Simpson quadrature stacked
over the edges (a generator chain for a period, all edges for a primitive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonExact, NotClosed, OffManifold
from .numerics import jacobian_fd, line_quadrature
from .spatial import GridIndex

DEFAULT_CIRCLE_NODES = 256
DEFAULT_INTERVAL_NODES = 129
DEFAULT_CLOSED_TOL = 1e-6
DEFAULT_TRANSVERSE_TOL = 1e-4
PERIOD_ZERO_TOL = 1e-8
_NEAREST_BLOCK = 32  # queries per block of the nearest-node scan, bounding its (block, N) distances


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


def _wrap(factors: Sequence[DomainFactor], u) -> np.ndarray:
    """Parameters (..., len(factors)) mapped into the fundamental domain,
    as a new array."""
    u = np.array(u, dtype=float)
    for j, f in enumerate(factors):
        if f.periodic:
            u[..., j] = f.lo + np.mod(u[..., j] - f.lo, f.span)
    return u


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
        self.resolution = tuple(int(r) for r in resolution)
        axes = []
        for f, m in zip(self.factors, self.resolution):
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
        f, m = self.factors[axis], self.resolution[axis]
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

    def wrap(self, u: np.ndarray) -> np.ndarray:
        """Map parameters into the fundamental domain."""
        return _wrap(self.factors, u)


class ParamSlice:
    """Compact parametrized submanifold candidate with its mesh.

    ``immersion`` maps parameter arrays of shape (..., param_dim) to
    ambient points (..., ambient_dim); ``jacobian``, when given, returns
    (..., ambient_dim, param_dim).  Without it, derivatives fall back to
    central differences.  The mesh is one product grid of intervals and
    circles with at least 2 nodes per factor, so it is always connected.
    """

    def __init__(
        self,
        factors: Sequence[DomainFactor],
        immersion: Callable[[np.ndarray], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        resolution: Optional[Sequence[int]] = None,
        fd_step: float = 1e-6,
    ):
        self.factors = tuple(factors)
        self.immersion = immersion
        self.analytic_jacobian = jacobian
        self.fd_step = fd_step
        if resolution is None:
            resolution = [
                DEFAULT_CIRCLE_NODES if f.periodic else DEFAULT_INTERVAL_NODES
                for f in factors
            ]
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
        return jacobian_fd(self.immerse, u, self.fd_step)

    def nearest_node(self, u):
        """Index of the nearest mesh node to each parameter point of u
        (..., param_dim), shortest way around periodic factors, the lowest
        index on a tie: an array of shape (...), an int for one point.
        Queries are scanned in blocks of ``_NEAREST_BLOCK``."""
        w = self.mesh.wrap(u)
        flat = w.reshape(-1, self.param_dim)
        node = np.empty(len(flat), dtype=int)
        for lo in range(0, len(flat), _NEAREST_BLOCK):
            d = self.mesh.params - flat[lo : lo + _NEAREST_BLOCK, None, :]
            for j, f in enumerate(self.factors):
                if f.periodic:
                    d[..., j] = (d[..., j] + 0.5 * f.span) % f.span - 0.5 * f.span
            node[lo : lo + _NEAREST_BLOCK] = np.argmin(np.sum(d * d, axis=-1), axis=-1)
        return int(node[0]) if w.ndim == 1 else node.reshape(w.shape[:-1])

    def coincident_point_pairs(self, ambient_tol: float = 1e-9) -> np.ndarray:
        """Mesh node pairs i < j, as an (P, 2) array in ascending order,
        whose ambient images are within ``ambient_tol`` times the scale
        max(1, max |coordinate|) of each other.

        Used by the embedding proxy: any such pair must be at parameter
        distance below the exclusion radius to count as benign.
        """
        tol = ambient_tol * max(1.0, float(np.max(np.abs(self.points))))
        return np.concatenate(list(GridIndex(self.points, cell_size=tol).close_pairs(tol)))

    def embedded_at_mesh_scale(self, exclusion_radius: float) -> bool:
        pairs = self.coincident_point_pairs()
        params = self.mesh.params
        return bool(np.all(self.mesh.param_distance(params[pairs[:, 0]], params[pairs[:, 1]]) <= exclusion_radius))


@dataclass
class CheckResult:
    passed: bool
    value: float  # max residual for closedness, min singular value for transversality


def pullback_alpha(model, slc: ParamSlice, u) -> np.ndarray:
    """Components of the pulled-back contact form at parameter point(s) u.

    Component k is alpha(immersion(u), d(immersion)/du_k); shape (..., param_dim).
    """
    u = np.asarray(u, dtype=float)
    pts = slc.immerse(u)
    if not np.all(model.on_manifold(pts, tol=1e-6)):
        raise OffManifold("immersion image leaves the model manifold")
    jac = slc.jacobian_at(u)
    comps = [model.alpha(pts, jac[..., k]) for k in range(slc.param_dim)]
    return np.stack(comps, axis=-1)


def check_closed(model, slc: ParamSlice, tol: float = DEFAULT_CLOSED_TOL) -> CheckResult:
    """Max antisymmetrized derivative of the pullback over mesh nodes.

    One-dimensional domains pass vacuously with residual 0 (there are no
    2-forms on curves).
    """
    if slc.param_dim == 1:
        return CheckResult(True, 0.0)
    jac = jacobian_fd(lambda u: pullback_alpha(model, slc, u), slc.mesh.params)
    residual = float(np.max(np.abs(jac - np.swapaxes(jac, -1, -2))))
    return CheckResult(residual <= tol, residual)


def check_transverse(model, slc: ParamSlice, tol: float = DEFAULT_TRANSVERSE_TOL) -> CheckResult:
    """Minimum singular value of [immersion Jacobian | Reeb] over the mesh.

    The kernel of d_alpha is spanned by the Reeb vector, so tangency to it
    (or a rank drop of the Jacobian) shows up as a vanishing singular value.
    """
    jac = slc.jacobian_at(slc.mesh.params)
    reeb = model.reeb(slc.points)
    mat = np.concatenate([jac, reeb[..., None]], axis=-1)
    sigma = np.linalg.svd(mat, compute_uv=False)
    min_sigma = float(np.min(sigma[:, -1]))
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


def periods(model, slc: ParamSlice, closed: CheckResult) -> list[float]:
    """Integral of the pullback around each periodic generator loop.

    Each loop is the chain of edges along one periodic axis through node 0;
    its period is the sum of the edge integrals in chain order.  Values
    below 1e-8 are snapped to exactly zero.  ``closed`` is the caller's
    ``check_closed`` result, which is not recomputed here; raises
    NotClosed when it failed.
    """
    if not closed.passed:
        raise NotClosed(f"closedness residual {closed.value:.3e} exceeds the tolerance")
    return [_loop_period(_cochain(model, slc, loop)) for loop in _loops(slc.mesh, slc.mesh.edges())]


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


def primitive(model, slc: ParamSlice, cycle_tol: float = 1e-6) -> PrimitiveField:
    """Accumulate the edge integrals of the pullback along a spanning tree
    of the mesh graph rooted at node 0 (the gauge f = 0), by per-axis
    running sums (``_tree_sums``).

    Requires every period to vanish: each generator loop's period is
    summed from the same all-edge cochain, and a nonzero one raises
    NonExact with its value.  Path independence is verified on every edge:
    the endpoint difference of f must match the edge integral within
    ``cycle_tol`` (NonExact with the worst defect otherwise).  There is no
    separate closedness check, so this never raises NotClosed.
    """
    mesh = slc.mesh
    edges = mesh.edges()
    cochain = _cochain(model, slc, edges)
    for period in map(_loop_period, _loops(mesh, cochain)):
        if period != 0.0:
            raise NonExact(period)
    values = _tree_sums(mesh, cochain)
    worst = float(np.max(np.abs(values[edges[:, 0]] + cochain - values[edges[:, 1]])))
    if worst > cycle_tol:
        raise NonExact(worst)
    return PrimitiveField(model, slc, values, worst)


def load_mesh_slice(
    path,
    param_dim: int,
    periodic: Sequence[bool],
    resolution: Optional[Sequence[int]] = None,
) -> ParamSlice:
    """Build a ParamSlice from a delimited node table.

    Row format: parameter coordinates first, ambient coordinates after; a
    header row names the columns.  Nodes must fill a regular grid (every
    combination of the per-factor coordinate values present exactly once).
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

    factors = []
    for j, per in enumerate(periodic):
        lo, hi = float(axes[j][0]), float(axes[j][-1])
        if per:
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
        rgi = RegularGridInterpolator(tuple(ext_axes), vals, method="linear")

        def immersion(u):
            return rgi(_wrap(factors, u))

        jacobian = None

    if resolution is None:
        resolution = shape
    return ParamSlice(factors, immersion, jacobian=jacobian, resolution=resolution)
