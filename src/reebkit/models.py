"""Built-in contact models and their symplectization.

Two families with closed-form contact data are provided:

* ``StandardRModel(n)``: Y = R^(2n-1) with coordinates
  (x_1, y_1, ..., x_{n-1}, y_{n-1}, z), contact form dz - sum(y_i dx_i),
  Reeb field the unit z-direction.
* ``StandardSphereModel(n)``: Y = S^(2n-1) in R^(2n) with coordinates
  (x_1, y_1, ..., x_n, y_n) and the restriction of
  (1/2) sum(x_i dy_i - y_i dx_i).  The 1/2 normalization is a convention
  of this toolkit; with it the Reeb field is 2(-y_1, x_1, ..., -y_n, x_n)
  and the flow is the rotation z_j -> e^{2it} z_j with period pi.

Both Reeb flows have closed forms, so ``model.flow(points, t)`` evaluates
the exact time-t map; chord search and the reparametrized-flow check use
it instead of integrating ``model.reeb`` numerically.

All evaluators broadcast over leading axes: points and vectors have shape
(..., ambient_dim).  Models are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OffManifold, UnsupportedModel
from .numerics import jacobian_fd


class StandardRModel:
    """Euclidean model with alpha = dz - sum(y_i dx_i) and Reeb field d/dz."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self.contact_dim = 2 * n - 1
        self.ambient_dim = 2 * n - 1
        self.name = f"r{2 * n - 1}"

    def alpha(self, points, vectors):
        p = np.asarray(points, dtype=float)
        v = np.asarray(vectors, dtype=float)
        return v[..., -1] - np.sum(p[..., 1:-1:2] * v[..., 0:-1:2], axis=-1)

    def d_alpha(self, points, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.sum(
            u[..., 0:-1:2] * v[..., 1:-1:2] - u[..., 1:-1:2] * v[..., 0:-1:2], axis=-1
        )

    def reeb(self, points):
        p = np.asarray(points, dtype=float)
        r = np.zeros_like(p)
        r[..., -1] = 1.0
        return r

    def flow(self, points, t):
        """Exact time-t Reeb flow: translation by t in z.

        Broadcasts ``t`` against the leading axes of ``points``.
        """
        p = np.asarray(points, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(p.shape[:-1], t.shape) + p.shape[-1:]
        out = np.broadcast_to(p, shape).copy()
        out[..., -1] += t
        return out

    def on_manifold(self, points, tol: float = 1e-9):
        p = np.asarray(points, dtype=float)
        return np.all(np.isfinite(p), axis=-1)


class StandardSphereModel:
    """Unit sphere S^(2n-1) with the (1/2)-normalized rotation-invariant form.

    Inputs near the sphere are radially projected before evaluation, i.e.
    the evaluators act through the scale-invariant extension off the
    constraint surface; points beyond the band raise OffManifold.  The
    band admits the tests' Runge-Kutta stage points, which sit O(step^2)
    off the sphere; no command integrates a sphere field.
    """

    #: inputs inside this band are projected; beyond it they are rejected
    PROJECT_TOL = 1e-3

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self.contact_dim = 2 * n - 1
        self.ambient_dim = 2 * n
        self.name = f"s{2 * n - 1}"

    def _radius(self, p: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(p, axis=-1)
        if np.any(np.abs(r - 1.0) > self.PROJECT_TOL):
            worst = float(np.max(np.abs(r - 1.0)))
            raise OffManifold(f"point off S^{self.contact_dim} by {worst:.3e}")
        return r

    def project(self, points):
        p = np.asarray(points, dtype=float)
        return p / self._radius(p)[..., None]

    def alpha(self, points, vectors):
        p = self.project(points)
        v = np.asarray(vectors, dtype=float)
        x, y = p[..., 0::2], p[..., 1::2]
        vx, vy = v[..., 0::2], v[..., 1::2]
        return 0.5 * np.sum(x * vy - y * vx, axis=-1)

    def d_alpha(self, points, u, v):
        self.project(points)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.sum(u[..., 0::2] * v[..., 1::2] - u[..., 1::2] * v[..., 0::2], axis=-1)

    def reeb(self, points):
        p = self.project(points)
        r = np.empty_like(p)
        r[..., 0::2] = -2.0 * p[..., 1::2]
        r[..., 1::2] = 2.0 * p[..., 0::2]
        return r

    def flow(self, points, t):
        """Exact time-t Reeb flow: z_j -> e^{2it/|p|} z_j.

        Off the sphere (inside the band) ``reeb`` is the scale-invariant
        extension, whose flow keeps |p| and turns at angular speed 2/|p|.
        Broadcasts ``t`` against the leading axes of ``points``.
        """
        p = np.asarray(points, dtype=float)
        angle = 2.0 * np.asarray(t, dtype=float) / self._radius(p)
        c = np.cos(angle)[..., None]
        s = np.sin(angle)[..., None]
        x, y = p[..., 0::2], p[..., 1::2]
        out = np.empty(angle.shape + p.shape[-1:])
        out[..., 0::2] = c * x - s * y
        out[..., 1::2] = s * x + c * y
        return out

    def on_manifold(self, points, tol: float = 1e-9):
        p = np.asarray(points, dtype=float)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0) <= tol


ContactModel = StandardRModel | StandardSphereModel

#: manifest / CLI model names
MODEL_BUILDERS: dict[str, Callable[[], ContactModel]] = {
    "r3": lambda: StandardRModel(2),
    "r5": lambda: StandardRModel(3),
    "r7": lambda: StandardRModel(4),
    "s3": lambda: StandardSphereModel(2),
    "s5": lambda: StandardSphereModel(3),
}


def make_model(name: str) -> ContactModel:
    try:
        return MODEL_BUILDERS[name]()
    except KeyError:
        raise UnsupportedModel(f"unknown model name {name!r}") from None


def reeb_at(model: ContactModel, point) -> np.ndarray:
    """Reeb vector at a point, after the model's membership handling."""
    p = np.asarray(point, dtype=float)
    if not np.all(model.on_manifold(p, tol=StandardSphereModel.PROJECT_TOL)):
        raise OffManifold("point is not on the model manifold")
    return model.reeb(p)


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def _smoothstep_d(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    return np.where(inside, 30.0 * u * u * (1.0 - u) ** 2, 0.0)


COLLAR_EPSILON = 0.2  # half-width of the collar (1 - eps, 1 + eps) and width of the rho ramp
DEFAULT_MARGIN = 0.05  # default margin of the strict inequalities dh(Reeb) > -1 + margin and dt > margin


def rho(t):
    """Quintic ramp on [1 - COLLAR_EPSILON, 1]: 0 below the window, 1 at t=1.

    Nondecreasing with vanishing derivative at both window ends, so the
    t=1 evaluation of deformed quantities carries no rho' term.
    """
    return _smoothstep((np.asarray(t, dtype=float) - (1.0 - COLLAR_EPSILON)) / COLLAR_EPSILON)


def rho_derivative(t):
    u = (np.asarray(t, dtype=float) - (1.0 - COLLAR_EPSILON)) / COLLAR_EPSILON
    return _smoothstep_d(u) / COLLAR_EPSILON


@dataclass(frozen=True)
class DeformationSpec:
    """Deformation data: ambient profile h and margin in (0, 1) for the
    strict transversality inequality dh(Reeb) > -1; the time profile is
    ``rho``.

    ``h`` maps points of shape (..., ambient_dim) to values of shape (...).
    """

    h: Callable[[np.ndarray], np.ndarray]
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if not 0 < self.margin < 1:
            raise ValueError("margin must lie in (0, 1)")


class SymplectizationModel:
    """Collar (1-eps, 1+eps) x Y, eps = COLLAR_EPSILON, with the scaled
    form t*alpha.

    The symplectic pairing is dt ^ alpha + t * d_alpha; the undeformed
    expansion field is t * d/dt, whose dt-component is t at every point.
    Vectors on the collar are (1 + ambient_dim)-arrays with the dt
    component first.
    """

    def __init__(self, base: ContactModel):
        self.base = base
        self.t_range = (1.0 - COLLAR_EPSILON, 1.0 + COLLAR_EPSILON)

    def liouville_form(self, t: float, point, vector) -> float:
        """Pairing of t*alpha with a collar vector (v_t, v_space)."""
        v = np.asarray(vector, dtype=float)
        return float(t * self.base.alpha(point, v[1:]))

    def omega(self, t: float, point, u, v) -> float:
        """Symplectic pairing dt^alpha + t*d_alpha on collar vectors."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(
            u[0] * self.base.alpha(point, v[1:])
            - v[0] * self.base.alpha(point, u[1:])
            + t * self.base.d_alpha(point, u[1:], v[1:])
        )

    def liouville_field(self, t: float, points) -> np.ndarray:
        """The expansion field t*d/dt at points (..., ambient_dim)."""
        out = np.zeros(np.shape(points)[:-1] + (1 + self.base.ambient_dim,))
        out[..., 0] = t
        return out


def hamiltonian_field(sym: SymplectizationModel, spec: DeformationSpec, t: float, points) -> np.ndarray:
    """Hamiltonian vectors of H(t, x) = rho(t) h(x) at collar points.

    ``points`` has shape (..., ambient_dim); the result has shape
    (..., 1 + ambient_dim).  Solves iota_X (dt^alpha + t d_alpha) = dH by
    coefficient matching in the Euclidean model's coordinates:

        X_t    = rho * h_z
        X_xi   = rho * h_yi / t
        X_yi   = -rho * (h_xi + h_z * y_i) / t
        X_z    = rho * sum(y_i h_yi) / t - rho' * h

    Only implemented for StandardRModel bases.
    """
    base = sym.base
    p = np.asarray(points, dtype=float)
    if not isinstance(base, StandardRModel):
        raise UnsupportedModel(
            f"Hamiltonian field not implemented for model {base.name!r}"
        )
    rho_t = float(rho(t))
    rho_d = float(rho_derivative(t))
    h0 = spec.h(p)
    grad = jacobian_fd(lambda q: np.expand_dims(spec.h(q), -1), p)[..., 0, :]
    gx, gy, gz = grad[..., 0:-1:2], grad[..., 1:-1:2], grad[..., -1:]
    y = p[..., 1:-1:2]
    out = np.empty(p.shape[:-1] + (1 + base.ambient_dim,))
    out[..., :1] = rho_t * gz
    out[..., 1:-1:2] = rho_t * gy / t            # x-components
    out[..., 2:-1:2] = -rho_t * (gx + gz * y) / t  # y-components
    out[..., -1] = rho_t * np.sum(y * gy, axis=-1) / t - rho_d * h0
    return out


def liouville_deformed(sym: SymplectizationModel, spec: DeformationSpec, t: float, points) -> np.ndarray:
    """Deformed expansion field t*d/dt + X_H at collar points (..., ambient_dim).

    At t = 1 its dt-component equals 1 + dh(Reeb), so its sign reproduces
    the transversality criterion directly.
    """
    if not sym.t_range[0] < t < sym.t_range[1]:
        raise ValueError(f"t={t} outside collar range {sym.t_range}")
    if not np.all(sym.base.on_manifold(points, tol=StandardSphereModel.PROJECT_TOL)):
        raise OffManifold("point is not on the base manifold")
    return sym.liouville_field(t, points) + hamiltonian_field(sym, spec, t, points)
