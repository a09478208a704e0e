"""Shared numerical kernel: flow integration, finite differences, damped
Newton iteration, and composite Simpson quadrature over stacks of segments.

Every routine here is a pure function of its arguments; there is no
shared mutable state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFinite, StepUnderflow

Field = Callable[[np.ndarray], np.ndarray]

# Dormand-Prince 5(4) tableau.  The 5th-order solution is propagated; the
# difference against the embedded 4th-order solution estimates local error.
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
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4


def _eval_field(field: Field, y: np.ndarray) -> np.ndarray:
    f = np.asarray(field(y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"field returned non-finite values at {y}")
    return f


def integrate_flow(
    field: Field,
    start,
    duration: float,
    tol: float = 1e-10,
    dense_output: bool = False,
):
    """Integrate the autonomous ODE y' = field(y) for the given duration.

    Uses an embedded 4(5) Runge-Kutta pair with proportional step control;
    local error per accepted step is kept at or below ``tol``.

    Args:
        field: callable mapping a state vector to its velocity.
        start: initial state vector.
        duration: nonnegative flow time.
        tol: local error tolerance per step.
        dense_output: when True, also return the accepted (time, state)
            samples along the trajectory.

    Returns:
        The endpoint state, or ``(endpoint, samples)`` with
        ``samples = [(t0, y0), (t1, y1), ...]`` when ``dense_output``.

    Raises:
        StepUnderflow: adaptive step shrank below the machine threshold.
        NonFinite: the field returned NaN or infinity.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    y = np.array(start, dtype=float)
    samples = [(0.0, y.copy())] if dense_output else None
    if duration == 0.0:
        return (y, samples) if dense_output else y

    h_floor = 1e-14 * max(1.0, duration)
    h = duration / 100.0
    t = 0.0
    k1 = _eval_field(field, y)
    n_stages = 7
    while t < duration:
        h = min(h, duration - t)
        if h < h_floor:
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t:.6g}")
        k = np.empty((n_stages,) + y.shape)
        k[0] = k1
        for i in range(1, n_stages):
            yi = y + h * np.tensordot(np.array(_DP_A[i]), k[:i], axes=(0, 0))
            k[i] = _eval_field(field, yi)
        err = h * float(np.linalg.norm(np.tensordot(_DP_ERR, k, axes=(0, 0))))
        if err <= tol:
            y = y + h * np.tensordot(_DP_B5, k, axes=(0, 0))
            t += h
            k1 = k[6]  # FSAL: last stage is the next first stage
            if dense_output:
                samples.append((t, y.copy()))
        # proportional controller with safety factor and growth clamps
        if err == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        h *= factor
    return (y, samples) if dense_output else y


def rk4_step(field: Field, y: np.ndarray, h: float) -> np.ndarray:
    """Single classical 4th-order Runge-Kutta step."""
    k1 = _eval_field(field, y)
    k2 = _eval_field(field, y + 0.5 * h * k1)
    k3 = _eval_field(field, y + 0.5 * h * k2)
    k4 = _eval_field(field, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

def integrate_fixed(field: Field, start, duration: float, steps: int) -> np.ndarray:
    """Fixed-step classical RK4 over ``steps`` equal steps (fallback scheme)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.array(start, dtype=float)
    h = duration / steps
    for _ in range(steps):
        y = rk4_step(field, y, h)
    return y


def jacobian_fd(map_fn: Callable[[np.ndarray], np.ndarray], point, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobians of ``map_fn`` at a stack of points.

    ``point`` has shape (..., d) and ``map_fn`` maps (..., d) to (..., m);
    the result has shape (..., m, d), one map call per coordinate and
    sign.  The step in coordinate j is ``step * (1 + |point_j|)``, per
    point; entry error is O(step^2) for smooth maps.
    """
    x = np.asarray(point, dtype=float)
    cols = []
    for j in range(x.shape[-1]):
        xj = x[..., j]
        s = step * (1.0 + np.abs(xj))
        xp = x.copy()
        xm = x.copy()
        xp[..., j] = xj + s
        xm[..., j] = xj - s
        fp = np.asarray(map_fn(xp), dtype=float)
        fm = np.asarray(map_fn(xm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFinite("map returned non-finite values during differentiation")
        cols.append((fp - fm) / (2.0 * s)[..., None])
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class NewtonOptions:
    """Settings for damped Newton iteration."""

    residual_tol: float = 1e-10
    max_iterations: int = 50
    fd_step: float = 1e-6
    damping: float = 0.5

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class NewtonResult:
    converged: bool
    x: np.ndarray
    residual_norm: float
    iterations: int
    failure: Optional[str] = None  # "singular_jacobian" | "max_iterations"


def newton_solve(system: Callable[[np.ndarray], np.ndarray], seed, opts: Optional[NewtonOptions] = None) -> NewtonResult:
    """Damped Newton iteration for a nonlinear system.

    A singular or non-square Jacobian takes the least-squares step: the
    minimum-norm one, or Gauss-Newton for an overdetermined system (such
    as the projection system of a curve in r5).  On a residual increase
    the update is halved, up to 20 times, before the step is accepted
    anyway; a seed that already satisfies the tolerance is returned
    unchanged.

    Returns:
        NewtonResult with ``converged`` set when the final residual norm is
        at or below ``opts.residual_tol``; on failure the result carries the
        last iterate, its residual, and a failure reason.
    """
    opts = opts or NewtonOptions()
    x = np.atleast_1d(np.array(seed, dtype=float))
    fx = np.atleast_1d(np.asarray(system(x), dtype=float))
    if not np.all(np.isfinite(fx)):
        raise NonFinite("system returned non-finite values at the seed")
    res = float(np.linalg.norm(fx))
    if res <= opts.residual_tol:
        return NewtonResult(True, x, res, 0)

    singular_seen = False
    for it in range(1, opts.max_iterations + 1):
        jac = jacobian_fd(lambda v: np.atleast_1d(system(v)), x, opts.fd_step)
        try:
            delta = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:  # singular (e.g. chord families) or non-square
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


def line_quadrature(form: Callable[[np.ndarray], np.ndarray], a, b, segments: int = 16):
    """Composite Simpson integrals of a 1-form along straight segments a->b.

    ``a`` and ``b`` have shape (..., d), a stack of segments; scalars are
    accepted for one-dimensional parameter spaces.  ``form(u)`` maps points
    of shape (..., d) to covectors of the same shape and is called once per
    Simpson node on all segments at once; the integrand is the pairing with
    the constant direction ``b - a``.  Returns a float for one segment and
    an array of shape (...) for a stack.  Error is O(segments^-4).
    """
    if segments < 1:
        raise ValueError("segments must be >= 1")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    direction = b - a
    n = 2 * segments  # subintervals; Simpson needs an even count
    tau = np.linspace(0.0, 1.0, n + 1)
    vals = np.empty((n + 1,) + a.shape[:-1])
    for i, s in enumerate(tau):
        cov = np.asarray(form(a + s * direction), dtype=float)
        vals[i] = np.sum(cov * direction, axis=-1)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("form returned non-finite values along the segment")
    h = 1.0 / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = h / 3.0 * np.tensordot(weights, vals, axes=(0, 0))
    return float(total) if total.ndim == 0 else total
