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

NEWTON_MAX_ITERATIONS = 60  # Newton iterations per lane before it fails with "max_iterations"
NEWTON_DAMPING = 0.5  # update scale factor per backtracking trial

# Dormand-Prince 5(4) tableau.  The 5th-order solution is propagated; the
# difference against the embedded 4th-order solution estimates local error.
# Row i combines stages 0..i-1: ``_DP_A[i] @ k[:i]`` on a (7, d) stage array.
_DP_A = [
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4


def _row_norms(f: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``f`` (..., m), as ``sqrt(f @ f)`` per
    row: bit for bit ``np.linalg.norm`` of the row alone, which
    ``norm(axis=-1)`` is not."""
    return np.sqrt(f[..., None, :] @ f[..., :, None])[..., 0, 0]


def _eval_field(field: Field, y: np.ndarray) -> np.ndarray:
    """``field(y)``; raises NonFinite on NaN or infinity."""
    f = np.asarray(field(y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"field returned non-finite values at {y}")
    return f


def integrate_flow(
    field: Field,
    start,
    duration: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integrate the autonomous ODE y' = field(y) for the given duration.

    Uses an embedded 4(5) Runge-Kutta pair with proportional step control;
    local error per accepted step is kept at or below ``tol``.  The last
    stage of an accepted step is the first of the next (FSAL).

    Args:
        field: callable mapping a state (d,) to its velocity (d,).
        start: initial state (d,).
        duration: nonnegative flow time.
        tol: local error tolerance per step.

    Returns:
        The endpoint state (d,).

    Raises:
        StepUnderflow: the adaptive step shrank below the machine threshold.
        NonFinite: the field returned NaN or infinity.
    """
    y = np.array(start, dtype=float)
    duration = float(duration)
    if not duration >= 0:
        raise ValueError("duration must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    h_floor = 1e-14 * max(1.0, duration)
    h = duration / 100.0
    t = 0.0
    k1 = _eval_field(field, y) if duration > 0.0 else None
    while t < duration:
        h = min(h, duration - t)
        if h < h_floor:
            raise StepUnderflow(f"step size {h:.3e} underflowed at t={t:.6g}")
        k = np.empty((7,) + y.shape)
        k[0] = k1
        for i in range(1, 7):
            k[i] = _eval_field(field, y + h * (_DP_A[i] @ k[:i]))
        err = h * float(np.linalg.norm(_DP_ERR @ k))
        if err <= tol:
            y = y + h * (_DP_B5 @ k)
            t += h
            k1 = k[6]
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
    return y


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


@dataclass
class NewtonResult:
    converged: bool
    x: np.ndarray
    residual_norm: float
    iterations: int
    failure: Optional[str] = None  # "singular_jacobian" | "max_iterations"


@dataclass
class NewtonStack:
    """Per-lane outcomes of ``newton_solve_stack`` over S lanes: arrays of
    shape (S,), and (S, n) for ``x``; ``failure`` holds None or a reason."""

    converged: np.ndarray
    x: np.ndarray
    residual_norm: np.ndarray
    iterations: np.ndarray
    failure: np.ndarray

    def lane(self, i: int) -> NewtonResult:
        """Lane ``i`` as the scalar result of a one-seed solve."""
        return NewtonResult(
            bool(self.converged[i]),
            self.x[i],
            float(self.residual_norm[i]),
            int(self.iterations[i]),
            self.failure[i],
        )


def _newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Newton steps solving jac @ delta = rhs for a stack (k, m, n), and
    per lane the rank of the least-squares step, or -1 where the step was
    an exact solve.

    One batched solve when every Jacobian is square and regular; otherwise
    lane by lane, falling back to the least-squares step (minimum-norm, or
    Gauss-Newton for an overdetermined system) where a solve fails.
    """
    k, m, n = jac.shape
    ranks = np.full(k, -1)
    if m == n:
        try:
            return np.linalg.solve(jac, rhs[..., None])[..., 0], ranks
        except np.linalg.LinAlgError:
            pass
    delta = np.empty((k, n))
    for i in range(k):
        try:
            delta[i] = np.linalg.solve(jac[i], rhs[i])
        except np.linalg.LinAlgError:  # singular (e.g. chord families) or non-square
            delta[i], _, ranks[i], _ = np.linalg.lstsq(jac[i], rhs[i], rcond=None)
    return delta, ranks


def newton_solve_stack(
    system: Callable[[np.ndarray, np.ndarray], np.ndarray], seeds, residual_tol: float
) -> NewtonStack:
    """Damped Newton iteration on a stack of seeds, one lane per seed.

    ``system(x, lanes)`` maps iterates (k, n) of the lanes ``lanes`` (k,)
    to residuals (k, m), row by row; ``seeds`` has shape (S, n).  Every
    iteration makes one stacked ``jacobian_fd`` over the running lanes and
    one batched solve.  A singular or non-square Jacobian takes the
    least-squares step: the minimum-norm one, or Gauss-Newton for an
    overdetermined system (such as the projection system of a curve in
    r5).  On a residual increase a lane scales its update by
    ``NEWTON_DAMPING``, up to 20 times, before the step is accepted
    anyway; a lane whose seed already satisfies the tolerance keeps it
    unchanged.  A lane's arithmetic does
    not depend on the other lanes, so the stack gives the outcomes of one
    ``newton_solve`` per seed.

    Returns:
        NewtonStack with ``converged`` set where the final residual norm is
        at or below ``residual_tol``; a failed lane carries its last
        iterate, its residual, and a failure reason ("max_iterations" after
        ``NEWTON_MAX_ITERATIONS`` iterations).
    """
    x = np.array(seeds, dtype=float)
    fx = np.asarray(system(x, np.arange(len(x))), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise NonFinite("system returned non-finite values at a seed")
    res = _row_norms(fx)
    converged = res <= residual_tol
    iterations = np.zeros(len(x), dtype=int)
    failure = np.full(len(x), None)
    singular_seen = np.zeros(len(x), dtype=bool)

    live = np.flatnonzero(~converged)
    for it in range(1, NEWTON_MAX_ITERATIONS + 1):
        if not live.size:
            break
        x_live, f_live, res_live = x[live], fx[live], res[live]
        jac = jacobian_fd(lambda v: system(v, live), x_live)
        delta, ranks = _newton_steps(jac, -f_live)
        lstsq = ranks >= 0
        singular_seen[live[lstsq]] = ranks[lstsq] < x.shape[1]

        # backtracking: every searching lane tries the same scale sequence
        # and stops at its first residual decrease
        best_x, best_f = x_live.copy(), f_live.copy()
        best_res = np.full(live.size, np.inf)
        searching = np.all(np.isfinite(delta), axis=1)
        bad_step = ~searching
        scale = 1.0
        for _ in range(21):
            rows = np.flatnonzero(searching)
            if not rows.size:
                break
            x_try = x_live[rows] + scale * delta[rows]
            f_try = np.asarray(system(x_try, live[rows]), dtype=float)
            finite = np.all(np.isfinite(f_try), axis=1)
            r_try = np.full(rows.size, np.inf)
            r_try[finite] = _row_norms(f_try[finite])
            better = r_try < best_res[rows]
            best_x[rows[better]] = x_try[better]
            best_f[rows[better]] = f_try[better]
            best_res[rows[better]] = r_try[better]
            searching[rows[r_try < res_live[rows]]] = False
            scale *= NEWTON_DAMPING

        failed = bad_step | np.isinf(best_res)
        iterations[live] = it
        failure[live[failed]] = "singular_jacobian"
        step = ~failed
        x[live[step]], fx[live[step]], res[live[step]] = best_x[step], best_f[step], best_res[step]
        converged[live[step]] = best_res[step] <= residual_tol
        live = live[step & ~converged[live]]
    failure[live] = ["singular_jacobian" if seen else "max_iterations" for seen in singular_seen[live]]
    return NewtonStack(converged, x, res, iterations, failure)


def newton_solve(system: Callable[[np.ndarray], np.ndarray], seed, residual_tol: float) -> NewtonResult:
    """Damped Newton iteration for one nonlinear system ``system(x)`` from
    one seed: a one-lane ``newton_solve_stack``.

    Returns:
        NewtonResult with ``converged`` set when the final residual norm is
        at or below ``residual_tol``; on failure the result carries the
        last iterate, its residual, and a failure reason.
    """
    seeds = np.atleast_1d(np.array(seed, dtype=float))[None]
    return newton_solve_stack(
        lambda x, lanes: np.atleast_1d(np.asarray(system(x[0]), dtype=float))[None], seeds, residual_tol
    ).lane(0)


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 over an even number n
    of equal subintervals, to be scaled by (subinterval width) / 3."""
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights


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
    total = h / 3.0 * np.tensordot(_simpson_weights(n), vals, axes=(0, 0))
    return float(total) if total.ndim == 0 else total
