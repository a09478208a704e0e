"""Reeb chord search.

Two complementary strategies:

* ``chords_projection`` (Euclidean models only): a chord is exactly a
  pair of slice points with equal (x, y)-projection and distinct height,
  found by Newton refinement of projection double points seeded from
  close mesh pairs.
* ``chords_shooting`` (any model): follow the closed-form Reeb flow
  ``model.flow`` from mesh nodes, detect re-entries into a neighborhood of
  the slice with a grid index, and refine (start, time, end) with Newton
  on the landing system.

Chord orientation convention: the start point is the flow source, i.e.
the Reeb flow reaches the end point in positive time (in Euclidean models
the lower z of the pair).  Records are canonically sorted by
(length at 9 significant digits, start parameters, end parameters) so
output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NewtonFailuresExceeded, SearchTooLong, WrongModel
from .models import StandardRModel, StandardSphereModel
from .numerics import NewtonOptions, _row_norms, newton_solve_stack
from .slices import ParamSlice
from .spatial import GridIndex

MAX_MONITOR_STEPS = 100_000  # largest max_time / monitor_dt a shooting search runs


@dataclass
class ChordRecord:
    """One Reeb chord: start/end parameters and points, flow time."""

    start_param: np.ndarray
    end_param: np.ndarray
    start_point: np.ndarray
    end_point: np.ndarray
    length: float
    action: Optional[float] = None
    residual: float = 0.0  # refinement residual, used for dedup preference

    def sort_key(self):
        # length at the printed precision, so lengths tied up to solver
        # noise are ordered by their parameters
        return (float(f"{self.length:.9g}"), *self.start_param.tolist(), *self.end_param.tolist())


@dataclass
class SearchOptions:
    """Chord search settings.  ``None`` entries derive from mesh spacing:
    seed radius 3x projected spacing, exclusion radius 5x parameter
    spacing, capture radius 2x ambient spacing."""

    seed_radius: Optional[float] = None
    exclusion_radius: Optional[float] = None
    min_length: float = 1e-4
    max_time: float = 6.0
    capture_radius: Optional[float] = None
    launch_stride: int = 2
    monitor_dt: float = 0.02
    cluster_radius: float = 1e-4
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(residual_tol=1e-10, max_iterations=60))


def _ambient_spacing(points: np.ndarray, edges: np.ndarray) -> float:
    """Median length of the mesh edges (an (E, 2) index array) under ``points``."""
    return float(np.median(np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1)))


def _first_of_clusters(coord: np.ndarray, radius: float, close) -> np.ndarray:
    """Keep mask of a greedy clustering in priority order: an item is kept
    unless an earlier kept item is close to it.  Candidate pairs i < j come
    from a grid index over ``coord`` (N,) at ``radius``; ``close(i, j)``
    masks those that are close and must imply |coord[i] - coord[j]| <= radius."""
    keep = np.ones(len(coord), dtype=bool)
    if not len(coord):
        return keep
    index = GridIndex(coord[:, None], cell_size=radius)
    pairs = np.concatenate([b[close(b[:, 0], b[:, 1])] for b in index.close_pairs(radius)])
    for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
        keep[j] = keep[j] and not keep[i]  # dropped next to a kept earlier item
    return keep


def dedup_chords(raw: list[ChordRecord], cluster_radius: float = 1e-4) -> list[ChordRecord]:
    """Merge chords whose (start, end, length) triples nearly coincide.

    Within a cluster the record with the smallest refinement residual
    wins.  Output is canonically sorted.  Candidate pairs come from a grid
    index over the lengths, so comparisons stay local.
    """
    recs = sorted(raw, key=lambda r: (r.residual, r.sort_key()))
    keys = np.array([[*r.start_param, *r.end_param, r.length] for r in recs])
    keep = _first_of_clusters(
        np.array([r.length for r in recs]),
        cluster_radius,
        lambda i, j: np.max(np.abs(keys[i] - keys[j]), axis=1) <= cluster_radius,
    )
    return sorted((r for r, k in zip(recs, keep) if k), key=ChordRecord.sort_key)


def _exclusion_radius(slc: ParamSlice, opts: SearchOptions) -> float:
    """Parameter distance below which two mesh points count as one: the
    option, or 5x the largest parameter spacing."""
    return opts.exclusion_radius or 5.0 * slc.mesh.max_spacing()


def _resolve_projection_options(slc: ParamSlice, opts: SearchOptions):
    edges = slc.mesh.edges()
    proj_spacing = _ambient_spacing(slc.points[:, :-1], edges)
    if proj_spacing <= 0.0:  # projection-degenerate slice (e.g. a Reeb fiber)
        proj_spacing = max(_ambient_spacing(slc.points, edges), 1e-3)
    seed_radius = opts.seed_radius or 3.0 * proj_spacing
    return seed_radius, _exclusion_radius(slc, opts)


def chords_projection(model, slc: ParamSlice, opts: Optional[SearchOptions] = None) -> list[ChordRecord]:
    """All Reeb chords of a slice in a Euclidean model via projection
    double points.

    Seeds every mesh pair whose projections are within the seed radius
    while the parameters are separated beyond the exclusion radius (which
    suppresses the diagonal), refines all seeds in one stacked Newton solve
    on F(u, v) = proj(i(u)) - proj(i(v)), orients start at the lower
    height, deduplicates and sorts.

    Raises:
        WrongModel: the model is not a StandardRModel.
        NewtonFailuresExceeded: more than half the seeds fail (bad mesh).
    """
    if not isinstance(model, StandardRModel):
        raise WrongModel("projection chord search requires a Euclidean model")
    opts = opts or SearchOptions()
    mesh = slc.mesh
    seed_radius, exclusion = _resolve_projection_options(slc, opts)

    index = GridIndex(slc.points[:, :-1], cell_size=seed_radius)
    pairs = np.concatenate([  # filtered block by block: all close pairs at once can be large
        block[mesh.param_distance(mesh.params[block[:, 0]], mesh.params[block[:, 1]]) > exclusion]
        for block in index.close_pairs(seed_radius)
    ])
    pdim = slc.param_dim

    def system(w, lanes):
        return slc.immerse(w[:, :pdim])[:, :-1] - slc.immerse(w[:, pdim:])[:, :-1]

    seeds = np.concatenate([mesh.params[pairs[:, 0]], mesh.params[pairs[:, 1]]], axis=1)
    result = newton_solve_stack(system, seeds, opts.newton)
    failures = int(np.sum(~result.converged))
    if failures > 0.5 * len(pairs):
        raise NewtonFailuresExceeded(
            f"{failures}/{len(pairs)} projection seeds failed to converge"
        )
    x = result.x[result.converged]
    u, v = mesh.wrap(x[:, :pdim]), mesh.wrap(x[:, pdim:])
    p_u, p_v = slc.immerse(u), slc.immerse(v)
    length = p_v[:, -1] - p_u[:, -1]
    flip = (length < 0)[:, None]  # orient every chord upward
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    p_u, p_v = np.where(flip, p_v, p_u), np.where(flip, p_u, p_v)
    length = np.abs(length)
    raw = [
        ChordRecord(u[i], v[i], p_u[i], p_v[i], float(length[i]), residual=float(r))
        for i, r in enumerate(result.residual_norm[result.converged])
        if length[i] > opts.min_length
    ]
    return dedup_chords(raw, opts.cluster_radius)


def _tangent_bases(p: np.ndarray) -> np.ndarray:
    """Orthonormal bases (S, d-1, d) of the hyperplanes orthogonal to the
    rows of p (S, d), as rows."""
    _, _, vt = np.linalg.svd((p / _row_norms(p)[:, None])[:, None, :])
    return vt[:, 1:]


def _capture_events(model, slc: ParamSlice, opts: SearchOptions, capture_radius: float):
    """Monitor Reeb trajectories from a subsample of nodes.

    Detection is armed only once a trajectory has left a 2x capture-radius
    ball around its start (suppressing trivial self-captures), and ends
    when the trajectory escapes the slice's bounding box by more than its
    diameter.  Each dip below the capture radius yields one candidate at
    the minimal-distance sample.

    All launches advance together; per step the escape, arming and box-gap
    tests are masks, and the remaining candidates query the grid index in
    one call.  Candidates are flushed in ascending launch order within a step,
    so the event order matches a per-trajectory loop.
    """
    mesh = slc.mesh
    launches = np.arange(0, mesh.n_nodes, max(1, opts.launch_stride))
    starts = slc.points[launches]
    states = starts.copy()
    idx = GridIndex(slc.points, cell_size=capture_radius)

    lo = slc.points.min(axis=0)
    hi = slc.points.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    escape = diameter + 4.0 * capture_radius

    n = len(launches)
    armed = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    inside = np.full(n, -1.0)  # best distance while within capture radius
    best_t = np.zeros(n)
    best_node = np.full(n, -1)  # -1: no candidate
    events = []

    def flush(mask):
        ks = np.flatnonzero(mask & (best_node >= 0))
        events.extend(zip(launches[ks].tolist(), best_t[ks].tolist(), best_node[ks].tolist()))
        best_node[ks] = -1

    t = 0.0
    dt = opts.monitor_dt
    while t < opts.max_time and np.any(alive):
        states[alive] = model.flow(states[alive], dt)
        t += dt
        box_gap = np.linalg.norm(np.maximum(lo - states, 0) + np.maximum(states - hi, 0), axis=1)
        escaped = alive & (box_gap > escape)
        live = alive & ~escaped
        arming = live & ~armed
        armed[arming] = np.linalg.norm(states[arming] - starts[arming], axis=1) > 2.0 * capture_radius
        far = live & ~arming & (box_gap > capture_radius)  # cannot be near any mesh point
        ks = np.flatnonzero(live & ~arming & ~far)  # on most steps none: every trajectory is far
        node, dist = idx.nearest_within(states[ks], capture_radius) if ks.size else (ks, np.empty(0))
        missed = np.zeros(n, dtype=bool)
        missed[ks[node < 0]] = True
        if t > opts.min_length:
            closer = (node >= 0) & ((inside[ks] < 0) | (dist < inside[ks]))
            ks, node, dist = ks[closer], node[closer], dist[closer]
            inside[ks], best_t[ks], best_node[ks] = dist, t, node
        flush(escaped | far | missed)
        inside[far | missed] = -1.0
        alive &= ~escaped
    flush(np.ones(n, dtype=bool))
    return events


def chords_shooting(model, slc: ParamSlice, opts: Optional[SearchOptions] = None) -> list[ChordRecord]:
    """Reeb chords by flow shooting, for any built-in model.

    Trajectories and the landing system use the model's closed-form flow
    ``model.flow``.  Capture events are pre-clustered into candidate
    chords, refined together in one stacked Newton solve; the landing system
    G(u, T, v) = flow_T(i(u)) - i(v) is squared up on spheres by
    projecting the residual onto the tangent space at the seed's end
    point.  Every returned chord satisfies the
    flow-landing invariant; chords shorter than twice the capture radius
    are below the arming distance and are only found by the projection
    method.

    Raises:
        SearchTooLong: max_time / monitor_dt exceeds ``MAX_MONITOR_STEPS``;
            checked before any trajectory is monitored.
        NewtonFailuresExceeded: more than half the candidates fail.
    """
    opts = opts or SearchOptions()
    steps = opts.max_time / opts.monitor_dt
    if steps > MAX_MONITOR_STEPS:
        raise SearchTooLong(f"{steps:.3g} monitor steps (max_time / monitor_dt) exceed the bound of {MAX_MONITOR_STEPS}")
    mesh = slc.mesh
    capture_radius = opts.capture_radius or 2.0 * _ambient_spacing(slc.points, mesh.edges())
    # pre-cluster events: neighbors launching into the same chord
    events = np.array(_capture_events(model, slc, opts, capture_radius), dtype=float).reshape(-1, 3)
    start, t = mesh.params[events[:, 0].astype(int)], events[:, 1]

    def close(i, j):
        near = mesh.param_distance(start[j], start[i]) < 6.0 * mesh.max_spacing()
        return near & (np.abs(t[j] - t[i]) < 8.0 * capture_radius)

    keep = _first_of_clusters(t, 8.0 * capture_radius, close)
    node_v = events[keep, 2].astype(int)
    seeds = np.concatenate([start[keep], t[keep, None], mesh.params[node_v]], axis=1)

    pdim = slc.param_dim
    is_sphere = isinstance(model, StandardSphereModel)
    bases = _tangent_bases(slc.points[node_v]) if is_sphere else None

    def system(w, lanes):
        u, big_t, v = w[:, :pdim], w[:, pdim], w[:, pdim + 1 :]
        residual = model.flow(slc.immerse(u), np.where(big_t <= 0, 1e-12, big_t)) - slc.immerse(v)
        return (bases[lanes] @ residual[..., None])[..., 0] if is_sphere else residual

    newton_opts = replace(opts.newton, residual_tol=max(opts.newton.residual_tol, 1e-9))
    result = newton_solve_stack(system, seeds, newton_opts)
    x = result.x[result.converged]
    u, length, v = mesh.wrap(x[:, :pdim]), x[:, pdim], mesh.wrap(x[:, pdim + 1 :])
    residuals = result.residual_norm[result.converged]
    long = length > opts.min_length
    u, length, v, residuals = u[long], length[long], v[long], residuals[long]
    p_u, p_v = slc.immerse(u), slc.immerse(v)
    missed = _row_norms(model.flow(p_u, length) - p_v) > 1e-6
    failures = len(seeds) - len(x) + int(np.sum(missed))
    if failures > 0.5 * len(seeds):
        raise NewtonFailuresExceeded(f"{failures}/{len(seeds)} shooting candidates failed")
    raw = [
        ChordRecord(u[i], v[i], p_u[i], p_v[i], float(length[i]), residual=float(residuals[i]))
        for i in np.flatnonzero(~missed)
    ]
    cluster = opts.cluster_radius
    if is_sphere:
        # non-isolated chord families: collapse at mesh scale
        cluster = max(cluster, 2.0 * mesh.max_spacing())
    return dedup_chords(raw, cluster)


def find_chords(model, slc: ParamSlice, opts: Optional[SearchOptions] = None) -> list[ChordRecord]:
    """Chords by projection on Euclidean models, by shooting otherwise."""
    if isinstance(model, StandardRModel):
        return chords_projection(model, slc, opts)
    return chords_shooting(model, slc, opts)
