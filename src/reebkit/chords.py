"""Reeb chord search.

Two complementary strategies:

* ``chords_projection`` (Euclidean models only): a chord is exactly a
  pair of slice points with equal (x, y)-projection and distinct height,
  found by Newton refinement of projection double points seeded from
  close mesh pairs.
* ``chords_shooting`` (any model): find where the Reeb orbits of mesh
  nodes pass within the capture radius of other nodes, from the orbits'
  closest approaches in closed form and a grid index, and refine
  (start, time, end) with Newton on the landing system.

Chord orientation convention: the start point is the flow source, i.e.
the Reeb flow reaches the end point in positive time (in Euclidean models
the lower z of the pair).  Records are canonically sorted by
(length at 9 significant digits, start parameters, end parameters) so
output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailuresExceeded, SearchTooLong, WrongModel
from .models import StandardRModel, StandardSphereModel
from .numerics import _row_norms, newton_solve_stack
from .slices import ParamSlice, _ambient_spacing
from .spatial import GridIndex

PROJECTION_RESIDUAL_TOL = 1e-10  # Newton tolerance of the projection double-point system
LANDING_RESIDUAL_TOL = 1e-9  # Newton tolerance of the shooting landing system
# Largest count of passes (launch, node and return) a shooting search
# expands, and of candidate pairs in one capture query: 50x the passes of
# any shipped or tested input (hopf_circle at 4096 nodes: 10,240); at the
# bound the capture scan takes about 85 MB.
MAX_CAPTURE_PASSES = 2**19
CLUSTER_RADIUS = 1e-4  # max-norm radius of (start, end, length) triples merged as one chord
MIN_CHORD_LENGTH = 1e-4  # a chord must be longer: shorter ones are lanes collapsed onto the diagonal
LAUNCH_STRIDE = 2  # every LAUNCH_STRIDE-th node launches a shooting orbit


@dataclass
class ChordRecord:
    """One Reeb chord: start/end parameters and points, flow time."""

    start_param: np.ndarray
    end_param: np.ndarray
    start_point: np.ndarray
    end_point: np.ndarray
    length: float
    residual: float = 0.0  # refinement residual, used for dedup preference

    def sort_key(self):
        # length at the printed precision, so lengths tied up to solver
        # noise are ordered by their parameters
        return (float(f"{self.length:.9g}"), *self.start_param.tolist(), *self.end_param.tolist())


def _circle_embedding(mesh, u: np.ndarray) -> np.ndarray:
    """Parameters (N, param_dim) with each periodic axis of span P mapped
    to the circle of circumference P: a chord is no longer than its arc,
    so the images are at most ``mesh.param_distance`` apart."""
    columns = []
    for j, f in enumerate(mesh.factors):
        if f.periodic:
            radius = f.span / (2.0 * np.pi)
            columns += [radius * np.cos(u[:, j] / radius), radius * np.sin(u[:, j] / radius)]
        else:
            columns.append(u[:, j])
    return np.stack(columns, axis=1)


def _first_of_clusters(coord: np.ndarray, radius: float, close) -> np.ndarray:
    """Keep mask of a greedy clustering in priority order: an item is kept
    unless an earlier kept item is close to it.  Candidate pairs i < j come
    from a grid index over ``coord`` (N, k) at ``radius``; ``close(i, j)``
    masks those that are close and must imply |coord[i] - coord[j]| <= radius."""
    keep = np.ones(len(coord), dtype=bool)
    if not len(coord):
        return keep
    index = GridIndex(coord, cell_size=radius)
    pairs = index.close_pairs(radius, keep=close)
    for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
        keep[j] = keep[j] and not keep[i]  # dropped next to a kept earlier item
    return keep


def dedup_chords(raw: list[ChordRecord], cluster_radius: float = CLUSTER_RADIUS) -> list[ChordRecord]:
    """Merge chords whose (start, end, length) triples nearly coincide.

    Within a cluster the record with the smallest refinement residual
    wins.  Output is canonically sorted.  Candidate pairs come from a grid
    index over the triples at radius x width, so comparisons stay local.
    """
    recs = sorted(raw, key=lambda r: (r.residual, r.sort_key()))
    keys = np.array([[*r.start_param, *r.end_param, r.length] for r in recs])
    keep = _first_of_clusters(
        keys,
        cluster_radius * keys.shape[-1],
        lambda i, j: np.max(np.abs(keys[i] - keys[j]), axis=1) <= cluster_radius,
    )
    return sorted((r for r, k in zip(recs, keep) if k), key=ChordRecord.sort_key)


def _exclusion_radius(slc: ParamSlice) -> float:
    """Parameter distance below which two mesh points count as one: 5x
    the largest parameter spacing."""
    return 5.0 * slc.mesh.max_spacing()


def chords_projection(model, slc: ParamSlice) -> list[ChordRecord]:
    """All Reeb chords of a slice in a Euclidean model via projection
    double points.

    Seeds every mesh pair whose projections are within the seed radius
    while the parameters are separated beyond the exclusion radius (which
    suppresses the diagonal), refines all seeds in one stacked Newton solve
    on F(u, v) = proj(i(u)) - proj(i(v)), orients start at the lower
    height, drops chords no longer than ``MIN_CHORD_LENGTH``, deduplicates
    and sorts.

    Raises:
        WrongModel: the model is not a StandardRModel.
        NewtonFailuresExceeded: more than half the seeds fail on a system that is not overdetermined.
    """
    if not isinstance(model, StandardRModel):
        raise WrongModel("projection chord search requires a Euclidean model")
    mesh = slc.mesh
    index, exclusion = slc.projection_index, _exclusion_radius(slc)
    pairs = index.close_pairs(index.cell_size, keep=lambda i, j: mesh.far_apart(i, j, exclusion))
    pdim = slc.param_dim

    def system(w, lanes):
        return slc.immerse(w[:, :pdim])[:, :-1] - slc.immerse(w[:, pdim:])[:, :-1]

    seeds = np.concatenate([mesh.params[pairs[:, 0]], mesh.params[pairs[:, 1]]], axis=1)
    result = newton_solve_stack(system, seeds, PROJECTION_RESIDUAL_TOL)
    failures = int(np.sum(~result.converged))
    # an overdetermined lane that stops above tolerance is a closest approach, not a failure
    if slc.points.shape[1] - 1 <= 2 * pdim and failures > 0.5 * len(pairs):
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
        if length[i] > MIN_CHORD_LENGTH
    ]
    return dedup_chords(raw)


def _tangent_bases(p: np.ndarray) -> np.ndarray:
    """Orthonormal bases (S, d-1, d) of the hyperplanes orthogonal to the
    rows of p (S, d), as rows."""
    _, _, vt = np.linalg.svd((p / _row_norms(p)[:, None])[:, None, :])
    return vt[:, 1:]


def _capture_events(model, slc: ParamSlice, max_time: float, capture_radius: float):
    """Where the Reeb orbits of every ``LAUNCH_STRIDE``-th node pass
    within the capture radius r of a node, in closed form: a list of
    (launch node, time, captured node), ordered by (time, launch).

    The orbit of p comes closest to a node q at distance d and time t0.
    On Euclidean models it is the vertical line over p's shadow (the point
    without z): d is the shadow distance, t0 = z_q - z_p.  On the unit
    sphere it is the Hopf circle e^{2it} p: with c = sum_j p_j conj(q_j),
    d^2 = 2 - 2|c| at t0 = (-arg c mod 2 pi) / 2 and every pi after.  A
    grid index over the shadows, or over the real coordinates of p p^*
    (off-diagonal terms scaled by sqrt 2: |P - Q|^2 = 2 - 2|c|^2), finds
    the pairs with d <= r.  A launch is armed once its orbit leaves the 2r
    ball around its start (t > 2r, or t > arcsin r); a pass up to
    ``max_time`` is within r for |t - t0| <= sqrt(r^2 - d^2), or
    (1/2) arccos((1 - r^2/2) / |c|).  A launch's overlapping windows form
    a run, giving one event at its nearest node later than
    ``MIN_CHORD_LENGTH`` (the earliest, then the lowest node on a tie).
    More than ``MAX_CAPTURE_PASSES`` passes raise SearchTooLong before
    expansion.
    """
    launches = np.arange(0, slc.mesh.n_nodes, LAUNCH_STRIDE)
    r = capture_radius
    if isinstance(model, StandardSphereModel):
        if r >= 1:  # no orbit leaves the 2r ball around its start
            return []
        z = slc.points[:, 0::2] + 1j * slc.points[:, 1::2]
        j, k = np.triu_indices(z.shape[1], 1)
        cross = np.sqrt(2) * z[:, j] * np.conj(z[:, k])
        key = np.concatenate([np.abs(z) ** 2, cross.real, cross.imag], axis=1)
        rho = r * np.sqrt(2 - r * r / 2)  # 2 - 2 (1 - r^2/2)^2, without the cancellation at small r

        def approach(p, q, d2):  # (first armed pass, half window, passes)
            c = np.sum(z[p] * np.conj(z[q]), axis=1)
            t0 = (-np.angle(c) % (2 * np.pi)) / 2
            t0 += np.pi * (t0 <= np.arcsin(r))
            half = 0.5 * np.arccos(np.minimum((1 - r * r / 2) / np.abs(c), 1))
            return t0, half, np.maximum(np.floor((max_time - t0) / np.pi) + 1, 0)
    else:
        key, rho = slc.points[:, :-1], r

        def approach(p, q, d2):
            t0 = slc.points[q, -1] - slc.points[p, -1]
            return t0, np.sqrt(r * r - d2), ((t0 > 2 * r) & (t0 <= max_time)).astype(float)
    # launches in blocks of at most MAX_CAPTURE_PASSES candidate pairs and
    # cell probes (3^9 per launch on S^5), so memory stays bounded whatever
    # the capture radius; only pairs that pass are kept
    index, found, total = GridIndex(key, cell_size=rho), [], 0.0
    step = max(1, MAX_CAPTURE_PASSES // max(len(key), 3 ** key.shape[1]))
    for lo in range(0, len(launches), step):
        rows, node, d2 = index.query_ball(key[launches[lo : lo + step]], rho)
        t0, half, passes = approach(launches[lo + rows], node, d2)
        total += float(np.sum(passes))
        if total > MAX_CAPTURE_PASSES:
            raise SearchTooLong(f"capture passes up to max_time {max_time:.3g} exceed the bound of {MAX_CAPTURE_PASSES}")
        kept = passes > 0
        found.append((lo + rows[kept], node[kept], d2[kept], t0[kept], half[kept], passes[kept]))
    rows, node, d2, t0, half, passes = map(np.concatenate, zip(*found))
    passes = passes.astype(np.int64)
    pair = np.repeat(np.arange(len(passes)), passes)
    repeat = np.arange(len(pair)) - np.repeat(np.cumsum(passes) - passes, passes)
    t = t0[pair] + np.pi * repeat  # a Euclidean pair passes once, repeat 0
    n = len(t)
    # exact ranks of the window ends, offset by launch: one running maximum
    # of the ends spans every launch, and a window that begins beyond the
    # ends before it in its launch begins a run
    _, rank = np.unique(np.concatenate([t - half[pair], t + half[pair]]), return_inverse=True)
    begin, end = rows[pair] * 2 * n + rank[:n], rows[pair] * 2 * n + rank[n:]
    order = np.argsort(begin, kind="stable")
    head = np.ones(n, dtype=bool)
    head[1:] = begin[order[1:]] > np.maximum.accumulate(end[order])[:-1]
    run = np.cumsum(head) - 1
    launch, node, d2, t = rows[pair][order], node[pair][order], d2[pair][order], t[order]
    # the nearest node by d2, which grows with d on both models
    late = np.flatnonzero(t > MIN_CHORD_LENGTH)
    best = late[np.lexsort((node[late], t[late], d2[late], run[late]))]
    best = best[np.flatnonzero(np.diff(run[best], prepend=-1))]
    best = best[np.lexsort((launch[best], t[best]))]
    return list(zip(launches[launch[best]].tolist(), t[best].tolist(), node[best].tolist()))


def chords_shooting(model, slc: ParamSlice, max_time: float) -> list[ChordRecord]:
    """Reeb chords by flow shooting, for any built-in model.

    Capture events (``_capture_events``, in closed form) are
    pre-clustered into candidate chords, with candidate pairs keyed on the
    capture time and the start parameters (periodic axes embedded as
    circles), and refined together in one stacked Newton solve on the
    landing system G(u, T, v) = flow_T(i(u)) - i(v) with the closed-form
    ``model.flow``, squared up on spheres by projecting the residual onto
    the tangent space at the seed's end point.  Every returned chord
    satisfies the flow-landing invariant; chords shorter than twice the
    capture radius are below the arming distance and are only found by
    the projection method.

    Raises:
        SearchTooLong: the capture passes up to ``max_time`` exceed
            ``MAX_CAPTURE_PASSES``.
        NewtonFailuresExceeded: more than half the candidates fail.
    """
    mesh = slc.mesh
    capture_radius = 2.0 * _ambient_spacing(slc.points, mesh)
    # pre-cluster events: neighbors launching into the same chord
    events = _capture_events(model, slc, max_time, capture_radius)
    events = np.array(events, dtype=float).reshape(-1, 3)
    start, t = mesh.params[events[:, 0].astype(int)], events[:, 1]

    def close(i, j):
        near = mesh.param_distance(start[j], start[i]) < 6.0 * mesh.max_spacing()
        return near & (np.abs(t[j] - t[i]) < 8.0 * capture_radius)

    # both tests are below 1 in these units, so a close pair is within sqrt(2) < 1.5
    key = np.concatenate(
        [t[:, None] / (8.0 * capture_radius), _circle_embedding(mesh, start) / (6.0 * mesh.max_spacing())], axis=1
    )
    keep = _first_of_clusters(key, 1.5, close)
    node_v = events[keep, 2].astype(int)
    seeds = np.concatenate([start[keep], t[keep, None], mesh.params[node_v]], axis=1)

    pdim = slc.param_dim
    is_sphere = isinstance(model, StandardSphereModel)
    bases = _tangent_bases(slc.points[node_v]) if is_sphere else None

    def system(w, lanes):
        u, big_t, v = w[:, :pdim], w[:, pdim], w[:, pdim + 1 :]
        residual = model.flow(slc.immerse(u), np.where(big_t <= 0, 1e-12, big_t)) - slc.immerse(v)
        return (bases[lanes] @ residual[..., None])[..., 0] if is_sphere else residual

    result = newton_solve_stack(system, seeds, LANDING_RESIDUAL_TOL)
    x = result.x[result.converged]
    u, length, v = mesh.wrap(x[:, :pdim]), x[:, pdim], mesh.wrap(x[:, pdim + 1 :])
    residuals = result.residual_norm[result.converged]
    long = length > MIN_CHORD_LENGTH
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
    cluster = CLUSTER_RADIUS
    if is_sphere:
        # non-isolated chord families: collapse at mesh scale
        cluster = max(cluster, 2.0 * mesh.max_spacing())
    return dedup_chords(raw, cluster)


def find_chords(model, slc: ParamSlice, max_time: float) -> list[ChordRecord]:
    """Chords by projection on Euclidean models, by shooting up to
    ``max_time`` otherwise."""
    if isinstance(model, StandardRModel):
        return chords_projection(model, slc)
    return chords_shooting(model, slc, max_time)
