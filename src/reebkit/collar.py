"""Chord actions, the small/long classification, the one-dimensional
extension-feasibility oracle, explicit construction of the deformation
profile h, the deformation checks, the reparametrized-flow check, and the
aggregated collar verdict.

Two classification conventions ship side by side because the collar
inequality can be read with either sign of the action:

* ``direct``: a chord is long iff length > action;
* ``feasibility``: long iff length > -action, which is exactly the
  condition under which a profile with slope > -1 can interpolate the
  prescribed boundary values h = -f along the chord (the 1-D oracle).

The default is ``direct``; every report flags chords on which the two
conventions disagree rather than silently picking a side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .chords import ChordRecord, _exclusion_radius, find_chords
from .errors import MissingPrimitive, NonExact, NonFinite, ReparamDegenerate, ReparamUnresolved, WrongModel
from .models import (
    DEFAULT_MARGIN,
    DeformationSpec,
    StandardRModel,
    StandardSphereModel,
    SymplectizationModel,
    _smoothstep,
    liouville_deformed,
)
from .numerics import _row_norms, _simpson_weights
from .slices import (
    DEFAULT_CLOSED_TOL,
    DEFAULT_TRANSVERSE_TOL,
    ParamSlice,
    PrimitiveField,
    check_closed,
    check_transverse,
    edge_cochain,
    periods,
    primitive,
    pullback_alpha,
)

_SMOOTHSTEP_MAX_SLOPE = 1.875  # max of d/du [u^3 (10 - 15u + 6u^2)] on [0, 1]
LEGENDRIAN_TOL = 1e-9
RUNWAY = 1.0  # least length over which a fiber profile decays to zero beyond its extremes
DH_STEP = 1e-6  # relative central-difference step of dh along the Reeb vector
GRID_PADDING = 0.3  # margin of the verification grid around the slice, per coordinate
GRID_PER_AXIS = 7  # verification grid nodes along each coordinate but the Reeb one
GRID_Z_AXIS = 33  # verification grid nodes along the Reeb coordinate
REPARAM_SAMPLES = 256  # Simpson intervals per chord of the rescaled flow time
REPARAM_DRIFT_TOL = 1e-5  # largest endpoint drift the reparametrized-flow check passes
REPARAM_MIN_RATE = 1e-6  # least 1 + dh(R) the rescaled Reeb field may meet
REPARAM_ROOT_TOL = 1e-14  # Newton correction, relative to 1 + |z|, that ends the fiber root solve
REPARAM_ROOT_ITERATIONS = 60  # cap of the fiber root solve (bisection alone needs about 40)


class Convention(enum.Enum):
    DIRECT = "direct"
    FEASIBILITY = "feasibility"


class Classification(enum.Enum):
    SMALL = "Small"
    LONG = "Long"


class Verdict(enum.Enum):
    COLLARABLE = "Collarable"
    SCHEME_OBSTRUCTED = "SchemeObstructed"
    NON_EXACT = "NonExact"
    NOT_A_SLICE = "NotASlice"
    NO_SMALL_CHORDS = "NoSmallChords"


SCHEME_OBSTRUCTED_NOTE = (
    "this deformation scheme is infeasible; non-collarability is NOT concluded"
)
NO_SMALL_CHORDS_NOTE = (
    "no small chords, but no profile construction on this model; collarability is NOT concluded"
)


def chord_action(prim: Optional[PrimitiveField], chords: Sequence[ChordRecord]) -> np.ndarray:
    """Actions of chords, f(start) - f(end) with start the flow source per
    the chord orientation convention, as an array with one entry per
    chord, from one stacked evaluation of the primitive at every endpoint."""
    if prim is None:
        raise MissingPrimitive("no primitive available for this slice")
    ends = np.array([(c.start_param, c.end_param) for c in chords], dtype=float)
    values = prim.value_at(ends.reshape(len(chords), 2, prim.slice.param_dim))
    return values[:, 0] - values[:, 1]


def classify_chord(chord: ChordRecord, action: float, convention: Convention = Convention.DIRECT) -> Classification:
    """Small/long classification of a chord under a convention.

    ``direct``: long iff length > action.  ``feasibility``: long iff
    length > -action.  Both comparisons are strict.
    """
    long = chord.length > (action if convention == Convention.DIRECT else -action)
    return Classification.LONG if long else Classification.SMALL


def feasibility_oracle_1d(length, h_start, h_end, margin: float = 0.0):
    """Ground truth for chord-level extension feasibility, elementwise on
    arrays (a bool for scalars).

    A smooth profile phi on [0, length] with phi(0) = h_start,
    phi(length) = h_end and phi' > -1 + margin everywhere exists iff the
    mean slope clears the bound:

        h_end - h_start > (-1 + margin) * length.
    """
    length = np.asarray(length, dtype=float)
    if np.any(length <= 0):
        raise ValueError("length must be positive")
    ok = np.asarray(h_end, dtype=float) - h_start > (-1.0 + margin) * length
    return bool(ok) if ok.ndim == 0 else ok


# ---------------------------------------------------------------------------
# profile construction along Reeb fibers
# ---------------------------------------------------------------------------


# A profile is a (K, 5) array of rows (z0, z1, v0, v1, blend), one per
# piece, ordered along the fiber: on [z0, z1] the value runs from v0 to v1
# along a ramp that is linear for blend 0 and a pure smoothstep for blend 1.
# Rows 1.. start at the prescribed heights and values: columns z0 and v0.
# A short profile is padded by repeating its last row, which leaves its
# values unchanged and adds only zero-length gaps between prescriptions.
_FIBER_BLOCK = 512  # shadows per block of the fiber pass, bounding its memory


def _build_profiles(zs: np.ndarray, vs: np.ndarray, counts: np.ndarray, margin: float) -> np.ndarray:
    """Padded profiles (U, K, 5) through the first ``counts[i]`` prescribed
    (z, value) pairs of row i of zs, vs (U, M), decaying to zero over
    slope-safe runways, ``RUNWAY`` or longer, beyond the extremes (a zero
    profile for count 0).  A pure smoothstep steepens the mean slope by up
    to 1.875x, so a descending piece's blend shrinks toward linear as its
    mean approaches the bound -1 + margin, with a 2% cushion so the
    finite-difference verification cannot sit on the edge."""
    rows = np.arange(len(counts))
    run = np.maximum(RUNWAY, _SMOOTHSTEP_MAX_SLOPE * np.abs(vs) / (1.0 - margin) * 1.02 + 1e-9)
    z, v = np.pad(zs, ((0, 0), (1, 1))), np.pad(vs, ((0, 0), (1, 1)))
    z[:, 0] = zs[:, 0] - run[:, 0]
    z[rows, counts + 1], v[rows, counts + 1] = zs[rows, counts - 1] + run[rows, counts - 1], 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero-length piece gets blend 0
        mean = np.diff(vs, axis=1) / np.diff(zs, axis=1)
        budget = (1.0 - margin) / np.abs(mean) / 1.02
    blend = np.minimum(1.0, np.fmax(0.0, (budget - 1.0) / (_SMOOTHSTEP_MAX_SLOPE - 1.0)))
    blend = np.where((mean >= 0) | (budget >= _SMOOTHSTEP_MAX_SLOPE), 1.0, blend)
    blend = np.pad(blend, ((0, 0), (1, 1)), constant_values=1.0)
    blend[rows, counts] = 1.0
    pieces = np.stack([z[:, :-1], z[:, 1:], v[:, :-1], v[:, 1:], blend], axis=-1)
    last = np.minimum(np.arange(pieces.shape[1]), counts[:, None])  # row i has counts[i] + 1 pieces
    return np.take_along_axis(pieces, last[..., None], axis=1)


def _eval_profile(profile: np.ndarray, z) -> np.ndarray:
    """Values at heights z (...) of profiles (..., K, 5) broadcast against
    them, 0 outside a profile's span; each height is evaluated on the
    first piece whose z1 reaches it, taken by one gather from the pieces
    of all profiles flattened to (M K, 5)."""
    z = np.asarray(z, dtype=float)
    n = profile.shape[-2]
    k = np.minimum(np.count_nonzero(profile[..., 1] < z[..., None], axis=-1), n - 1)
    first = n * np.arange(profile[..., 0, 0].size).reshape(profile.shape[:-2])
    z0, z1, v0, v1, blend = profile.reshape(-1, 5).T[:, first + k]
    u = np.clip((z - z0) / (z1 - z0), 0.0, 1.0)
    ramp = (1.0 - blend) * u + blend * _smoothstep(u)
    inside = (z > profile[..., 0, 0]) & (z < profile[..., -1, 1])
    return np.where(inside, v0 + (v1 - v0) * ramp, 0.0)


class FiberBumpField:
    """Scalar field on the Euclidean ambient space built fiber by fiber.

    For a query point, nearby mesh nodes (in the projection forgetting
    the last coordinate) are grouped by parameter connectivity; each group
    marks one intersection of the query fiber with the slice, prescribing
    the value -f at its height.  Along the fiber the prescriptions are
    joined by slope-bounded pieces; transversally the field is shaped by a
    planar bump that is 1 on the projection shadow and fades out over a
    tube of 3x the projected mesh spacing.

    Only derivatives along the Reeb direction (the last coordinate) are
    controlled; the verification checks differentiate along that
    direction only.

    Each distinct shadow (a point with its last coordinate dropped) is one
    row of a table: ``profiles`` (U, K, 5), padded; ``bumps`` (U,), 0 where
    no node is in reach; ``reps`` (U, K-1), its fiber nodes by height,
    padded with -1.  A shadow's row is keyed by the shadow's exact bytes,
    and rows are numbered in the order the shadows first occur.
    """

    def __init__(self, slc: ParamSlice, prim: PrimitiveField, margin: float):
        self.slice = slc
        self.margin = margin
        self.proj = slc.points[:, :-1]
        self.heights = slc.points[:, -1]
        self.prescriptions = -prim.values
        self._index = slc.projection_index
        self.r_cut = self._index.cell_size  # 3x the projected spacing
        self.r_plateau = 0.5 * self.r_cut
        nbr, node, m = slc.mesh.neighbors(), np.arange(slc.mesh.n_nodes)[:, None], slc.mesh.shape[-1]
        along = ((nbr == node + 1) & (nbr % m != 0)) | ((nbr == node - 1) & (node % m != 0))
        self._cross = np.where(along, -1, nbr)  # the links that runs along the last axis do not cover
        self._crossed = np.any(self._cross >= 0, axis=1)
        self.profiles, self.bumps, self.reps = np.empty((0, 1, 5)), np.empty(0), np.empty((0, 0), dtype=int)
        self._row: dict[bytes, int] = {}

    def fibers(self, shadows: np.ndarray):
        """(nodes, counts, distances) over the rows of ``shadows`` (B, d-1):
        one node per fiber intersection, row by row and by height; their
        number per row; the distance to the nearest node (inf if none).

        The nodes in reach of a row are grouped in two steps.  Nodes
        consecutive along the grid's last axis form runs, broken at each
        line end; then the runs joined by the remaining mesh edges inside
        the row's ball (a circle's seam, the earlier axes) are merged by
        min-label propagation with pointer jumping (Shiloach & Vishkin,
        J. Algorithms 3 (1982)) that hooks the runs' roots.  A group is
        represented by its nearest node, the lowest one on an exact tie;
        equal heights keep the order of the groups' lowest nodes."""
        rows, nodes, d2 = self._index.query_ball(shadows, self.r_cut)
        n, pairs = len(self.proj), np.arange(len(rows))
        keys = rows * n + nodes  # ascending
        head = (np.diff(keys, prepend=-1) != 1) | (nodes % self.slice.mesh.shape[-1] == 0)
        run = np.cumsum(head) - 1
        crossed = np.flatnonzero(self._crossed[nodes])  # the pairs at nodes with cross links
        j, k = np.nonzero(self._cross[nodes[crossed]] >= 0)
        a = crossed[j]
        want = rows[a] * n + self._cross[nodes[a], k]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        linked = keys[at] == want  # pair a is linked to pair at
        ra, rb = run[a[linked]], run[at[linked]]
        label, settled = np.arange(np.count_nonzero(head)), False  # settles on the lowest run of each group
        while not settled:
            new = label.copy()
            np.minimum.at(new, label[ra], label[rb])  # hook the roots
            new = new[new]  # pointer jumping
            settled, label = np.array_equal(new, label), new
        group = label[run]
        nearest = np.full(len(label), np.inf)
        np.minimum.at(nearest, group, d2)
        near = d2 == nearest[group]
        reps = np.full(len(label), len(keys))
        np.minimum.at(reps, group[near], pairs[near])
        reps = reps[reps < len(keys)]  # by group, so by its lowest node
        reps = reps[np.lexsort((self.heights[nodes[reps]], rows[reps]))]
        dist = np.full(len(shadows), np.inf)
        np.minimum.at(dist, rows[reps], d2[reps])
        return nodes[reps], np.bincount(rows[reps], minlength=len(shadows)), np.sqrt(dist)

    def rows(self, shadows: np.ndarray) -> np.ndarray:
        """Table row of each row of ``shadows`` (N, d-1).  Bitwise equal
        shadows share a row; the missing ones get rows in the order they
        first occur, appended to the table in one step, padding the
        narrower of the table and the new rows.

        Only the first shadow of each run of bitwise equal consecutive
        shadows is looked up (grids repeat each shadow along their last
        axis): the run heads are sliced from one bytes blob and keyed by
        their exact bytes in a dict, all in one pass."""
        shadows = np.asarray(shadows, dtype=float)
        bits = shadows.view(np.uint64)
        starts = np.ones(len(shadows), dtype=bool)
        starts[1:] = np.any(bits[1:] != bits[:-1], axis=1)
        heads = np.flatnonzero(starts)
        blob, width, table, known = shadows[heads].tobytes(), 8 * shadows.shape[1], len(self.bumps), self._row
        lookups = (known.setdefault(blob[i : i + width], len(known)) for i in range(0, len(blob), width))
        head_rows = np.fromiter(lookups, dtype=int, count=len(heads))
        found, first = np.unique(head_rows, return_index=True)
        fresh = heads[first[found >= table]]  # new rows in the order of their first shadows
        if len(fresh):
            self._append(shadows[fresh])
        return np.repeat(head_rows, np.diff(heads, append=len(shadows)))

    def _append(self, shadows: np.ndarray):
        """Append one table row per row of ``shadows`` (B, d-1); the fiber
        pass runs ``_FIBER_BLOCK`` shadows at a time."""
        passes = [self.fibers(shadows[lo : lo + _FIBER_BLOCK]) for lo in range(0, len(shadows), _FIBER_BLOCK)]
        nodes, counts, dist = (np.concatenate(parts) for parts in zip(*passes))
        filled = np.arange(max(1, counts.max())) < counts[:, None]
        zs, vs = np.zeros((2, *filled.shape))
        reps = np.full(filled.shape, -1)
        zs[filled], vs[filled], reps[filled] = self.heights[nodes], self.prescriptions[nodes], nodes
        profiles = _build_profiles(zs, vs, counts, self.margin)
        # 0 at distance inf, where no node is in reach
        bumps = 1.0 - _smoothstep((dist - self.r_plateau) / max(self.r_cut - self.r_plateau, 1e-12))
        k = max(self.profiles.shape[1], profiles.shape[1])
        edge = [a if a.shape[1] == k else np.pad(a, ((0, 0), (0, k - a.shape[1]), (0, 0)), mode="edge")
                for a in (self.profiles, profiles)]
        fill = [a if a.shape[1] == k - 1 else np.pad(a, ((0, 0), (0, k - 1 - a.shape[1])), constant_values=-1)
                for a in (self.reps, reps)]
        self.profiles, self.reps = np.concatenate(edge), np.concatenate(fill)
        self.bumps = np.append(self.bumps, bumps)

    def values(self, rows: np.ndarray, heights) -> np.ndarray:
        """Field values at the heights (N,) over the table rows (N,)."""
        bump = self.bumps[rows]
        return np.where(bump != 0.0, bump * _eval_profile(self.profiles[rows], heights), 0.0)

    def __call__(self, points) -> np.ndarray:
        """Field values at points of shape (..., d), with shape (...): one
        gather of the shadows' rows, then one evaluation of all heights."""
        p = np.asarray(points, dtype=float)
        flat = p.reshape(-1, p.shape[-1])
        return self.values(self.rows(flat[:, :-1]), flat[:, -1]).reshape(p.shape[:-1])


@dataclass
class ExtendResult:
    ok: bool
    h: Optional[Callable[[np.ndarray], np.ndarray]]
    obstructions: list[ChordRecord] = field(default_factory=list)
    min_slope: float = 0.0
    max_h_plus_f: float = 0.0


def extend_h(model, slc: ParamSlice, prim: PrimitiveField, margin: float = DEFAULT_MARGIN) -> ExtendResult:
    """Extend the boundary prescription h = -f to a field on the ambient
    space with slope above -1 + margin along every Reeb fiber.

    Every fiber through a mesh node is examined; a consecutive pair of
    prescribed values violating the 1-D oracle makes the result
    ``Obstructed``, reported as the offending chords.  On success the
    returned field matches -f on the mesh nodes exactly and decays to zero
    beyond the slice's projection shadow.
    """
    if not isinstance(model, StandardRModel):
        raise WrongModel("fiber extension requires a Euclidean model")
    if not 0 < margin < 1:  # the profiles' slopes are scaled by 1 - margin
        raise ValueError("margin must lie in (0, 1)")
    fld = FiberBumpField(slc, prim, margin)
    node_rows = fld.rows(fld.proj)  # the table now holds the rows of the node shadows, and no other
    profiles, reps = fld.profiles, fld.reps

    # consecutive prescriptions along each fiber; the padding adds only
    # zero-length gaps, skipped with those between groups at equal heights
    gaps = np.diff(profiles[:, 1:, 0], axis=1)
    vs = profiles[:, 1:, 2]
    real = gaps > 0
    bad = ~feasibility_oracle_1d(gaps[real], vs[:, :-1][real], vs[:, 1:][real], margin)
    pairs = np.unique(np.stack([reps[:, :-1][real][bad], reps[:, 1:][real][bad]], axis=1), axis=0)
    if len(pairs):
        u, p = slc.mesh.params, slc.points  # a below b in each pair (a, b)
        obstructions = [
            ChordRecord(u[a], u[b], p[a], p[b], float(p[b, -1] - p[a, -1])) for a, b in pairs.tolist()
        ]
        return ExtendResult(False, None, obstructions=sorted(obstructions, key=ChordRecord.sort_key))

    # analytic slope bound per piece; the planar bump only scales profiles
    # by a factor in [0, 1], which cannot push a slope below it
    z0, z1, v0, v1, blend = np.moveaxis(profiles, -1, 0)
    mean = (v1 - v0) / (z1 - z0)
    slopes = np.where(mean >= 0, mean * (1.0 - blend), mean * (1.0 - blend + _SMOOTHSTEP_MAX_SLOPE * blend))
    min_slope = min(0.0, float(np.min(slopes)))
    max_defect = float(np.max(np.abs(fld.values(node_rows, fld.heights) - (-prim.values))))
    return ExtendResult(True, fld, min_slope=min_slope, max_h_plus_f=max_defect)


# ---------------------------------------------------------------------------
# deformation checks
# ---------------------------------------------------------------------------


def directional_dh_reeb(model, h: Callable[[np.ndarray], np.ndarray], points) -> np.ndarray:
    """Directional derivatives of h along the (unnormalized) Reeb vector
    at points of shape (..., d), by central differences with a per-point
    step of ``DH_STEP`` times the point's scale and one call of h on both
    shifted stacks; the result has shape (...)."""
    p = np.asarray(points, dtype=float)
    r = model.reeb(p)
    scale = np.maximum(1.0, np.linalg.norm(r, axis=-1))
    s = (DH_STEP * (1.0 + np.max(np.abs(p), axis=-1)) / scale)[..., None]
    plus, minus = h(np.stack([p + s * r, p - s * r]))
    return (plus - minus) / (2.0 * s[..., 0])


def grid_around_slice(slc: ParamSlice, per_axis: int, z_axis: int) -> np.ndarray:
    """Evaluation grid covering the slice, padded by ``GRID_PADDING``, with
    extra resolution along the last (Reeb) coordinate."""
    lo = slc.points.min(axis=0) - GRID_PADDING
    hi = slc.points.max(axis=0) + GRID_PADDING
    axes = [
        np.linspace(lo[j], hi[j], z_axis if j == slc.points.shape[1] - 1 else per_axis)
        for j in range(slc.points.shape[1])
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class DeformationCheck:
    min_dh_reeb: float
    min_dt_liouville: float
    pass_dh: bool
    pass_dt: bool
    agree: bool

    @property
    def passed(self) -> bool:
        return self.pass_dh and self.pass_dt


def check_deformation(sym: SymplectizationModel, spec: DeformationSpec, grid: np.ndarray) -> DeformationCheck:
    """Cross-validated transversality check for a deformation.

    Independently computes the grid minimum of dh(Reeb) (finite
    differences of h along the Reeb direction) and of the dt-component of
    the deformed expansion field at t = 1.  The first must exceed
    -1 + margin, the second must exceed margin; the two verdicts agree up
    to finite-difference noise because the dt-component equals
    1 + dh(Reeb) at t = 1.
    """
    min_dh = float(np.min(directional_dh_reeb(sym.base, spec.h, grid)))
    min_dt = float(np.min(liouville_deformed(sym, spec, 1.0, grid)[..., 0]))
    pass_dh = min_dh > -1.0 + spec.margin
    pass_dt = min_dt > spec.margin
    return DeformationCheck(min_dh, min_dt, pass_dh, pass_dt, pass_dh == pass_dt)


def _fiber_endpoints(model, h, states: np.ndarray, times: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Endpoints of the rescaled field R/(1 + dh(R)) after ``times`` (C,)
    from the chord starts, for R = dz on a Euclidean model.

    That field moves a point along its own fiber, and g(z) = z + h(shadow, z)
    grows at rate 1 along it, so the endpoint keeps the start's shadow and
    its height is the root of g(z) = g(z_0) + T.  ``states`` (C, n + 2, d)
    samples each chord's fiber at equal steps from its start (index 0) to
    one step past its end; ``seeds`` (C,) are the recorded end heights.
    Since T > 0 the root lies above the start.  One call of h on the samples gives g there;
    the two samples around g(z_0) + T bracket the root, and a Newton
    iteration seeded at the end height, with slopes from
    ``directional_dh_reeb``, bisects whenever a step leaves its bracket.

    Raises:
        NonFinite: g or a residual is not finite.
        ReparamDegenerate: g fails to increase between samples, or
            1 + dh(R) drops to ``REPARAM_MIN_RATE`` at an iterate.
        ReparamUnresolved: a root lies past the last sample, or the solve
            hits ``REPARAM_ROOT_ITERATIONS``.
    """
    z = states[..., -1]
    g = z + h(states)
    target = g[:, 0] + times
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(target))):
        raise NonFinite("z + h is not finite along a chord")
    if np.any(np.diff(g, axis=1) <= 0.0):
        raise ReparamDegenerate("z + h fails to increase between samples of a chord")
    above = np.count_nonzero(g <= target[:, None], axis=1)  # g[above - 1] <= target < g[above]
    beyond = above == g.shape[1]
    if np.any(beyond):
        k = int(np.argmax(beyond))
        raise ReparamUnresolved(f"the rescaled flow of chord {k} ends more than one sample width past the chord")
    lanes = np.arange(len(g))
    lo, hi = z[lanes, above - 1], z[lanes, above]
    root = np.clip(seeds, lo, hi)
    ends = states[:, 0].copy()  # the starts, whose shadows stay bitwise
    for _ in range(REPARAM_ROOT_ITERATIONS):
        ends[lanes, -1] = root[lanes]
        p = ends[lanes]
        residual = p[:, -1] + h(p) - target[lanes]
        if not np.all(np.isfinite(residual)):
            raise NonFinite("z + h is not finite at an iterate of the fiber root solve")
        rate = 1.0 + directional_dh_reeb(model, h, p)
        if np.any(rate <= REPARAM_MIN_RATE):
            raise ReparamDegenerate(f"1 + dh(Reeb) reached {float(np.min(rate)):.3e} near a chord end")
        lo[lanes] = np.where(residual < 0.0, p[:, -1], lo[lanes])
        hi[lanes] = np.where(residual > 0.0, p[:, -1], hi[lanes])
        newton = p[:, -1] - residual / rate
        tol = REPARAM_ROOT_TOL * (1.0 + np.abs(p[:, -1]))
        done = (np.abs(newton - p[:, -1]) <= tol) | (hi[lanes] - lo[lanes] <= tol)
        inside = (newton > lo[lanes]) & (newton < hi[lanes])
        root[lanes] = np.where(inside, newton, 0.5 * (lo[lanes] + hi[lanes]))
        lanes = lanes[~done]
        if not lanes.size:
            return ends
    raise ReparamUnresolved(
        f"the fiber root solve did not converge in {REPARAM_ROOT_ITERATIONS} iterations on chord {int(lanes[0])}"
    )


def reeb_reparam_check(
    model, slc: ParamSlice, h: Callable[[np.ndarray], np.ndarray], chords: Sequence[ChordRecord]
) -> dict:
    """Verify that rescaling the Reeb field by 1/(1 + dh(R)) changes chord
    flow times but not endpoints, for a constructed profile ``h``.

    A constructed profile lives on a Euclidean model, where R = dz: each
    chord's fiber is sampled from ``model.flow``, the rescaled flow time
    is obtained by Simpson quadrature of 1 + dh(R) along the chord over
    ``REPARAM_SAMPLES`` intervals, and the rescaled flow's endpoint solves
    z + h = (z_0 + h_0) + time along the start's fiber
    (``_fiber_endpoints``); all chords are sampled, differentiated and
    solved together.  The endpoint must land back on the recorded end
    point within ``REPARAM_DRIFT_TOL``.

    Raises:
        ReparamDegenerate: 1 + dh(R) drops to zero on some chord.
        NonFinite: the profile is not finite on a chord's fiber.
        ReparamUnresolved: a rescaled endpoint could not be located.
        WrongModel: the model is not Euclidean.
    """
    if not isinstance(model, StandardRModel):
        raise WrongModel("a constructed profile's rescaled flow needs a Euclidean model")
    if not chords:
        return {"max_endpoint_drift": 0.0, "pass": True}
    starts = np.array([c.start_point for c in chords])
    lengths = np.array([c.length for c in chords])
    end_points = np.array([c.end_point for c in chords])
    n = REPARAM_SAMPLES
    dt = lengths / n
    # one more sample past the end brackets an endpoint that overshoots
    states = model.flow(starts[:, None, :], dt[:, None] * np.arange(n + 2))
    vals = 1.0 + directional_dh_reeb(model, h, states[:, :-1])
    low = np.min(vals, axis=1)
    if np.any(low <= REPARAM_MIN_RATE):
        raise ReparamDegenerate(f"1 + dh(Reeb) reached {float(np.min(low)):.3e} on a chord")
    rescaled_times = dt / 3.0 * (vals[:, None, :] @ _simpson_weights(n)[:, None])[:, 0, 0]
    endpoints = _fiber_endpoints(model, h, states, rescaled_times, end_points[:, -1])
    drifts = _row_norms(endpoints - end_points)
    max_drift = max([0.0, *drifts.tolist()])
    return {"max_endpoint_drift": max_drift, "pass": max_drift < REPARAM_DRIFT_TOL}


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------


@dataclass
class CollarOptions:
    tol_closed: float = DEFAULT_CLOSED_TOL
    tol_transverse: float = DEFAULT_TRANSVERSE_TOL
    margin: float = DEFAULT_MARGIN
    convention: Convention = Convention.DIRECT
    max_time: float = 6.0  # how long the shooting search follows each orbit


@dataclass
class CollarReport:
    checks: dict
    periods: list[float]
    exact: bool
    chords: list[dict]
    conventions: dict
    h_diagnostics: dict
    verdict: Verdict
    note: str = ""


def _chord_entry(chord: ChordRecord, action, cls_direct, cls_feas) -> dict:
    return {
        "start_param": chord.start_param.tolist(),
        "end_param": chord.end_param.tolist(),
        "start_point": chord.start_point.tolist(),
        "end_point": chord.end_point.tolist(),
        "length": chord.length,
        "action": action,
        "class_direct": cls_direct.value if cls_direct else None,
        "class_feasibility": cls_feas.value if cls_feas else None,
        "conventions_disagree": bool(cls_direct and cls_feas and cls_direct != cls_feas),
    }


def _conventions(active: Convention, classes: Sequence[tuple[Classification, Classification]]) -> dict:
    """The report's ``conventions`` object over (direct, feasibility) class
    pairs, one per chord."""
    return {
        "active": active.value,
        "small_direct": sum(cd == Classification.SMALL for cd, _ in classes),
        "small_feasibility": sum(cf == Classification.SMALL for _, cf in classes),
        "disagreements": [k for k, (cd, cf) in enumerate(classes) if cd != cf],
    }


def collar_report(model, slc: ParamSlice, opts: Optional[CollarOptions] = None) -> CollarReport:
    """Full pipeline: slice checks, exactness, chord search, two-convention
    classification, profile construction, deformation check, verdict.

    Verdicts: ``NotASlice`` and ``NonExact`` preempt the later stages;
    ``SchemeObstructed`` means small chords exist under the active
    convention (non-collarability is NOT concluded — the criterion is
    one-directional); ``Collarable`` requires no small chords plus a
    successful profile construction: the trivial one of a Legendrian
    slice, or a constructed one that passes the deformation check and,
    when there are chords, the reparametrized-flow check.
    ``NoSmallChords`` means no small chords on a model without a profile
    construction (collarability is NOT concluded).
    """
    opts = opts or CollarOptions()
    if not 0 < opts.margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    is_euclidean = isinstance(model, StandardRModel)

    closed = check_closed(model, slc, opts.tol_closed)
    transverse = check_transverse(model, slc, opts.tol_transverse)
    membership_defect = 0.0
    if isinstance(model, StandardSphereModel):
        membership_defect = float(np.max(np.abs(np.linalg.norm(slc.points, axis=1) - 1.0)))
    embedded = slc.embedded_at_mesh_scale(_exclusion_radius(slc))
    checks = {
        "closed": {"pass": closed.passed, "max_residual": closed.value},
        "transverse": {"pass": transverse.passed, "min_sigma": transverse.value},
        "membership": {"pass": membership_defect <= 1e-9, "max_defect": membership_defect},
        "embedding": {"pass": embedded},
    }
    no_chords = _conventions(opts.convention, [])
    if not all(c["pass"] for c in checks.values()):
        return CollarReport(checks, [], False, [], no_chords, {"constructed": False}, Verdict.NOT_A_SLICE)

    # a 1-D slice needs the all-edge cochain anyway, and its one loop's
    # period is its sum, bit for bit; a 2-D slice needs it only when exact,
    # and its loops read from it would differ in the last bits
    cochain = edge_cochain(model, slc) if slc.param_dim == 1 else None
    period_values = periods(model, slc, closed, cochain)
    exact = all(p == 0.0 for p in period_values)

    found = find_chords(model, slc, opts.max_time)

    prim, h_diag = None, {"constructed": False}
    if exact:
        try:
            prim = primitive(model, slc, cochain)
        except NonExact as exc:
            # periods vanished but spanning-tree integration found a cycle
            # defect beyond tolerance: treat as non-exact at mesh scale
            h_diag["cycle_defect"] = exc.period
    if prim is None:
        entries = [_chord_entry(c, None, None, None) for c in found]
        return CollarReport(checks, period_values, False, entries, no_chords, h_diag, Verdict.NON_EXACT)
    legendrian = prim.max_abs() <= 1e-6 and (
        float(np.max(np.abs(pullback_alpha(model, slc, slc.mesh.params)))) < LEGENDRIAN_TOL
    )

    actions = chord_action(prim, found).tolist()
    classes = [(classify_chord(c, a, Convention.DIRECT), classify_chord(c, a, Convention.FEASIBILITY))
               for c, a in zip(found, actions)]
    entries = [_chord_entry(c, a, cd, cf) for c, a, (cd, cf) in zip(found, actions, classes)]
    conventions = _conventions(opts.convention, classes)

    # profile construction: trivial for Legendrian slices on any model,
    # fiber interpolation on Euclidean models, otherwise unavailable
    construction_ok = legendrian
    if legendrian:  # h = 0: dh(R) = 0 > -1 + margin and the dt-component is 1 > margin
        h_diag = {
            "constructed": True,
            "trivial": True,
            "min_slope": 0.0,
            "max_h_plus_f": prim.max_abs(),
            "min_dh_reeb": 0.0,
            "min_dt_liouville": 1.0,
            "deformation_pass": True,
        }
        if found:  # the rescaled flow is the Reeb flow, whose landings the chord search checked
            h_diag.update(reparam_max_drift=None, reparam_pass=None)
    elif is_euclidean:
        ext = extend_h(model, slc, prim, margin=opts.margin)
        if ext.ok:
            sym = SymplectizationModel(model)
            spec = DeformationSpec(h=ext.h, margin=opts.margin)
            deform = check_deformation(sym, spec, grid_around_slice(slc, GRID_PER_AXIS, GRID_Z_AXIS))
            construction_ok = deform.passed
            h_diag = {
                "constructed": True,
                "trivial": False,
                "min_slope": ext.min_slope,
                "max_h_plus_f": ext.max_h_plus_f,
                "min_dh_reeb": deform.min_dh_reeb,
                "min_dt_liouville": deform.min_dt_liouville,
                "deformation_pass": deform.passed,
            }
            if found and construction_ok:
                reparam = reeb_reparam_check(model, slc, ext.h, found)
                h_diag["reparam_max_drift"] = reparam["max_endpoint_drift"]
                h_diag["reparam_pass"] = construction_ok = reparam["pass"]
        else:
            h_diag = {
                "constructed": False,
                "obstructed_pairs": len(ext.obstructions),
            }
    else:
        h_diag = {"constructed": False, "note": "profile construction unavailable for this model"}

    if conventions[f"small_{opts.convention.value}"]:  # small chords under the active convention
        verdict, note = Verdict.SCHEME_OBSTRUCTED, SCHEME_OBSTRUCTED_NOTE
    elif construction_ok:
        verdict, note = Verdict.COLLARABLE, ""
    elif not is_euclidean:  # nothing was constructed on this model
        verdict, note = Verdict.NO_SMALL_CHORDS, NO_SMALL_CHORDS_NOTE
    else:
        verdict, note = Verdict.SCHEME_OBSTRUCTED, SCHEME_OBSTRUCTED_NOTE

    return CollarReport(checks, period_values, exact, entries, conventions, h_diag, verdict, note)
