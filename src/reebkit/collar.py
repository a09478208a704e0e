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

from .chords import (
    ChordRecord,
    SearchOptions,
    _ambient_spacing,
    _exclusion_radius,
    find_chords,
)
from .errors import MissingPrimitive, NonExact, ReparamDegenerate, WrongModel
from .models import (
    DeformationSpec,
    RhoProfile,
    StandardRModel,
    StandardSphereModel,
    SymplectizationModel,
    _smoothstep,
    liouville_deformed,
)
from .numerics import _row_norms, _simpson_weights, integrate_flow
from .slices import (
    DEFAULT_CLOSED_TOL,
    DEFAULT_TRANSVERSE_TOL,
    ParamSlice,
    PrimitiveField,
    check_closed,
    check_transverse,
    periods,
    primitive,
    pullback_alpha,
)
from .spatial import GridIndex

_SMOOTHSTEP_MAX_SLOPE = 1.875  # max of d/du [u^3 (10 - 15u + 6u^2)] on [0, 1]
LEGENDRIAN_TOL = 1e-9


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


SCHEME_OBSTRUCTED_NOTE = (
    "this deformation scheme is infeasible; non-collarability is NOT concluded"
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


def _build_profiles(zs: np.ndarray, vs: np.ndarray, counts: np.ndarray, margin: float, runway: float) -> np.ndarray:
    """Padded profiles (U, K, 5) through the first ``counts[i]`` prescribed
    (z, value) pairs of row i of zs, vs (U, M), decaying to zero over
    slope-safe runways beyond the extremes (a zero profile for count 0).
    A pure smoothstep steepens the mean slope by up to 1.875x, so a
    descending piece's blend shrinks toward linear as its mean approaches
    the bound -1 + margin, with a 2% cushion so the finite-difference
    verification cannot sit on the edge."""
    rows = np.arange(len(counts))
    run = np.maximum(runway, _SMOOTHSTEP_MAX_SLOPE * np.abs(vs) / (1.0 - margin) * 1.02 + 1e-9)
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
    first piece whose z1 reaches it."""
    z = np.asarray(z, dtype=float)
    profile = np.broadcast_to(profile, z.shape + profile.shape[-2:])
    k = np.minimum(np.sum(profile[..., 1] < z[..., None], axis=-1), profile.shape[-2] - 1)
    row = np.take_along_axis(profile, k[..., None, None], axis=-2)[..., 0, :]
    z0, z1, v0, v1, blend = np.moveaxis(row, -1, 0)
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
    padded with -1.  A shadow's row is keyed by the shadow rounded to 12
    digits.
    """

    def __init__(self, slc: ParamSlice, prim: PrimitiveField, margin: float, runway: float):
        self.slice = slc
        self.margin = margin
        self.runway = runway
        self.proj = slc.points[:, :-1]
        self.heights = slc.points[:, -1]
        self.prescriptions = -prim.values
        spacing = _ambient_spacing(self.proj, slc.mesh.edges())
        self.r_plateau = 1.5 * spacing
        self.r_cut = 3.0 * spacing
        self._nbr = slc.mesh.neighbors()
        self._index = GridIndex(self.proj, cell_size=self.r_cut)
        self.profiles, self.bumps, self.reps = np.empty((0, 1, 5)), np.empty(0), np.empty((0, 0), dtype=int)
        self._row: dict[bytes, int] = {}

    def fibers(self, shadows: np.ndarray):
        """(nodes, counts, distances) over the rows of ``shadows`` (B, d-1):
        one node per fiber intersection, row by row and by height; their
        number per row; the distance to the nearest node (inf if none).

        The nodes in reach of a row are grouped by min-label propagation
        with pointer jumping (Shiloach & Vishkin, J. Algorithms 3 (1982))
        over the mesh edges inside the row's ball.  A group is represented
        by its nearest node, the lowest one on an exact tie; equal heights
        keep the order of the groups' lowest nodes."""
        rows, nodes = self._index.query_ball(shadows, self.r_cut)
        d2 = np.sum((self.proj[nodes] - shadows[rows]) ** 2, axis=1)
        keys = rows * len(self.proj) + nodes  # ascending
        want = np.where(self._nbr[nodes] < 0, -1, rows[:, None] * len(self.proj) + self._nbr[nodes])
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        a, k = np.nonzero(keys[at] == want)  # pair a is linked to pair at[a, k]
        label, settled = np.arange(len(keys)), False  # settles on the lowest pair of each group
        while not settled:
            new = label.copy()
            np.minimum.at(new, a, label[at[a, k]])
            new = new[new]  # pointer jumping
            settled, label = np.array_equal(new, label), new
        by_group = np.lexsort((d2, label))  # stable, so ascending node within a tie
        reps = by_group[np.flatnonzero(np.diff(label[by_group], prepend=-1))]
        reps = reps[np.lexsort((self.heights[nodes[reps]], rows[reps]))]
        dist = np.full(len(shadows), np.inf)
        np.minimum.at(dist, rows, d2)
        return nodes[reps], np.bincount(rows[reps], minlength=len(shadows)), np.sqrt(dist)

    def rows(self, shadows: np.ndarray) -> np.ndarray:
        """Table row of each row of ``shadows`` (N, d-1).  Shadows equal to
        12 digits share a row, built from the first of them; missing rows
        are appended in blocks, padding the narrower of the table and the
        block."""
        keys = np.round(shadows, 12)
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()  # one bytes key per row
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        keys = [keys[i].tobytes() for i in first]
        missing = [(i, key) for i, key in zip(first.tolist(), keys) if key not in self._row]
        for lo in range(0, len(missing), _FIBER_BLOCK):
            block, block_keys = zip(*missing[lo : lo + _FIBER_BLOCK])
            self._row.update((key, len(self.bumps) + j) for j, key in enumerate(block_keys))
            nodes, counts, dist = self.fibers(shadows[list(block)])
            filled = np.arange(max(1, counts.max())) < counts[:, None]
            zs, vs = np.zeros((2, *filled.shape))
            reps = np.full(filled.shape, -1)
            zs[filled], vs[filled], reps[filled] = self.heights[nodes], self.prescriptions[nodes], nodes
            profiles = _build_profiles(zs, vs, counts, self.margin, self.runway)
            # 0 at distance inf, where no node is in reach
            bumps = 1.0 - _smoothstep((dist - self.r_plateau) / max(self.r_cut - self.r_plateau, 1e-12))
            k = max(self.profiles.shape[1], profiles.shape[1])
            edge = [np.pad(a, ((0, 0), (0, k - a.shape[1]), (0, 0)), mode="edge") for a in (self.profiles, profiles)]
            fill = [np.pad(a, ((0, 0), (0, k - 1 - a.shape[1])), constant_values=-1) for a in (self.reps, reps)]
            self.profiles, self.reps = np.concatenate(edge), np.concatenate(fill)
            self.bumps = np.append(self.bumps, bumps)
        return np.array([self._row[key] for key in keys])[inverse]

    def __call__(self, points) -> np.ndarray:
        """Field values at points of shape (..., d), with shape (...): one
        gather of the shadows' rows, then one evaluation of all heights."""
        p = np.asarray(points, dtype=float)
        flat = p.reshape(-1, p.shape[-1])
        rows = self.rows(flat[:, :-1])
        bump = self.bumps[rows]
        values = np.where(bump != 0.0, bump * _eval_profile(self.profiles[rows], flat[:, -1]), 0.0)
        return values.reshape(p.shape[:-1])


@dataclass
class ExtendResult:
    ok: bool
    h: Optional[Callable[[np.ndarray], np.ndarray]]
    obstructions: list[ChordRecord] = field(default_factory=list)
    min_slope: float = 0.0
    max_h_plus_f: float = 0.0


def extend_h(
    model,
    slc: ParamSlice,
    prim: PrimitiveField,
    margin: float = 0.05,
    runway: float = 1.0,
) -> ExtendResult:
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
    fld = FiberBumpField(slc, prim, margin, runway)
    fld.rows(fld.proj)  # the table now holds the rows of the node shadows, and no other
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
    max_defect = float(np.max(np.abs(fld(slc.points) - (-prim.values))))
    return ExtendResult(True, fld, min_slope=min_slope, max_h_plus_f=max_defect)


# ---------------------------------------------------------------------------
# deformation checks
# ---------------------------------------------------------------------------


def directional_dh_reeb(model, h: Callable[[np.ndarray], np.ndarray], points, step: float = 1e-6) -> np.ndarray:
    """Directional derivatives of h along the (unnormalized) Reeb vector
    at points of shape (..., d), by central differences with a per-point
    step and one call of h on both shifted stacks; the result has shape
    (...)."""
    p = np.asarray(points, dtype=float)
    r = model.reeb(p)
    scale = np.maximum(1.0, np.linalg.norm(r, axis=-1))
    s = (step * (1.0 + np.max(np.abs(p), axis=-1)) / scale)[..., None]
    plus, minus = h(np.stack([p + s * r, p - s * r]))
    return (plus - minus) / (2.0 * s[..., 0])


def grid_around_slice(slc: ParamSlice, per_axis: int = 9, z_axis: int = 33, padding: float = 0.3) -> np.ndarray:
    """Evaluation grid covering the slice with extra resolution along the
    last (Reeb) coordinate."""
    lo = slc.points.min(axis=0) - padding
    hi = slc.points.max(axis=0) + padding
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
    if spec.h is None:
        return DeformationCheck(0.0, 1.0, True, True, True)
    min_dh = float(np.min(directional_dh_reeb(sym.base, spec.h, grid)))
    min_dt = float(np.min(liouville_deformed(sym, spec, 1.0, grid)[..., 0]))
    pass_dh = min_dh > -1.0 + spec.margin
    pass_dt = min_dt > spec.margin
    return DeformationCheck(min_dh, min_dt, pass_dh, pass_dt, pass_dh == pass_dt)


def reeb_reparam_check(
    model,
    slc: ParamSlice,
    h: Optional[Callable[[np.ndarray], np.ndarray]],
    chords: Sequence[ChordRecord],
    samples: int = 256,
    drift_tol: float = 1e-5,
) -> dict:
    """Verify that rescaling the Reeb field by 1/(1 + dh(R)) changes chord
    flow times but not endpoints.

    For each chord the original trajectory is sampled from the closed-form
    flow ``model.flow``, the rescaled flow time is obtained by Simpson
    quadrature of 1 + dh(R) along it, and the rescaled field, which has no
    closed form, is integrated numerically for that time; the endpoint
    must land back on the recorded end point.  With ``h`` None (the
    trivial profile) the rescaled field is ``model.reeb`` itself.  All
    chords are sampled, differentiated and integrated together, one lane
    per chord.

    Raises:
        ReparamDegenerate: 1 + dh(R) drops to zero on some chord.
    """
    rescaled_field = model.reeb
    if h is not None:

        def rescaled_field(p):
            denom = 1.0 + directional_dh_reeb(model, h, p)
            if np.any(denom <= 1e-6):
                raise ReparamDegenerate("1 + dh(Reeb) vanished along a trajectory")
            return model.reeb(p) / denom[..., None]

    if not chords:
        return {"max_endpoint_drift": 0.0, "pass": 0.0 < drift_tol, "rescaled_times": []}
    n = samples + samples % 2
    starts = np.array([c.start_point for c in chords])
    dt = np.array([c.length for c in chords]) / n
    if h is None:
        vals = np.ones((len(chords), n + 1))
    else:
        states = model.flow(starts[:, None, :], dt[:, None] * np.arange(n + 1))
        vals = 1.0 + directional_dh_reeb(model, h, states)
    low = np.min(vals, axis=1)
    if np.any(low <= 1e-6):
        raise ReparamDegenerate(f"1 + dh(Reeb) reached {float(np.min(low)):.3e} on a chord")
    rescaled_times = dt / 3.0 * (vals[:, None, :] @ _simpson_weights(n)[:, None])[:, 0, 0]
    endpoints = integrate_flow(rescaled_field, starts, rescaled_times, tol=1e-10)
    drifts = _row_norms(endpoints - np.array([c.end_point for c in chords]))
    max_drift = max([0.0, *drifts.tolist()])
    return {
        "max_endpoint_drift": max_drift,
        "pass": max_drift < drift_tol,
        "rescaled_times": rescaled_times.tolist(),
    }


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------


@dataclass
class CollarOptions:
    tol_closed: float = DEFAULT_CLOSED_TOL
    tol_transverse: float = DEFAULT_TRANSVERSE_TOL
    margin: float = 0.05
    convention: Convention = Convention.DIRECT
    search: SearchOptions = field(default_factory=SearchOptions)
    grid_z_axis: int = 33


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
    entry = {
        "start_param": chord.start_param.tolist(),
        "end_param": chord.end_param.tolist(),
        "start_point": chord.start_point.tolist(),
        "end_point": chord.end_point.tolist(),
        "length": chord.length,
        "pure": True,  # schema fields: a slice is one connected grid
        "start_component": 0,
        "end_component": 0,
        "action": action,
        "class_direct": cls_direct.value if cls_direct else None,
        "class_feasibility": cls_feas.value if cls_feas else None,
        "conventions_disagree": bool(cls_direct and cls_feas and cls_direct != cls_feas),
    }
    return entry


def collar_report(model, slc: ParamSlice, opts: Optional[CollarOptions] = None) -> CollarReport:
    """Full pipeline: slice checks, exactness, chord search, two-convention
    classification, profile construction, deformation check, verdict.

    Verdicts: ``NotASlice`` and ``NonExact`` preempt the later stages;
    ``SchemeObstructed`` means small chords exist under the active
    convention (non-collarability is NOT concluded — the criterion is
    one-directional); ``Collarable`` requires no small chords plus a
    successful profile construction that passes the deformation check and,
    when it runs, the reparametrized-flow check.
    """
    opts = opts or CollarOptions()
    is_euclidean = isinstance(model, StandardRModel)

    closed = check_closed(model, slc, opts.tol_closed)
    transverse = check_transverse(model, slc, opts.tol_transverse)
    membership_defect = 0.0
    if isinstance(model, StandardSphereModel):
        membership_defect = float(np.max(np.abs(np.linalg.norm(slc.points, axis=1) - 1.0)))
    embedded = slc.embedded_at_mesh_scale(_exclusion_radius(slc, opts.search))
    checks = {
        "closed": {"pass": closed.passed, "max_residual": closed.value},
        "transverse": {"pass": transverse.passed, "min_sigma": transverse.value},
        "membership": {"pass": membership_defect <= 1e-9, "max_defect": membership_defect},
        "embedding": {"pass": embedded},
    }
    empty_conventions = {
        "active": opts.convention.value,
        "small_direct": 0,
        "small_feasibility": 0,
        "disagreements": [],
    }
    if not all(c["pass"] for c in checks.values()):
        return CollarReport(checks, [], False, [], empty_conventions, {"constructed": False}, Verdict.NOT_A_SLICE)

    period_values = periods(model, slc, closed)
    exact = all(p == 0.0 for p in period_values)

    found = find_chords(model, slc, opts.search)

    prim, h_diag = None, {"constructed": False}
    if exact:
        try:
            prim = primitive(model, slc)
        except NonExact as exc:
            # periods vanished but spanning-tree integration found a cycle
            # defect beyond tolerance: treat as non-exact at mesh scale
            h_diag["cycle_defect"] = exc.period
    if prim is None:
        entries = [_chord_entry(c, None, None, None) for c in found]
        return CollarReport(checks, period_values, False, entries, empty_conventions, h_diag, Verdict.NON_EXACT)
    legendrian = prim.max_abs() <= 1e-6 and (
        float(np.max(np.abs(pullback_alpha(model, slc, slc.mesh.params)))) < LEGENDRIAN_TOL
    )

    entries = []
    small_direct = small_feas = 0
    disagreements = []
    active_small: list[int] = []
    for k, (chord, action) in enumerate(zip(found, chord_action(prim, found).tolist())):
        chord.action = action
        cd = classify_chord(chord, action, Convention.DIRECT)
        cf = classify_chord(chord, action, Convention.FEASIBILITY)
        small_direct += cd == Classification.SMALL
        small_feas += cf == Classification.SMALL
        if cd != cf:
            disagreements.append(k)
        active = cd if opts.convention == Convention.DIRECT else cf
        if active == Classification.SMALL:
            active_small.append(k)
        entries.append(_chord_entry(chord, action, cd, cf))

    conventions = {
        "active": opts.convention.value,
        "small_direct": int(small_direct),
        "small_feasibility": int(small_feas),
        "disagreements": disagreements,
    }

    # profile construction: trivial for Legendrian slices on any model,
    # fiber interpolation on Euclidean models, otherwise unavailable
    h_field = None  # also the trivial profile of a Legendrian slice
    construction_ok = False
    if legendrian:
        construction_ok = True
        h_diag = {"constructed": True, "trivial": True, "min_slope": 0.0, "max_h_plus_f": prim.max_abs()}
    elif is_euclidean:
        ext = extend_h(model, slc, prim, margin=opts.margin)
        if ext.ok:
            h_field = ext.h
            construction_ok = True
            h_diag = {
                "constructed": True,
                "trivial": False,
                "min_slope": ext.min_slope,
                "max_h_plus_f": ext.max_h_plus_f,
            }
        else:
            h_diag = {
                "constructed": False,
                "obstructed_pairs": len(ext.obstructions),
            }
    else:
        h_diag = {"constructed": False, "note": "profile construction unavailable for this model"}

    if construction_ok:
        sym = SymplectizationModel(model, epsilon=0.2)
        spec = DeformationSpec(h=h_field, rho=RhoProfile(0.2), margin=opts.margin)
        if is_euclidean:
            grid = grid_around_slice(slc, per_axis=7, z_axis=opts.grid_z_axis)
            deform = check_deformation(sym, spec, grid)
            h_diag.update(
                {
                    "min_dh_reeb": deform.min_dh_reeb,
                    "min_dt_liouville": deform.min_dt_liouville,
                    "deformation_pass": deform.passed,
                }
            )
            construction_ok = deform.passed
        else:
            h_diag.update({"min_dh_reeb": 0.0, "min_dt_liouville": 1.0, "deformation_pass": True})
        if found and construction_ok:
            reparam = reeb_reparam_check(model, slc, h_field, found)
            h_diag["reparam_max_drift"] = reparam["max_endpoint_drift"]
            h_diag["reparam_pass"] = reparam["pass"]
            construction_ok = reparam["pass"]

    if active_small:
        verdict, note = Verdict.SCHEME_OBSTRUCTED, SCHEME_OBSTRUCTED_NOTE
    elif construction_ok:
        verdict, note = Verdict.COLLARABLE, ""
    elif not is_euclidean and not legendrian:
        # no construction available for this model; classification carries
        verdict = Verdict.COLLARABLE
        note = "chord-level verdict; no profile construction on this model"
    else:
        verdict, note = Verdict.SCHEME_OBSTRUCTED, SCHEME_OBSTRUCTED_NOTE

    return CollarReport(checks, period_values, exact, entries, conventions, h_diag, verdict, note)

