"""Built-in slices and counterexamples with closed-form expected facts.

Every expected fact below carries its derivation, so the entries double
as oracles for the test suite.  Entries are registered by name with the
``params`` keys they take; other keys are refused, and values are
validated against documented ranges: every float value must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParamOutOfRange, UnknownEntry
from .models import ContactModel, StandardRModel, StandardSphereModel
from .slices import ParamSlice, circle_factor, interval_factor

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ExpectedFacts:
    """Analytic facts attached to a catalog entry, for test harnesses."""

    tags: frozenset[str]
    periods: Optional[tuple[float, ...]] = None
    chord_count: Optional[int] = None
    chord_lengths: tuple[float, ...] = ()
    chord_actions: tuple[float, ...] = ()
    chord_length_unit: Optional[float] = None  # lengths are multiples of this
    search_max_time: float = 3.0


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    model: ContactModel
    slice: ParamSlice
    expected: ExpectedFacts
    params: dict = field(default_factory=dict)


def _unknot_immersion(shear: float = 0.0):
    def immersion(u):
        t = np.asarray(u, dtype=float)[..., 0]
        z = (2.0 / 3.0) * np.sin(t) ** 3 + shear * np.sin(t)
        return np.stack([np.cos(t), -np.sin(2.0 * t), z], axis=-1)

    def jacobian(u):
        t = np.asarray(u, dtype=float)[..., 0]
        dz = 2.0 * np.sin(t) ** 2 * np.cos(t) + shear * np.cos(t)
        col = np.stack([-np.sin(t), -2.0 * np.cos(2.0 * t), dz], axis=-1)
        return col[..., None]

    return immersion, jacobian


def _max_time(params: dict, default: float) -> float:
    """The entry's search ``max_time``; ParamOutOfRange unless positive."""
    value = float(params.get("max_time", default))
    if not value > 0:
        raise ParamOutOfRange(f"catalog parameter 'max_time' must be positive, got {value:g}")
    return value


def _build_unknot(params: dict) -> CatalogEntry:
    """Legendrian figure-eight-front curve in R^3.

    U(t) = (cos t, -sin 2t, (2/3) sin^3 t).  Pullback of dz - y dx is
    (2 sin^2 t cos t - sin 2t sin t) dt = 0, so the curve is Legendrian
    and exact with primitive f = 0 and period 0.  Projection double
    points need cos t1 = cos t2 and sin 2t1 = sin 2t2 with t1 != t2,
    forcing {t1, t2} = {pi/2, 3pi/2}; the heights there are +-2/3, giving
    exactly one chord of length 4/3 (start at t = 3pi/2, the lower point)
    and action 0.
    """
    resolution = int(params.get("resolution", 256))
    immersion, jacobian = _unknot_immersion(0.0)
    slc = ParamSlice([circle_factor(TWO_PI)], immersion, jacobian, resolution=[resolution])
    expected = ExpectedFacts(
        tags=frozenset({"slice", "legendrian", "exact"}),
        periods=(0.0,),
        chord_count=1,
        chord_lengths=(4.0 / 3.0,),
        chord_actions=(0.0,),
    )
    return CatalogEntry("unknot", StandardRModel(2), slc, expected, {"resolution": resolution})


def _build_sheared_unknot(params: dict) -> CatalogEntry:
    """Unknot sheared along the Reeb direction by c sin t.

    The shear adds d(c sin t) to the pullback, so the slice stays exact
    with primitive f(t) = c sin t (anchored at t = 0) and is no longer
    Legendrian for c != 0.  The projection double point is unchanged;
    heights become +-(2/3 + c), so the single chord has length 4/3 + 2c
    (positive iff c > -2/3), start t = 3pi/2, end t = pi/2, and action
    f(3pi/2) - f(pi/2) = -2c.
    """
    c = float(params.get("c", -0.5))
    if c <= -2.0 / 3.0:
        raise ParamOutOfRange("sheared unknot requires c > -2/3 for a positive-length chord")
    resolution = int(params.get("resolution", 256))
    immersion, jacobian = _unknot_immersion(c)
    slc = ParamSlice([circle_factor(TWO_PI)], immersion, jacobian, resolution=[resolution])
    tags = {"slice", "exact"}
    if c == 0.0:
        tags.add("legendrian")
    expected = ExpectedFacts(
        tags=frozenset(tags),
        periods=(0.0,),
        chord_count=1,
        chord_lengths=(4.0 / 3.0 + 2.0 * c,),
        chord_actions=(-2.0 * c,),
    )
    return CatalogEntry("sheared_unknot", StandardRModel(2), slc, expected, {"c": c, "resolution": resolution})


def _build_circle(params: dict) -> CatalogEntry:
    """Horizontal unit circle (cos t, sin t, 0) in R^3.

    Pullback of dz - y dx is sin^2 t dt, closed (dimension one) with
    period integral(sin^2, 0..2pi) = pi, so the slice is not exact.  The
    tangent (-sin t, cos t, 0) is orthonormal to the Reeb direction
    (0, 0, 1), so the transversality minimum singular value is 1.  Equal
    (x, y) forces equal parameters and the height is constant, so there
    are no chords.
    """
    resolution = int(params.get("resolution", 256))

    def immersion(u):
        t = np.asarray(u, dtype=float)[..., 0]
        return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)

    def jacobian(u):
        t = np.asarray(u, dtype=float)[..., 0]
        col = np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1)
        return col[..., None]

    slc = ParamSlice([circle_factor(TWO_PI)], immersion, jacobian, resolution=[resolution])
    expected = ExpectedFacts(
        tags=frozenset({"slice", "non-exact"}),
        periods=(np.pi,),
        chord_count=0,
        search_max_time=_max_time(params, 10.0),
    )
    return CatalogEntry("circle", StandardRModel(2), slc, expected, {"resolution": resolution})


def _build_torus(params: dict) -> CatalogEntry:
    """Clifford-style torus (cos t1, sin t1, cos t2, sin t2, 0) in R^5.

    Pullback of dz - y1 dx1 - y2 dx2 is sin^2 t1 dt1 + sin^2 t2 dt2;
    each component depends only on its own variable, so the form is
    closed with periods (pi, pi) — not exact.  The height vanishes
    identically, so there are no chords.
    """
    resolution = int(params.get("resolution", 96))

    def immersion(u):
        t1, t2 = np.asarray(u, dtype=float)[..., 0], np.asarray(u, dtype=float)[..., 1]
        return np.stack(
            [np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2), np.zeros_like(t1)], axis=-1
        )

    def jacobian(u):
        t1, t2 = np.asarray(u, dtype=float)[..., 0], np.asarray(u, dtype=float)[..., 1]
        zero = np.zeros_like(t1)
        c1 = np.stack([-np.sin(t1), np.cos(t1), zero, zero, zero], axis=-1)
        c2 = np.stack([zero, zero, -np.sin(t2), np.cos(t2), zero], axis=-1)
        return np.stack([c1, c2], axis=-1)

    slc = ParamSlice(
        [circle_factor(TWO_PI), circle_factor(TWO_PI)],
        immersion,
        jacobian,
        resolution=[resolution, resolution],
    )
    expected = ExpectedFacts(
        tags=frozenset({"slice", "non-exact"}),
        periods=(np.pi, np.pi),
        chord_count=0,
    )
    return CatalogEntry("torus_r5", StandardRModel(3), slc, expected, {"resolution": resolution})


def _build_warped_torus(params: dict) -> CatalogEntry:
    """Torus with the y1 coordinate perturbed by sin t2: a non-closed
    counterexample.

    Immersion (cos t1, sin t1 + sin t2, cos t2, sin t2, 0); the pullback
    becomes (sin^2 t1 + sin t2 sin t1) dt1 + sin^2 t2 dt2, whose
    antisymmetrized derivative is cos t2 sin t1 with maximum 1 — the
    closedness check fails with residual about 1.  A height-only
    perturbation could not produce this: adding dg to the pullback keeps
    it closed.  Transversality still holds (the three columns stay
    independent everywhere).
    """
    resolution = int(params.get("resolution", 96))

    def immersion(u):
        t1, t2 = np.asarray(u, dtype=float)[..., 0], np.asarray(u, dtype=float)[..., 1]
        return np.stack(
            [np.cos(t1), np.sin(t1) + np.sin(t2), np.cos(t2), np.sin(t2), np.zeros_like(t1)],
            axis=-1,
        )

    def jacobian(u):
        t1, t2 = np.asarray(u, dtype=float)[..., 0], np.asarray(u, dtype=float)[..., 1]
        zero = np.zeros_like(t1)
        c1 = np.stack([-np.sin(t1), np.cos(t1), zero, zero, zero], axis=-1)
        c2 = np.stack([zero, np.cos(t2), -np.sin(t2), np.cos(t2), zero], axis=-1)
        return np.stack([c1, c2], axis=-1)

    slc = ParamSlice(
        [circle_factor(TWO_PI), circle_factor(TWO_PI)],
        immersion,
        jacobian,
        resolution=[resolution, resolution],
    )
    expected = ExpectedFacts(tags=frozenset({"non-slice", "non-closed"}))
    return CatalogEntry("warped_torus", StandardRModel(3), slc, expected, {"resolution": resolution})


def _build_vertical_segment(params: dict) -> CatalogEntry:
    """Segment (0, 0, s), s in [0, 1]: tangent equals the Reeb vector, so
    the transversality matrix [tangent | Reeb] has rank 1 and the check
    fails with minimum singular value 0.  Closedness passes vacuously in
    dimension one."""
    resolution = int(params.get("resolution", 129))

    def immersion(u):
        s = np.asarray(u, dtype=float)[..., 0]
        zero = np.zeros_like(s)
        return np.stack([zero, zero, s], axis=-1)

    def jacobian(u):
        s = np.asarray(u, dtype=float)[..., 0]
        zero = np.zeros_like(s)
        col = np.stack([zero, zero, np.ones_like(s)], axis=-1)
        return col[..., None]

    slc = ParamSlice([interval_factor(0.0, 1.0)], immersion, jacobian, resolution=[resolution])
    expected = ExpectedFacts(tags=frozenset({"non-slice", "reeb-tangent"}))
    return CatalogEntry("vertical_segment", StandardRModel(2), slc, expected, {"resolution": resolution})


def _build_hopf_circle(params: dict) -> CatalogEntry:
    """Great circle (cos t, 0, sin t, 0) on S^3, transverse to the
    rotation flow.

    The tangent (-sin t, 0, cos t, 0) pairs to zero with the contact
    form (y components vanish along the curve), so the circle is
    Legendrian, exact, with f = 0 and all chord actions 0.  In complex
    coordinates the Reeb flow is z -> e^{2iT} z; starting from the real
    vector (cos t, sin t) it lands back on the real circle iff
    e^{2iT} is real, i.e. T = k pi/2: at odd k it reaches the antipodal
    point, at even k it closes up.  Every point therefore starts a
    chord of length pi/2, a non-isolated family; all reported chord
    lengths must be multiples of pi/2.
    """
    resolution = int(params.get("resolution", 256))

    def immersion(u):
        t = np.asarray(u, dtype=float)[..., 0]
        zero = np.zeros_like(t)
        return np.stack([np.cos(t), zero, np.sin(t), zero], axis=-1)

    def jacobian(u):
        t = np.asarray(u, dtype=float)[..., 0]
        zero = np.zeros_like(t)
        col = np.stack([-np.sin(t), zero, np.cos(t), zero], axis=-1)
        return col[..., None]

    slc = ParamSlice([circle_factor(TWO_PI)], immersion, jacobian, resolution=[resolution])
    expected = ExpectedFacts(
        tags=frozenset({"slice", "legendrian", "exact"}),
        periods=(0.0,),
        chord_length_unit=float(np.pi / 2.0),
        search_max_time=_max_time(params, 2.0),
    )
    return CatalogEntry("hopf_circle", StandardSphereModel(2), slc, expected, {"resolution": resolution})


# name -> (builder, the params keys the builder reads)
_REGISTRY: dict[str, tuple[Callable[[dict], CatalogEntry], frozenset[str]]] = {
    "unknot": (_build_unknot, frozenset({"resolution"})),
    "sheared_unknot": (_build_sheared_unknot, frozenset({"c", "resolution"})),
    "circle": (_build_circle, frozenset({"resolution", "max_time"})),
    "torus_r5": (_build_torus, frozenset({"resolution"})),
    "warped_torus": (_build_warped_torus, frozenset({"resolution"})),
    "vertical_segment": (_build_vertical_segment, frozenset({"resolution"})),
    "hopf_circle": (_build_hopf_circle, frozenset({"resolution", "max_time"})),
}


def catalog_list() -> list[str]:
    return sorted(_REGISTRY)


def _registered(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEntry(f"no catalog entry named {name!r}") from None


def catalog_get(name: str, params: Optional[dict] = None) -> CatalogEntry:
    """Construct a registered entry.  Raises UnknownEntry for unregistered
    names and ParamOutOfRange for parameters the entry does not take or
    values outside documented ranges."""
    builder, keys = _registered(name)
    params = dict(params or {})
    unknown = sorted(set(params) - keys)
    if unknown:
        known = ", ".join(sorted(keys))
        raise ParamOutOfRange(f"catalog entry {name!r} takes no parameter {unknown[0]!r} (known: {known})")
    for key, value in params.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ParamOutOfRange(f"catalog parameter {key!r} must be finite, got {value}")
    return builder(params)


def catalog_doc(name: str) -> str:
    return (_registered(name)[0].__doc__ or "").strip()
