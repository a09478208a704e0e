"""Plot-data export: hand-rolled SVG (byte-deterministic) plus delimited
sample tables.

Three views: the (x, z) front with cusp annotations, the (x, y)
projection, and the projection with chord double points marked.  Both
2-D views require the three-dimensional Euclidean model; higher
dimensions fall back to delimited data only.
"""

from __future__ import annotations

import numpy as np

from .chords import ChordRecord
from .errors import UnsupportedProjection, WrongModel
from .models import StandardRModel
from .report import fmt
from .slices import ParamSlice

_SVG_SIZE = 480.0
_SVG_PAD = 24.0
CUSP_SAMPLES = 2048  # front samples scanned for sign changes of x'
PLOT_SAMPLES = 1024  # curve samples written to the CSV and drawn in the SVG


def front_cusps(slc: ParamSlice) -> list[float]:
    """Parameters where the front's x-velocity changes sign (cusp points).

    For Legendrian fronts both x' and z' vanish there and the (x, z)
    image has a semicubical point; the slope y = dz/dx stays finite.
    """
    ts = np.linspace(0.0, slc.factors[0].span, CUSP_SAMPLES, endpoint=False) + slc.factors[0].lo
    jac = slc.jacobian_at(ts[:, None])
    xdot = jac[:, 0, 0]
    out = []
    for k in range(CUSP_SAMPLES):
        a, b = xdot[k], xdot[(k + 1) % CUSP_SAMPLES]
        if a == 0.0:
            out.append(float(ts[k]))
        elif a * b < 0.0:
            # linear interpolation of the sign change
            t0, t1 = ts[k], ts[k] + (ts[1] - ts[0])
            out.append(float(t0 + (t1 - t0) * a / (a - b)))
    return out


def _svg_document(polylines, markers, labels, bounds) -> str:
    (x0, x1), (y0, y1) = bounds
    span = max(x1 - x0, y1 - y0, 1e-9)
    scale = (_SVG_SIZE - 2 * _SVG_PAD) / span

    def to_px(x, y):
        return (
            _SVG_PAD + (x - x0) * scale,
            _SVG_SIZE - _SVG_PAD - (y - y0) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(_SVG_SIZE)}" '
        f'height="{fmt(_SVG_SIZE)}" viewBox="0 0 {fmt(_SVG_SIZE)} {fmt(_SVG_SIZE)}">'
    ]
    for pts, closed in polylines:
        coords = " ".join(f"{fmt(px)},{fmt(py)}" for px, py in (to_px(x, y) for x, y in pts))
        tag = "polygon" if closed else "polyline"
        parts.append(f'<{tag} points="{coords}" fill="none" stroke="black" stroke-width="1.5"/>')
    for x, y in markers:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="4" fill="red"/>')
    for (x, y), text in labels:
        px, py = to_px(x, y)
        parts.append(f'<text x="{fmt(px + 6)}" y="{fmt(py - 6)}" font-size="12">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_csv(path: str, header: list[str], rows: np.ndarray):
    """Write ``header`` and the rows of ``rows``, each value through ``fmt``,
    as comma-separated lines."""
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_plot(
    model,
    slc: ParamSlice,
    what: str,
    out_base: str,
    chords: list[ChordRecord] | None = None,
) -> dict:
    """Write ``<out_base>.csv`` (always) and ``<out_base>.svg`` (2-D views).

    ``what`` is one of ``front``, ``lagrangian-projection``, ``chords``.
    Returns a summary dict with the files written and annotation counts.
    """
    if what not in {"front", "lagrangian-projection", "chords"}:
        raise ValueError(f"unknown plot kind {what!r}")
    if not isinstance(model, StandardRModel):
        raise WrongModel("plot export is defined for Euclidean models")
    if slc.param_dim != 1:
        # no polyline in higher parameter dimension: dump mesh nodes instead
        header = [f"u_{j}" for j in range(slc.param_dim)] + [f"p_{j}" for j in range(slc.points.shape[1])]
        _write_csv(out_base + ".csv", header, np.concatenate([slc.mesh.params, slc.points], axis=1))
        raise UnsupportedProjection(
            "2-D projections need a one-parameter slice; wrote delimited node data only"
        )

    f = slc.factors[0]
    ts = np.linspace(f.lo, f.lo + f.span, PLOT_SAMPLES, endpoint=False)
    pts = slc.immerse(ts[:, None])
    closed = f.periodic

    written: dict = {"csv": out_base + ".csv", "svg": None, "cusps": 0, "chord_markers": 0}

    if model.ambient_dim != 3:
        # delimited data only in higher dimensions
        _write_csv(written["csv"], ["t"] + [f"p_{j}" for j in range(pts.shape[1])], np.column_stack([ts, pts]))
        raise UnsupportedProjection("vector graphics limited to ambient dimension 3; wrote delimited data")

    if what == "front":
        xy = pts[:, [0, 2]]
        cusp_ts = front_cusps(slc)
        cusp_pts = slc.immerse(np.array(cusp_ts)[:, None])[:, [0, 2]] if cusp_ts else np.zeros((0, 2))
        markers = [tuple(p) for p in cusp_pts]
        labels = [((float(p[0]), float(p[1])), "cusp") for p in cusp_pts]
        header = ["t", "x", "z"]
        written["cusps"] = len(cusp_ts)
    else:
        xy = pts[:, [0, 1]]
        markers, labels = [], []
        if what == "chords" and chords:
            for rec in chords:
                markers.append((float(rec.start_point[0]), float(rec.start_point[1])))
            labels = [(m, "chord") for m in markers]
            written["chord_markers"] = len(markers)
        header = ["t", "x", "y"]

    _write_csv(written["csv"], header, np.column_stack([ts, xy]))

    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    for m in markers:
        lo = np.minimum(lo, m)
        hi = np.maximum(hi, m)
    svg = _svg_document([(xy.tolist(), closed)], markers, labels, ((lo[0], hi[0]), (lo[1], hi[1])))
    written["svg"] = out_base + ".svg"
    with open(written["svg"], "w", encoding="utf-8") as fh:
        fh.write(svg)
    return written
