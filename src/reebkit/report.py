"""Deterministic report rendering.

All numeric output is printed with 9 significant digits; serialization is
plain JSON with a fixed key order and no timestamps, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .chords import ChordRecord
from .collar import CollarReport

REPORT_SCHEMA = "collar-report/1"


def round_sig(x: float, digits: int = 9) -> float:
    """Round to ``digits`` significant digits (keeps -0.0 out)."""
    if x == 0 or not math.isfinite(x):
        return 0.0 if x == 0 else x
    return float(f"{x:.{digits}g}")


def fmt(x: float) -> str:
    return f"{x:.9g}"


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj))
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def render_report(report: CollarReport, manifest_dict: dict | None = None) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "input": manifest_dict or {},
        "checks": report.checks,
        "periods": list(report.periods),
        "exact": report.exact,
        "chords": report.chords,
        "conventions": report.conventions,
        "h_diagnostics": report.h_diagnostics,
        "verdict": report.verdict.value,
        "note": report.note,
    }
    return json.dumps(_clean(doc), indent=2) + "\n"


def chord_table(records: list[ChordRecord], param_dim: int, point_dim: int | None = None) -> str:
    """Comma-delimited chord table, fields in the record's canonical order."""
    if point_dim is None:
        point_dim = records[0].start_point.size if records else 0
    header = (
        [f"start_param_{j}" for j in range(param_dim)]
        + [f"end_param_{j}" for j in range(param_dim)]
        + [f"start_point_{j}" for j in range(point_dim)]
        + [f"end_point_{j}" for j in range(point_dim)]
        + ["length", "pure", "start_component", "end_component", "action"]
    )
    lines = [",".join(header)]
    for rec in records:
        row = (
            [fmt(v) for v in rec.start_param]
            + [fmt(v) for v in rec.end_param]
            + [fmt(v) for v in rec.start_point]
            + [fmt(v) for v in rec.end_point]
            # pure, start_component and end_component are constant: a slice is one connected grid
            + [fmt(rec.length), "true", "0", "0", fmt(rec.action) if rec.action is not None else ""]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
