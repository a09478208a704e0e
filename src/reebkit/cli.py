"""Command-line surface.

Commands: ``check``, ``chords``, ``collar``, ``export-plot``,
``catalog list``, ``catalog show``.  All commands take a manifest path;
flags override manifest fields.  Exit codes: 0 success/Collarable,
1 failed checks or search failure, 2 manifest/IO error, 3
SchemeObstructed, 4 NonExact, 5 NotASlice.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from .chords import chords_projection, find_chords
from .collar import Verdict, collar_report
from .errors import (
    ManifestError,
    NewtonFailuresExceeded,
    ReebkitError,
    SearchTooLong,
    UnsupportedProjection,
)
from .manifest import collar_options, load_manifest, resolve
from .models import StandardRModel
from .plots import export_plot
from .report import _clean, chord_table, render_report
from .slices import check_closed, check_transverse, periods

_VERDICT_EXIT = {
    Verdict.COLLARABLE: 0,
    Verdict.SCHEME_OBSTRUCTED: 3,
    Verdict.NON_EXACT: 4,
    Verdict.NOT_A_SLICE: 5,
}


def _apply_overrides(manifest, args):
    if getattr(args, "convention", None):
        manifest.convention = args.convention
    if getattr(args, "tol_closed", None) is not None:
        manifest.tolerances["closed"] = args.tol_closed
    if getattr(args, "tol_transverse", None) is not None:
        manifest.tolerances["transverse"] = args.tol_transverse
    if getattr(args, "margin", None) is not None:
        manifest.tolerances["margin"] = args.margin
    if getattr(args, "max_time", None) is not None:
        manifest.search["max_time"] = args.max_time
    manifest.validate()
    return manifest


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args):
    """The manifest with the flag overrides applied, its options, and the
    resolved model and slice.  A catalog entry supplies the search
    ``max_time`` unless the manifest or a flag sets it."""
    manifest = _apply_overrides(load_manifest(args.manifest), args)
    opts = collar_options(manifest)
    model, slc, expected = resolve(manifest)
    if expected is not None and "max_time" not in manifest.search:
        opts.search.max_time = expected.search_max_time
    return manifest, opts, model, slc


def cmd_check(args) -> int:
    manifest, opts, model, slc = _load(args)
    closed = check_closed(model, slc, opts.tol_closed)
    transverse = check_transverse(model, slc, opts.tol_transverse)
    doc = {
        "checks": {
            "closed": {"pass": closed.passed, "max_residual": closed.value},
            "transverse": {"pass": transverse.passed, "min_sigma": transverse.value},
        },
        "periods": None,
    }
    if closed.passed:
        doc["periods"] = periods(model, slc, closed)
    _emit(json.dumps(_clean(doc), indent=2) + "\n", args.output)
    if args.emit_manifest:
        with open(args.emit_manifest, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_dict(), fh, indent=2)
            fh.write("\n")
    return 0 if closed.passed and transverse.passed else 1


def cmd_chords(args) -> int:
    _, opts, model, slc = _load(args)
    if not args.force:
        closed = check_closed(model, slc, opts.tol_closed)
        transverse = check_transverse(model, slc, opts.tol_transverse)
        if not (closed.passed and transverse.passed):
            sys.stderr.write("slice checks failed; rerun with --force to search anyway\n")
            return 1
    try:
        found = find_chords(model, slc, opts.search)
    except (NewtonFailuresExceeded, SearchTooLong) as exc:
        sys.stderr.write(f"chord search failed: {exc}\n")
        return 1
    _emit(chord_table(found, slc.param_dim, model.ambient_dim), args.output)
    return 0


def cmd_collar(args) -> int:
    manifest, opts, model, slc = _load(args)
    if getattr(args, "grid", None) is not None:
        opts.grid_z_axis = args.grid
    report = collar_report(model, slc, opts)
    _emit(render_report(report, manifest.to_dict()), args.output)
    return _VERDICT_EXIT[report.verdict]


def cmd_export_plot(args) -> int:
    manifest, opts, model, slc = _load(args)
    chords = None
    # on other models export_plot raises its own WrongModel before plotting
    if args.what == "chords" and isinstance(model, StandardRModel):
        chords = chords_projection(model, slc, opts.search)
    out_base = args.output or f"{manifest.catalog or 'slice'}_{args.what}"
    try:
        written = export_plot(model, slc, args.what, out_base, chords=chords)
    except UnsupportedProjection as exc:
        sys.stderr.write(f"{exc}\n")
        return 0
    _emit(json.dumps(_clean(written), indent=2) + "\n", None)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in cat.catalog_list():
            sys.stdout.write(name + "\n")
        return 0
    entry = cat.catalog_get(args.name, {})
    expected = entry.expected
    doc = {
        "name": entry.name,
        "model": entry.model.name,
        "param_dim": entry.slice.param_dim,
        "mesh_nodes": entry.slice.mesh.n_nodes,
        "tags": sorted(expected.tags),
        "periods": list(expected.periods) if expected.periods is not None else None,
        "chord_count": expected.chord_count,
        "chord_lengths": list(expected.chord_lengths),
        "derivation": cat.catalog_doc(args.name),
    }
    sys.stdout.write(json.dumps(_clean(doc), indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reebkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("manifest", help="path to a JSON manifest")
        p.add_argument("-o", "--output", default=None, help="also write output to this file")
        p.add_argument("--convention", choices=["direct", "feasibility"], default=None)
        p.add_argument("--tol-closed", type=float, default=None)
        p.add_argument("--tol-transverse", type=float, default=None)
        p.add_argument("--margin", type=float, default=None)
        p.add_argument("--max-time", type=float, default=None)

    p_check = sub.add_parser("check", help="run the slice checks and periods")
    add_common(p_check)
    p_check.add_argument("--emit-manifest", default=None, help="write the resolved manifest to this path")
    p_check.set_defaults(fn=cmd_check)

    p_chords = sub.add_parser("chords", help="search for Reeb chords")
    add_common(p_chords)
    p_chords.add_argument("--force", action="store_true", help="search even if slice checks fail")
    p_chords.set_defaults(fn=cmd_chords)

    p_collar = sub.add_parser("collar", help="full collar-feasibility report")
    add_common(p_collar)
    p_collar.add_argument("--grid", type=positive_int, default=None, help="verification grid nodes along the Reeb axis")
    p_collar.set_defaults(fn=cmd_collar)

    p_plot = sub.add_parser("export-plot", help="export plot data (SVG + CSV)")
    add_common(p_plot)
    p_plot.add_argument("what", choices=["front", "lagrangian-projection", "chords"])
    p_plot.set_defaults(fn=cmd_export_plot)

    p_cat = sub.add_parser("catalog", help="list or show built-in slices")
    p_cat.add_argument("action", choices=["list", "show"])
    p_cat.add_argument("name", nargs="?", default=None)
    p_cat.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires a name")
    try:
        return args.fn(args)
    except ManifestError as exc:
        sys.stderr.write(f"manifest error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2
    except ReebkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
