import contextlib
import copy
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebkit.catalog import catalog_list
from reebkit.cli import main


def run_cli(args):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(args)
    return code, buf.getvalue(), err.getvalue()


@pytest.fixture()
def manifest_path(tmp_path):
    def write(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def test_check_unknot_exit0(manifest_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    code, out, _ = run_cli(["check", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["closed"]["pass"]
    assert doc["checks"]["closed"]["max_residual"] < 1e-9
    assert doc["periods"] == [0.0]


def test_check_vertical_segment_exit1(manifest_path):
    path = manifest_path("vs", {"slice": {"catalog": "vertical_segment"}})
    code, out, _ = run_cli(["check", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"]["transverse"]["min_sigma"] == pytest.approx(0.0, abs=1e-9)


def test_malformed_manifest_exit2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["check", str(path)])
    assert code == 2
    assert "manifest" in err


def test_manifest_requires_one_slice_source(manifest_path):
    path = manifest_path("two", {"slice": {"catalog": "unknot", "mesh_file": "x.csv"}})
    code, _, err = run_cli(["check", path])
    assert code == 2


def test_manifest_model_conflict(manifest_path):
    path = manifest_path("conflict", {"model": "r5", "slice": {"catalog": "unknot"}})
    code, _, err = run_cli(["check", path])
    assert code == 2
    assert "conflict" in err


def test_emit_manifest_round_trip(manifest_path, tmp_path):
    path = manifest_path(
        "round",
        {
            "slice": {"catalog": "sheared_unknot", "params": {"c": -0.5}},
            "convention": "feasibility",
            "tolerances": {"closed": 1e-7},
            "search": {"max_time": 2.5},
        },
    )
    emitted = tmp_path / "emitted.json"
    code, _, _ = run_cli(["check", path, "--emit-manifest", str(emitted)])
    assert code == 0
    original = json.loads((tmp_path / "round.json").read_text())
    reparsed = json.loads(emitted.read_text())
    assert reparsed["slice"]["catalog"] == "sheared_unknot"
    assert reparsed["slice"]["params"] == {"c": -0.5}
    assert reparsed["convention"] == "feasibility"
    assert reparsed["tolerances"]["closed"] == original["tolerances"]["closed"]
    assert reparsed["search"]["max_time"] == original["search"]["max_time"]
    # emitted manifest is accepted as input and yields the same result
    code2, out2, _ = run_cli(["check", str(emitted)])
    assert code2 == 0


def test_chords_unknot_table(manifest_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    code, out, _ = run_cli(["chords", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + one chord
    assert lines[0].startswith("start_param_0,end_param_0")
    row = lines[1].split(",")
    length = float(row[lines[0].split(",").index("length")])
    assert length == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert "1.33333333" in lines[1]


def test_chords_circle_empty_exit0(manifest_path):
    path = manifest_path("circle", {"slice": {"catalog": "circle"}})
    code, out, _ = run_cli(["chords", path])
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


def test_chords_sheared_row(manifest_path):
    path = manifest_path("sheared", {"slice": {"catalog": "sheared_unknot", "params": {"c": -0.5}}})
    code, out, _ = run_cli(["chords", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "0.333333333" in lines[1]


def test_chords_blocked_without_force(manifest_path):
    path = manifest_path("vs", {"slice": {"catalog": "vertical_segment"}})
    code, _, err = run_cli(["chords", path])
    assert code == 1
    code, out, _ = run_cli(["chords", path, "--force"])
    assert code == 0


def test_collar_exit_codes(manifest_path):
    cases = [
        ({"slice": {"catalog": "unknot"}}, 0),
        ({"slice": {"catalog": "sheared_unknot", "params": {"c": -0.5}}}, 3),
        ({"slice": {"catalog": "circle"}}, 4),
        ({"slice": {"catalog": "vertical_segment"}}, 5),
    ]
    for data, expected in cases:
        path = manifest_path(f"case{expected}", data)
        code, out, _ = run_cli(["collar", path])
        assert code == expected, data


def test_collar_without_a_construction_concludes_nothing(manifest_path, tmp_path):
    # an exact closed curve in S^3 that is not Legendrian, with no small
    # chords: no profile can be built on the sphere, so nothing beyond the
    # chord classification was verified and collar exits 6, not 0
    t = 2 * np.pi * np.arange(128) / 128
    points = np.stack([np.cos(0.3 * np.sin(t)), np.sin(0.3 * np.sin(t)), 0.3 * np.cos(t), 0 * t], axis=-1)
    points /= np.linalg.norm(points, axis=1)[:, None]
    mesh_path = tmp_path / "curve_s3.csv"
    with open(mesh_path, "w") as fh:
        fh.write("t,x1,y1,x2,y2\n")
        for u, p in zip(t, points):
            fh.write(",".join(f"{v:.17g}" for v in [u, *p]) + "\n")
    path = manifest_path("curve_s3", {"model": "s3", "slice": {"mesh_file": str(mesh_path), "param_dim": 1, "periodic": [True]}})
    for command in ("check", "chords"):
        code, _, err = run_cli([command, path])
        assert code == 0, err
    code, out, err = run_cli(["collar", path])
    assert code == 6, err
    doc = json.loads(out)
    assert doc["verdict"] == "NoSmallChords"
    assert "collarability is NOT concluded" in doc["note"]
    assert doc["exact"] and doc["h_diagnostics"] == {"constructed": False, "note": "profile construction unavailable for this model"}
    assert doc["conventions"]["small_direct"] == 0


def test_collar_convention_flag(manifest_path):
    path = manifest_path("sheared", {"slice": {"catalog": "sheared_unknot", "params": {"c": -0.5}}})
    code, out, _ = run_cli(["collar", path, "--convention", "feasibility"])
    assert code == 0
    doc = json.loads(out)
    assert doc["conventions"]["active"] == "feasibility"
    assert doc["conventions"]["disagreements"] == [0]


def test_collar_report_schema(manifest_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    code, out, _ = run_cli(["collar", path])
    doc = json.loads(out)
    for key in ("schema", "input", "checks", "periods", "exact", "chords", "conventions", "h_diagnostics", "verdict"):
        assert key in doc
    assert doc["schema"] == "collar-report/2"
    assert doc["verdict"] == "Collarable"
    chord = doc["chords"][0]
    assert list(chord) == [
        "start_param", "end_param", "start_point", "end_point", "length", "action",
        "class_direct", "class_feasibility", "conventions_disagree",
    ]


@pytest.mark.parametrize("grid", ["0", "-3", "33"])
def test_collar_grid_flag_exit2(manifest_path, grid):
    # the verification grid is fixed (GRID_PER_AXIS, GRID_Z_AXIS), so the
    # collar command takes no --grid
    path = manifest_path("sheared", {"slice": {"catalog": "sheared_unknot", "params": {"resolution": 256}}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["collar", path, "--grid", grid])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --grid {grid}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_collar_determinism(manifest_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    _, out1, _ = run_cli(["collar", path])
    _, out2, _ = run_cli(["collar", path])
    assert out1 == out2


@pytest.mark.parametrize("resolution", [16, 64])
def test_collar_hopf_long_chords(manifest_path, resolution):
    # chords up to time 20 on the great circle: the trivial profile's check
    # flows them in closed form, so collar ends like chords does
    path = manifest_path("hopf", {"slice": {"catalog": "hopf_circle", "params": {"resolution": resolution, "max_time": 20}}})
    code, out, err = run_cli(["chords", path])
    assert code == 0, err
    n_chords = len(out.strip().splitlines()) - 1
    assert n_chords > 0
    code, out, err = run_cli(["collar", path])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verdict"] == "Collarable"
    assert len(doc["chords"]) == n_chords


def test_export_front_cusps(manifest_path, tmp_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    out_base = str(tmp_path / "front")
    code, out, _ = run_cli(["export-plot", path, "front", "-o", out_base])
    assert code == 0
    summary = json.loads(out)
    assert summary["cusps"] == 2
    svg = (tmp_path / "front.svg").read_text()
    assert svg.count(">cusp<") == 2
    csv_lines = (tmp_path / "front.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,x,z"
    assert len(csv_lines) == 1025


def test_export_lagrangian_projection_circle(manifest_path, tmp_path):
    path = manifest_path("circle", {"slice": {"catalog": "circle"}})
    out_base = str(tmp_path / "proj")
    code, out, _ = run_cli(["export-plot", path, "lagrangian-projection", "-o", out_base])
    assert code == 0
    rows = (tmp_path / "proj.csv").read_text().strip().splitlines()[1:]
    xy = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    assert np.allclose(np.linalg.norm(xy, axis=1), 1.0, atol=1e-9)


def test_export_chords_marker(manifest_path, tmp_path):
    path = manifest_path("sheared", {"slice": {"catalog": "sheared_unknot", "params": {"c": -0.5}}})
    out_base = str(tmp_path / "ch")
    code, out, _ = run_cli(["export-plot", path, "chords", "-o", out_base])
    assert code == 0
    summary = json.loads(out)
    assert summary["chord_markers"] == 1
    # the double point projects to the origin
    svg = (tmp_path / "ch.svg").read_text()
    assert "circle" in svg


def test_export_chords_on_sphere_reports_wrong_model(manifest_path, tmp_path):
    path = manifest_path("hopf", {"slice": {"catalog": "hopf_circle", "params": {"resolution": 64}}})
    code, out, err = run_cli(["export-plot", path, "chords", "-o", str(tmp_path / "h")])
    assert code == 1
    assert out == ""
    assert "plot export is defined for Euclidean models" in err
    assert "projection chord search" not in err


def test_export_unsupported_dimension_falls_back(manifest_path, tmp_path):
    path = manifest_path("torus", {"slice": {"catalog": "torus_r5"}})
    code, out, err = run_cli(["export-plot", path, "front", "-o", str(tmp_path / "t")])
    assert code == 0
    assert "delimited" in err or "dimension" in err


def test_export_determinism(manifest_path, tmp_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(["export-plot", path, "front", "-o", a])
    run_cli(["export-plot", path, "front", "-o", b])
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_catalog_commands():
    code, out, _ = run_cli(["catalog", "list"])
    assert code == 0
    assert "unknot" in out.split()
    code, out, _ = run_cli(["catalog", "show", "unknot"])
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "r3"
    assert doc["chord_count"] == 1
    assert "Legendrian" in doc["derivation"]


def test_mesh_file_manifest(manifest_path, tmp_path):
    from reebkit import catalog_get

    entry = catalog_get("unknot")
    slc = entry.slice
    mesh_path = tmp_path / "unknot_mesh.csv"
    with open(mesh_path, "w") as fh:
        fh.write("t,x,y,z\n")
        for u, p in zip(slc.mesh.params, slc.points):
            fh.write(",".join(f"{v:.17g}" for v in [u[0], *p]) + "\n")
    path = manifest_path(
        "meshman",
        {"model": "r3", "slice": {"mesh_file": str(mesh_path), "periodic": [True], "param_dim": 1}},
    )
    code, out, _ = run_cli(["check", path])
    assert code == 0
    code, out, _ = run_cli(["chords", path])
    assert code == 0
    assert "1.33333" in out


def test_mesh_file_manifest_2d(manifest_path, tmp_path):
    # torus_r5 exported at 24 nodes per axis: the linear interpolant traces
    # the inscribed 24-gon in each (x_i, y_i) plane, so Simpson gives its
    # area 12 sin(pi/12) exactly for both periods
    from reebkit import catalog_get

    slc = catalog_get("torus_r5", {"resolution": 24}).slice
    mesh_path = tmp_path / "torus_mesh.csv"
    with open(mesh_path, "w") as fh:
        fh.write("u,v,x1,y1,x2,y2,z\n")
        for u, p in zip(slc.mesh.params, slc.points):
            fh.write(",".join(f"{v:.17g}" for v in [*u, *p]) + "\n")
    path = manifest_path(
        "torusmesh",
        {"model": "r5", "slice": {"mesh_file": str(mesh_path), "param_dim": 2, "periodic": [True, True]}},
    )
    from reebkit.models import StandardRModel
    from reebkit.report import round_sig
    from reebkit.slices import check_closed, load_mesh_slice, periods

    area = 12 * np.sin(np.pi / 12)
    loaded = load_mesh_slice(mesh_path, 2, [True, True])
    model = StandardRModel(3)
    assert np.allclose(periods(model, loaded, check_closed(model, loaded)), [area, area], rtol=0, atol=1e-9)
    code, out, _ = run_cli(["check", path])
    assert code == 0
    assert json.loads(out)["periods"] == [round_sig(area)] * 2
    code, out, _ = run_cli(["collar", path])
    assert code == 4
    assert json.loads(out)["verdict"] == "NonExact"


def test_mesh_file_curve_in_r5(manifest_path, tmp_path):
    # the r3 unknot embedded as (x, y, 0, 0, z) in r5: its projection
    # system has 4 equations in 2 unknowns, so Newton takes Gauss-Newton
    # steps, and the chord is the r3 chord
    from reebkit import catalog_get

    slc = catalog_get("unknot").slice
    mesh_path = tmp_path / "unknot_r5.csv"
    with open(mesh_path, "w") as fh:
        fh.write("t,x1,y1,x2,y2,z\n")
        for u, (x, y, z) in zip(slc.mesh.params, slc.points):
            fh.write(",".join(f"{v:.17g}" for v in [u[0], x, y, 0.0, 0.0, z]) + "\n")
    path = manifest_path(
        "unknot_r5",
        {"model": "r5", "slice": {"mesh_file": str(mesh_path), "periodic": [True], "param_dim": 1}},
    )
    code, out, err = run_cli(["chords", path])
    assert code == 0, err
    header, *rows = out.splitlines()
    assert len(rows) == 1
    chord = dict(zip(header.split(","), rows[0].split(",")))
    assert float(chord["start_param_0"]) == pytest.approx(3 * np.pi / 2, abs=1e-6)
    assert float(chord["end_param_0"]) == pytest.approx(np.pi / 2, abs=1e-6)
    assert float(chord["length"]) == pytest.approx(4.0 / 3.0, abs=1e-6)
    # the default 5-D verification grid: 7^4 * 33 points in one stacked check
    code, out, err = run_cli(["collar", path])
    assert code == 0, err
    assert "Traceback" not in err
    assert json.loads(out)["verdict"] == "Collarable"


# manifests that parse as JSON but carry values of the wrong type or range
BAD_VALUES = {
    "search_string": {"slice": {"catalog": "unknot"}, "search": {"max_time": "a"}},
    "search_null": {"slice": {"catalog": "unknot"}, "search": {"max_time": None}},
    "search_bool": {"slice": {"catalog": "unknot"}, "search": {"max_time": True}},
    "tolerance_bool": {"slice": {"catalog": "unknot"}, "tolerances": {"closed": True}},
    "tolerance_nan": {"slice": {"catalog": "torus_r5", "params": {"resolution": 8}}, "tolerances": {"closed": float("nan")}},
    "tolerance_infinity": {"slice": {"catalog": "unknot"}, "tolerances": {"margin": float("inf")}},
    "margin_one": {"slice": {"catalog": "unknot"}, "tolerances": {"margin": 1}},
    "margin_above_one": {"slice": {"catalog": "hopf_circle"}, "tolerances": {"margin": 1.5}},
    "search_infinity": {"slice": {"catalog": "unknot"}, "search": {"max_time": float("inf")}},
    "search_max_time_infinity": {"slice": {"catalog": "hopf_circle"}, "search": {"max_time": float("inf")}},
    "c_nan": {"slice": {"catalog": "sheared_unknot", "params": {"c": float("nan")}}},
    "c_infinity": {"slice": {"catalog": "sheared_unknot", "params": {"c": float("inf")}}},
    "c_bool": {"slice": {"catalog": "sheared_unknot", "params": {"c": True}}},
    "c_string": {"slice": {"catalog": "sheared_unknot", "params": {"c": "0.1"}}},
    "resolution_infinity": {"slice": {"catalog": "unknot", "params": {"resolution": float("inf")}}},
    "resolution_fractional": {"slice": {"catalog": "torus_r5", "params": {"resolution": 8.9}}},
    "max_time_zero": {"slice": {"catalog": "hopf_circle", "params": {"max_time": 0}}},
    "max_time_negative": {"slice": {"catalog": "hopf_circle", "params": {"max_time": -1}}},
    "max_time_nan": {"slice": {"catalog": "hopf_circle", "params": {"max_time": float("nan")}}},
    "max_time_infinity": {"slice": {"catalog": "hopf_circle", "params": {"max_time": float("inf")}}},
    "seed_radius_negative": {"slice": {"catalog": "unknot"}, "search": {"seed_radius": -1}},
    "cluster_radius_zero": {"slice": {"catalog": "unknot"}, "search": {"cluster_radius": 0}},
    "capture_radius_negative": {"slice": {"catalog": "hopf_circle"}, "search": {"capture_radius": -1}},
    "monitor_dt_zero": {"slice": {"catalog": "hopf_circle"}, "search": {"monitor_dt": 0}},
    "launch_stride_fraction": {"slice": {"catalog": "hopf_circle"}, "search": {"launch_stride": 2.5}},  # an unknown key
    "resolution_string": {"slice": {"catalog": "unknot", "params": {"resolution": "x"}}},
    "resolution_numeric_string": {"slice": {"catalog": "torus_r5", "params": {"resolution": "96"}}},
    "max_time_string": {"slice": {"catalog": "hopf_circle", "params": {"max_time": "2"}}},
    "resolution_one": {"slice": {"catalog": "unknot", "params": {"resolution": 1}}},
    "resolution_null": {"slice": {"catalog": "unknot", "params": {"resolution": None}}},
    "params_list": {"slice": {"catalog": "unknot", "params": [1]}},
    "params_unknown_key": {"slice": {"catalog": "torus_r5", "params": {"resolutoin": 8}}},
    "model_list": {"model": [], "slice": {"catalog": "unknot"}},
    "convention_list": {"convention": ["direct"], "slice": {"catalog": "unknot"}},
    "param_dim_string": {"model": "r3", "slice": {"mesh_file": "m.csv", "param_dim": "x", "periodic": [True]}},
    "periodic_bool": {"model": "r3", "slice": {"mesh_file": "m.csv", "param_dim": 1, "periodic": True}},
    "param_dim_zero": {"model": "r3", "slice": {"mesh_file": "m.csv", "param_dim": 0, "periodic": []}},
}


@pytest.mark.parametrize("command", ["check", "chords", "collar"])
@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_bad_manifest_values_exit2(manifest_path, tmp_path, name, command):
    data = copy.deepcopy(BAD_VALUES[name])
    if "mesh_file" in data["slice"]:  # a readable circle, so only the bad value can fail
        mesh_path = tmp_path / "m.csv"
        mesh_path.write_text("t,x,y,z\n0,1,0,0\n1,0,1,0\n2,-1,0,0\n3,0,-1,0\n")
        data["slice"]["mesh_file"] = str(mesh_path)
    code, out, err = run_cli([command, manifest_path(name, data)])
    assert code == 2
    assert out == ""
    assert err.startswith("manifest error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("margin", ["1", "1.5"])
@pytest.mark.parametrize(
    "slice_src",
    [
        {"catalog": "unknot"},
        {"catalog": "hopf_circle"},
        {"catalog": "sheared_unknot", "params": {"c": 0.1, "resolution": 64}},
    ],
    ids=["unknot", "hopf_circle", "sheared_unknot"],
)
def test_margin_flag_outside_unit_interval_exit2(manifest_path, slice_src, margin):
    # a margin of 1 or more makes the checks 1 + dh(R) > margin and
    # dt > margin unverifiable and divides by 1 - margin in the profile:
    # refused before anything is built
    code, out, err = run_cli(["collar", manifest_path("margin", {"slice": slice_src}), "--margin", margin])
    assert code == 2
    assert out == ""
    assert err == "manifest error: tolerance 'margin' must lie in (0, 1)\n"


@pytest.mark.parametrize(
    "command, name, params, exit_code",
    [
        ("check", "torus_r5", {"resolution": 24}, 0),
        ("chords", "torus_r5", {"resolution": 24}, 0),
        ("collar", "torus_r5", {"resolution": 24}, 4),
        ("check", "warped_torus", {}, 1),
        ("chords", "warped_torus", {}, 1),
        ("collar", "warped_torus", {}, 5),
    ],
)
def test_closedness_checked_once_per_command(manifest_path, monkeypatch, command, name, params, exit_code):
    import reebkit.cli
    import reebkit.collar
    import reebkit.slices

    calls = []
    original = reebkit.slices.check_closed

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (reebkit.slices, reebkit.cli, reebkit.collar):
        monkeypatch.setattr(module, "check_closed", counted)
    path = manifest_path(name, {"slice": {"catalog": name, "params": params}})
    code, _, err = run_cli([command, path])
    assert code == exit_code, err
    assert len(calls) == 1


def test_actions_use_one_quadrature_per_collar(manifest_path, monkeypatch):
    # every chord's action comes from one stacked evaluation of the
    # primitive: one chord_action call holding one line_quadrature call,
    # beside the one all-edge cochain that the periods and the primitive
    # of this 1-D slice share
    import reebkit.collar
    import reebkit.slices

    quadratures = []
    inside = []
    original_quadrature = reebkit.slices.line_quadrature
    original_action = reebkit.collar.chord_action

    def counted_quadrature(*args, **kwargs):
        quadratures.append(args)
        return original_quadrature(*args, **kwargs)

    def counted_action(prim, chords):
        before = len(quadratures)
        actions = original_action(prim, chords)
        inside.append((len(chords), len(quadratures) - before))
        return actions

    monkeypatch.setattr(reebkit.slices, "line_quadrature", counted_quadrature)
    monkeypatch.setattr(reebkit.collar, "chord_action", counted_action)
    code, out, err = run_cli(["collar", manifest_path("hopf", {"slice": {"catalog": "hopf_circle"}})])
    assert code == 0, err
    n_chords = len(json.loads(out)["chords"])
    assert n_chords > 1
    assert inside == [(n_chords, 1)]
    assert len(quadratures) == 2


@pytest.mark.parametrize("command", ["chords", "collar"])
@pytest.mark.parametrize(
    "search, flags", [({"max_time": 1e9}, []), ({}, ["--max-time", "1e9"])], ids=["max_time", "max_time_flag"]
)
def test_shooting_monitor_is_bounded(manifest_path, command, search, flags):
    # every pair of nodes passes every pi up to max_time: more than
    # MAX_CAPTURE_PASSES passes is refused before they are expanded, a
    # search failure, not an endless run
    import reebkit.chords

    path = manifest_path("hopf", {"slice": {"catalog": "hopf_circle"}, "search": search})
    start = time.perf_counter()
    code, out, err = run_cli([command, path, *flags])
    assert time.perf_counter() - start < 10.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"exceed the bound of {reebkit.chords.MAX_CAPTURE_PASSES}" in err
    assert err.startswith("chord search failed: ")  # the same line under both commands
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "chords", "collar"])
def test_monitor_dt_is_an_unknown_search_key(manifest_path, command):
    # the capture search samples no trajectory, so it takes no step
    path = manifest_path("hopf", {"slice": {"catalog": "hopf_circle"}, "search": {"monitor_dt": 0.02}})
    assert run_cli([command, path]) == (2, "", "manifest error: unknown search key 'monitor_dt'\n")


def test_manifest_search_keys_are_the_search_options():
    # max_time is the one search key and reaches the options; a manifest
    # that sets nothing gets every CollarOptions default
    from reebkit.collar import CollarOptions
    from reebkit.manifest import _SEARCH_KEYS, collar_options, parse_manifest

    assert _SEARCH_KEYS == {"max_time"}
    man = parse_manifest({"slice": {"catalog": "unknot"}, "search": {"max_time": 0.5}})
    assert collar_options(man).max_time == 0.5
    assert collar_options(parse_manifest({"slice": {"catalog": "unknot"}})) == CollarOptions()


@pytest.mark.parametrize(
    "key", ["seed_radius", "exclusion_radius", "capture_radius", "cluster_radius", "min_length", "launch_stride"]
)
def test_search_radii_are_unknown_search_keys(manifest_path, key):
    # the radii derive from the mesh spacing; the cluster radius, the
    # minimum chord length and the launch stride are fixed
    path = manifest_path("hopf", {"slice": {"catalog": "hopf_circle"}, "search": {key: 0.1}})
    assert run_cli(["chords", path]) == (2, "", f"manifest error: unknown search key {key!r}\n")


def _grid_rows(param_axes, immersion):
    return [(*u, *immersion(*u)) for u in itertools.product(*param_axes)]


_ANGLES = 2 * np.pi * np.arange(8) / 8
# mesh files that cannot be meshed at their own nodes: (model, periodic
# flags, rows, reason); the endpoint files repeat a periodic factor's first
# nodes at its end, as an export at np.linspace(0, 2 pi, N) does
UNMESHABLE_FILES = {
    "uneven_1d": (
        "r3", [False], _grid_rows([[0, 0.3, 1, 1.5, 2.5, 3, 4, 5.5]], lambda t: (np.cos(t), np.sin(t), 0.1 * t)),
        "factor 0 values are not evenly spaced",
    ),
    "uneven_2d": (
        "r5", [True, False], _grid_rows([_ANGLES, [0.0, 0.2, 1.0]], lambda v, u: (u, 0.0, np.cos(v), np.sin(v), 0.3 * u)),
        "factor 1 values are not evenly spaced",
    ),
    "single_1d": ("r3", [True], [(0.0, 1.0, 0.0, 0.0)], "need at least 2 nodes per factor"),
    "single_2d": (
        "r5", [True, True], _grid_rows([[0.0], _ANGLES], lambda u, v: (1.0, 0.0, np.cos(v), np.sin(v), 0.0)),
        "need at least 2 nodes per factor",
    ),
    "endpoint_1d": (
        "r3", [True],
        _grid_rows([np.linspace(0, 2 * np.pi, 65)],
                   lambda t: (np.cos(t), -np.sin(2 * t), (2 / 3) * np.sin(t) ** 3 + 0.1 * np.sin(t))),
        "periodic factor 0 repeats its first nodes at its end; omit the duplicate endpoint",
    ),
    "endpoint_2d": (
        "r5", [False, True],
        _grid_rows([np.linspace(0, 1, 4), np.linspace(0, 2 * np.pi, 9)], lambda u, v: (u, 0.0, np.cos(v), np.sin(v), 0.3 * u)),
        "periodic factor 1 repeats its first nodes at its end; omit the duplicate endpoint",
    ),
}
_CURVE_64 = _grid_rows(
    [2 * np.pi * np.arange(64) / 64], lambda t: (np.cos(t), -np.sin(2 * t), (2 / 3) * np.sin(t) ** 3 + 0.1 * np.sin(t))
)
_TORUS_12 = _grid_rows([2 * np.pi * np.arange(12) / 12] * 2, lambda u, v: (np.cos(u), np.sin(u), np.cos(v), np.sin(v), 0.0))
# one non-finite ambient value: refused before the spline, the seam test
# or the manifold test meets it
for _name, _model, _periodic, _rows in (("1d", "r3", [True], _CURVE_64), ("2d", "r5", [True, True], _TORUS_12)):
    for _value in ("nan", "inf"):
        _bad = [list(row) for row in _rows]
        _bad[5][-2] = float(_value)
        UNMESHABLE_FILES[f"{_value}_{_name}"] = (_model, _periodic, _bad, "holds a value that is not a finite number")


@pytest.mark.parametrize("command", ["check", "chords", "collar"])
@pytest.mark.parametrize("name", sorted(UNMESHABLE_FILES))
def test_mesh_file_that_is_not_a_mesh_exit2(manifest_path, tmp_path, name, command):
    # a mesh file is meshed at its own nodes: a non-finite value, uneven
    # values, a single value or a repeated periodic endpoint are refused in
    # one line, with no numpy warning (an error under this suite)
    model, periodic, rows, reason = UNMESHABLE_FILES[name]
    mesh_path = tmp_path / f"{name}.csv"
    header = ",".join(f"c{i}" for i in range(len(rows[0])))
    mesh_path.write_text(header + "\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows))
    slice_src = {"mesh_file": str(mesh_path), "param_dim": len(periodic), "periodic": periodic}
    code, out, err = run_cli([command, manifest_path(name, {"model": model, "slice": slice_src})])
    assert (code, out) == (2, "")
    assert err.startswith("manifest error: cannot load mesh file: ") and err.count("\n") == 1
    assert reason in err


@pytest.fixture(scope="module")
def interval_mesh_files(tmp_path_factory):
    """Manifest paths of two 2-D mesh files with an interval factor, whose
    finite differences step past the interval's ends: a 6x6 grid on
    [0, 1]^2 in r3, (u1, u2, u1 u2), and a 6x8 interval x circle strip in
    r5, (u1, 0, cos u2, sin u2, 0.3 u1)."""
    directory = tmp_path_factory.mktemp("interval_meshes")
    u, v = np.linspace(0.0, 1.0, 6), 2 * np.pi * np.arange(8) / 8
    tables = {
        "surface": ("r3", [False, False], "u1,u2,x,y,z", [(a, b, a, b, a * b) for a in u for b in u]),
        "strip": (
            "r5",
            [False, True],
            "u1,u2,x1,y1,x2,y2,z",
            [(a, b, a, 0.0, np.cos(b), np.sin(b), 0.3 * a) for a in u for b in v],
        ),
    }
    paths = {}
    for name, (model, periodic, header, rows) in tables.items():
        mesh_path = directory / f"{name}.csv"
        mesh_path.write_text(header + "\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows))
        slice_src = {"mesh_file": str(mesh_path), "param_dim": 2, "periodic": periodic}
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps({"model": model, "slice": slice_src}))
    return paths


@pytest.mark.parametrize(
    "name, command, exit_code",
    [
        ("surface", "check", 1),
        ("surface", "chords", 1),
        ("surface", "collar", 5),
        ("strip", "check", 0),
        ("strip", "chords", 0),
        ("strip", "collar", 4),
    ],
)
def test_mesh_file_interval_edge_extrapolates(interval_mesh_files, name, command, exit_code):
    # the immersion extrapolates linearly past an interval's ends, so the
    # slice checks' finite differences there end in a verdict
    code, _, err = run_cli([command, str(interval_mesh_files[name])])
    assert code == exit_code, err  # collar: 5 is NotASlice, 4 NonExact
    assert err.count("\n") <= 1 and "Traceback" not in err


# ambient dimension of every model a mesh file can name
MODEL_DIMS = {"r3": 3, "r5": 5, "r7": 7, "s3": 4, "s5": 6}


@pytest.mark.parametrize("command", [["check"], ["chords"], ["chords", "--force"], ["collar"]], ids=" ".join)
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("param_dim", [1, 2])
@pytest.mark.parametrize("model", sorted(MODEL_DIMS))
def test_mesh_files_end_with_exit_code_and_one_line(model_mesh_files, tmp_path, model, param_dim, offset, command):
    # the crash-free contract on every model, with a mesh of the model's
    # width and one column short or over: an exit code from 0 to 6 and at
    # most one stderr line, whatever the verdict
    slice_src = {
        "mesh_file": str(model_mesh_files[param_dim, MODEL_DIMS[model] + offset]),
        "param_dim": param_dim,
        "periodic": [True] if param_dim == 1 else [False, True],
    }
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"model": model, "slice": slice_src}))
    code, _, err = run_cli([*command, str(path)])
    assert code in range(7), err
    assert err.count("\n") <= 1 and "Traceback" not in err
    if offset:
        assert code == 2 and "does not match model" in err


@pytest.mark.parametrize(
    "command, exit_code", [(["chords"], 0), (["chords", "--force"], 0), (["collar"], 4)], ids=["chords", "force", "collar"]
)
@pytest.mark.parametrize("model", ["r5", "r7"])
def test_chordless_curve_gets_an_empty_table(model_mesh_files, tmp_path, model, command, exit_code):
    # a curve's projection system in r5 or r7 has more equations than
    # unknowns, so a seed that stops above tolerance is the closest approach
    # of two branches, not a failure: no chord, as in r3 (collar: NonExact)
    slice_src = {"mesh_file": str(model_mesh_files[1, MODEL_DIMS[model]]), "param_dim": 1, "periodic": [True]}
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"model": model, "slice": slice_src}))
    code, out, err = run_cli([*command, str(path)])
    assert code == exit_code, err
    if command[0] == "chords":
        assert out.count("\n") == 1 and out.startswith("start_param_0,")  # the header only
    else:
        assert json.loads(out)["chords"] == []


@pytest.mark.parametrize("command", ["check", "chords", "collar"])
@pytest.mark.parametrize("entry", ["torus_r5", "warped_torus"])
def test_commands_evaluate_the_node_jacobian_once(manifest_path, monkeypatch, command, entry):
    # check_closed and check_transverse share the slice's node_jacobian
    # (on a curve check_closed needs no Jacobian)
    from reebkit.slices import ParamSlice

    at_nodes = []
    jacobian_at = ParamSlice.jacobian_at

    def counted(self, u):
        if np.shape(u) == self.mesh.params.shape and np.array_equal(u, self.mesh.params):
            at_nodes.append(command)
        return jacobian_at(self, u)

    monkeypatch.setattr(ParamSlice, "jacobian_at", counted)
    path = manifest_path(entry, {"slice": {"catalog": entry, "params": {"resolution": 12}}})
    code, _, err = run_cli([command, path])
    assert code in (0, 1, 3, 4, 5) and "Traceback" not in err
    assert at_nodes == [command]


@pytest.mark.parametrize("param_dim", [1, 2])
@pytest.mark.parametrize("model", sorted(MODEL_DIMS))
def test_commands_agree_on_slice_status(model_mesh_files, tmp_path, model, param_dim):
    # check, chords and collar read a mesh file as the same slice, on the
    # sphere models too, whose interpolant is projected onto the sphere:
    # the 12-node curve passes both slice checks under all three commands
    # (collar: NonExact), the strip fails them under all three (NotASlice)
    slice_src = {
        "mesh_file": str(model_mesh_files[param_dim, MODEL_DIMS[model]]),
        "param_dim": param_dim,
        "periodic": [True] if param_dim == 1 else [False, True],
    }
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"model": model, "slice": slice_src}))
    (check, _, check_err), (chords, _, chords_err), (collar, _, collar_err) = (
        run_cli([command, str(path)]) for command in ("check", "chords", "collar")
    )
    assert check_err == collar_err == ""
    if param_dim == 1:
        assert (check, chords, collar) == (0, 0, 4), chords_err
    else:
        assert (check, chords, collar) == (1, 1, 5)
        assert chords_err == "slice checks failed; rerun with --force to search anyway\n"


def test_rotated_hopf_circle_mesh_file_keeps_its_chords(manifest_path, tmp_path):
    # a U(2) matrix keeps the contact form and commutes with the Reeb flow
    # z -> e^{2it} z, so the great circle it moves, read from an s3 mesh
    # file, has the catalog entry's chords (the same count, lengths that are
    # multiples of pi/2, the same ends up to the wrap) and its verdict
    from reebkit import catalog_get

    entry = catalog_get("hopf_circle")
    a = np.exp(0.7j) * np.array([[np.cos(0.4), -np.sin(0.4) * np.exp(-1.1j)], [np.sin(0.4) * np.exp(1.1j), np.cos(0.4)]])
    assert np.allclose(a.conj().T @ a, np.eye(2))
    z = (entry.slice.points[:, 0::2] + 1j * entry.slice.points[:, 1::2]) @ a.T
    mesh_path = tmp_path / "hopf_rotated.csv"
    with open(mesh_path, "w") as fh:
        fh.write("t,x1,y1,x2,y2\n")
        for u, w in zip(entry.slice.mesh.params[:, 0], z):
            fh.write(",".join(f"{v:.17g}" for v in [u, w[0].real, w[0].imag, w[1].real, w[1].imag]) + "\n")
    rotated = manifest_path(
        "hopf_rotated",
        {
            "model": "s3",
            "slice": {"mesh_file": str(mesh_path), "param_dim": 1, "periodic": [True]},
            "search": {"max_time": entry.expected.search_max_time},
        },
    )
    catalog = manifest_path("hopf", {"slice": {"catalog": "hopf_circle"}})

    def chords(path):
        code, out, err = run_cli(["chords", path])
        assert code == 0, err
        header, *rows = out.splitlines()
        fields = [dict(zip(header.split(","), row.split(","))) for row in rows]
        return np.array([[float(f[key]) for key in ("start_param_0", "end_param_0", "length")] for f in fields])

    want, got = chords(catalog), chords(rotated)
    assert len(got) == len(want) > 0
    quarter = got[:, 2] / (np.pi / 2)
    assert np.allclose(quarter, np.round(quarter), rtol=0, atol=1e-6) and np.all(np.round(quarter) >= 1)
    for start, end, _ in got:
        gap = lambda x, y: np.abs((x - y + np.pi) % (2 * np.pi) - np.pi)
        assert np.any((gap(want[:, 0], start) < 1e-6) & (gap(want[:, 1], end) < 1e-6)), (start, end)
    (code_want, out_want, _), (code_got, out_got, err) = run_cli(["collar", catalog]), run_cli(["collar", rotated])
    assert code_got == code_want == 0, err
    assert json.loads(out_got)["verdict"] == json.loads(out_want)["verdict"] == "Collarable"


@st.composite
def contract_inputs(draw):
    """A mesh-file edge case, or a catalog entry at 2-16 nodes per axis
    with ``c`` and ``max_time`` drawn inside their ranges: the manifest's
    slice object or the edge case's name."""
    name = draw(st.sampled_from(["surface", "strip", *catalog_list()]))
    if name in ("surface", "strip"):
        return name
    params = {"resolution": draw(st.integers(min_value=2, max_value=16))}
    if name == "sheared_unknot":
        params["c"] = draw(st.floats(min_value=-2 / 3, max_value=2.0, exclude_min=True))
    if name in ("circle", "hopf_circle"):
        params["max_time"] = draw(st.floats(min_value=1e-3, max_value=20.0))
    return {"catalog": name, "params": params}


def _contract_manifest(interval_mesh_files, source):
    """Manifest path of a ``contract_inputs`` draw."""
    if isinstance(source, str):
        return interval_mesh_files[source]
    path = interval_mesh_files["surface"].with_name("catalog.json")
    path.write_text(json.dumps({"slice": source}))
    return path


@settings(max_examples=100)
@given(source=contract_inputs(), command=st.sampled_from([["check"], ["chords"], ["chords", "--force"], ["collar"]]))
def test_commands_end_with_exit_code_and_one_line(interval_mesh_files, source, command):
    # the crash-free contract: every command ends with a documented exit
    # code and at most one line on stderr, never a traceback
    code, _, err = run_cli([*command, str(_contract_manifest(interval_mesh_files, source))])
    assert code in range(7), err
    assert err.count("\n") <= 1 and "Traceback" not in err


@settings(max_examples=60)
@given(source=contract_inputs(), what=st.sampled_from(["front", "lagrangian-projection", "chords"]))
def test_export_plot_ends_with_exit_code_and_one_line(interval_mesh_files, source, what):
    # the same contract for export-plot, writing under the module's
    # temporary directory
    path = _contract_manifest(interval_mesh_files, source)
    code, _, err = run_cli(["export-plot", str(path), what, "-o", str(path.with_name(f"plot_{what}"))])
    assert code in range(7), err
    assert err.count("\n") <= 1 and "Traceback" not in err


def test_commands_import_neither_scipy_nor_numpy_random():
    # a peak-RSS guard: check, chords and collar on catalog manifests, in a
    # fresh interpreter, import no scipy module and not numpy.random (the
    # proximity and graph work uses the package's own grid index)
    root = Path(__file__).resolve().parent.parent
    manifests = [str(root / "manifests" / f"{name}.json") for name in ("sheared_unknot_long", "hopf_circle", "torus_r5")]
    script = (
        "import contextlib, io, json, sys\n"
        "from reebkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([command, path]) for path in sys.argv[1:] for command in ('check', 'chords', 'collar')]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random'))\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *manifests], capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0, 0, 0, 0, 4]  # torus_r5 is NonExact
    assert result["loaded"] == []
