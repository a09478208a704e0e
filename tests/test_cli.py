import contextlib
import copy
import io
import json
import time

import numpy as np
import pytest

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
    assert doc["schema"] == "collar-report/1"
    assert doc["verdict"] == "Collarable"
    chord = doc["chords"][0]
    for key in ("start_param", "end_param", "start_point", "end_point", "length", "pure", "action"):
        assert key in chord


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_collar_grid_below_one_exit2(manifest_path, grid):
    path = manifest_path("sheared", {"slice": {"catalog": "sheared_unknot", "params": {"resolution": 256}}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["collar", path, "--grid", grid])
    assert exc.value.code == 2
    assert f"argument --grid: must be at least 1, got {grid}" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    code, out, _ = run_cli(["collar", path, "--grid", "1"])  # one node along the Reeb axis still works
    assert code == 3 and json.loads(out)["verdict"] == "SchemeObstructed"


def test_collar_determinism(manifest_path):
    path = manifest_path("unknot", {"slice": {"catalog": "unknot"}})
    _, out1, _ = run_cli(["collar", path])
    _, out2, _ = run_cli(["collar", path])
    assert out1 == out2


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
    "search_string": {"slice": {"catalog": "unknot"}, "search": {"min_length": "a"}},
    "search_null": {"slice": {"catalog": "unknot"}, "search": {"cluster_radius": None}},
    "search_bool": {"slice": {"catalog": "unknot"}, "search": {"max_time": True}},
    "tolerance_bool": {"slice": {"catalog": "unknot"}, "tolerances": {"closed": True}},
    "tolerance_nan": {"slice": {"catalog": "torus_r5", "params": {"resolution": 8}}, "tolerances": {"closed": float("nan")}},
    "tolerance_infinity": {"slice": {"catalog": "unknot"}, "tolerances": {"margin": float("inf")}},
    "search_infinity": {"slice": {"catalog": "unknot"}, "search": {"min_length": float("inf")}},
    "search_max_time_infinity": {"slice": {"catalog": "hopf_circle"}, "search": {"max_time": float("inf")}},
    "c_nan": {"slice": {"catalog": "sheared_unknot", "params": {"c": float("nan")}}},
    "c_infinity": {"slice": {"catalog": "sheared_unknot", "params": {"c": float("inf")}}},
    "resolution_infinity": {"slice": {"catalog": "unknot", "params": {"resolution": float("inf")}}},
    "max_time_zero": {"slice": {"catalog": "hopf_circle", "params": {"max_time": 0}}},
    "max_time_negative": {"slice": {"catalog": "hopf_circle", "params": {"max_time": -1}}},
    "max_time_nan": {"slice": {"catalog": "hopf_circle", "params": {"max_time": float("nan")}}},
    "max_time_infinity": {"slice": {"catalog": "hopf_circle", "params": {"max_time": float("inf")}}},
    "seed_radius_negative": {"slice": {"catalog": "unknot"}, "search": {"seed_radius": -1}},
    "cluster_radius_zero": {"slice": {"catalog": "unknot"}, "search": {"cluster_radius": 0}},
    "capture_radius_negative": {"slice": {"catalog": "hopf_circle"}, "search": {"capture_radius": -1}},
    "monitor_dt_zero": {"slice": {"catalog": "hopf_circle"}, "search": {"monitor_dt": 0}},
    "launch_stride_fraction": {"slice": {"catalog": "hopf_circle"}, "search": {"launch_stride": 2.5}},
    "resolution_string": {"slice": {"catalog": "unknot", "params": {"resolution": "x"}}},
    "resolution_one": {"slice": {"catalog": "unknot", "params": {"resolution": 1}}},
    "resolution_null": {"slice": {"catalog": "unknot", "params": {"resolution": None}}},
    "params_list": {"slice": {"catalog": "unknot", "params": [1]}},
    "params_unknown_key": {"slice": {"catalog": "torus_r5", "params": {"resolutoin": 8}}},
    "model_list": {"model": [], "slice": {"catalog": "unknot"}},
    "convention_list": {"convention": ["direct"], "slice": {"catalog": "unknot"}},
    "param_dim_string": {"model": "r3", "slice": {"mesh_file": "m.csv", "param_dim": "x", "periodic": [True]}},
    "periodic_bool": {"model": "r3", "slice": {"mesh_file": "m.csv", "param_dim": 1, "periodic": True}},
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
    # beside the one each for the periods and the primitive
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
    assert len(quadratures) == 3


@pytest.mark.parametrize("command", ["chords", "collar"])
@pytest.mark.parametrize(
    "search, flags",
    [({"monitor_dt": 1e-7}, []), ({"max_time": 1e9}, []), ({}, ["--max-time", "1e9"])],
    ids=["monitor_dt", "max_time", "max_time_flag"],
)
def test_shooting_monitor_is_bounded(manifest_path, monkeypatch, command, search, flags):
    # more than MAX_MONITOR_STEPS monitor steps is refused before any
    # trajectory is monitored: a search failure, not an endless run
    import reebkit.chords

    def never(*args, **kwargs):
        raise AssertionError("the search monitored trajectories")

    monkeypatch.setattr(reebkit.chords, "_capture_events", never)
    path = manifest_path("hopf", {"slice": {"catalog": "hopf_circle"}, "search": search})
    start = time.perf_counter()
    code, out, err = run_cli([command, path, *flags])
    assert time.perf_counter() - start < 10.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "exceed the bound of 100000" in err
    assert "Traceback" not in err
