"""Acceptance suite: one test per criterion, each printing a PASS line at
its stated tolerance.  Expensive searches come from session fixtures, so
criterion runtimes are measured over fresh computations where the
criterion demands it."""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from reebkit import catalog_get, catalog_list
from reebkit.chords import chords_projection, chords_shooting
from reebkit.cli import main as cli_main
from reebkit.collar import (
    Classification,
    Convention,
    Verdict,
    check_deformation,
    chord_action,
    classify_chord,
    extend_h,
    feasibility_oracle_1d,
    grid_around_slice,
    reeb_reparam_check,
)
from reebkit.models import (
    DeformationSpec,
    StandardRModel,
    StandardSphereModel,
    SymplectizationModel,
    make_model,
)
from reebkit.numerics import integrate_fixed, integrate_flow
from reebkit.slices import check_closed, check_transverse, periods, primitive

ALL_MODELS = ("r3", "r5", "r7", "s3", "s5")
SHEAR_SWEEP = (-0.5, -0.25, 0.0, 0.25, 0.5)


def _report(k, label):
    print(f"ACCEPTANCE {k} ({label}): PASS")


def _sample_points(model, n, seed):
    rng = np.random.default_rng(seed)
    if isinstance(model, StandardSphereModel):
        pts = rng.normal(size=(n, model.ambient_dim))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return rng.uniform(-2.0, 2.0, size=(n, model.ambient_dim))


def _tangent_frame(model, p):
    if isinstance(model, StandardRModel):
        return np.eye(model.ambient_dim)
    _, _, vt = np.linalg.svd(p[None, :])
    return vt[1:]


def test_criterion_01_model_identities():
    start = time.perf_counter()
    for name in ALL_MODELS:
        model = make_model(name)
        pts = _sample_points(model, 1000, seed=1)
        r = model.reeb(pts)
        assert np.max(np.abs(model.alpha(pts, r) - 1.0)) < 1e-12, name
        worst = 0.0
        for p, rv in zip(pts, r):
            frame = _tangent_frame(model, p)
            vals = model.d_alpha(np.broadcast_to(p, frame.shape), np.broadcast_to(rv, frame.shape), frame)
            worst = max(worst, float(np.max(np.abs(vals))))
        assert worst < 1e-12, name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"model identities, {elapsed:.2f}s")


def test_criterion_02_slice_criterion_checks():
    for name in catalog_list():
        entry = catalog_get(name)
        closed = check_closed(entry.model, entry.slice)
        transverse = check_transverse(entry.model, entry.slice)
        if "slice" in entry.expected.tags:
            assert closed.passed and closed.value < 1e-6, name
            assert transverse.passed and transverse.value > 1e-4, name
    vs = catalog_get("vertical_segment")
    assert not check_transverse(vs.model, vs.slice).passed
    warped = catalog_get("warped_torus")
    res = check_closed(warped.model, warped.slice)
    assert not res.passed and res.value > 0.1
    _report(2, "slice criterion checks")


def test_criterion_03_exactness(circle_entry, torus_entry, unknot_entry, sheared_entries, primitives):
    vals = periods(circle_entry.model, circle_entry.slice, check_closed(circle_entry.model, circle_entry.slice))
    assert vals[0] == pytest.approx(np.pi, abs=1e-6)
    vals = periods(torus_entry.model, torus_entry.slice, check_closed(torus_entry.model, torus_entry.slice))
    assert np.allclose(vals, [np.pi, np.pi], atol=1e-6)
    assert periods(unknot_entry.model, unknot_entry.slice, check_closed(unknot_entry.model, unknot_entry.slice)) == [0.0]
    for c, entry in sheared_entries.items():
        assert periods(entry.model, entry.slice, check_closed(entry.model, entry.slice)) == [0.0], c
    # path independence on 100 random off-tree cycles (verified at build)
    assert primitives["unknot"].cycle_residual < 1e-6
    assert primitives[("sheared_unknot", -0.5)].cycle_residual < 1e-6
    _report(3, "periods and primitive path independence")


def test_criterion_04_chords_derived_oracles(projection_chords, shooting_chords):
    start = time.perf_counter()
    found = projection_chords["unknot"]
    assert len(found) == 1
    assert found[0].length == pytest.approx(4.0 / 3.0, abs=1e-6)
    for c in SHEAR_SWEEP:
        key = "unknot" if c == 0.0 else ("sheared_unknot", c)
        found = projection_chords[key]
        assert len(found) == 1, c
        assert found[0].length == pytest.approx(4.0 / 3.0 + 2.0 * c, abs=1e-6), c
    assert projection_chords["circle"] == []
    assert projection_chords["torus_r5"] == []
    # cross-method agreement on every Euclidean catalog slice
    for key in ("unknot", "circle", "torus_r5", *((("sheared_unknot", c)) for c in SHEAR_SWEEP if c != 0.0)):
        proj, shot = projection_chords[key], shooting_chords[key]
        assert len(proj) == len(shot), key
        for a, b in zip(proj, shot):
            assert np.allclose(a.start_param, b.start_param, atol=1e-4), key
            assert np.allclose(a.end_param, b.end_param, atol=1e-4), key
            assert abs(a.length - b.length) < 1e-5, key
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0  # fixtures amortize the search; comparison itself is fast
    _report(4, "chord lengths, counts, and method agreement")


def test_criterion_04_runtime_budget():
    # fresh end-to-end timing for the searches the criterion names
    start = time.perf_counter()
    for c in SHEAR_SWEEP:
        entry = catalog_get("unknot") if c == 0.0 else catalog_get("sheared_unknot", {"c": c})
        chords_projection(entry.model, entry.slice)
        chords_shooting(entry.model, entry.slice, 3.0)
    for name, max_time in (("circle", 10.0), ("torus_r5", 3.0)):
        entry = catalog_get(name)
        chords_projection(entry.model, entry.slice)
        chords_shooting(entry.model, entry.slice, max_time)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"chord search runtime {elapsed:.1f}s < 60s")


def test_criterion_05_actions(projection_chords, primitives):
    assert abs(chord_action(primitives["unknot"], [projection_chords["unknot"][0]])[0]) < 1e-6
    a = chord_action(primitives[("sheared_unknot", -0.5)], [projection_chords[("sheared_unknot", -0.5)][0]])[0]
    assert a == pytest.approx(1.0, abs=1e-6)
    a = chord_action(primitives[("sheared_unknot", 0.1)], [projection_chords[("sheared_unknot", 0.1)][0]])[0]
    assert a == pytest.approx(-0.2, abs=1e-6)
    _report(5, "chord actions")


def test_criterion_06_classification_consistency(collar_reports):
    rng = np.random.default_rng(20260810)
    from reebkit.chords import ChordRecord

    agree = 0
    for _ in range(1000):
        length = rng.uniform(1e-3, 4.0)
        action = rng.uniform(-5.0, 5.0) if rng.uniform() > 0.25 else -length + rng.normal(scale=0.02)
        chord = ChordRecord(
            start_param=np.zeros(1),
            end_param=np.ones(1),
            start_point=np.zeros(3),
            end_point=np.array([0, 0, length]),
            length=length,
        )
        cls = classify_chord(chord, action, Convention.FEASIBILITY)
        oracle = feasibility_oracle_1d(length, h_start=0.0, h_end=action, margin=0.0)
        agree += (cls == Classification.LONG) == oracle
    assert agree == 1000

    rep = collar_reports[("sheared_unknot", -0.5)]
    assert rep.verdict == Verdict.SCHEME_OBSTRUCTED
    assert rep.conventions["small_direct"] == 1
    assert rep.conventions["small_feasibility"] == 0
    assert rep.conventions["disagreements"] == [0]
    assert rep.chords[0]["class_direct"] == "Small"
    assert rep.chords[0]["class_feasibility"] == "Long"
    rep_f = collar_reports[("sheared_unknot", -0.5, "feasibility")]
    assert rep_f.verdict == Verdict.COLLARABLE
    _report(6, "oracle consistency 1000/1000 and convention disagreement")


def test_criterion_07_deformation_cross_validation(unknot_entry, sheared_01_entry, primitives):
    model = StandardRModel(2)
    sym = SymplectizationModel(model)
    grid = grid_around_slice(unknot_entry.slice, per_axis=5, z_axis=21)
    rng = np.random.default_rng(99)
    margin = 0.05
    agreements = 0
    while agreements < 50:
        a = rng.uniform(-1.6, 0.4)
        b = rng.uniform(-0.5, 0.5)
        q = rng.uniform(0.5, 2.0)
        k1, k2, ph1, ph2 = rng.uniform(0, 2 * np.pi, size=4)

        def h(p, a=a, b=b, q=q, k1=k1, k2=k2, ph1=ph1, ph2=ph2):
            return a * p[..., 2] + b * np.sin(k1 * p[..., 0] + ph1) * np.cos(k2 * p[..., 1] + ph2) * np.sin(q * p[..., 2])

        # keep the minimum away from the threshold so FD noise cannot flip
        min_dh_est = a - abs(b * q)
        if abs(min_dh_est - (-1 + margin)) < 0.02:
            continue
        spec = DeformationSpec(h=h, margin=margin)
        chk = check_deformation(sym, spec, grid)
        assert chk.agree
        agreements += 1

    # construction success implies the refined-grid check and the boundary match
    for entry, prim_key in ((unknot_entry, "unknot"), (sheared_01_entry, ("sheared_unknot", 0.1))):
        res = extend_h(entry.model, entry.slice, primitives[prim_key], margin=margin)
        assert res.ok
        assert res.max_h_plus_f < 1e-6
        spec = DeformationSpec(h=res.h, margin=margin)
        refined = grid_around_slice(entry.slice, per_axis=13, z_axis=65)
        chk = check_deformation(sym, spec, refined)
        assert chk.passed and chk.agree
    _report(7, f"deformation checks agree on {agreements} random specs + refined-grid soundness")


def test_criterion_08_reparametrization(unknot_entry, sheared_entries, sheared_01_entry, hopf_entry,
                                        projection_chords, shooting_chords, primitives):
    margin = 0.05
    cases = [(unknot_entry, projection_chords["unknot"], "unknot")]
    for c, entry in sheared_entries.items():
        cases.append((entry, projection_chords[("sheared_unknot", c)], ("sheared_unknot", c)))
    cases.append((sheared_01_entry, projection_chords[("sheared_unknot", 0.1)], ("sheared_unknot", 0.1)))
    worst = 0.0
    for entry, chords, key in cases:
        res = extend_h(entry.model, entry.slice, primitives[key], margin=margin)
        assert res.ok, key
        out = reeb_reparam_check(entry.model, entry.slice, res.h, chords)
        assert out["pass"], key
        worst = max(worst, out["max_endpoint_drift"])
    # sphere entry with the trivial admissible field: the rescaled flow is
    # the Reeb flow, so each chord's start must flow onto its end
    chords = shooting_chords["hopf_circle"]
    assert chords
    for chord in chords:
        landing = float(np.linalg.norm(hopf_entry.model.flow(chord.start_point, chord.length) - chord.end_point))
        assert landing <= 1e-6
        worst = max(worst, landing)
    assert worst < 1e-5
    _report(8, f"reparametrized-flow endpoint drift {worst:.2e} < 1e-5")


def test_criterion_09_chord_existence_smoke(projection_chords):
    # exact slices bounding the explicit filling family must report a chord
    assert len(projection_chords["unknot"]) >= 1
    for c in SHEAR_SWEEP:
        if c == 0.0:
            continue
        assert len(projection_chords[("sheared_unknot", c)]) >= 1, c
    _report(9, "chord existence on exact filling-family slices")


def test_criterion_10_integrator():
    exact = np.array([-1.0, 0.0])
    errors = []
    for steps in (64, 128):
        end = integrate_fixed(lambda y: np.array([-y[1], y[0]]), [1.0, 0.0], np.pi, steps)
        errors.append(np.linalg.norm(end - exact))
    order = float(np.log2(errors[0] / errors[1]))
    assert order >= 3.8

    model = StandardSphereModel(2)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(3):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        end = integrate_flow(model.reeb, p, np.pi, tol=1e-10)
        worst = max(worst, float(np.linalg.norm(end - p)))
    assert worst < 1e-8
    _report(10, f"integrator order {order:.2f} >= 3.8, flow closure {worst:.2e} < 1e-8")


def test_criterion_11_report_determinism(tmp_path):
    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            cli_main(args)
        return buf.getvalue()

    for name in catalog_list():
        data = {"slice": {"catalog": name, "params": {}}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        first = run(["collar", str(path)])
        second = run(["collar", str(path)])
        assert first == second, name
        assert first.encode() == second.encode(), name
    _report(11, "byte-identical collar reports on all catalog manifests")
