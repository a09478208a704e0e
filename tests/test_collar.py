import numpy as np
import pytest

from reebkit.chords import ChordRecord
from reebkit.collar import (
    Classification,
    Convention,
    FiberBumpField,
    Verdict,
    _build_profiles,
    _eval_profile,
    check_deformation,
    chord_action,
    classify_chord,
    directional_dh_reeb,
    extend_h,
    feasibility_oracle_1d,
    grid_around_slice,
    reeb_reparam_check,
)
from reebkit.errors import MissingPrimitive, ReparamDegenerate
from reebkit.models import DeformationSpec, RhoProfile, StandardRModel, SymplectizationModel, liouville_deformed


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def _synthetic_chord(length):
    return ChordRecord(
        start_param=np.array([0.0]),
        end_param=np.array([1.0]),
        start_point=np.zeros(3),
        end_point=np.array([0.0, 0.0, length]),
        length=length,
    )


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def test_action_unknot_zero(projection_chords, primitives):
    chord = projection_chords["unknot"][0]
    assert abs(chord_action(primitives["unknot"], [chord])[0]) < 1e-8


def test_action_sheared_values(projection_chords, primitives):
    chord = projection_chords[("sheared_unknot", -0.5)][0]
    assert chord_action(primitives[("sheared_unknot", -0.5)], [chord])[0] == pytest.approx(1.0, abs=1e-6)
    chord = projection_chords[("sheared_unknot", 0.1)][0]
    assert chord_action(primitives[("sheared_unknot", 0.1)], [chord])[0] == pytest.approx(-0.2, abs=1e-6)


def test_action_gauge_invariance(projection_chords, primitives):
    chord = projection_chords[("sheared_unknot", -0.5)][0]
    f = primitives[("sheared_unknot", -0.5)]
    base = chord_action(f, [chord])[0]
    shifted = chord_action(f.shifted(42.0), [chord])[0]
    assert abs(base - shifted) < 1e-9


def test_action_requires_primitive():
    with pytest.raises(MissingPrimitive):
        chord_action(None, [_synthetic_chord(1.0)])
    with pytest.raises(MissingPrimitive):
        chord_action(None, [])


def test_action_of_no_chords(primitives):
    actions = chord_action(primitives["unknot"], [])
    assert isinstance(actions, np.ndarray)
    assert actions.shape == (0,)


def test_legendrian_zero_action(projection_chords, shooting_chords, primitives):
    # slices with vanishing pullback have zero-action chords
    for chord in projection_chords["unknot"]:
        assert abs(chord_action(primitives["unknot"], [chord])[0]) < 1e-6
    for chord in shooting_chords["hopf_circle"]:
        assert abs(chord_action(primitives["hopf_circle"], [chord])[0]) < 1e-6


# ---------------------------------------------------------------------------
# classification and the 1-D oracle
# ---------------------------------------------------------------------------


def test_classify_unknot_long_both():
    chord = _synthetic_chord(4.0 / 3.0)
    for conv in Convention:
        assert classify_chord(chord, 0.0, conv) == Classification.LONG


def test_classify_sheared_disagreement():
    chord = _synthetic_chord(1.0 / 3.0)
    assert classify_chord(chord, 1.0, Convention.DIRECT) == Classification.SMALL
    assert classify_chord(chord, 1.0, Convention.FEASIBILITY) == Classification.LONG


def test_classify_sheared_01_long_both():
    chord = _synthetic_chord(23.0 / 15.0)  # 4/3 + 0.2
    for conv in Convention:
        assert classify_chord(chord, -0.2, conv) == Classification.LONG


def test_oracle_examples():
    assert feasibility_oracle_1d(1.0, 0.0, 0.0, 0.0) is True
    assert feasibility_oracle_1d(1.0, 0.0, -2.0, 0.0) is False
    # sheared c=-0.5 chord with h = -f: start value 0.5... -(-0.5) flips sign
    assert feasibility_oracle_1d(1.0 / 3.0, -0.5, 0.5, 0.0) is True


def test_oracle_matches_feasibility_classification():
    rng = np.random.default_rng(123)
    cases = []
    for _ in range(1000):
        length = rng.uniform(0.01, 3.0)
        if rng.uniform() < 0.3:
            action = -length + rng.normal(scale=0.05)  # stress the boundary
        else:
            action = rng.uniform(-4.0, 4.0)
        chord = _synthetic_chord(length)
        cls = classify_chord(chord, action, Convention.FEASIBILITY)
        # prescriptions h = -f make h_end - h_start equal the action
        feasible = feasibility_oracle_1d(length, -0.0, action, 0.0)
        assert (cls == Classification.LONG) == feasible
        cases.append((length, action, feasible))
    # the array form decides every case at once, as the scalar calls did
    lengths, actions, feasible = map(np.array, zip(*cases))
    assert np.array_equal(feasibility_oracle_1d(lengths, np.zeros(len(cases)), actions, 0.0), feasible)
    with pytest.raises(ValueError):
        feasibility_oracle_1d(np.array([1.0, 0.0]), 0.0, 0.0)


def _build_profile(zs, vs, margin):
    """One profile from the stacked builder."""
    return _build_profiles(zs[None], vs[None], np.array([len(zs)]), margin, runway=1.0)[0]


def test_oracle_against_constructed_profile():
    # feasible cases must yield an explicit profile whose sampled slope
    # respects the bound; infeasible cases violate it by the mean value bound
    rng = np.random.default_rng(7)
    margin = 0.05
    for _ in range(200):
        length = rng.uniform(0.1, 2.0)
        v0, v1 = rng.uniform(-1.5, 1.5, size=2)
        ok = feasibility_oracle_1d(length, v0, v1, margin)
        if ok:
            profile = _build_profile(np.array([0.0, length]), np.array([v0, v1]), margin)
            z0, z1 = profile[1, :2]  # the prescribed span
            zs = np.linspace(z0, z1, 400)
            vals = _eval_profile(profile, zs)
            slopes = np.diff(vals) / np.diff(zs)
            assert slopes.min() > -1.0 + margin - 1e-9
            assert abs(float(_eval_profile(profile, z0)) - v0) < 1e-12
            assert abs(float(_eval_profile(profile, z1)) - v1) < 1e-12
        else:
            assert (v1 - v0) / length <= -1.0 + margin


def _eval_profile_loop(profile, z):
    """One height, piece by piece: the evaluation the stacked one replaced."""
    if z <= profile[0, 0] or z >= profile[-1, 1]:
        return 0.0
    for z0, z1, v0, v1, blend in profile:
        if z <= z1:
            u = np.clip((z - z0) / (z1 - z0), 0.0, 1.0)
            return float(v0 + (v1 - v0) * ((1.0 - blend) * u + blend * _smoothstep(u)))


def test_eval_profile_matches_piece_loop():
    rng = np.random.default_rng(11)
    counts = np.array([1, 2, 3, 5])
    zs, vs = np.zeros((2, len(counts), counts.max()))
    profiles, heights = [], []
    for row, k in enumerate(counts):
        zs[row, :k] = np.sort(rng.uniform(-2.0, 2.0, size=k))
        vs[row, :k] = rng.uniform(-1.0, 1.0, size=k)
        profile = _build_profile(zs[row, :k], vs[row, :k], 0.05)
        assert profile.shape == (k + 1, 5)
        # breakpoints, points inside every piece, and points beyond the span
        z = np.concatenate([profile[:, 0], profile[:, 1], rng.uniform(-6.0, 6.0, size=200)])
        assert np.array_equal(_eval_profile(profile, z), [_eval_profile_loop(profile, h) for h in z])
        profiles.append(profile)
        heights.append(z)
    # profiles of different lengths built together, their last rows repeated
    stack = _build_profiles(zs, vs, counts, 0.05, runway=1.0)
    assert stack.shape == (len(counts), counts.max() + 1, 5)
    for profile, padded, z in zip(profiles, stack, heights):
        assert np.array_equal(padded[: len(profile)], profile)
        assert np.array_equal(padded[len(profile) :], np.broadcast_to(profile[-1], padded[len(profile) :].shape))
        assert np.array_equal(_eval_profile(padded, z), _eval_profile(profile, z))


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------


def test_extend_h_unknot(unknot_entry, primitives):
    res = extend_h(unknot_entry.model, unknot_entry.slice, primitives["unknot"], margin=0.05)
    assert res.ok
    assert res.max_h_plus_f < 1e-6
    assert res.min_slope > -0.95


def test_extend_h_sheared_01(sheared_01_entry, primitives):
    res = extend_h(sheared_01_entry.model, sheared_01_entry.slice, primitives[("sheared_unknot", 0.1)], margin=0.05)
    assert res.ok
    assert res.max_h_plus_f < 1e-6
    # chord fiber descends by 0.2 over length 23/15; interpolant min slope
    # is bounded by 1.875x the mean slope and by the tail decay
    assert -0.95 < res.min_slope <= -0.2 / (23.0 / 15.0) + 1e-9


def test_extend_h_sheared_neg05_feasible(sheared_entries, primitives):
    # prescriptions ascend along the chord fiber (delta h = +1.0), so the
    # construction succeeds even though the direct convention calls it small
    res = extend_h(sheared_entries[-0.5].model, sheared_entries[-0.5].slice, primitives[("sheared_unknot", -0.5)], margin=0.05)
    assert res.ok


def test_extend_h_obstructed_synthetic(sheared_entries, primitives):
    # scaling the primitive forces the fiber drop below the oracle bound:
    # drop K over length 7/3 is infeasible once K >= 0.95 * 7/3
    entry = sheared_entries[0.5]
    f = primitives[("sheared_unknot", 0.5)]
    scale = 2.0 * (7.0 / 3.0)  # prescribed drop equals 2x the length
    scaled = f.shifted(0.0)
    scaled.values = f.values * scale
    res = extend_h(entry.model, entry.slice, scaled, margin=0.05)
    assert not res.ok
    assert res.obstructions
    lengths = [o.length for o in res.obstructions]
    assert min(abs(l - 7.0 / 3.0) for l in lengths) < 0.05
    params = sorted([res.obstructions[0].start_param[0], res.obstructions[0].end_param[0]])
    assert params[0] == pytest.approx(np.pi / 2, abs=0.1)
    assert params[1] == pytest.approx(3 * np.pi / 2, abs=0.1)


def test_extend_h_oracle_equivalence_under_scaling(sheared_entries, primitives):
    # obstruction happens exactly when the chord-level oracle fails
    entry = sheared_entries[0.5]
    f = primitives[("sheared_unknot", 0.5)]
    length = 7.0 / 3.0
    margin = 0.05
    for scale in (0.5, 1.0, 2.0, 2.2, 2.3, 3.0, 5.0):
        scaled = f.shifted(0.0)
        scaled.values = f.values * scale
        res = extend_h(entry.model, entry.slice, scaled, margin=margin)
        h_start = -scale * 0.5 * np.sin(3 * np.pi / 2)
        h_end = -scale * 0.5 * np.sin(np.pi / 2)
        assert res.ok == feasibility_oracle_1d(length, h_start, h_end, margin)


def test_extend_h_success_implies_refined_check(sheared_01_entry, primitives):
    model = sheared_01_entry.model
    slc = sheared_01_entry.slice
    res = extend_h(model, slc, primitives[("sheared_unknot", 0.1)], margin=0.05)
    assert res.ok
    sym = SymplectizationModel(model)
    spec = DeformationSpec(h=res.h, rho=RhoProfile(0.2), margin=0.05)
    grid = grid_around_slice(slc, per_axis=13, z_axis=65)  # 2x-refined
    chk = check_deformation(sym, spec, grid)
    assert chk.passed
    assert chk.agree


# ---------------------------------------------------------------------------
# deformation checks
# ---------------------------------------------------------------------------


def test_fiber_field_stack_matches_per_point_calls(sheared_01_entry, primitives):
    slc = sheared_01_entry.slice
    prim = primitives[("sheared_unknot", 0.1)]
    grid = grid_around_slice(slc, per_axis=7, z_axis=33)
    for pts in (slc.points, grid):
        stacked = FiberBumpField(slc, prim, margin=0.05, runway=1.0)(pts)
        single = FiberBumpField(slc, prim, margin=0.05, runway=1.0)
        assert np.array_equal(stacked, [single(p) for p in pts])
    shaped = FiberBumpField(slc, prim, margin=0.05, runway=1.0)(grid.reshape(7, 7, 33, 3))
    assert np.array_equal(shaped, stacked.reshape(7, 7, 33))


def test_fiber_table_growth_matches_one_call(sheared_01_entry, primitives):
    # grid shadows first, then node shadows: the later profiles are wider,
    # so the table widens between calls
    slc = sheared_01_entry.slice
    prim = primitives[("sheared_unknot", 0.1)]
    grid = grid_around_slice(slc, per_axis=7, z_axis=5)
    calls = np.array_split(grid, 3) + np.array_split(slc.points, 2)
    grown = FiberBumpField(slc, prim, margin=0.05, runway=1.0)
    values, widths = [], []
    for pts in calls:
        values.append(grown(pts))
        widths.append(grown.profiles.shape[1])
    assert len(set(widths)) > 1
    assert len(grown.bumps) == len(grown.profiles) == len(grown.reps)
    fresh = FiberBumpField(slc, prim, margin=0.05, runway=1.0)
    assert np.array_equal(np.concatenate(values), fresh(np.concatenate(calls)))
    assert np.array_equal(grown(np.concatenate(calls)), fresh(np.concatenate(calls)))


def _per_point_minima(sym, spec, grid):
    """check_deformation's two minima, one grid point at a time."""
    min_dh = min(float(directional_dh_reeb(sym.base, spec.h, p)) for p in grid)
    min_dt = min(float(liouville_deformed(sym, spec, 1.0, p)[0]) for p in grid)
    return min_dh, min_dt


def test_check_deformation_matches_per_point_loop(unknot_entry, sheared_01_entry, primitives):
    sym = SymplectizationModel(StandardRModel(2))
    slc = sheared_01_entry.slice
    prim = primitives[("sheared_unknot", 0.1)]
    # (profile maker, grid): the constructed profile, a fresh field per
    # evaluation path, then random profiles drawn as in criterion 07
    cases = [(lambda: extend_h(sym.base, slc, prim).h, grid_around_slice(slc, per_axis=5, z_axis=17))]
    rng = np.random.default_rng(99)
    for _ in range(5):
        a, b, q = rng.uniform(-1.6, 0.4), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
        k1, k2, ph1, ph2 = rng.uniform(0, 2 * np.pi, size=4)

        def h(p, a=a, b=b, q=q, k1=k1, k2=k2, ph1=ph1, ph2=ph2):
            return a * p[..., 2] + b * np.sin(k1 * p[..., 0] + ph1) * np.cos(k2 * p[..., 1] + ph2) * np.sin(q * p[..., 2])

        cases.append((lambda h=h: h, grid_around_slice(unknot_entry.slice, per_axis=5, z_axis=21)))
    for make_h, grid in cases:
        chk = check_deformation(sym, DeformationSpec(h=make_h(), rho=RhoProfile(0.2)), grid)
        loop = _per_point_minima(sym, DeformationSpec(h=make_h(), rho=RhoProfile(0.2)), grid)
        assert (chk.min_dh_reeb, chk.min_dt_liouville) == loop


def test_directional_dh_reeb_calls_h_once(sheared_01_entry):
    calls = []

    def h(p):
        calls.append(p.shape)
        return -0.5 * p[..., 2] + 0.1 * np.sin(p[..., 0])

    model = sheared_01_entry.model
    grid = grid_around_slice(sheared_01_entry.slice, per_axis=5, z_axis=9).reshape(5, 5, 9, 3)
    for pts in (grid, grid[0, 0, 0]):
        calls.clear()
        dh = directional_dh_reeb(model, h, pts)
        assert calls == [(2, *pts.shape)]
        assert dh.shape == pts.shape[:-1]
        assert np.allclose(dh, -0.5, atol=1e-8)


def test_check_deformation_trivial(unknot_entry):
    sym = SymplectizationModel(unknot_entry.model)
    chk = check_deformation(sym, DeformationSpec.trivial(), grid_around_slice(unknot_entry.slice))
    assert chk.min_dh_reeb == 0.0
    assert chk.min_dt_liouville == 1.0
    assert chk.passed


def test_check_deformation_linear_profile(unknot_entry):
    delta = 0.2
    sym = SymplectizationModel(unknot_entry.model)
    spec = DeformationSpec(h=lambda p: -(1 - delta) * p[..., 2], rho=RhoProfile(0.2), margin=0.05)
    chk = check_deformation(sym, spec, grid_around_slice(unknot_entry.slice, 5, 17))
    assert chk.min_dh_reeb == pytest.approx(-(1 - delta), abs=1e-6)
    assert chk.passed
    assert chk.agree


def test_check_deformation_steep_profile_fails_both(unknot_entry):
    sym = SymplectizationModel(unknot_entry.model)
    spec = DeformationSpec(h=lambda p: -2.0 * p[..., 2], rho=RhoProfile(0.2), margin=0.05)
    chk = check_deformation(sym, spec, grid_around_slice(unknot_entry.slice, 5, 17))
    assert not chk.pass_dh
    assert not chk.pass_dt
    assert chk.agree


# ---------------------------------------------------------------------------
# reparametrized flow
# ---------------------------------------------------------------------------


def test_reparam_trivial(unknot_entry, projection_chords):
    out = reeb_reparam_check(unknot_entry.model, unknot_entry.slice, None, projection_chords["unknot"])
    assert out["pass"]
    assert out["max_endpoint_drift"] < 1e-8
    assert out["rescaled_times"][0] == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_reparam_bump_changes_time_not_endpoint(unknot_entry, projection_chords):
    def h(p):
        r2 = p[..., 0] ** 2 + p[..., 1] ** 2
        planar = 1.0 - _smoothstep((np.sqrt(r2) - 0.2) / 0.3)
        ramp = _smoothstep((p[..., 2] + 0.9) / 1.5)  # asymmetric along the chord
        return 0.3 * planar * ramp

    out = reeb_reparam_check(unknot_entry.model, unknot_entry.slice, h, projection_chords["unknot"])
    assert out["pass"]
    assert out["max_endpoint_drift"] < 1e-5
    assert abs(out["rescaled_times"][0] - 4.0 / 3.0) > 1e-3  # flow time changed


def test_reparam_degenerate(unknot_entry, projection_chords):
    h = lambda p: -np.sin(p[..., 2])  # dh(Reeb) = -cos z hits -1 at the chord midpoint
    with pytest.raises(ReparamDegenerate):
        reeb_reparam_check(unknot_entry.model, unknot_entry.slice, h, projection_chords["unknot"])


# ---------------------------------------------------------------------------
# aggregated verdicts
# ---------------------------------------------------------------------------


def test_collar_unknot(collar_reports):
    rep = collar_reports["unknot"]
    assert rep.verdict == Verdict.COLLARABLE
    assert len(rep.chords) == 1
    assert rep.chords[0]["class_direct"] == "Long"
    assert rep.chords[0]["class_feasibility"] == "Long"
    assert rep.h_diagnostics["deformation_pass"]


def test_collar_circle_non_exact(collar_reports):
    rep = collar_reports["circle"]
    assert rep.verdict == Verdict.NON_EXACT
    assert rep.periods[0] == pytest.approx(np.pi, abs=1e-6)


def test_collar_torus_non_exact(collar_reports):
    rep = collar_reports["torus_r5"]
    assert rep.verdict == Verdict.NON_EXACT
    assert np.allclose(rep.periods, [np.pi, np.pi], atol=1e-6)


def test_collar_vertical_segment(collar_reports):
    rep = collar_reports["vertical_segment"]
    assert rep.verdict == Verdict.NOT_A_SLICE
    assert not rep.checks["transverse"]["pass"]


def test_collar_warped_torus(collar_reports):
    rep = collar_reports["warped_torus"]
    assert rep.verdict == Verdict.NOT_A_SLICE
    assert not rep.checks["closed"]["pass"]
    assert rep.checks["closed"]["max_residual"] > 0.1


def test_collar_sheared_convention_split(collar_reports):
    direct = collar_reports[("sheared_unknot", -0.5)]
    assert direct.verdict == Verdict.SCHEME_OBSTRUCTED
    assert direct.conventions["small_direct"] == 1
    assert direct.conventions["small_feasibility"] == 0
    assert direct.conventions["disagreements"] == [0]
    assert direct.chords[0]["conventions_disagree"]
    assert "NOT concluded" in direct.note

    feas = collar_reports[("sheared_unknot", -0.5, "feasibility")]
    assert feas.verdict == Verdict.COLLARABLE


def test_collar_sheared_01(collar_reports):
    rep = collar_reports[("sheared_unknot", 0.1)]
    assert rep.verdict == Verdict.COLLARABLE
    assert rep.chords[0]["action"] == pytest.approx(-0.2, abs=1e-6)


def test_collar_hopf_circle(collar_reports):
    rep = collar_reports["hopf_circle"]
    assert rep.verdict == Verdict.COLLARABLE
    assert rep.h_diagnostics["constructed"]
    assert rep.h_diagnostics.get("trivial")
    assert all(c["class_direct"] == "Long" for c in rep.chords)


def test_collar_verdict_consistency(collar_reports):
    # Collarable only without active-convention small chords
    for key, rep in collar_reports.items():
        if rep.verdict == Verdict.COLLARABLE:
            active = rep.conventions["active"]
            small = rep.conventions["small_direct" if active == "direct" else "small_feasibility"]
            assert small == 0
            assert rep.h_diagnostics["constructed"]


def test_failed_reparam_check_blocks_collarable(unknot_entry, monkeypatch):
    from reebkit import collar

    opts = collar.CollarOptions(search=collar.SearchOptions(max_time=3.0))
    assert collar.collar_report(unknot_entry.model, unknot_entry.slice, opts).verdict == Verdict.COLLARABLE
    failing = lambda *args, **kwargs: {"max_endpoint_drift": 1.0, "pass": False, "rescaled_times": []}
    monkeypatch.setattr(collar, "reeb_reparam_check", failing)
    report = collar.collar_report(unknot_entry.model, unknot_entry.slice, opts)
    assert report.h_diagnostics["reparam_pass"] is False
    assert report.verdict != Verdict.COLLARABLE
