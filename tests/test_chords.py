from dataclasses import replace

import numpy as np
import pytest

from reebkit import catalog_get, chords
from reebkit.chords import (
    ChordRecord,
    SearchOptions,
    _ambient_spacing,
    _capture_events,
    chords_projection,
    chords_shooting,
    dedup_chords,
)
from reebkit.errors import WrongModel
from reebkit.numerics import integrate_flow, newton_solve_stack
from reebkit.report import chord_table
from reebkit.spatial import GridIndex

TWO_PI = 2 * np.pi


def brute_force_double_points(slc, tol=5e-2, exclusion=0.5):
    """Independent oracle: scan all mesh pairs for near-equal projections."""
    proj = slc.points[:, :-1]
    hits = []
    for i in range(slc.mesh.n_nodes):
        for j in range(i + 1, slc.mesh.n_nodes):
            if np.linalg.norm(proj[i] - proj[j]) < tol:
                du = slc.mesh.param_distance(slc.mesh.params[i], slc.mesh.params[j])
                if du > exclusion:
                    hits.append((i, j))
    return hits


def test_unknot_single_chord(projection_chords, unknot_entry):
    found = projection_chords["unknot"]
    assert len(found) == 1
    chord = found[0]
    assert chord.length == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert chord.start_param[0] == pytest.approx(3 * np.pi / 2, abs=1e-6)
    assert chord.end_param[0] == pytest.approx(np.pi / 2, abs=1e-6)

    # brute-force oracle agrees: the double point exists and its height gap
    # at the closest mesh pair matches the chord length at mesh resolution
    hits = brute_force_double_points(unknot_entry.slice)
    assert hits
    gaps = [abs(unknot_entry.slice.points[j][-1] - unknot_entry.slice.points[i][-1]) for i, j in hits]
    assert min(abs(g - 4.0 / 3.0) for g in gaps) < 1e-3


def test_circle_no_chords(projection_chords, circle_entry):
    assert projection_chords["circle"] == []
    assert brute_force_double_points(circle_entry.slice) == []


def test_torus_no_chords(projection_chords):
    assert projection_chords["torus_r5"] == []


def test_sheared_chord_orientation(projection_chords):
    chord = projection_chords[("sheared_unknot", -0.5)][0]
    # heights: z(pi/2) = 1/6 (upper), z(3pi/2) = -1/6 (lower start)
    assert chord.start_param[0] == pytest.approx(3 * np.pi / 2, abs=1e-6)
    assert chord.start_point[-1] == pytest.approx(-1.0 / 6.0, abs=1e-6)
    assert chord.end_point[-1] == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert chord.length == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_sheared_family_length_law(projection_chords):
    for c in (-0.5, -0.25, 0.25, 0.5):
        found = projection_chords[("sheared_unknot", c)]
        assert len(found) == 1
        assert found[0].length == pytest.approx(4.0 / 3.0 + 2.0 * c, abs=1e-6)


def test_flow_landing_invariant(projection_chords, unknot_entry, sheared_entries):
    models = {"unknot": unknot_entry.model}
    models.update({("sheared_unknot", c): e.model for c, e in sheared_entries.items()})
    for key, model in models.items():
        for chord in projection_chords[key]:
            end = integrate_flow(model.reeb, chord.start_point, chord.length, tol=1e-10)
            assert np.linalg.norm(end - chord.end_point) < 1e-6


def test_endpoint_membership(projection_chords, unknot_entry):
    pts = unknot_entry.slice.points
    for chord in projection_chords["unknot"]:
        assert np.min(np.linalg.norm(pts - chord.start_point, axis=1)) < 1e-6 + 2e-2
        assert np.min(np.linalg.norm(pts - chord.end_point, axis=1)) < 1e-6 + 2e-2
        # exact membership through the immersion
        assert np.linalg.norm(unknot_entry.slice.immerse(chord.start_param) - chord.start_point) < 1e-12


def test_projection_requires_euclidean_model(hopf_entry):
    with pytest.raises(WrongModel):
        chords_projection(hopf_entry.model, hopf_entry.slice)


def test_method_agreement(projection_chords, shooting_chords):
    for key in ["unknot", "circle", "torus_r5", ("sheared_unknot", -0.5), ("sheared_unknot", 0.5)]:
        proj = projection_chords[key]
        shot = shooting_chords[key]
        assert len(proj) == len(shot)
        for a, b in zip(proj, shot):
            assert np.allclose(a.start_param, b.start_param, atol=1e-4)
            assert np.allclose(a.end_param, b.end_param, atol=1e-4)
            assert abs(a.length - b.length) < 1e-5


def test_hopf_shooting_chords(shooting_chords, hopf_entry):
    found = shooting_chords["hopf_circle"]
    assert found  # the antipodal family must be detected
    model = hopf_entry.model
    for chord in found:
        # return times of the rotation flow are multiples of pi/2
        k = chord.length / (np.pi / 2)
        assert abs(k - round(k)) < 1e-6
        end = integrate_flow(model.reeb, chord.start_point, chord.length, tol=1e-10)
        assert np.linalg.norm(end - chord.end_point) < 1e-6
    assert any(abs(c.length - np.pi / 2) < 1e-6 for c in found)


def test_hopf_antipodal_structure(shooting_chords):
    for chord in shooting_chords["hopf_circle"]:
        if abs(chord.length - np.pi / 2) < 1e-6:
            gap = abs(chord.end_param[0] - chord.start_param[0])
            gap = min(gap, TWO_PI - gap)
            assert gap == pytest.approx(np.pi, abs=1e-5)


def test_search_determinism(unknot_entry):
    a = chords_projection(unknot_entry.model, unknot_entry.slice)
    b = chords_projection(unknot_entry.model, unknot_entry.slice)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.start_param, y.start_param)
        assert np.array_equal(x.end_param, y.end_param)
        assert x.length == y.length


def capture_events_loop(model, slc, opts, capture_radius):
    """Reference for ``_capture_events``: one trajectory at a time."""
    mesh = slc.mesh
    launches = list(range(0, mesh.n_nodes, max(1, opts.launch_stride)))
    states = slc.points[launches].copy()
    idx = GridIndex(slc.points, cell_size=capture_radius)
    lo = slc.points.min(axis=0)
    hi = slc.points.max(axis=0)
    escape = float(np.linalg.norm(hi - lo)) + 4.0 * capture_radius
    n = len(launches)
    armed = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    inside = np.full(n, -1.0)
    best = [None] * n
    events = []

    def flush(i):
        if best[i] is not None:
            events.append(best[i])
            best[i] = None

    t = 0.0
    while t < opts.max_time and np.any(alive):
        states[alive] = model.flow(states[alive], opts.monitor_dt)
        t += opts.monitor_dt
        for k in range(n):
            if not alive[k]:
                continue
            p = states[k]
            box_gap = np.linalg.norm(np.maximum(lo - p, 0) + np.maximum(p - hi, 0))
            if box_gap > escape:
                flush(k)
                alive[k] = False
                continue
            if not armed[k]:
                if np.linalg.norm(p - slc.points[launches[k]]) > 2.0 * capture_radius:
                    armed[k] = True
                continue
            if box_gap > capture_radius:
                flush(k)
                inside[k] = -1.0
                continue
            (node,), (dist,) = idx.nearest_within(p[None], capture_radius)
            if node < 0:
                flush(k)
                inside[k] = -1.0
                continue
            if t <= opts.min_length:
                continue
            if inside[k] < 0 or dist < inside[k]:
                inside[k] = dist
                best[k] = (launches[k], t, node)
    for k in range(n):
        flush(k)
    return events


SHOOTING_CASES = [
    ("hopf_entry", SearchOptions(max_time=2.0, launch_stride=1)),
    ("hopf_entry", SearchOptions(max_time=2.0, launch_stride=2)),
    ("hopf_entry", SearchOptions(max_time=2.0, launch_stride=4)),
    ("unknot_entry", SearchOptions(max_time=3.0)),
    ("torus_entry", SearchOptions(max_time=3.0, launch_stride=128)),
]


@pytest.mark.parametrize("entry_name, opts", SHOOTING_CASES)
def test_capture_events_match_loop(entry_name, opts, request):
    entry = request.getfixturevalue(entry_name)
    slc = entry.slice
    capture_radius = 2.0 * _ambient_spacing(slc.points, slc.mesh.edges())
    events = _capture_events(entry.model, slc, opts, capture_radius)
    assert bool(events) == (entry.expected.chord_count != 0)
    assert events == capture_events_loop(entry.model, slc, opts, capture_radius)


def test_capture_skips_reentry_before_min_length():
    # the chord of sheared_unknot at c = -0.6 is 2/15 long: its launch is
    # armed after two monitor steps and re-enters the capture radius at
    # t = 0.14, which is a chord only while min_length stays below it
    entry = catalog_get("sheared_unknot", {"c": -0.6})
    short = SearchOptions(max_time=1.0, min_length=1e-4)
    events = _capture_events(entry.model, entry.slice, short, 0.01)
    assert [(u, round(t, 9)) for u, t, _ in events] == [(192, 0.14)]
    assert _capture_events(entry.model, entry.slice, replace(short, min_length=0.2), 0.01) == []


def precluster_loop(mesh, events, capture_radius):
    """Reference for the event pre-clustering of ``chords_shooting``: each
    event against every kept one."""
    reps, taken = [], []
    for node_u, t_hit, node_v in events:
        key = np.concatenate([mesh.params[node_u], [t_hit], mesh.params[node_v]])
        if any(
            mesh.param_distance(key[: mesh.param_dim], other[: mesh.param_dim]) < 6.0 * mesh.max_spacing()
            and abs(key[mesh.param_dim] - other[mesh.param_dim]) < 8.0 * capture_radius
            for other in taken
        ):
            continue
        taken.append(key)
        reps.append((node_u, t_hit, node_v))
    return reps


@pytest.mark.parametrize("entry_name, opts", SHOOTING_CASES)
def test_preclustering_matches_loop(entry_name, opts, request, monkeypatch):
    entry = request.getfixturevalue(entry_name)
    mesh = entry.slice.mesh
    capture_radius = 2.0 * _ambient_spacing(entry.slice.points, mesh.edges())
    events = _capture_events(entry.model, entry.slice, opts, capture_radius)
    reps = precluster_loop(mesh, events, capture_radius)
    if entry_name == "hopf_entry":
        assert len(reps) < len(events)  # neighbouring launches merge
    seeds = []  # the Newton seeds of the kept events

    def recording_solve(system, stack, newton_opts):
        seeds.append(stack)
        return newton_solve_stack(system, stack, newton_opts)

    monkeypatch.setattr(chords, "newton_solve_stack", recording_solve)
    chords_shooting(entry.model, entry.slice, opts)
    want = [[*mesh.params[u], t, *mesh.params[v]] for u, t, v in reps]
    assert np.array_equal(seeds[0], np.reshape(want, (len(reps), 2 * mesh.param_dim + 1)))


def _mk(start, end, length, residual=0.0):
    return ChordRecord(
        start_param=np.array([start]),
        end_param=np.array([end]),
        start_point=np.array([start, 0.0, 0.0]),
        end_point=np.array([end, 0.0, length]),
        length=length,
        residual=residual,
    )


def test_dedup_merges_jittered_copies():
    a = _mk(1.0, 2.0, 0.5, residual=1e-12)
    b = _mk(1.0 + 1e-9, 2.0 - 1e-9, 0.5 + 1e-9, residual=1e-10)
    out = dedup_chords([a, b], cluster_radius=1e-4)
    assert len(out) == 1
    assert out[0].residual == 1e-12  # best residual wins


def test_dedup_empty():
    assert dedup_chords([]) == []


def test_dedup_keeps_distinct_lengths():
    out = dedup_chords([_mk(1.0, 2.0, 0.5), _mk(1.0, 2.0, 1.5)], cluster_radius=1e-4)
    assert len(out) == 2
    assert out[0].length < out[1].length  # canonical sort


def test_dedup_cluster_collapse():
    rng = np.random.default_rng(0)
    records = [
        _mk(1.0 + 1e-8 * rng.normal(), 2.0 + 1e-8 * rng.normal(), 0.5 + 1e-8 * rng.normal(), residual=abs(rng.normal()))
        for _ in range(100)
    ]
    assert len(dedup_chords(records, cluster_radius=1e-4)) == 1


def test_dedup_matches_greedy_all_pairs():
    # 120 records with lengths about a quarter cluster radius apart and
    # parameters jittered by up to one radius: clusters chain, so which
    # records survive depends on the residual order
    rng = np.random.default_rng(5)
    r = 1e-4
    records = [
        _mk(1.0 + r * rng.uniform(-1, 1), 2.0 + r * rng.uniform(-1, 1), 0.5 + r * rng.uniform(0, 30), rng.uniform())
        for _ in range(120)
    ]

    def distance(a, b):
        return max(
            np.max(np.abs(a.start_param - b.start_param)),
            np.max(np.abs(a.end_param - b.end_param)),
            abs(a.length - b.length),
        )

    kept = []  # reference: compare each record with every kept one
    for rec in sorted(records, key=lambda x: (x.residual, x.sort_key())):
        if all(distance(rec, other) > r for other in kept):
            kept.append(rec)
    out = dedup_chords(records, cluster_radius=r)
    assert 10 < len(out) < len(records)
    assert [id(x) for x in out] == [id(x) for x in sorted(kept, key=ChordRecord.sort_key)]


def test_found_chords_are_pure(projection_chords, shooting_chords):
    # a slice is one connected grid: the chord table prints every chord as
    # pure, from component 0 to component 0
    for chords, dims in ((projection_chords["unknot"], (1, 3)), (shooting_chords["hopf_circle"], (1, 4))):
        assert chords
        header, *rows = chord_table(chords, *dims).splitlines()
        assert header.split(",")[-4:] == ["pure", "start_component", "end_component", "action"]
        assert len(rows) == len(chords)
        assert all(row.split(",")[-4:-1] == ["true", "0", "0"] for row in rows)


def test_sort_key_ignores_length_noise(shooting_chords):
    # hopf_circle chord lengths all equal pi/2 up to Newton noise; jitter
    # below the printed precision must not reorder the rows
    chords = shooting_chords["hopf_circle"]
    assert len(chords) > 2
    order = [c.start_param.tolist() for c in chords]
    assert order == sorted(order)
    rng = np.random.default_rng(7)
    for _ in range(5):
        jitter = rng.choice([-1e-11, 1e-11], size=len(chords))
        noisy = [replace(c, length=np.pi / 2 + d) for c, d in zip(chords, jitter)]
        assert [c.start_param.tolist() for c in sorted(noisy, key=ChordRecord.sort_key)] == order


@pytest.mark.parametrize("entry_name", ["unknot_entry", "torus_entry"])
def test_ambient_spacing_matches_loop(entry_name, request):
    slc = request.getfixturevalue(entry_name).slice
    edges = slc.mesh.edges()
    for points in (slc.points, slc.points[:, :-1]):
        looped = np.median([np.linalg.norm(points[a] - points[b]) for a, b in edges.tolist()])
        assert _ambient_spacing(points, edges) == pytest.approx(looped, rel=1e-15)
