from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from reebkit import catalog_get, catalog_list, chords
from reebkit.chords import (
    ChordRecord,
    _capture_events,
    chords_projection,
    chords_shooting,
    dedup_chords,
)
from reebkit.errors import NewtonFailuresExceeded, SearchTooLong, WrongModel
from reebkit.models import StandardSphereModel, make_model
from reebkit.numerics import integrate_flow, newton_solve_stack
from reebkit.report import chord_table
from reebkit.slices import ParamSlice, _ambient_spacing, circle_factor, interval_factor, load_mesh_slice
from reebkit.spatial import GridIndex

TWO_PI = 2 * np.pi
# a search up to max_time with every stride-th node launching
Search = namedtuple("Search", "max_time stride", defaults=[chords.LAUNCH_STRIDE])


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


def test_projection_failures_exceeded_on_a_square_system(unknot_entry, monkeypatch):
    # in r3 a curve's projection system is square (two equations in two
    # unknowns): a seed that stops above tolerance failed, and more than
    # half failing means a bad mesh
    def unconverged(system, stack, residual_tol):
        result = newton_solve_stack(system, stack, residual_tol)
        return replace(result, converged=np.zeros_like(result.converged))

    monkeypatch.setattr(chords, "newton_solve_stack", unconverged)
    with pytest.raises(NewtonFailuresExceeded, match="projection seeds failed"):
        chords_projection(unknot_entry.model, unknot_entry.slice)


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


def test_hopf_fine_mesh_finds_antipodal_chords():
    # at 1024 nodes the capture radius (0.0123) is below 2 * 0.02, the
    # displacement of one step of the former sampled scan, which once
    # stepped over every capture ball here
    entry = catalog_get("hopf_circle", {"resolution": 1024})
    found = chords_shooting(entry.model, entry.slice, 2.0)
    assert found
    for chord in found:
        k = chord.length / (np.pi / 2)
        assert abs(k - round(k)) < 1e-6
        assert np.linalg.norm(chord.end_point + chord.start_point) < 1e-6


def test_search_determinism(unknot_entry):
    a = chords_projection(unknot_entry.model, unknot_entry.slice)
    b = chords_projection(unknot_entry.model, unknot_entry.slice)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.start_param, y.start_param)
        assert np.array_equal(x.end_param, y.end_param)
        assert x.length == y.length


def capture_events_reference(model, slc, max_time, capture_radius):
    """Reference for ``_capture_events``: the closed-form closest approach
    of every (launch, node) pair, one launch at a time, with no grid index;
    the windows of a launch are merged into runs by a loop.  It reads
    ``LAUNCH_STRIDE`` and ``MIN_CHORD_LENGTH`` when called, as the search
    does."""
    r, points = capture_radius, slc.points
    sphere = isinstance(model, StandardSphereModel)
    if sphere:
        z = points[:, 0::2] + 1j * points[:, 1::2]
        pairs = [(j, k) for j in range(z.shape[1]) for k in range(j + 1, z.shape[1])]
        cross = [np.sqrt(2) * z[:, j] * np.conj(z[:, k]) for j, k in pairs]
        key = np.stack([np.abs(z[:, j]) ** 2 for j in range(z.shape[1])] + [c.real for c in cross] + [c.imag for c in cross], axis=1)
        radius, armed = r * np.sqrt(2 - r * r / 2), np.arcsin(r)
    else:
        key, radius, armed = points[:, :-1], r, 2.0 * r
    events = []
    for launch in range(0, slc.mesh.n_nodes, chords.LAUNCH_STRIDE):
        d2 = np.zeros(len(points))
        for x in key.T:
            d2 += (x - x[launch]) ** 2
        near = np.flatnonzero(d2 <= radius * radius)
        if sphere:
            c = np.sum(z[launch] * np.conj(z[near]), axis=1)
            half = 0.5 * np.arccos(np.minimum((1 - r * r / 2) / np.abs(c), 1))
            first = (-np.angle(c) % (2 * np.pi)) / 2
            first = np.where(first <= armed, first + np.pi, first)
            times = [first[i] + np.pi * np.arange(int(max_time / np.pi) + 1) for i in range(len(near))]
        else:
            half = np.sqrt(r * r - d2[near])
            times = [[points[q, -1] - points[launch, -1]] for q in near]
        windows = sorted(
            (t - h, t + h, d2[q], t, q)
            for q, h, ts in zip(near, half, times)
            for t in ts
            if armed < t <= max_time
        )
        runs, reach = [], -np.inf
        for window in windows:
            if window[0] > reach:
                runs.append([])
            runs[-1].append(window)
            reach = max(reach, window[1])
        for run in runs:
            late = [(d, t, q) for _, _, d, t, q in run if t > chords.MIN_CHORD_LENGTH]
            if late:
                _, t, q = min(late)
                events.append((launch, t, q))
    return sorted(events, key=lambda e: (e[1], e[0]))


@pytest.fixture(scope="module")
def s3_curve_entry():
    """The curve (cos t, sin t, cos 2t, sin 2t) / sqrt 2 on S^3 at 48 nodes:
    its orbits close up at pi, where the passes of neighbouring nodes spread
    in time."""

    def immersion(w):
        t = w[..., 0]
        return np.stack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], axis=-1) / np.sqrt(2)

    slc = ParamSlice([circle_factor(TWO_PI)], immersion, resolution=[48])
    return SimpleNamespace(model=StandardSphereModel(2), slice=slc, expected=None)


@pytest.fixture(scope="module")
def s5_entry():
    """The band (cos u cos v, 0, sin u cos v, 0, sin v, 0), u a circle and
    v in [-1, 1], of the real 2-sphere in S^5 at 24 x 24 nodes: its orbits
    reach the antipodes at pi / 2."""

    def immersion(w):
        u, v = w[..., 0], w[..., 1]
        zero = np.zeros_like(u)
        return np.stack([np.cos(u) * np.cos(v), zero, np.sin(u) * np.cos(v), zero, np.sin(v), zero], axis=-1)

    slc = ParamSlice([circle_factor(TWO_PI), interval_factor(-1.0, 1.0)], immersion, resolution=[24, 24])
    return SimpleNamespace(model=StandardSphereModel(3), slice=slc, expected=None)


@pytest.fixture(scope="module")
def exact_torus_entry(exact_torus):
    model, slc, _ = exact_torus(24)
    return SimpleNamespace(model=model, slice=slc, expected=None)


SHOOTING_CASES = [
    ("hopf_entry", Search(2.0, stride=1)),
    ("hopf_entry", Search(2.0, stride=2)),
    ("hopf_entry", Search(2.0, stride=4)),
    ("unknot_entry", Search(3.0)),
    ("torus_entry", Search(3.0, stride=128)),
    ("unknot_entry", Search(6.0, stride=8)),  # beyond the slice's height
]
# more passes of each orbit (a Hopf circle returns every pi), S^5, and r5
CAPTURE_CASES = SHOOTING_CASES + [
    ("hopf_entry", Search(10.0, stride=3)),
    ("s3_curve_entry", Search(7.0, stride=1)),
    ("s5_entry", Search(4.0, stride=1)),
    ("exact_torus_entry", Search(3.0, stride=1)),
]


@pytest.mark.parametrize("entry_name, opts", CAPTURE_CASES)
def test_capture_events_match_loop(entry_name, opts, request, monkeypatch):
    entry = request.getfixturevalue(entry_name)
    slc = entry.slice
    capture_radius = 2.0 * _ambient_spacing(slc.points, slc.mesh)
    monkeypatch.setattr(chords, "LAUNCH_STRIDE", opts.stride)
    events = _capture_events(entry.model, slc, opts.max_time, capture_radius)
    if entry.expected is None:
        assert events
    else:
        assert bool(events) == (entry.expected.chord_count != 0)
    assert events == capture_events_reference(entry.model, slc, opts.max_time, capture_radius)


def _node_slice(*points):
    """A slice whose nodes are ``points``, one per node of an interval."""
    table = np.array(points)
    return ParamSlice(
        [interval_factor(0.0, 1.0)],
        lambda u: table[np.rint(u[..., 0] * (len(table) - 1)).astype(int)],
        resolution=[len(table)],
    )


@pytest.mark.parametrize("name", ["s3", "s5", "r3", "r5"])
def test_closest_approach_matches_sampled_flow(name, monkeypatch):
    # the orbit of p, sampled every 1e-4, comes closest to q at (d, t): the
    # closed form captures q from p at t, within a capture radius just
    # above d and not just below it
    model = make_model(name)
    sphere = isinstance(model, StandardSphereModel)
    rng = np.random.default_rng(22)
    ts = np.arange(0.0, np.pi, 1e-4)
    monkeypatch.setattr(chords, "LAUNCH_STRIDE", 1)
    for _ in range(10):
        p = rng.normal(size=model.ambient_dim)
        p = p / np.linalg.norm(p) if sphere else p
        q = model.flow(p, rng.uniform(1.0, 2.0)) + 0.05 * rng.normal(size=model.ambient_dim)
        q = q / np.linalg.norm(q) if sphere else q
        dist = np.linalg.norm(model.flow(p, ts) - q, axis=1)
        d, t = dist.min(), ts[dist.argmin()]
        slc = _node_slice(p, q)
        above = [e for e in _capture_events(model, slc, 3.1, d * (1 + 1e-3)) if e[::2] == (0, 1)]
        assert len(above) == 1 and abs(above[0][1] - t) <= 1e-4
        assert [e for e in _capture_events(model, slc, 3.1, d * (1 - 1e-3)) if e[::2] == (0, 1)] == []
        # the pass's window: q's sampled window within r = 1.5 d ends at
        # b, and a node on the orbit is within r for |s| <= w of its
        # time; a node on the orbit at b + w + gap is a run of its own
        # beyond the window, and joins q's run inside it
        r = 1.5 * d
        b = ts[dist <= r].max()
        w = ts[(ts < 1.0) & (np.linalg.norm(model.flow(p, ts) - p, axis=1) <= r)].max()  # before p's return at pi
        for gap, runs in ((1e-3, 2), (-1e-3, 1)):
            slc = _node_slice(p, q, model.flow(p, b + w + gap))
            assert len([e for e in _capture_events(model, slc, 3.1, r) if e[0] == 0]) == runs


def test_capture_skips_reentry_before_min_length(monkeypatch):
    # the chord of sheared_unknot at c = -0.6 runs from node 192 (t = 3 pi / 2)
    # up to node 64 (t = pi / 2), 4/3 + 2c = 2/15 long: the closed form
    # captures it at that time, which is a chord only while
    # MIN_CHORD_LENGTH stays below it
    entry = catalog_get("sheared_unknot", {"c": -0.6})
    events = _capture_events(entry.model, entry.slice, 1.0, 0.01)
    assert events == [(192, pytest.approx(2 / 15, abs=1e-15), 64)]
    monkeypatch.setattr(chords, "MIN_CHORD_LENGTH", 0.2)
    assert _capture_events(entry.model, entry.slice, 1.0, 0.01) == []


def test_capture_passes_are_bounded(hopf_entry):
    # a pair of nodes passes every pi: a count beyond every integer type
    # is refused before any pass is expanded
    with pytest.raises(SearchTooLong, match=f"exceed the bound of {chords.MAX_CAPTURE_PASSES}"):
        _capture_events(hopf_entry.model, hopf_entry.slice, 1e300, 0.05)


@pytest.mark.parametrize("entry_name, opts, capture_radius", [
    ("hopf_entry", Search(2.0, stride=1), None),
    ("unknot_entry", Search(3.0), None),
    ("unknot_entry", Search(3.0), 10.0),  # every (launch, node) pair is a candidate
])
def test_capture_queries_are_blocked(entry_name, opts, capture_radius, request, monkeypatch):
    # the launches are queried in blocks of at most MAX_CAPTURE_PASSES
    # candidate pairs, whatever the capture radius, and the blocks do not
    # change the events
    entry = request.getfixturevalue(entry_name)
    slc = entry.slice
    capture_radius = capture_radius or 2.0 * _ambient_spacing(slc.points, slc.mesh)
    monkeypatch.setattr(chords, "LAUNCH_STRIDE", opts.stride)
    want = _capture_events(entry.model, slc, opts.max_time, capture_radius)
    candidates = []
    query_ball = GridIndex.query_ball

    def recording(index, points, radius):
        candidates.append(len(points) * len(index.points))
        return query_ball(index, points, radius)

    monkeypatch.setattr(GridIndex, "query_ball", recording)
    monkeypatch.setattr(chords, "MAX_CAPTURE_PASSES", 2**12)
    assert _capture_events(entry.model, slc, opts.max_time, capture_radius) == want
    assert len(candidates) > 1 and max(candidates) <= 2**12


@pytest.mark.parametrize("capture_radius", [1.0, 1.5, 3.0])
def test_sphere_orbit_is_never_armed_beyond_unit_capture_radius(hopf_entry, capture_radius):
    # an orbit of the unit sphere stays within 2 of its start, so it never
    # leaves a ball of twice a capture radius of 1 or more
    assert _capture_events(hopf_entry.model, hopf_entry.slice, 10.0, capture_radius) == []


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
    capture_radius = 2.0 * _ambient_spacing(entry.slice.points, mesh)
    monkeypatch.setattr(chords, "LAUNCH_STRIDE", opts.stride)
    events = _capture_events(entry.model, entry.slice, opts.max_time, capture_radius)
    reps = precluster_loop(mesh, events, capture_radius)
    if entry_name == "hopf_entry":
        assert len(reps) < len(events)  # neighbouring launches merge
    seeds = []  # the Newton seeds of the kept events

    def recording_solve(system, stack, residual_tol):
        seeds.append(stack)
        return newton_solve_stack(system, stack, residual_tol)

    monkeypatch.setattr(chords, "newton_solve_stack", recording_solve)
    chords_shooting(entry.model, entry.slice, opts.max_time)
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


def test_chord_table_header(projection_chords, shooting_chords):
    # parameters, then points, then the length: one column per number
    for chords, dims, header in (
        (projection_chords["unknot"], (1, 3),
         "start_param_0,end_param_0,start_point_0,start_point_1,start_point_2,"
         "end_point_0,end_point_1,end_point_2,length"),
        (shooting_chords["hopf_circle"], (1, 4),
         "start_param_0,end_param_0,start_point_0,start_point_1,start_point_2,start_point_3,"
         "end_point_0,end_point_1,end_point_2,end_point_3,length"),
        (projection_chords["torus_r5"], (2, 5),
         "start_param_0,start_param_1,end_param_0,end_param_1,"
         + ",".join(f"start_point_{j}" for j in range(5)) + ","
         + ",".join(f"end_point_{j}" for j in range(5)) + ",length"),
    ):
        first, *rows = chord_table(chords, *dims).splitlines()
        assert first == header
        assert len(rows) == len(chords)
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
        assert [float(row.split(",")[-1]) for row in rows] == [float(f"{c.length:.9g}") for c in chords]


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
        assert _ambient_spacing(points, slc.mesh) == pytest.approx(looped, rel=1e-15)


def _edge_gather_spacing(points, mesh):
    """The median edge length gathered row by row over ``mesh.edges()``."""
    edges = mesh.edges()
    return float(np.median(np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1)))


def _assert_spacing_matches_edge_gather(slc):
    for points in (slc.points, slc.points[:, :-1]):
        assert _ambient_spacing(points, slc.mesh) == _edge_gather_spacing(points, slc.mesh)  # bit for bit


@pytest.mark.parametrize("name", catalog_list())
def test_ambient_spacing_matches_edge_gather_on_catalog(name):
    # grid differences, wrapped on circle factors, against the edge gather
    _assert_spacing_matches_edge_gather(catalog_get(name).slice)


@pytest.mark.parametrize("param_dim, periodic", [(1, [True]), (2, [False, True])])
def test_ambient_spacing_matches_edge_gather_on_mesh_files(model_mesh_files, param_dim, periodic):
    # a circle and an interval x circle strip, read from node tables
    for width in (3, 5, 8):
        _assert_spacing_matches_edge_gather(load_mesh_slice(model_mesh_files[param_dim, width], param_dim, periodic))
