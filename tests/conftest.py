"""Session-scoped fixtures: catalog entries and chord searches are built
once and shared, since the searches dominate suite runtime.

Hypothesis runs under the ``ci`` profile: derandomized, so every checkout
draws the same examples, with no example database and no deadline."""

import numpy as np
import pytest
from hypothesis import settings

from reebkit import catalog_get, chords_projection, chords_shooting, primitive
from reebkit import chords as chords_module
from reebkit.models import StandardRModel
from reebkit.numerics import newton_solve_stack
from reebkit.slices import ParamSlice, circle_factor

settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.load_profile("ci")

SHEAR_SWEEP = (-0.5, -0.25, 0.0, 0.25, 0.5)


@pytest.fixture(scope="session")
def unknot_entry():
    return catalog_get("unknot")


@pytest.fixture(scope="session")
def circle_entry():
    return catalog_get("circle")


@pytest.fixture(scope="session")
def torus_entry():
    return catalog_get("torus_r5")


@pytest.fixture(scope="session")
def warped_entry():
    return catalog_get("warped_torus")


@pytest.fixture(scope="session")
def vertical_entry():
    return catalog_get("vertical_segment")


@pytest.fixture(scope="session")
def hopf_entry():
    return catalog_get("hopf_circle")


@pytest.fixture(scope="session")
def sheared_entries():
    return {c: catalog_get("sheared_unknot", {"c": c}) for c in SHEAR_SWEEP if c != 0.0}


def _exact_torus(resolution: int, factors=(circle_factor(2 * np.pi),) * 2):
    """(model, slice, g): the torus (cos u, 0, cos v, 0, g(u, v)) in r5 at
    resolution x resolution nodes, or the strip over other ``factors``.
    y = 0 makes the pullback of dz - y1 dx1 - y2 dx2 equal to dg, and the
    projection folds up to 4:1."""
    g = lambda u, v: np.sin(u) * np.cos(v) + 0.3 * np.sin(2 * v) + 0.5 * np.cos(u - v)
    g_u = lambda u, v: np.cos(u) * np.cos(v) - 0.5 * np.sin(u - v)
    g_v = lambda u, v: -np.sin(u) * np.sin(v) + 0.6 * np.cos(2 * v) + 0.5 * np.sin(u - v)

    def immersion(w):
        u, v = w[..., 0], w[..., 1]
        zero = np.zeros_like(u)
        return np.stack([np.cos(u), zero, np.cos(v), zero, g(u, v)], axis=-1)

    def jacobian(w):
        u, v = w[..., 0], w[..., 1]
        zero = np.zeros_like(u)
        du = np.stack([-np.sin(u), zero, zero, zero, g_u(u, v)], axis=-1)
        dv = np.stack([zero, zero, -np.sin(v), zero, g_v(u, v)], axis=-1)
        return np.stack([du, dv], axis=-1)

    slc = ParamSlice(factors, immersion, jacobian, resolution=[resolution] * 2)
    return StandardRModel(3), slc, g


@pytest.fixture(scope="session")
def exact_torus():
    return _exact_torus


@pytest.fixture(scope="session")
def sheared_01_entry():
    return catalog_get("sheared_unknot", {"c": 0.1})


@pytest.fixture(scope="session")
def projection_chords(unknot_entry, circle_entry, torus_entry, sheared_entries, sheared_01_entry):
    out = {
        "unknot": chords_projection(unknot_entry.model, unknot_entry.slice),
        "circle": chords_projection(circle_entry.model, circle_entry.slice),
        "torus_r5": chords_projection(torus_entry.model, torus_entry.slice),
        ("sheared_unknot", 0.1): chords_projection(sheared_01_entry.model, sheared_01_entry.slice),
    }
    for c, entry in sheared_entries.items():
        out[("sheared_unknot", c)] = chords_projection(entry.model, entry.slice)
    return out


@pytest.fixture(scope="session")
def shooting_chords(unknot_entry, circle_entry, torus_entry, sheared_entries, hopf_entry):
    out = {
        "unknot": chords_shooting(unknot_entry.model, unknot_entry.slice, 3.0),
        "circle": chords_shooting(circle_entry.model, circle_entry.slice, 10.0),
        "torus_r5": chords_shooting(torus_entry.model, torus_entry.slice, 3.0),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chords_module, "LAUNCH_STRIDE", 4)
        out["hopf_circle"] = chords_shooting(hopf_entry.model, hopf_entry.slice, 2.0)
    for c, entry in sheared_entries.items():
        out[("sheared_unknot", c)] = chords_shooting(entry.model, entry.slice, 3.0)
    return out


@pytest.fixture(scope="session")
def primitives(unknot_entry, sheared_entries, sheared_01_entry, hopf_entry):
    out = {
        "unknot": primitive(unknot_entry.model, unknot_entry.slice),
        ("sheared_unknot", 0.1): primitive(sheared_01_entry.model, sheared_01_entry.slice),
        "hopf_circle": primitive(hopf_entry.model, hopf_entry.slice),
    }
    for c, entry in sheared_entries.items():
        out[("sheared_unknot", c)] = primitive(entry.model, entry.slice)
    return out


@pytest.fixture(scope="session")
def collar_reports(
    unknot_entry,
    circle_entry,
    torus_entry,
    vertical_entry,
    warped_entry,
    hopf_entry,
    sheared_entries,
    sheared_01_entry,
):
    from reebkit.collar import CollarOptions, Convention, collar_report

    def opts(max_time=3.0, convention=Convention.DIRECT):
        return CollarOptions(convention=convention, max_time=max_time)

    out = {
        "unknot": collar_report(unknot_entry.model, unknot_entry.slice, opts()),
        "circle": collar_report(circle_entry.model, circle_entry.slice, opts(max_time=10.0)),
        "torus_r5": collar_report(torus_entry.model, torus_entry.slice, opts()),
        "vertical_segment": collar_report(vertical_entry.model, vertical_entry.slice, opts()),
        "warped_torus": collar_report(warped_entry.model, warped_entry.slice, opts()),
        ("sheared_unknot", 0.1): collar_report(sheared_01_entry.model, sheared_01_entry.slice, opts()),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chords_module, "LAUNCH_STRIDE", 4)
        out["hopf_circle"] = collar_report(hopf_entry.model, hopf_entry.slice, opts(max_time=2.0))
    for c, entry in sheared_entries.items():
        out[("sheared_unknot", c)] = collar_report(entry.model, entry.slice, opts())
    out[("sheared_unknot", -0.5, "feasibility")] = collar_report(
        sheared_entries[-0.5].model,
        sheared_entries[-0.5].slice,
        opts(convention=Convention.FEASIBILITY),
    )
    return out


@pytest.fixture(scope="session")
def model_mesh_files(tmp_path_factory):
    """Mesh-file paths by (parameter dimension, ambient width), widths 2-8:
    a 12-node circle and a 4x8 interval x circle strip, their node k/2-th
    coordinate pair (cos, sin) of (k + 1) t + k s, scaled onto the unit
    sphere."""
    directory = tmp_path_factory.mktemp("model_meshes")
    grids = {
        1: [(t,) for t in 2 * np.pi * np.arange(12) / 12],
        2: [(s, t) for s in np.linspace(0.0, 1.0, 4) for t in 2 * np.pi * np.arange(8) / 8],
    }
    paths = {}
    for param_dim, nodes in grids.items():
        for width in range(2, 9):
            rows = []
            for u in nodes:
                s, t = (0.0, *u)[-2:]
                angles = [(k + 1) * t + k * s for k in range(width // 2 + 1)]
                p = np.array([f(a) for a in angles for f in (np.cos, np.sin)][:width])
                rows.append((*u, *(p / np.linalg.norm(p))))
            header = [f"u{j}" for j in range(param_dim)] + [f"p{j}" for j in range(width)]
            path = directory / f"mesh_{param_dim}_{width}.csv"
            path.write_text(",".join(header) + "\n" + "".join(",".join(f"{x:.17g}" for x in r) + "\n" for r in rows))
            paths[param_dim, width] = path
    return paths


@pytest.fixture()
def stack_solves(monkeypatch):
    """Records (seeds, residual tolerance, result) of every stacked solve a
    chord search makes."""
    calls = []

    def recording(system, seeds, residual_tol):
        result = newton_solve_stack(system, seeds, residual_tol)
        calls.append((np.array(seeds), residual_tol, result))
        return result

    monkeypatch.setattr(chords_module, "newton_solve_stack", recording)
    return calls
