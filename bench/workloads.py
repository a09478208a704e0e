"""Benchmark workloads: seeded manifest generators and why each exists.

A workload yields one manifest per request.  The program only ever sees
the manifest files written from these dicts; the oracle facts come from
the catalog entry the manifest names.  Each workload stresses a different
layer (see ``why``), so a change to one layer has a workload that
exercises it and others that bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Sheared unknot: the single chord is small under the direct convention
# iff c <= -1/3, and the catalog requires c > -2/3.  Draws keep at least
# 0.06 clear of both boundaries so the verdict never sits on a tie.
OBSTRUCTED_C = (-0.6, -0.4)
COLLARABLE_C = (-0.26, 0.4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_affects_inputs: bool
    # (rng, request index, tiny) -> manifest dict
    manifest: Callable[[np.random.Generator, int, bool], dict]


def _curve_collar(rng: np.random.Generator, k: int, tiny: bool) -> dict:
    # Alternate the two verdict regimes so every run of two or more
    # requests sees both Collarable and SchemeObstructed.
    lo, hi = COLLARABLE_C if k % 2 == 0 else OBSTRUCTED_C
    c = round(float(rng.uniform(lo, hi)), 6)
    return {
        "model": "r3",
        "slice": {"catalog": "sheared_unknot", "params": {"c": c, "resolution": 128 if tiny else 4096}},
    }


def _sphere_shooting(rng: np.random.Generator, k: int, tiny: bool) -> dict:
    params = {"resolution": 64} if tiny else {}
    return {"model": "s3", "slice": {"catalog": "hopf_circle", "params": params}}


def _torus_grid(rng: np.random.Generator, k: int, tiny: bool) -> dict:
    params = {"resolution": 16} if tiny else {}
    return {"model": "r5", "slice": {"catalog": "torus_r5", "params": params}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curve_collar",
            "sheared_unknot at 4096 nodes, c from the seed: quadrature-bound periods/primitive "
            "and quadratic extend_h; the only workload reaching the deformation check",
            True,
            _curve_collar,
        ),
        Workload(
            "sphere_shooting",
            "hopf_circle on S^3: flow integration inside the shooting Newton loop dominates; "
            "no projection search, no extend_h; fixed input",
            False,
            _sphere_shooting,
        ),
        Workload(
            "torus_grid",
            "torus_r5 at 96x96: projection seed scan over a 2-D mesh, zero Newton calls, the only "
            "non-vacuous closedness check; stops at NonExact; fixed input",
            False,
            _torus_grid,
        ),
    )
}
