"""Numerical toolkit for slice geometry, Reeb chords and collar
feasibility in standard contact models."""

from .catalog import CatalogEntry, ExpectedFacts, catalog_get, catalog_list
from .chords import ChordRecord, chords_projection, chords_shooting, dedup_chords
from .collar import (
    Classification,
    CollarOptions,
    CollarReport,
    Convention,
    Verdict,
    check_deformation,
    chord_action,
    classify_chord,
    collar_report,
    extend_h,
    feasibility_oracle_1d,
    reeb_reparam_check,
)
from .models import (
    DeformationSpec,
    StandardRModel,
    StandardSphereModel,
    SymplectizationModel,
    liouville_deformed,
    make_model,
    reeb_at,
)
from .numerics import (
    NewtonResult,
    NewtonStack,
    integrate_fixed,
    integrate_flow,
    jacobian_fd,
    line_quadrature,
    newton_solve,
    newton_solve_stack,
)
from .slices import (
    DomainFactor,
    ParamSlice,
    PrimitiveField,
    check_closed,
    check_transverse,
    circle_factor,
    interval_factor,
    load_mesh_slice,
    periods,
    primitive,
    pullback_alpha,
)

__version__ = "0.1.0"
