"""Manifest loading, validation and resolution.

A manifest is a JSON document selecting a model, exactly one slice source
(catalog entry or mesh file), and optional tolerance/search/convention
overrides:

    {
      "model": "r3",
      "slice": {"catalog": "unknot", "params": {}},
      "convention": "direct",
      "tolerances": {"closed": 1e-6, "transverse": 1e-4, "margin": 0.05},
      "search": {"max_time": 3.0, "min_length": 1e-4}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

from .catalog import catalog_get
from .chords import SearchOptions
from .collar import CollarOptions, Convention
from .errors import ManifestError, ReebkitError
from .models import MODEL_BUILDERS, make_model
from .slices import DEFAULT_CLOSED_TOL, DEFAULT_TRANSVERSE_TOL, load_mesh_slice

_SEARCH_KEYS = {"seed_radius", "exclusion_radius", "max_time", "min_length", "capture_radius", "launch_stride", "monitor_dt", "cluster_radius"}
_TOL_KEYS = {"closed", "transverse", "margin"}


@dataclass
class Manifest:
    model: Optional[str] = None
    catalog: Optional[str] = None
    catalog_params: dict = dc_field(default_factory=dict)
    mesh_file: Optional[str] = None
    periodic: Optional[list[bool]] = None
    param_dim: Optional[int] = None
    tolerances: dict = dc_field(default_factory=dict)
    convention: str = Convention.DIRECT.value
    search: dict = dc_field(default_factory=dict)

    def validate(self):
        for key in ("model", "catalog", "mesh_file", "convention"):
            if getattr(self, key) is not None and not isinstance(getattr(self, key), str):
                raise ManifestError(f"{key!r} must be a string")
        sources = (self.catalog is not None) + (self.mesh_file is not None)
        if sources != 1:
            raise ManifestError("manifest must give exactly one slice source (catalog or mesh_file)")
        if self.mesh_file is not None:
            if self.model is None:
                raise ManifestError("mesh_file slices require an explicit model name")
            if self.param_dim is None or self.periodic is None:
                raise ManifestError("mesh_file slices require param_dim and periodic flags")
            if isinstance(self.param_dim, bool) or not isinstance(self.param_dim, int):
                raise ManifestError("param_dim must be an integer")
            if not isinstance(self.periodic, list) or not all(isinstance(p, bool) for p in self.periodic):
                raise ManifestError("periodic must be a list of booleans")
        if self.model is not None and self.model not in MODEL_BUILDERS:
            raise ManifestError(f"unknown model name {self.model!r}")
        if self.convention not in {c.value for c in Convention}:
            raise ManifestError(f"unknown convention {self.convention!r}")
        sections = (("tolerance", _TOL_KEYS, self.tolerances), ("search", _SEARCH_KEYS, self.search))
        for section, keys, values in sections:
            for key, value in values.items():
                if key not in keys:
                    raise ManifestError(f"unknown {section} key {key!r}")
                # NaN fails the range test too
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < float("inf"):
                    raise ManifestError(f"{section} {key!r} must be a finite positive number")
        if not isinstance(self.search.get("launch_stride", 1), int):
            raise ManifestError("search 'launch_stride' must be an integer")

    def to_dict(self) -> dict:
        if self.catalog is not None:
            slice_src = {"catalog": self.catalog, "params": dict(self.catalog_params)}
        else:
            slice_src = {
                "mesh_file": self.mesh_file,
                "periodic": self.periodic,
                "param_dim": self.param_dim,
            }
        return {
            "model": self.model,
            "slice": slice_src,
            "convention": self.convention,
            "tolerances": dict(self.tolerances),
            "search": dict(self.search),
        }


def _object(doc: dict, key: str) -> dict:
    """A copy of the optional JSON object ``doc[key]``."""
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise ManifestError(f"{key!r} must be a JSON object")
    return dict(value)


def parse_manifest(data: dict) -> Manifest:
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    slice_src = data.get("slice")
    if not isinstance(slice_src, dict):
        raise ManifestError("manifest must have a 'slice' object")
    man = Manifest(
        model=data.get("model"),
        catalog=slice_src.get("catalog"),
        catalog_params=_object(slice_src, "params"),
        mesh_file=slice_src.get("mesh_file"),
        periodic=slice_src.get("periodic"),
        param_dim=slice_src.get("param_dim"),
        tolerances=_object(data, "tolerances"),
        convention=data.get("convention", Convention.DIRECT.value),
        search=_object(data, "search"),
    )
    man.validate()
    return man


def load_manifest(path) -> Manifest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    return parse_manifest(data)


def resolve(manifest: Manifest):
    """Instantiate (model, slice, expected-or-None) from a manifest."""
    if manifest.catalog is not None:
        try:
            entry = catalog_get(manifest.catalog, manifest.catalog_params)
        except (ReebkitError, ValueError, TypeError) as exc:
            raise ManifestError(str(exc)) from exc
        if manifest.model is not None and manifest.model != entry.model.name:
            raise ManifestError(
                f"manifest model {manifest.model!r} conflicts with catalog entry model {entry.model.name!r}"
            )
        return entry.model, entry.slice, entry.expected
    model = make_model(manifest.model)
    try:
        slc = load_mesh_slice(manifest.mesh_file, manifest.param_dim, manifest.periodic)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot load mesh file: {exc}") from exc
    if slc.points.shape[1] != model.ambient_dim:
        raise ManifestError(
            f"mesh ambient dimension {slc.points.shape[1]} does not match model {model.name}"
        )
    return model, slc, None


def collar_options(manifest: Manifest) -> CollarOptions:
    tol = manifest.tolerances
    search_kwargs = dict(manifest.search)
    search = SearchOptions(**search_kwargs)
    return CollarOptions(
        tol_closed=float(tol.get("closed", DEFAULT_CLOSED_TOL)),
        tol_transverse=float(tol.get("transverse", DEFAULT_TRANSVERSE_TOL)),
        margin=float(tol.get("margin", 0.05)),
        convention=Convention(manifest.convention),
        search=search,
    )
