"""The out-of-tree tracer (``bench/tracer.py``) rebinds reebkit functions
and methods by name and reads what they return; a rename in the package,
or a return value the tracer cannot read, must fail here, not only in a
traced benchmark run."""

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest

import reebkit.cli  # noqa: F401  (imports every module the tracer binds)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("reebkit_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _tracer_module()


@pytest.mark.parametrize("name, module, path", _tracer.SPANS + _tracer.COUNTED)
def test_trace_target_resolves(name, module, path):
    # the lookups ``Tracer._rebind`` makes
    owner = sys.modules[module]
    if "." in path:
        cls_name, attr = path.split(".")
        target = vars(getattr(owner, cls_name))[attr]
    else:
        target = getattr(owner, path)
    assert callable(target), name


def _run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = reebkit.cli.main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("command", ["chords", "collar"])
@pytest.mark.parametrize(
    "catalog, params",
    [("sheared_unknot", {"c": 0.1, "resolution": 128}), ("hopf_circle", {"resolution": 64})],
)
def test_traced_run_matches_plain_run(tmp_path, command, catalog, params):
    # the wrappers read what the kernels return (``NewtonResult`` fields,
    # lengths of lists), so a kernel change that breaks them shows here
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"slice": {"catalog": catalog, "params": params}}))
    plain = _run_cli([command, str(path)])
    with _tracer.Tracer() as tracer:
        traced = _run_cli([command, str(path)])
    assert traced == plain
    self_s, _, _, _ = tracer.layer_totals()
    values = [*tracer.counters.values(), *self_s.values()]
    assert values
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
