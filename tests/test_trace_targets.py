"""The out-of-tree tracer (``bench/tracer.py``) rebinds reebkit functions
and methods by name; a rename in the package must fail here, not only in
a traced benchmark run."""

import importlib.util
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
