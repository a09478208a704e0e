"""The no-regression verdict of ``tools/bench_pairs.py`` on synthetic runs:
a median worse by more than the bound is ``worse``; a parent spread wider
than the bound is ``unresolved`` unless every change run beats every
parent run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool_module():
    spec = importlib.util.spec_from_file_location("reebkit_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = _tool_module().verdict

# ten parent runs with median 1.0 and quartiles 0.975 / 1.025 (IQR 5%)
TIGHT = [0.95, 0.96, 0.97, 0.98, 0.99, 1.01, 1.02, 1.03, 1.04, 1.05]
# ten parent runs with median 1.0 and IQR 40% of it
WIDE = [0.6, 0.7, 0.8, 0.8, 0.9, 1.1, 1.2, 1.2, 1.3, 1.4]


def _scaled(runs, factor):
    return [factor * x for x in runs]


@pytest.mark.parametrize(
    "before, after, bound, better, expected",
    [
        (TIGHT, TIGHT, 0.25, "lower", "within bound"),
        (TIGHT, _scaled(TIGHT, 1.2), 0.25, "lower", "within bound"),
        (TIGHT, _scaled(TIGHT, 1.3), 0.25, "lower", "worse"),
        (TIGHT, _scaled(TIGHT, 0.5), 0.25, "lower", "within bound"),
        (TIGHT, _scaled(TIGHT, 1.12), 0.1, "lower", "worse"),
        (TIGHT, _scaled(TIGHT, 0.85), 0.1, "higher", "worse"),
        (TIGHT, _scaled(TIGHT, 1.3), 0.25, "higher", "within bound"),
        (WIDE, WIDE, 0.25, "lower", "unresolved"),
        (WIDE, _scaled(WIDE, 1.3), 0.25, "lower", "worse"),
        (WIDE, [0.5] * 10, 0.25, "lower", "within bound"),  # every change run beats every parent run
        (WIDE, [0.59] * 9 + [0.61], 0.25, "lower", "unresolved"),  # one change run does not
        (WIDE, [1.5] * 10, 0.25, "higher", "within bound"),
        (WIDE, WIDE, 0.5, "lower", "within bound"),  # the spread is inside this bound
    ],
)
def test_verdict(before, after, bound, better, expected):
    assert verdict(before, after, bound, better) == expected
