"""The benchmark's oracle gate (``bench/oracle.py``) parses what the CLI
prints and maps verdicts to exit codes; a report schema or exit code the
gate cannot read must fail here, not only in a benchmark run."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from reebkit.catalog import catalog_get
from reebkit.cli import _VERDICT_EXIT, main
from reebkit.collar import Verdict

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _oracle_module():
    spec = importlib.util.spec_from_file_location("reebkit_bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_oracle = _oracle_module()


@pytest.mark.parametrize("verdict, code", sorted(_oracle.VERDICT_EXIT.items()))
def test_oracle_exit_codes_match_the_cli(verdict, code):
    assert _VERDICT_EXIT[Verdict(verdict)] == code


# each benchmark workload's input at its tiny resolution
@pytest.mark.parametrize(
    "model, catalog, params",
    [
        ("r3", "sheared_unknot", {"c": 0.1, "resolution": 128}),
        ("r3", "sheared_unknot", {"c": -0.5, "resolution": 128}),
        ("s3", "hopf_circle", {"resolution": 64}),
        ("r5", "torus_r5", {"resolution": 16}),
    ],
)
def test_oracle_reads_every_command(tmp_path, model, catalog, params):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"model": model, "slice": {"catalog": catalog, "params": params}}))
    responses = {}
    for command in ("check", "chords", "collar"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            responses[command] = (main([command, str(path)]), out.getvalue())
    assert _oracle.check_response(catalog_get(catalog, params).expected, responses) == []
