"""Fast self-check of the benchmark, at tiny resolutions.

    python3 bench/selfcheck.py

Checks that
* every workload in BENCHMARK.json exists, and ``run.py --tiny`` on each
  prints every end-to-end metric (``--trace 0``) and every per-layer
  metric (``--trace 1``) of BENCHMARK.json by name, with its unit, with
  no failed request;
* the oracle gate counts a deliberately wrong expectation as a failed
  request instead of aborting the run.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def wrong_expectation_fails(reebkit, workload: str, workdir: Path) -> bool:
    """One request against periods shifted by 1e-3 must count as failed."""
    bench = run.Bench(reebkit, WORKLOADS[workload], seed=7, tiny=True, workdir=workdir)
    path, man, facts = bench.next_request()
    wrong = dataclasses.replace(facts, periods=tuple(p + 1e-3 for p in facts.periods))
    bench.run_request(path, man, wrong)
    return bench.attempted == 1 and bench.failed == 1


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace, units in expected.items():
            result = run_tiny(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != units:
                errors.append(f"{workload} trace={trace}: printed metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(units) - set(printed))}, "
                              f"extra {sorted(set(printed) - set(units))}, "
                              f"units {[k for k in units if k in printed and printed[k] != units[k]]}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed")

    reebkit = run.load_reebkit()
    out_dir = run.ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in WORKLOADS:
            if not wrong_expectation_fails(reebkit, workload, Path(tmp)):
                errors.append(f"{workload}: a wrong expectation was not counted as a failure")

    for err in errors:
        print("FAIL", err)
    print("selfcheck:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
