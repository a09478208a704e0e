"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 40]

PARENT and CHANGE are checkouts of this repository.  Pair k (seed k, for
k = 1..pairs) runs ``bench/run.py --workload W --seed k --seconds S
--trace 0`` once in each, in a fresh interpreter from the checkout's root:
the parent first on odd seeds, the change first on even ones, so a drift
of the machine over time falls on both sides alike.

Each run's values are printed as it ends.  The summary gives, per
end-to-end metric, the median [q1, q3] over the pairs for each side, the
relative change of the medians, and in how many pairs the change read
lower than the parent.  The script exits 1, naming the side and seed, as
soon as a run prints no result line or reports failed requests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def positive(kind):
    def parse(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    return parse


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one ``--trace 0`` run; SystemExit(1) when the
    run prints none or reports failed requests."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout} seed {seed}: no result line (exit {proc.returncode})")
    if result.get("failed", 0) > 0:
        raise SystemExit(f"{checkout} seed {seed}: {result['failed']} of {result['attempted']} requests failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=positive(int), default=10)
    parser.add_argument("--seconds", type=positive(float), default=40.0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no bench/run.py")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            values = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(values)
            print(f"seed {seed:2d} {side:6s} " + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s per run; median [q1, q3]")
    for name in runs["parent"][0]:
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        lower = sum(a < b for a, b in zip(after, before))
        delta = (np.median(after) / np.median(before) - 1.0) * 100.0 if np.median(before) else float("nan")
        print(f"  {name:12s} parent {summary(before):30s} change {summary(after):30s} "
              f"{delta:+6.1f}%  change lower in {lower}/{args.pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
