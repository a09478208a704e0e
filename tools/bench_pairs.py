"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 40]

PARENT and CHANGE are checkouts of this repository.  Pair k (seed k, for
k = 1..pairs) runs ``bench/run.py --workload W --seed k --seconds S
--trace 0`` once in each, in a fresh interpreter from the checkout's root:
the parent first on odd seeds, the change first on even ones, so a drift
of the machine over time falls on both sides alike.

Each run's values are printed as it ends.  The summary gives, per
end-to-end metric, the median [q1, q3] over the pairs for each side, the
relative change of the medians, in how many pairs the change read lower
than the parent, and the no-regression verdict against the metric's
``bound`` and ``better`` in the parent's BENCHMARK.json (``verdict``).
The script exits 1, naming the side and seed, as soon as a run prints no
result line or reports failed requests, and exits 1 at the end when a
metric is ``worse``.
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


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    """``worse`` when the change's median is worse than the parent's by
    more than ``bound`` (relative to the parent's median); ``unresolved``
    when the parent's IQR exceeds ``bound`` times its median, unless every
    change run beats every parent run; ``within bound`` otherwise.
    ``better`` is ``lower`` or ``higher``."""
    sign = 1.0 if better == "lower" else -1.0
    before, after = sign * np.asarray(before), sign * np.asarray(after)  # lower reads better
    q1, median, q3 = np.percentile(before, [25, 50, 75])
    if np.median(after) - median > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not np.max(after) < np.min(before):
        return "unresolved"
    return "within bound"


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
    bounds = {m["name"]: m for m in json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            values = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(values)
            print(f"seed {seed:2d} {side:6s} " + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s per run; median [q1, q3]")
    worse = False
    for name in runs["parent"][0]:
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        lower = sum(a < b for a, b in zip(after, before))
        delta = (np.median(after) / np.median(before) - 1.0) * 100.0 if np.median(before) else float("nan")
        line = (f"  {name:12s} parent {summary(before):30s} change {summary(after):30s} "
                f"{delta:+6.1f}%  change lower in {lower}/{args.pairs}")
        if name in bounds:
            found = verdict(before, after, bounds[name]["bound"], bounds[name]["better"])
            worse = worse or found == "worse"
            line += f"  {found} (bound {bounds[name]['bound']:g})"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
