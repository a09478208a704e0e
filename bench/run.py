"""reebkit benchmark: latency of ``reebkit check|chords|collar``.

Usage, from the root of a checkout (see README.md in this directory):

    python3 bench/run.py --workload curve_collar --seed 1 --seconds 40 --trace 0

One process, one client, closed loop: each request writes a manifest
generated from the seed, calls ``reebkit.cli.main`` in-process for
``check``, ``chords`` and ``collar`` on it, and checks every response
against the catalog's ExpectedFacts (``oracle.py``).  A request that
raises or disagrees with the oracle counts as failed; the run goes on.
Requests are issued while the next one is expected to end within
``--seconds``; at least two always run (one with ``--trace 1``).

``--trace 0`` prints the end-to-end metrics, with times normalized to a
reference machine speed by ``speed.py``.  ``--trace 1`` runs each request
plain and then traced (``tracer.py``) and prints per-layer metrics.

The last line of standard output is the result object; the line before it
carries sample counts, raw wall times, the environment stamp and any
failures.  Without ``src/reebkit`` next to this directory the benchmark
exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import envstamp
import oracle
import speed
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "chords", "collar")
SETUP_REPS = 11  # per request

END_TO_END = {
    "check_s": "s",
    "chords_s": "s",
    "collar_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spanned layers whose call counts are reported next to their self time.
CALL_COUNTED = (
    "numerics.line_quadrature",
    "numerics.integrate_flow",
    "numerics.rk4_step",
    "numerics.newton_solve",
    "slices.check_closed",
    "spatial.GridIndex.query_ball",
)
COUNTERS = (
    "numerics.line_quadrature.nodes",
    "slices.pullback_alpha.points",
    "models.reeb.points",
    "models.liouville_deformed.calls",
    "numerics.newton_solve.iterations",
    "numerics.newton_solve.failed",
    "chords.dedup_chords.merged",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name, _, _ in tracing.SPANS}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTED})
    units.update({name: "count" for name in COUNTERS})
    for parent, reason in itertools.product(tracing.NEWTON_PARENTS, tracing.NEWTON_REASONS):
        units[f"numerics.newton_solve.failed.{parent}.{reason}"] = "count"
    units["trace.unattributed_frac"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


def load_reebkit():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import reebkit.catalog
        import reebkit.cli
        import reebkit.manifest
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import reebkit from {src}: {exc}")
    if not Path(reebkit.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: reebkit was imported from {reebkit.cli.__file__}, not {src}")
    return reebkit


class Bench:
    """One workload's requests, in one process."""

    def __init__(self, reebkit, workload, seed: int, tiny: bool, workdir: Path):
        self.rk = reebkit
        self.workload = workload
        self.tiny = tiny
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.count = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inputs: list[dict] = []
        self._seen: dict[str, dict] = {}

    def next_request(self):
        """Write the next manifest; return (path, manifest, expected facts)."""
        k = next(self.count)
        man = self.workload.manifest(self.rng, k, self.tiny)
        path = self.workdir / f"request{k}.json"
        path.write_text(json.dumps(man), encoding="utf-8")
        src = man["slice"]
        facts = self.rk.catalog.catalog_get(src["catalog"], src["params"]).expected
        if src["params"] not in self.inputs:
            self.inputs.append(src["params"])
        return path, man, facts

    def setup_intervals(self, path: Path) -> list[tuple[float, float]]:
        """Time ``SETUP_REPS`` manifest loads + resolves, as (start, end)."""
        m = self.rk.manifest
        intervals = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            m.resolve(m.load_manifest(path))
            intervals.append((t0, time.perf_counter()))
        return intervals

    def run_request(self, path: Path, man: dict, facts, tracer=None):
        """Run the three commands; return {command: (start, end)}.

        The oracle verdict is recorded in ``attempted``/``failed``; so is
        a response that differs from an earlier one on the same manifest.
        """
        intervals, responses, problems = {}, {}, []
        for cmd in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            root = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
            gc.collect()  # start every command from the same heap state
            try:
                with root, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = time.perf_counter()
                    code = self.rk.cli.main([cmd, str(path)])
                    intervals[cmd] = (t0, time.perf_counter())
            except Exception:  # a crash fails this request, not the run
                problems.append(f"{cmd} raised:\n{traceback.format_exc()}")
                continue
            responses[cmd] = (code, out.getvalue())
        if not problems:
            try:
                problems += oracle.check_response(facts, responses)
            except (KeyError, ValueError, TypeError) as exc:
                problems.append(f"unparseable response: {exc!r}")
        key = json.dumps(man, sort_keys=True)
        if not problems and self._seen.setdefault(key, responses) != responses:
            problems.append("responses differ from an earlier request on the same manifest")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"request {self.attempted} {man['slice']}: {p}" for p in problems)
        return intervals


def closed_loop(budget_s: float, step, min_steps: int):
    """Call ``step`` at least ``min_steps`` times, then while the next call
    is expected to end within the budget."""
    start = time.perf_counter()
    for n in itertools.count(1):
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if n >= min_steps and time.perf_counter() - start + last > budget_s:
            return


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, each a median of probe-normalized durations."""
    intervals: dict[str, list] = {name: [] for name in END_TO_END if name != "peak_rss_mb"}

    def step():
        path, man, facts = bench.next_request()
        intervals["setup_s"] += bench.setup_intervals(path)
        for cmd, interval in bench.run_request(path, man, facts).items():
            intervals[f"{cmd}_s"].append(interval)

    # two requests at least, so that a median never rests on one sample
    with speed.SpeedProbe() as probe:
        closed_loop(seconds, step, min_steps=2)
    normalized = {name: [probe.normalize(*iv) for iv in ivs] for name, ivs in intervals.items()}
    metrics = {name: statistics.median(v) if v else float("nan") for name, v in normalized.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "samples": {name: len(v) for name, v in normalized.items()},
        "per_request_s": {name: [round(x, 4) for x in v] for name, v in normalized.items() if name != "setup_s"},
        "raw_wall_s": {
            name: statistics.median(t1 - t0 for t0, t1 in ivs) if ivs else None
            for name, ivs in intervals.items()
        },
        "probe": {
            "samples": len(probe.samples),
            "median_kernel_s": statistics.median(d for _, d in probe.samples) if probe.samples else None,
            "reference_kernel_s": speed.REFERENCE_S,
        },
    }
    return metrics, info


def layer_values(tr: tracing.Tracer) -> dict[str, float]:
    self_s, calls, root_total, root_self = tr.layer_totals()
    values = {f"{name}.self_s": v for name, v in self_s.items()}
    values.update({f"{name}.calls": float(n) for name, n in calls.items()})
    values.update(tr.counters)
    values["trace.unattributed_frac"] = root_self / root_total if root_total else 0.0
    return values


def traced_run(bench: Bench, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    tr = tracing.Tracer()
    per_request: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    dumps: list[dict] = []

    def step():
        path, man, facts = bench.next_request()
        # the traced responses are compared with the plain ones through
        # the same-manifest check in run_request
        plain = bench.run_request(path, man, facts)
        with tr:
            tr.reset()
            traced = bench.run_request(path, man, facts, tr)
        if len(plain) == len(traced) == len(COMMANDS):
            pairs.append((plain, traced))
        per_request.append(layer_values(tr))
        dumps.append({"manifest": man, "spans": list(tr.spans), "counters": dict(tr.counters)})

    # The probe's kernel runs inside whatever span is open when it fires,
    # adding about 1% to self times in proportion to their length.
    with speed.SpeedProbe() as probe:
        closed_loop(seconds, step, min_steps=1)

    def normalized(intervals: dict) -> float:
        return sum(probe.normalize(*iv) for iv in intervals.values())

    overheads = [normalized(traced) / normalized(plain) - 1.0 for plain, traced in pairs]
    units = per_layer_units()
    metrics = {
        name: statistics.median(v.get(name, 0.0) for v in per_request)
        for name in units
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = statistics.median(overheads) if overheads else float("nan")
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    trace_path.write_text(
        json.dumps({"schema": "bench-trace/1", "span_fields": ["id", "parent", "name", "start_s", "duration_s"],
                    "requests": dumps}, separators=(",", ":")),
        encoding="utf-8",
    )
    info = {
        "traced_requests": len(per_request),
        "dominant_self_layer": max(self_times, key=self_times.get)[: -len(".self_s")],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny resolutions, for selfcheck.py")
    args = parser.parse_args(argv)

    reebkit = load_reebkit()
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        bench = Bench(reebkit, workload, args.seed, args.tiny, Path(tmp))
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            values, extra = traced_run(bench, args.seconds, trace_path)
            units = per_layer_units()
        else:
            values, extra = timed_run(bench, args.seconds)
            units = END_TO_END

    info = {
        "workload": workload.name,
        "why": workload.why,
        "seed_affects_inputs": workload.seed_affects_inputs,
        "inputs": bench.inputs,
        "requests": bench.attempted,
        "failed_frac": bench.failed / bench.attempted,
        **extra,
        "problems": bench.problems[:10],
        "env": envstamp.stamp(ROOT, args.seed),
    }
    for problem in bench.problems:
        sys.stderr.write(problem + "\n")
    print(json.dumps({"info": info}))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
