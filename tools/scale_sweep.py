"""Time reebkit's commands as the input grows, on two scale sweeps.

    python3 tools/scale_sweep.py OUT.json [--src SRC]

The sweeps:

* sheared_unknot (r3) at 256, 1024 and 4096 nodes, with c = 0.1
  (``collar`` ends Collarable) and with c = -0.5 (SchemeObstructed);
* torus_r5 (r5) at 48, 96 and 192 nodes per axis (``collar`` ends
  NonExact).

For each input the script writes a manifest to a temporary directory and
runs ``check``, ``chords`` and ``collar`` on it in-process through
``reebkit.cli.main``, with SRC (default: the ``src`` directory next to
this script) first on the import path and the printed reports discarded:
one untimed warm-up round, then ``RUNS`` timed rounds.
Per command it records the exit code and, for every run, the raw wall
seconds and the normalized seconds of ``bench/speed.py`` (the wall time
rescaled to a reference machine speed sampled while the run lasts, as
the benchmark reports it, since the speed of a shared host drifts by
tens of percent), each with its median, min and max.  Per sweep it
records the log-log slope of the normalized median between consecutive
sizes, d log(seconds) / d log(nodes), so 1 means linear growth.  Each
input's peak RSS comes from a fresh child interpreter that runs the
three commands once.  The environment stamp (Python, numpy and scipy
versions, CPU count and model, thread settings, commit) is the one of
``bench/envstamp.py``, taken on the checkout that holds SRC, so its
commit names the timed tree; ``src_uncommitted_changes`` records whether
SRC differs from that commit (None outside a git checkout).  Both bench
modules are imported as they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "chords", "collar")
RUNS = 5  # timed rounds per input

# name -> (model, catalog entry, fixed params, sizes, nodes per size)
SWEEPS = {
    "sheared_unknot_c0.1": ("r3", "sheared_unknot", {"c": 0.1}, (256, 1024, 4096), 1),
    "sheared_unknot_c-0.5": ("r3", "sheared_unknot", {"c": -0.5}, (256, 1024, 4096), 1),
    "torus_r5": ("r5", "torus_r5", {}, (48, 96, 192), 2),
}

# runs the three commands once on argv[2] with argv[1] first on the path,
# then prints the process's peak RSS in MB
CHILD = """
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
from reebkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for command in ("check", "chords", "collar"):
        main([command, sys.argv[2]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def load_cli(src: Path):
    sys.path.insert(0, str(src))
    import reebkit.cli

    if not Path(reebkit.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"scale_sweep: reebkit was imported from {reebkit.cli.__file__}, not {src}")
    return reebkit.cli


def run_round(cli, manifest: Path) -> dict[str, tuple[int, float, float]]:
    """{command: (exit code, start, end)} of one run of each command."""
    out = {}
    for command in COMMANDS:
        gc.collect()  # start every command from the same heap state
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main([command, str(manifest)])
            out[command] = (code, t0, time.perf_counter())
    return out


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "runs": values}


def peak_rss_mb(src: Path, manifest: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(manifest)], capture_output=True, text=True, check=True
    )
    return float(proc.stdout.strip())


def uncommitted_changes(tree: Path) -> bool | None:
    """Whether ``tree/src`` differs from the checkout's HEAD commit; None
    when ``tree`` is no git checkout or git cannot be run."""
    if not (tree / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(tree), "status", "--porcelain", "--", "src"], capture_output=True, text=True
        )
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def measure(cli, speed, src: Path, manifest: Path) -> dict:
    codes = {command: code for command, (code, _, _) in run_round(cli, manifest).items()}  # warm-up
    intervals: dict[str, list[tuple[float, float]]] = {command: [] for command in COMMANDS}
    with speed.SpeedProbe() as probe:
        for _ in range(RUNS):
            for command, (code, t0, t1) in run_round(cli, manifest).items():
                if code != codes[command]:
                    raise SystemExit(f"scale_sweep: {command} on {manifest.name} exited {codes[command]}, then {code}")
                intervals[command].append((t0, t1))
    return {
        "exit_codes": codes,
        "raw_s": {command: spread([t1 - t0 for t0, t1 in iv]) for command, iv in intervals.items()},
        "normalized_s": {command: spread([probe.normalize(*i) for i in iv]) for command, iv in intervals.items()},
        "peak_rss_mb": peak_rss_mb(src, manifest),
    }


def slopes(points: list[dict]) -> list[dict]:
    """Log-log slope of each command's normalized median between
    consecutive sizes."""
    out = []
    for a, b in zip(points, points[1:]):
        ratio = math.log(b["nodes"] / a["nodes"])
        entry = {"from_nodes": a["nodes"], "to_nodes": b["nodes"]}
        for command in COMMANDS:
            ta, tb = a["normalized_s"][command]["median"], b["normalized_s"][command]["median"]
            entry[command] = math.log(tb / ta) / ratio
        out.append(entry)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="reebkit source tree to run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    cli = load_cli(src)
    sys.path.insert(0, str(ROOT / "bench"))
    import envstamp
    import speed

    result = {
        "schema": "scale-sweep/1",
        "environment": envstamp.stamp(src.parent, None),
        "src_uncommitted_changes": uncommitted_changes(src.parent),
        "runs": RUNS,
        "sweeps": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, (model, entry, params, sizes, axes) in SWEEPS.items():
            points = []
            for size in sizes:
                manifest = Path(tmp) / f"{name}_{size}.json"
                slice_params = {**params, "resolution": size}
                manifest.write_text(json.dumps({"model": model, "slice": {"catalog": entry, "params": slice_params}}))
                point = {"resolution": size, "nodes": size**axes, **measure(cli, speed, src, manifest)}
                points.append(point)
                medians = " ".join(f"{c} {point['normalized_s'][c]['median']:.4f}" for c in COMMANDS)
                print(f"{name:22s} {size:5d}  {medians}  rss {point['peak_rss_mb']:.1f} MB", flush=True)
            result["sweeps"][name] = {
                "model": model,
                "catalog": entry,
                "params": params,
                "points": points,
                "slopes": slopes(points),
            }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
