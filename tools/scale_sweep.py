"""Time reebkit's commands as the input grows, on four scale sweeps.

    python3 tools/scale_sweep.py OUT.json [--src SRC] [--against PARENT_SRC]

The sweeps:

* sheared_unknot (r3) at 256, 1024 and 4096 nodes, with c = 0.1
  (``collar`` ends Collarable) and with c = -0.5 (SchemeObstructed);
* torus_r5 (r5) at 48, 96 and 192 nodes per axis (``collar`` ends
  NonExact);
* hopf_circle (s3) at 256, 1024 and 4096 nodes (shooting chord search,
  ``collar`` ends Collarable).

For each input the script writes a manifest to a temporary directory and
runs ``check``, ``chords`` and ``collar`` on it in-process through
``reebkit.cli.main``, with SRC (default: the ``src`` directory next to
this script) first on the import path and the printed reports discarded:
one untimed warm-up round, then timed rounds until there are at least
``RUNS`` of them and they total at least ``MIN_SECONDS``, so a point of a
few milliseconds gets enough rounds for its median to resolve a change.
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

``--against PARENT_SRC`` compares two trees: every sweep point is measured
on PARENT_SRC and on SRC back to back, each side in a fresh child
interpreter that runs the warm-up and timed rounds above, and the side
that goes first alternates from point to point.  Two sweeps run minutes
apart disagree on their normalization as the machine drifts, so only
measurements made side by side are compared.  Each point then holds both
sides and the change/parent ratio of each command's raw and normalized
medians, and each sweep the slopes of both sides; the environment is
stamped once per tree.
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
RUNS = 5  # fewest timed rounds per input
MIN_SECONDS = 2.0  # fewest seconds of timed rounds per input

# name -> (model, catalog entry, fixed params, sizes, nodes per size)
SWEEPS = {
    "sheared_unknot_c0.1": ("r3", "sheared_unknot", {"c": 0.1}, (256, 1024, 4096), 1),
    "sheared_unknot_c-0.5": ("r3", "sheared_unknot", {"c": -0.5}, (256, 1024, 4096), 1),
    "torus_r5": ("r5", "torus_r5", {}, (48, 96, 192), 2),
    "hopf_circle": ("s3", "hopf_circle", {}, (256, 1024, 4096), 1),
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


# measures the input argv[3] on the tree argv[2] (scale_sweep imported from
# argv[1]) and prints the result of ``measure`` as JSON
MEASURE_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import scale_sweep
print(json.dumps(scale_sweep.in_process(Path(sys.argv[2]))(Path(sys.argv[3]))))
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
    rounds, timed = 0, 0.0
    with speed.SpeedProbe() as probe:
        while rounds < RUNS or timed < MIN_SECONDS:
            for command, (code, t0, t1) in run_round(cli, manifest).items():
                if code != codes[command]:
                    raise SystemExit(f"scale_sweep: {command} on {manifest.name} exited {codes[command]}, then {code}")
                intervals[command].append((t0, t1))
                timed += t1 - t0
            rounds += 1
    return {
        "exit_codes": codes,
        "raw_s": {command: spread([t1 - t0 for t0, t1 in iv]) for command, iv in intervals.items()},
        "normalized_s": {command: spread([probe.normalize(*i) for i in iv]) for command, iv in intervals.items()},
        "peak_rss_mb": peak_rss_mb(src, manifest),
    }


def in_process(src: Path):
    """``measure`` of an input on the tree ``src``, in this interpreter,
    which imports the CLI and the speed probe once."""
    cli = load_cli(src)
    sys.path.insert(0, str(ROOT / "bench"))
    import speed

    return lambda manifest: measure(cli, speed, src, manifest)


def in_child(src: Path):
    """``measure`` of an input on the tree ``src``, in a fresh child
    interpreter per input, so two trees can be measured in one sweep."""

    def run(manifest: Path) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", MEASURE_CHILD, str(ROOT / "tools"), str(src), str(manifest)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"scale_sweep: measuring {manifest.name} on {src} failed")
        return json.loads(proc.stdout)

    return run


def ratios(parent: dict, change: dict) -> dict:
    """change / parent of each command's raw and normalized medians."""
    return {
        kind: {c: change[kind][c]["median"] / parent[kind][c]["median"] for c in COMMANDS}
        for kind in ("raw_s", "normalized_s")
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


def sweep_inputs(tmp: Path):
    """(sweep name, its entry in the result without points, [(size, nodes,
    manifest)]) for each sweep, writing the manifests under ``tmp``."""
    for name, (model, entry, params, sizes, axes) in SWEEPS.items():
        inputs = []
        for size in sizes:
            manifest = tmp / f"{name}_{size}.json"
            slice_params = {**params, "resolution": size}
            manifest.write_text(json.dumps({"model": model, "slice": {"catalog": entry, "params": slice_params}}))
            inputs.append((size, size**axes, manifest))
        yield name, {"model": model, "catalog": entry, "params": params}, inputs


def medians(measured: dict) -> str:
    return " ".join(f"{c} {measured['normalized_s'][c]['median']:.4f}" for c in COMMANDS)


def sweep(trees: dict, tmp: Path) -> dict:
    """Every sweep point measured on each tree of ``trees`` ({side: its
    measure function}).  One tree's measurements go into the point itself;
    with two (parent and change) the side that goes first alternates from
    point to point, and each point holds both sides and their ratios."""
    sweeps, k = {}, 0
    for name, head, inputs in sweep_inputs(tmp):
        points = []
        for size, nodes, manifest in inputs:
            order = list(trees) if k % 2 == 0 else list(reversed(trees))
            k += 1
            measured = {side: trees[side](manifest) for side in order}
            point = {"resolution": size, "nodes": nodes}
            if len(trees) == 1:
                point.update(measured[order[0]])
            else:
                point.update(order=order, **measured)
                point["change_over_parent"] = ratios(measured["parent"], measured["change"])
            points.append(point)
            print(f"{name:22s} {size:5d}  "
                  + "  ".join(f"{side} {medians(m)} rss {m['peak_rss_mb']:.1f} MB" for side, m in measured.items()),
                  flush=True)
        if len(trees) == 1:
            sweep_slopes = slopes(points)
        else:
            sweep_slopes = {side: slopes([{"nodes": p["nodes"], **p[side]} for p in points]) for side in trees}
        sweeps[name] = {**head, "points": points, "slopes": sweep_slopes}
    return sweeps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="reebkit source tree to run")
    parser.add_argument("--against", type=Path, help="parent source tree, measured side by side with SRC")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(ROOT / "bench"))
    import envstamp

    with tempfile.TemporaryDirectory() as tmp:
        if args.against is None:
            result = {
                "schema": "scale-sweep/1",
                "environment": envstamp.stamp(src.parent, None),
                "src_uncommitted_changes": uncommitted_changes(src.parent),
                "runs": RUNS,
                "min_seconds": MIN_SECONDS,
                "sweeps": sweep({"src": in_process(src)}, Path(tmp)),
            }
        else:
            trees = {"parent": args.against.resolve(), "change": src}
            result = {
                "schema": "scale-sweep-pair/1",
                "environment": {side: envstamp.stamp(tree.parent, None) for side, tree in trees.items()},
                "src_uncommitted_changes": {side: uncommitted_changes(tree.parent) for side, tree in trees.items()},
                "runs": RUNS,
                "min_seconds": MIN_SECONDS,
                "sweeps": sweep({side: in_child(tree) for side, tree in trees.items()}, Path(tmp)),
            }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
