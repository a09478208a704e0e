"""Snapshot what the reebkit CLI prints for a fixed set of inputs.

    python3 tools/output_snapshot.py OUTDIR [--src SRC] [--kernel-variants]

For every input below it runs ``reebkit check``, ``chords``,
``chords --force`` and ``collar``, each in a fresh interpreter with
``SRC`` (default: the ``src`` directory next to this script) first on the
import path, and writes ``OUTDIR/out/<input>.<command>.{out,err,code}``:
stdout, stderr and the exit code.  The inputs are written to
``OUTDIR/inputs`` and every command runs there on relative paths, so the
resolved manifest echoed in a report does not depend on OUTDIR.

Inputs:

* the shipped manifests under ``manifests/``;
* the benchmark workload inputs: sheared_unknot at 4096 nodes with
  c = 0.1 and c = -0.5, hopf_circle, torus_r5 at 96x96;
* mesh-file exports: torus_r5 at 24x24 and warped_torus (2-D, r5), and
  the r3 unknot and sheared_unknot c = 0.1 embedded in r5 as
  (x, y, 0, 0, z) (1-D, default collar grid);
* a mesh-file curve with a real self-intersection: the figure-eight
  (sin t, sin 2t / 2, 0) in r3 at 32 nodes, whose nodes t = 0 and t = pi
  coincide, so ``collar`` ends in ``NotASlice`` through the embedding
  check;
* reproducers of mended faults: hopf_circle at 16 nodes with chords up
  to time 20 (``collar`` once exited 1 with a point off S^3); the
  chordless mesh-file curve (cos t, sin t, cos 2t, sin 2t, cos 3t),
  normalized, in r5 at 12 nodes (``chords`` and ``collar`` once exited 1
  with every projection seed failed); hopf_circle at 1024 nodes (the
  former sampled capture scan stepped over every capture ball, so ``chords``
  printed an empty table and ``collar`` said Collarable with 0 chords);
  two sphere mesh files, the 12-node curve (cos t, sin t, cos 2t, sin 2t)
  / sqrt 2 in s3 and the Clifford torus (cos u, sin u, cos v, sin v) /
  sqrt 2 in s3 at 24x24 nodes (``check``, ``chords`` and ``collar`` once
  disagreed about both, since their interpolants left the sphere between
  the nodes); the exact, non-Legendrian mesh-file curve
  normalize(cos(0.3 sin t), sin(0.3 sin t), 0.3 cos t, 0) in s3 at 128
  nodes (``collar`` once said Collarable, exit 0, with no profile
  constructed).

Two snapshots, one per checkout, are compared with ``diff -r A B``: no
difference under ``out/*.out`` and ``out/*.code`` means no command
printed anything different.  Stderr can differ in traceback paths.

Every command must end with a documented exit code and a one-line
message: the script exits 1, naming the input and command, when any
command's stderr holds a Python traceback.

``--kernel-variants`` then reruns every command under each BLAS and SIMD
kernel variant of ``KERNEL_VARIANTS`` (OpenBLAS forced to its Haswell or
its Prescott kernels; numpy without its AVX-512 dispatch), writing
``OUTDIR/variants/<variant>/`` like ``out/``, and names each file that
differs from the default run's.  Printed numbers still depend on the
kernels, so a difference is reported, not an error: it does not change
the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "check": ["check"],
    "chords": ["chords"],
    "chords_force": ["chords", "--force"],
    "collar": ["collar"],
}

WORKLOADS = {
    "wl_sheared_c0.1_n4096": {"model": "r3", "slice": {"catalog": "sheared_unknot", "params": {"c": 0.1, "resolution": 4096}}},
    "wl_sheared_c-0.5_n4096": {"model": "r3", "slice": {"catalog": "sheared_unknot", "params": {"c": -0.5, "resolution": 4096}}},
    "wl_hopf_circle": {"model": "s3", "slice": {"catalog": "hopf_circle", "params": {}}},
    "wl_torus_r5_96": {"model": "r5", "slice": {"catalog": "torus_r5", "params": {}}},
}

REPRODUCERS = {
    "repro_hopf_r16_t20": {"model": "s3", "slice": {"catalog": "hopf_circle", "params": {"resolution": 16, "max_time": 20}}},
    "repro_hopf_r1024": {"model": "s3", "slice": {"catalog": "hopf_circle", "params": {"resolution": 1024}}},
}

# variant name -> environment settings that select other BLAS or SIMD kernels
KERNEL_VARIANTS = {
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_no_avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
}

# (name, catalog entry, catalog params, model, embed (x..., z) into the model)
MESH_EXPORTS = (
    ("mesh_torus_r5_24", "torus_r5", {"resolution": 24}, "r5", False),
    ("mesh_warped_torus", "warped_torus", {}, "r5", False),
    ("mesh_unknot_in_r5", "unknot", {}, "r5", True),
    ("mesh_sheared_c0.1_in_r5", "sheared_unknot", {"c": 0.1}, "r5", True),
)


# (sin t, sin 2t / 2, 0) at 32 nodes, periodic: nodes t = 0 and pi coincide
FIGURE_EIGHT = "mesh_figure_eight_r3"
# (cos t, sin t, cos 2t, sin 2t, cos 3t) / norm at 12 nodes, periodic: no chord
CHORDLESS_R5 = "mesh_chordless_curve_r5"
# (cos t, sin t, cos 2t, sin 2t) / sqrt 2 at 12 nodes in s3, periodic: a slice
CURVE_S3 = "mesh_curve_s3"
# (cos u, sin u, cos v, sin v) / sqrt 2 at 24 x 24 nodes in s3: the Hopf
# fibers lie in it, so it is not transverse to the Reeb field
CLIFFORD_S3 = "mesh_clifford_torus_s3"
# normalize(cos(0.3 sin t), sin(0.3 sin t), 0.3 cos t, 0) at 128 nodes in s3,
# periodic: exact, not Legendrian, no small chords
UNCONSTRUCTED_S3 = "repro_unconstructed_curve_s3"


def write_mesh(inputs: Path, name: str, model: str, params: np.ndarray, points: np.ndarray, periodic: list[bool]):
    """Write one node table, parameters (N, p) then points (N, d), and
    its manifest."""
    header = [f"u{j}" for j in range(params.shape[1])] + [f"a{j}" for j in range(points.shape[1])]
    with open(inputs / f"{name}.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for u, p in zip(params.tolist(), points.tolist()):
            fh.write(",".join(f"{v:.17g}" for v in [*u, *p]) + "\n")
    manifest = {
        "model": model,
        "slice": {"mesh_file": f"{name}.csv", "param_dim": params.shape[1], "periodic": periodic},
    }
    (inputs / f"{name}.json").write_text(json.dumps(manifest), encoding="utf-8")


def write_mesh_exports(inputs: Path, src: Path):
    """Write each export's node table and manifest, using the catalog of
    the checkout under test (an unchanged catalog gives identical files)."""
    sys.path.insert(0, str(src))
    from reebkit import catalog_get

    for name, entry_name, params, model, embed in MESH_EXPORTS:
        slc = catalog_get(entry_name, params).slice
        points = slc.points
        if embed:  # (x, y, z) -> (x, y, 0, 0, z)
            points = np.insert(points, [-1, -1], 0.0, axis=1)
        write_mesh(inputs, name, model, slc.mesh.params, points, [f.periodic for f in slc.factors])
    t = 2 * np.pi * np.arange(32) / 32
    figure_eight = np.stack([np.sin(t), np.sin(2 * t) / 2, 0 * t], axis=-1)
    write_mesh(inputs, FIGURE_EIGHT, "r3", t[:, None], figure_eight, [True])
    t = 2 * np.pi * np.arange(12) / 12
    curve = np.stack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t), np.cos(3 * t)], axis=-1)
    write_mesh(inputs, CHORDLESS_R5, "r5", t[:, None], curve / np.linalg.norm(curve, axis=1)[:, None], [True])
    write_mesh(inputs, CURVE_S3, "s3", t[:, None], curve[:, :4] / np.sqrt(2), [True])
    t = 2 * np.pi * np.arange(24) / 24
    u = np.stack([g.ravel() for g in np.meshgrid(t, t, indexing="ij")], axis=-1)
    torus = np.stack([np.cos(u[:, 0]), np.sin(u[:, 0]), np.cos(u[:, 1]), np.sin(u[:, 1])], axis=-1) / np.sqrt(2)
    write_mesh(inputs, CLIFFORD_S3, "s3", u, torus, [True, True])
    t = 2 * np.pi * np.arange(128) / 128
    curve = np.stack([np.cos(0.3 * np.sin(t)), np.sin(0.3 * np.sin(t)), 0.3 * np.cos(t), 0 * t], axis=-1)
    write_mesh(inputs, UNCONSTRUCTED_S3, "s3", t[:, None], curve / np.linalg.norm(curve, axis=1)[:, None], [True])


def run_commands(names: list[str], inputs: Path, out: Path, env: dict) -> list[str]:
    """Run every command on every input in ``inputs``, writing stdout,
    stderr and exit code under ``out``; the "input (command)" labels whose
    stderr holds a Python traceback."""
    out.mkdir(parents=True, exist_ok=True)
    tracebacks = []
    for name in names:
        for label, command in COMMANDS.items():
            proc = subprocess.run(
                [sys.executable, "-m", "reebkit.cli", *command, f"{name}.json"],
                cwd=inputs, env=env, capture_output=True, text=True,
            )
            stem = out / f"{name}.{label}"
            Path(f"{stem}.out").write_text(proc.stdout, encoding="utf-8")
            Path(f"{stem}.err").write_text(proc.stderr, encoding="utf-8")
            Path(f"{stem}.code").write_text(f"{proc.returncode}\n", encoding="utf-8")
            print(f"{name:28s} {label:13s} exit {proc.returncode}", flush=True)
            if "Traceback (most recent call last)" in proc.stderr:
                tracebacks.append(f"{name}.json ({label})")
    return tracebacks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="reebkit source tree to run")
    parser.add_argument(
        "--kernel-variants", action="store_true", help="rerun under each kernel variant and name the files that differ"
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    inputs, out = args.outdir / "inputs", args.outdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)

    names = []
    for path in sorted((ROOT / "manifests").glob("*.json")):
        shutil.copyfile(path, inputs / path.name)
        names.append(path.stem)
    for name, manifest in {**WORKLOADS, **REPRODUCERS}.items():
        (inputs / f"{name}.json").write_text(json.dumps(manifest), encoding="utf-8")
        names.append(name)
    write_mesh_exports(inputs, src)
    names += [name for name, *_ in MESH_EXPORTS] + [FIGURE_EIGHT, CHORDLESS_R5, CURVE_S3, CLIFFORD_S3, UNCONSTRUCTED_S3]

    env = dict(os.environ, PYTHONPATH=str(src))
    tracebacks = run_commands(names, inputs, out, env)
    for where in tracebacks:
        print(f"traceback on stderr: {where}", file=sys.stderr)
    if args.kernel_variants:
        files = sorted(path.name for path in out.iterdir())
        for variant, settings in KERNEL_VARIANTS.items():
            variant_out = args.outdir / "variants" / variant
            run_commands(names, inputs, variant_out, dict(env, **settings))
            differ = [f for f in files if (variant_out / f).read_bytes() != (out / f).read_bytes()]
            print(f"kernel variant {variant}: {len(differ)} of {len(files)} files differ", flush=True)
            for f in differ:
                print(f"  {f}", flush=True)
    return 1 if tracebacks else 0


if __name__ == "__main__":
    raise SystemExit(main())
