"""Environment stamp attached to every benchmark result."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _version(dist: str) -> str | None:
    # read from package metadata so that scipy is not imported (and does
    # not count towards peak memory) when the code path never needs it
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(root: Path, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "seed": seed,
    }
