"""``tools/code_size.py`` on a synthetic module: it counts every defaulted
parameter and every defaulted dataclass field, and nothing else."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_size.py"

# 9 settable values: 2 + 1 keyword-only in f, 1 in the method, 1 in the
# lambda, 2 fields of each dataclass form; the plain class's attribute,
# the undefaulted field and the undefaulted parameters do not count
MODULE = '''\
import dataclasses
from dataclasses import dataclass, field


def f(a, b=1, c=2, *, d, e=3):
    return lambda x, y=4: x + y


class Plain:
    size: int = 5

    def method(self, z=None):
        return z


@dataclass
class Options:
    name: str
    count: int = 0
    items: list = field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Frozen:
    low: float = 0.0
    high: float = 1.0
'''


def test_code_size_counts_the_settable_values(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    lines = len(MODULE.splitlines())
    assert out == [
        f"{'mod.py':<16} {lines:>6} lines {9:>4} settable",
        f"{'total':<16} {lines:>6} lines {9:>4} settable in 1 modules",
    ]
