"""Lines per module and the settable-value count of a source tree.

    python3 tools/code_size.py [SRC]

SRC (default: ``src/reebkit`` next to this script's directory) is a
directory of Python modules, read without importing them.  For each
``*.py`` file, sorted by name, the script prints its line count and its
settable values, then the totals.  A settable value is a defaulted
parameter (positional or keyword-only, of a function, method or lambda)
or a defaulted field of a ``@dataclass`` class: each is a value a caller
may set or leave at its default.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def settable_values(source: str) -> int:
    """Defaulted parameters plus defaulted dataclass fields in ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "reebkit")
    args = parser.parse_args(argv)
    total_lines = total_values = 0
    paths = sorted(args.src.glob("*.py"))
    for path in paths:
        text = path.read_text(encoding="utf-8")
        lines, values = len(text.splitlines()), settable_values(text)
        total_lines, total_values = total_lines + lines, total_values + values
        print(f"{path.name:<16} {lines:>6} lines {values:>4} settable")
    print(f"{'total':<16} {total_lines:>6} lines {total_values:>4} settable in {len(paths)} modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
