#!/usr/bin/env python3
"""Count the settable options of the driftbench package and its line count.

    python3 scripts/count_options.py

An option is one independently settable value:
- a defaulted parameter of a public function or method (name not starting
  with ``_``), positional or keyword-only;
- an annotated field of a dataclass;
- an ``add_argument`` call of the command-line parser.

All three are read from the source under ``src/driftbench/`` with ``ast``,
nothing is imported.  The line count is that of ``wc -l
src/driftbench/*.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "driftbench"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def count_options(tree: ast.Module) -> int:
    total = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                args = node.args
                total += len(args.defaults)
                total += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            total += sum(isinstance(st, ast.AnnAssign) for st in node.body)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            total += 1
    return total


def totals() -> tuple[int, int]:
    """The package's option count and line count."""
    files = sorted(SRC.glob("*.py"))
    options = sum(count_options(ast.parse(f.read_text())) for f in files)
    lines = sum(f.read_text().count("\n") for f in files)
    return options, lines


def main() -> None:
    options, lines = totals()
    print(f"options {options}")
    print(f"src lines {lines}")


if __name__ == "__main__":
    main()
