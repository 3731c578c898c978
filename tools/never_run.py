"""List the `src/gridres` statements that the tier-1 tests never run.

Runs the tier-1 suite in this process under a line tracer confined to
`src/gridres`, then reports each statement that produced no line event as
`file:line`, followed by `never run: N of M`. Statements run only in a
subprocess (a `gridres` command started by a test) count as never run.
Docstrings, `def`/`class` headers, imports and `global`/`nonlocal`
declarations are not counted.

Run from the repository root:  python tools/never_run.py
Exits with the test run's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridres"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source: str) -> dict[int, range]:
    """First line of each counted statement -> the lines whose line event
    marks it as run: a simple statement's own lines, a compound statement's
    header up to its first body statement."""
    found: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring or a bare string
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def main() -> int:
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hit.get(str(path), set())
        found = statements(path.read_text())
        total += len(found)
        missed += [f"{path.relative_to(ROOT)}:{first}"
                   for first, span in sorted(found.items())
                   if lines.isdisjoint(span)]
    print("\n".join(missed))
    print(f"never run: {len(missed)} of {total}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
