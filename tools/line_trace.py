"""Statements of `src/mmse_bounds/` that a pytest run never reaches.

    python tools/line_trace.py [PYTEST ARGS]

Runs pytest in this process with PYTEST ARGS (none: the configured test
paths) under `sys.settrace`, tracing only frames whose code lies under
`src/mmse_bounds/` of this tree, which goes first on `sys.path`. Then lists,
as `path:line`, one per line, every statement inside a function body that
never ran. A statement ran if a line event fell on its own lines: every
line of a simple statement, the header of a compound one (from its first
decorator to the line before its first body statement). A bare constant
statement (a docstring, nested functions' included) counts as no
statement, and so do `global` and `nonlocal`; both compile to no code.
Code run in a subprocess is not seen.

Exits 1 if it lists a line, with pytest's own status if pytest could not
run the tests (2 or more: interrupted, an internal or usage error, or no
tests collected), and 0 otherwise. A failing test does not change the
status, since the trace is of what ran. The tool uses the standard library
only (and pytest, which it runs).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmse_bounds"


def _blocks(stmt):
    """The statement lists directly under the statement `stmt`."""
    yield from (getattr(stmt, field, []) for field in ("body", "orelse", "finalbody"))
    yield from (handler.body for handler in getattr(stmt, "handlers", []))
    yield from (case.body for case in getattr(stmt, "cases", []))


def _own_lines(stmt):
    """The lines on which a line event shows that `stmt` ran."""
    if not getattr(stmt, "body", None):
        return set(range(stmt.lineno, stmt.end_lineno + 1))
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return set(range(first, max(stmt.body[0].lineno, first + 1)))


def _statements(body):
    """Each statement of `body` and of the blocks under it, but not of the
    bodies of nested functions, which are functions of their own."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
            continue
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for block in _blocks(stmt):
                yield from _statements(block)


def missed(path, hits):
    """The first lines of the statements inside function bodies of the
    module at `path` that no line in `hits` shows ran, in order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(s.lineno for s in _statements(fn.body) if not _own_lines(s) & hits)
    return sorted(lines)


def main(argv):
    sys.path.insert(0, str(PACKAGE.parent))
    hits, files = {}, {}  # package path -> lines run; co_filename -> its lines or None

    def line(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = hits.setdefault(path, set()) if PACKAGE in path.parents else None
        return None if files[name] is None else line

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status >= 2:
        return int(status)
    listed = [f"{path.relative_to(ROOT).as_posix()}:{n}" for path in sorted(PACKAGE.rglob("*.py"))
              for n in missed(path, hits.get(path, set()))]
    for item in listed:
        print(item)
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
