"""Code lines of Python modules: non-blank, non-comment, outside docstrings.

    python tools/code_lines.py [PATH ...]

Each PATH is a `.py` file or a directory, whose `*.py` files are read (not
its subdirectories'); the default is `src/mmse_bounds` under the
repository root. Prints one line per module, then the total. A line
counts if it holds something other than whitespace and a comment and is
no line of a docstring: the string that opens a module, class or
function. A line inside any other string literal counts, blank or not.
The tool uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree):
    """The line numbers the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The code lines of the Python source text `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "mmse_bounds"],
                        help="a .py file or a directory of them")
    args = parser.parse_args(argv)
    files = []
    for path in args.paths:
        if path.is_dir():
            files += sorted(path.glob("*.py"))
        elif path.suffix == ".py":
            files.append(path)
        else:
            parser.error(f"{path}: not a directory or a .py file")
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        path = path.resolve()
        print(f"{n:6d}  {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
