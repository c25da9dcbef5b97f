"""Byte gate over the paper's CLI commands.

Runs each command below on `examples/paper_fig1.json`, each in its own
`python -m mmse_bounds.cli` subprocess with the tree's `src` first on
PYTHONPATH, and prints its exit code and the SHA-256 of its stdout and of
its stderr, then one SHA-256 over all of them. Two trees that print the
same final hash give byte-identical output and the same exit codes on
every command: the solver's answers through `bound`, both sweeps and
`verify`, and the messages of a failed sweep row (exit 2), of an
invalid prior parameter (exit 1) and of an `--out` path that cannot be
written (exit 1).

Run from anywhere, once on each tree to compare:

    python tools/cli_gate.py

The tool uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "examples/paper_fig1.json"  # relative to ROOT, so messages match across trees

COMMANDS = [
    ["bound"],
    ["sweep-p", "--grid", "0.51:10:25"],
    ["sweep-ball", "--grid", "0.1:40:25"],
    *(["verify", "--prior", prior, "--n-outer", "300", "--n-inner", "500"]
      for prior in ("gen-gauss:1", "uniform-ball:2", "gaussian")),
    ["sweep-p", "--grid", "0.02"],  # an uncertified lower bound: exit 2
    ["sweep-p", "--grid", "0.003"],  # an overflowing prior variance: exit 1
    ["sweep-ball", "--grid", "1", "--out", "examples"],  # a directory as --out: exit 1
]


def run(command):
    """(exit code, stdout SHA-256, stderr SHA-256) of one CLI command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "mmse_bounds.cli", command[0], "--config", CONFIG,
            *command[1:]]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=False)
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest())


def main() -> int:
    total = hashlib.sha256()
    for command in COMMANDS:
        code, out, err = run(command)
        line = f"{' '.join(command)}: exit {code} stdout {out} stderr {err}"
        print(line)
        total.update(line.encode() + b"\n")
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
