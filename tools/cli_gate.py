"""Byte gate over the CLI's five subcommands.

Runs each command below in its own `python -m mmse_bounds.cli` subprocess
with the tree's `src` first on PYTHONPATH, and prints its exit code and
the SHA-256 of its stdout and of its stderr. The nine paper commands run
on `examples/paper_fig1.json` from the repository root, and the tool
prints one SHA-256 over their lines. Then come an unknown prior family
(exit 1), a negative `bound --epsilon` (exit 1), four `scenario` runs,
each in a fresh temporary working directory with the relative `--out
field.json`, so the printed path is the same on every tree, and a
`sweep-ball` grid on which one row's start from the row before fails
the certificate and that row is solved from the centre. A
`scenario` line also gives the SHA-256 of the config it wrote (`none`
when it wrote none). The last line is one SHA-256 over every command
line.

Two trees that print the same final hash give byte-identical output and
the same exit codes on every command: the solver's answers through
`bound`, both sweeps and `verify`, the config `scenario` writes, and the
messages of a failed sweep row (exit 2), of an invalid prior parameter or
family (exit 1), of an `--out` path that cannot be written (exit 1), of
a negative KL radius (exit 1), of a negative sensor distance (exit 1)
and of a zero channel weight (exit 1).

Run from anywhere, once on each tree to compare:

    python tools/cli_gate.py

The tool uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "examples/paper_fig1.json"  # relative to ROOT, so messages match across trees
OUT = "field.json"  # relative to a scratch working directory, likewise

PAPER_COMMANDS = [
    ["bound"],
    ["sweep-p", "--grid", "0.51:10:25"],
    ["sweep-ball", "--grid", "0.1:40:25"],
    *(["verify", "--prior", prior, "--n-outer", "300", "--n-inner", "500"]
      for prior in ("gen-gauss:1", "uniform-ball:2", "gaussian")),
    ["sweep-p", "--grid", "0.02"],  # an uncertified lower bound: exit 2
    ["sweep-p", "--grid", "0.003"],  # an overflowing prior variance: exit 1
    ["sweep-ball", "--grid", "1", "--out", "examples"],  # a directory as --out: exit 1
]
SCENARIO = ["scenario", "--gamma", "0.5", "--m", "2.5", "--sigma0", "0.8", "--out", OUT]
MORE_COMMANDS = [
    ["verify", "--prior", "laplace:1"],  # an unknown prior family: exit 1
    ["bound", "--epsilon", "-1"],  # a negative radius: exit 1
    [*SCENARIO, "--distances", "0,1.5,4", "--dimension", "2", "--epsilon", "0.25",
     "--weights", "0.2,0.3,0.5"],
    [*SCENARIO, "--distances", "1,-1"],  # a negative distance: exit 1
    [*SCENARIO, "--distances", "0,1.5,4", "--weights", "0,0.3,0.5"],  # a zero weight: exit 1
    [*SCENARIO, "--distances", "0,1.5,4", "--epsilon", "-1"],  # a negative radius: exit 1
    ["sweep-ball", "--grid", "1:1000:10"],  # a start that fails the certificate, at R = 112
]


def run(command):
    """(exit code, stdout SHA-256, stderr SHA-256, written config SHA-256
    or None) of one CLI command; `scenario` runs in a scratch directory,
    every other subcommand on CONFIG from ROOT."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        if command[0] == "scenario":
            cwd, args = Path(scratch), command
        else:
            cwd, args = ROOT, [command[0], "--config", CONFIG, *command[1:]]
        proc = subprocess.run([sys.executable, "-m", "mmse_bounds.cli", *args], cwd=cwd,
                              env=env, capture_output=True, check=False)
        written = Path(scratch) / OUT
        config = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest(), config)


def main() -> int:
    total = hashlib.sha256()
    for i, command in enumerate(PAPER_COMMANDS + MORE_COMMANDS):
        if i == len(PAPER_COMMANDS):
            print(f"paper commands sha256 {total.hexdigest()}")
        code, out, err, config = run(command)
        line = f"{' '.join(command)}: exit {code} stdout {out} stderr {err}"
        if command[0] == "scenario":
            line += f" config {config or 'none'}"
        print(line)
        total.update(line.encode() + b"\n")
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
