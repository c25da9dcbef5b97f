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
when it wrote none). Then come three `bound` runs, each on a config a
`scenario` run wrote in the same temporary directory, which reach the
closed forms: a K = 1 config (the end of its interval), a one-channel
K = 3 config on the reference I (K scalars), and the K = 1 config at an
epsilon whose lower end leaves the double range (exit 2, and the upper
bound is still printed). Then comes one SHA-256 over every command line
so far. Next, one `bound` run at epsilon 1000 on a K = 2 config from the
benchmark's corpus, which the tool writes as `case.json` into a fresh
temporary working directory: the lower bound's search divides by zero
there and fails (exit 2), the upper bound is still printed, and stderr
holds the one solver error line and no numpy warning. Last come three
`bound` runs on that config made invalid, each written the same way:
channel 1's noise covariance indefinite, the reference covariance
indefinite, and a JSON `NaN` in the reference covariance. Each exits 1,
and its stderr is the one line of the definiteness check that names the
matrix ("channel 1 noise covariance is not positive definite",
"reference covariance is not positive definite", "reference covariance
has non-finite entries").

Two trees that print the same `sha256` line give byte-identical output and
the same exit codes on every command: the solver's answers through
`bound` (on the paper config and on both closed forms), both sweeps and
`verify`, the config `scenario` writes, and the messages of a failed
sweep row (exit 2), of an invalid prior parameter or family (exit 1), of
an `--out` path that cannot be written (exit 1), of a negative KL radius
(exit 1), of a negative sensor distance (exit 1), of a zero channel
weight (exit 1) and of a K = 1 bound past the double range (exit 2).
Two trees that also print the same line for the flagged run give the
same output and exit code on that run, stderr included: a numpy warning
that escapes the solve changes its stderr hash. The three lines after it
pin the messages of an indefinite or non-finite input covariance.

Run from anywhere, once on each tree to compare:

    python tools/cli_gate.py

The tool uses the standard library only.
"""

from __future__ import annotations

import hashlib
import json
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
K1 = [*SCENARIO, "--distances", "0,1.5,4", "--dimension", "1", "--epsilon", "0.25",
      "--weights", "0.2,0.3,0.5"]
ONE_CHANNEL = [*SCENARIO, "--distances", "1.5", "--dimension", "3", "--epsilon", "0.25"]
CLOSED_FORM_COMMANDS = [  # (scenario, the bound run on the config it wrote)
    (K1, ["bound", "--config", OUT]),
    (ONE_CHANNEL, ["bound", "--config", OUT]),
    (K1, ["bound", "--config", OUT, "--epsilon", "1000"]),  # a lower end that underflows: exit 2
]
CASE = "case.json"  # relative to a scratch working directory
FLAGGED_CASE = {  # perfbench make_corpus(300, 1)[0][5], K = 2, J = 1
    "dimension": 2,
    "mu0": [-1.303599484227624, -0.06833446230563332],
    "sigma0": [[646.0001616351767, 1539.3167911109576],
               [1539.3167911109576, 4333.557554959791]],
    "channels": [{"lambda": 0.7703430959097135,
                  "sigma_n": [[1541.7280821202437, 1117.177664435443],
                              [1117.177664435443, 813.2601584552549]]}],
    "epsilon": 0.0018488516964113215,
}
FLAGGED_COMMAND = ["bound", "--config", CASE, "--epsilon", "1000"]  # lower fails: exit 2
REJECTED_COMMAND = ["bound", "--config", CASE]  # on each of REJECTED_CASES: exit 1
INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]
REJECTED_CASES = {  # the message names the matrix
    "channel 1 indefinite": {**FLAGGED_CASE, "channels": [
        *FLAGGED_CASE["channels"], {"lambda": 1.0, "sigma_n": INDEFINITE}]},
    "sigma0 indefinite": {**FLAGGED_CASE, "sigma0": INDEFINITE},
    "sigma0 NaN": {**FLAGGED_CASE, "sigma0": [[float("nan"), 0.0], [0.0, 1.0]]},
}


def run(command, then=None, case=None):
    """(exit code, stdout SHA-256, stderr SHA-256, written config SHA-256
    or None) of one CLI command; `scenario` runs in a scratch directory,
    every other subcommand on CONFIG from ROOT. `then` is a command run
    after `scenario`, in its directory; the exit code and hashes are then
    that command's. With `case`, a config dict, the command runs in a
    scratch directory that holds it as CASE."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cli(args, cwd):
        return subprocess.run([sys.executable, "-m", "mmse_bounds.cli", *args], cwd=cwd,
                              env=env, capture_output=True, check=False)

    with tempfile.TemporaryDirectory() as scratch:
        if case is not None:
            (Path(scratch) / CASE).write_text(json.dumps(case, indent=2) + "\n")
            proc = cli(command, scratch)
        elif command[0] == "scenario":
            proc = cli(command, scratch)
        else:
            proc = cli([command[0], "--config", CONFIG, *command[1:]], ROOT)
        if then is not None:
            proc = cli(then, scratch)
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
    for command, then in CLOSED_FORM_COMMANDS:
        code, out, err, config = run(command, then)
        line = (f"{' '.join(command)} && {' '.join(then)}: exit {code} stdout {out} "
                f"stderr {err} config {config or 'none'}")
        print(line)
        total.update(line.encode() + b"\n")
    print(f"sha256 {total.hexdigest()}")
    code, out, err, _ = run(FLAGGED_COMMAND, case=FLAGGED_CASE)
    print(f"{' '.join(FLAGGED_COMMAND)}: exit {code} stdout {out} stderr {err}")
    for label, case in REJECTED_CASES.items():
        code, out, err, _ = run(REJECTED_COMMAND, case=case)
        print(f"{' '.join(REJECTED_COMMAND)} ({label}): exit {code} stdout {out} stderr {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
