"""The gate scripts under tools/ run on this tree.

Each change is compared with its parent through `tools/corpus_gate.py`,
`tools/code_lines.py` and `tools/ab.py`, and the tests' reach is read by
`tools/line_trace.py`; these tests run each in a subprocess, as they are
run from the command line, so a change to what they import
(`solve_bound`'s signature, `BoundResult`'s fields, the corpus) breaks
them here first. `tools/cli_gate.py` takes several seconds and is
left out, `tools/ab.py` runs one short task, and `tools/line_trace.py` one
small test file.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_corpus_gate_round_trip(tmp_path):
    saved = tmp_path / "answers.npz"
    _run("tools/corpus_gate.py", "301", "302", "--batches", "1", "--save", str(saved))
    lines = _run("tools/corpus_gate.py", "301", "302", "--batches", "1", "--against", str(saved))
    assert not [line for line in lines if line.startswith("FAIL")]
    for direction in ("lower", "upper"):
        assert any(line.startswith(f"{direction}: 30 bitwise equal, 0 moved") for line in lines)


def test_code_lines_total():
    rows = [line.split() for line in _run("tools/code_lines.py")]
    *modules, (total, label) = rows
    assert label == "total"
    assert modules and all(path.endswith(".py") for _, path in modules)
    assert int(total) == sum(int(n) for n, _ in modules)


def test_ab_runs_the_tasks_it_is_named():
    out = json.loads("\n".join(_run("tools/ab.py", ".", ".", "lmmse_upper", "--rounds", "2")))
    (row,) = out["rows"]
    assert row["name"] == "lmmse_upper_cpu_us_per_call" and row["samples"] == 2
    assert out["same_counts_and_answers"] == {"lmmse_upper": True}
    assert out["errors"] == {}


def test_line_trace_lists_the_statements_a_test_file_never_reaches(tmp_path):
    test = tmp_path / "test_kl.py"
    test.write_text("import numpy as np\nfrom mmse_bounds import kl_same_mean_gaussians\n\n\n"
                    "def test_kl():\n"
                    "    assert kl_same_mean_gaussians(np.eye(2), np.eye(2)) == 0.0\n")
    proc = subprocess.run([sys.executable, "tools/line_trace.py", str(test), "-q",
                           "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    listed = set(proc.stdout.splitlines())
    source = (ROOT / "src" / "mmse_bounds" / "gaussian.py").read_text(encoding="utf-8")

    def at(text):
        (n,) = [n for n, line in enumerate(source.splitlines(), 1) if text in line]
        return f"src/mmse_bounds/gaussian.py:{n}"

    assert at("value = 0.5 * (trace - k - (logdet_x - logdet_0))") not in listed
    assert at('raise NotPositiveDefinite(f"{name} has non-finite entries"') in listed
    assert at("traces = np.trace(mmse_matrix(sigma_x, ensemble)") in listed
