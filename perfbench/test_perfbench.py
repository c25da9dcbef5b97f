"""Tests of the benchmark itself: inputs, checks, spans and exact counts.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

EXACT_COUNTS = ("solver.inner_iterations", "solver.outer_iterations", "solver.failures",
                "mc.inner_samples")


@pytest.fixture(scope="module")
def program():
    return wl.load_program()


def test_corpus_depends_only_on_seed_and_batch_count():
    a, b = wl.make_corpus(7, 3), wl.make_corpus(7, 3)
    assert all(np.array_equal(x["sigma0"], y["sigma0"]) and x["epsilon"] == y["epsilon"]
               for x, y in zip(a[2], b[2]))
    assert a[1][0]["epsilon"] != a[0][0]["epsilon"]
    assert wl.make_corpus(8, 3)[0][0]["epsilon"] != a[0][0]["epsilon"]


def test_corpus_covers_the_stated_ranges():
    batches = 4
    corpus = wl.make_corpus(3, batches)
    assert [len(batch) for batch in corpus] == [len(wl.CORPUS_K) * len(wl.CORPUS_J)] * batches
    for batch in corpus:
        shapes = [(len(p["sigma0"]), len(p["noise"])) for p in batch]
        assert shapes == [(k, j) for k in wl.CORPUS_K for j in wl.CORPUS_J]
    for cell in range(len(corpus[0])):
        # each cell's radii fall one in each of the batch-count strata
        log_eps = np.log10([batch[cell]["epsilon"] for batch in corpus])
        lo, hi = wl.LOG10_EPS
        assert sorted(np.floor((log_eps - lo) / (hi - lo) * batches)) == list(range(batches))
    for p in (p for batch in corpus for p in batch):
        for m in [p["sigma0"], *p["noise"]]:
            ev = np.linalg.eigvalsh(m)
            assert ev[0] > 0 and ev[-1] / ev[0] <= 1e4 * (1 + 1e-9)


def test_scalar_oracle_agrees_with_solver(program):
    corpus = wl.SolveCorpus(seed=4, passes=1)
    corpus.prepare(program, wl.null_span)
    scalar = [i for i, (p, _, _) in enumerate(corpus.batches[0]) if len(p["sigma0"]) == 1]
    assert scalar
    for i in scalar:
        p, prob, ball = corpus.batches[0][i]
        for direction in ("lower", "upper"):
            res = program.solve_bound(direction, prob, ball)
            exact = wl.scalar_oracle(direction, p["sigma0"], p["noise"], p["weights"],
                                     p["epsilon"])
            assert res.bound_value == pytest.approx(exact, rel=wl.ORACLE_RTOL)
            assert corpus.certify((0, i), direction, res) == []


def test_certificates_reject_a_wrong_answer(program):
    corpus = wl.SolveCorpus(seed=4, passes=1)
    corpus.prepare(program, wl.null_span)
    p, prob, ball = corpus.batches[0][0]
    res = program.solve_bound("upper", prob, ball)
    wrong_value = dataclasses.replace(res, bound_value=0.5 * res.bound_value)
    assert corpus.certify((0, 0), "upper", wrong_value)
    wrong_sigma = dataclasses.replace(res, sigma_x=1.01 * res.sigma_x)
    assert corpus.certify((0, 0), "upper", wrong_sigma)


def test_compare_csv():
    ref = (wl.REFERENCE / "sweep-p.csv").read_text()
    assert wl.compare_csv(ref, ref) == (True, 0, "")
    lines = ref.splitlines()
    cells = lines[1].split(",")
    moved = cells[:2] + [repr(float(cells[2]) * (1 + 1e-6))] + cells[3:]
    assert not wl.compare_csv("\n".join([lines[0], ",".join(moved), *lines[2:]]) + "\n", ref)[0]
    emptied = cells[:2] + [""] + cells[3:]
    ok, empty_rows, _ = wl.compare_csv("\n".join([lines[0], ",".join(emptied), *lines[2:]]) + "\n",
                                       ref)
    assert not ok and empty_rows == 1
    assert not wl.compare_csv("\n".join(lines[:-1]) + "\n", ref)[0]


@pytest.mark.parametrize("rc", [1, 2])
def test_an_aborted_sweep_is_incorrect(rc):
    sweeps = wl.PaperSweeps(seed=1, passes=1)
    outputs = [(sub, rc, "", "error: aborted") for sub, _ in wl.SWEEPS]
    attempted, failed, correct, _ = sweeps.check(outputs)
    assert not correct and failed == attempted > 0


@pytest.mark.parametrize("rc", [1, 2, 3])
def test_a_verify_error_or_fail_is_incorrect(rc):
    verify = wl.McVerify(seed=1, passes=1)
    outputs = [(prior, 0, "PASS\n", "") for prior in wl.VERIFY_PRIORS]
    outputs[0] = (wl.VERIFY_PRIORS[0], rc, "", "error")
    attempted, failed, correct, _ = verify.check(outputs)
    assert not correct and (attempted, failed) == (len(wl.VERIFY_PRIORS), 1)


def test_clock_counts_threads_and_waited_for_children():
    def spin():
        t0 = time.process_time()
        while time.process_time() - t0 < 0.2:
            pass

    t0 = wl.clock()
    worker = threading.Thread(target=spin)
    worker.start()
    worker.join()
    subprocess.run([sys.executable, "-c", "import time\nt = time.process_time()\n"
                    "while time.process_time() - t < 0.3: pass"], check=True)
    cpu, wall = wl.elapsed(t0)
    assert cpu >= 0.4 and wall >= 0.3


def test_pool_threads_parent_to_the_open_root_span():
    tracer = tracing.Tracer()

    def row(i):
        with tracer.span("row", "solver") as outer:
            with tracer.span("inner", "problem") as inner:
                return outer["id"], inner["parent"], threading.current_thread().name

    with tracer.span("cmd", "cli", root=True) as cmd:
        with ThreadPoolExecutor(max_workers=4) as pool:
            rows = list(pool.map(row, range(16)))
    by_id = {r["id"]: r for r in tracer.spans}
    for row_id, inner_parent, thread in rows:
        assert by_id[row_id]["parent"] == cmd["id"]
        assert inner_parent == row_id
        assert by_id[row_id]["thread"] == thread
    assert {r["parent"] for r in tracer.spans if r["name"] == "cmd"} == {None}


def test_self_time_merges_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},  # overlaps 2 (another thread)
        {"id": 4, "parent": 1, "start": 7.0, "end": 8.0},
        {"id": 5, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    self_t = tracing.self_times(spans)
    assert self_t[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_t[2] == pytest.approx(2.5)
    assert self_t[3] == pytest.approx(3.0)


def test_instrument_restores_every_name(program):
    before = {(m, a): getattr(getattr(program, m), a)
              for m, a, _, _ in tracing.PATCHES if hasattr(getattr(program, m), a)}
    with tracing.instrument(tracing.Tracer(), program):
        assert all(getattr(getattr(program, m), a) is not f for (m, a), f in before.items())
    assert all(getattr(getattr(program, m), a) is f for (m, a), f in before.items())


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs of each workload on one seed, at the smallest size."""
    out = {}
    for name, cls in wl.WORKLOADS.items():
        out[name] = [run.measure(cls(seed=5, passes=2), trace=True) for _ in range(2)]
    return out


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_exact_counts_repeat(traced_twice, name):
    first, second = (r["per_layer"] for r in traced_twice[name])
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    if name == "mc_verify":
        assert first["mc.inner_samples"] == wl.VERIFY_N_OUTER * wl.VERIFY_N_INNER * 4 * 2
    else:
        assert first["solver.inner_iterations"] > 0


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_result_lines_carry_every_declared_metric(traced_twice, name):
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    result = traced_twice[name][0]
    assert result["correct"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.final_line([result], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in spec[key]}
    assert all(v > 0 for v in result["end_to_end"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
