"""The three workloads, their inputs and their correctness checks.

Every workload has the same shape:

* ``prepare(program, span)`` is the set-up a user pays once per session:
  config load or corpus generation, validation and one warm-up solve.
* ``run_pass(tracer, index)`` runs pass `index` of the workload once and
  returns the timed items and their outputs. An item is (key, seconds,
  wall seconds). Timing covers the calls into the program only; `seconds`
  is CPU time (see `clock`), and on `solve_corpus` and `mc_verify` also
  divided by the machine's slowness around it (see `probe`). The CLI workloads
  repeat the same commands in every pass; the corpus gives every pass its
  own batch of problems.
* ``check(outputs)`` checks every output, outside the timed region.

Inputs come from the workload seed alone; the program sees only the
generated inputs. README.md in this directory says why each workload
exists and which layer metrics should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference"

# The demo problem: the four-channel ensemble of tests/conftest.py with
# K = 3, mu0 = 0 and Sigma0 = I. Copied here because the bundled example
# config is not part of the repository.
DEMO_NOISE = [
    [[3.0405, -2.1179, 2.1107],
     [-2.1179, 4.1238, -1.3414],
     [2.1107, -1.3414, 4.8199]],
    [[0.9221, 1.2047, 0.5731],
     [1.2047, 2.3851, -0.2188],
     [0.5731, -0.2188, 1.5767]],
    [[9.9708, 0.7749, -2.4323],
     [0.7749, 0.9252, -2.3907],
     [-2.4323, -2.3907, 6.3022]],
    [[1.2353, -1.1973, -1.1141],
     [-1.1973, 4.2225, 1.0695],
     [-1.1141, 1.0695, 1.6102]],
]
DEMO_WEIGHTS = [0.3565, 0.0732, 0.5910, 0.9102]
DEMO_EPSILON = 0.2  # the sweeps and verify replace it; only the warm-up uses it

# Shortened paper grids. Both keep the fold row at p = 0.51 and the
# saturating large-R end of the full 25-row grids.
SWEEPS = (("sweep-p", "0.51:10:5"), ("sweep-ball", "0.1:40:5"))
VERIFY_PRIORS = ("gen-gauss:1", "uniform-ball:2")
VERIFY_N_OUTER, VERIFY_N_INNER = 500, 2000

# solve_corpus ranges (ROADMAP item 4). Never narrow them to drop a
# failing or slow case.
CORPUS_K = range(1, 7)
CORPUS_J = range(1, 6)
LOG10_EPS = (-4.0, math.log10(5.0))
LOG10_COND_MAX = 4.0       # cond(Sigma0) and cond(Sigma_N) <= 1e4
LOG10_SCALE = (-1.0, 2.0)  # smallest eigenvalue of Sigma0 and of each Sigma_N
LOG10_WEIGHT = (-1.0, 1.0)

# The machine-speed probe: fixed small-matrix numpy and interpreter work,
# the kind of work the solver does, independent of the program. On a
# shared 2-core x86-64 machine the speed of a core swings by up to 2x
# within seconds, and over 2 s windows the probe's speed and the solver's
# move together (correlation 0.95). A probe runs after every corpus solve,
# and each solve's CPU time is divided by the median of the probes within
# PROBE_WINDOW solves of it over PROBE_REF_S, the probe's median time on
# the machine the benchmark was written on. Each `verify` call's CPU time,
# and each set-up's, is divided by the mean of the readings (medians of
# PROBE_BLOCK probes) just before and just after it. `paper_sweeps` is not
# scaled: its pool keeps both CPUs busy, and readings between its
# subcommands made its times noisier, not steadier.
PROBE_M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
PROBE_REPS = 120
PROBE_REF_S = 3.0e-3
PROBE_WINDOW = 4
PROBE_BLOCK = 15

KL_TOL = 1e-10
RESIDUAL_TOL = 1e-8
ORACLE_RTOL = 1e-8
CSV_RTOL = 1e-8


def load_program():
    """Import mmse_bounds afresh from this checkout's src/ directory.

    Earlier imports of the package are dropped first, so each call pays
    the package's own import cost (numpy and scipy stay loaded). Raises
    ImportError when the package is missing or resolves elsewhere.
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "mmse_bounds" or n.startswith("mmse_bounds.")]:
        del sys.modules[name]
    program = importlib.import_module("mmse_bounds")
    importlib.import_module("mmse_bounds.cli")
    origin = Path(program.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"mmse_bounds resolved to {origin}, not to {src}")
    return program


def null_span(name, layer, root=False, **attrs):
    return contextlib.nullcontext({"attrs": attrs})


def clock():
    """(wall seconds, CPU seconds of this process's threads and of the child
    processes it has waited for).

    The benchmark's times are CPU times. On a shared virtual machine the
    host takes the CPUs away from time to time (steal), by a third or more
    when both are busy, as under the sweep pool; wall time counts those
    gaps and CPU time does not. Work the program hands to threads or to
    child processes that have ended by the time the call returns is
    counted.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), time.process_time() + children.ru_utime + children.ru_stime


def elapsed(start):
    """(CPU seconds, wall seconds) since `start`, a reading of `clock`."""
    wall, cpu = clock()
    return cpu - start[1], wall - start[0]


def probe():
    """CPU seconds the probe takes now."""
    t0 = time.process_time()
    for _ in range(PROBE_REPS):
        np.linalg.eigh(PROBE_M)
        np.linalg.solve(PROBE_M, PROBE_M)
        sum(i * i for i in range(30))
    return time.process_time() - t0


def slowness():
    """The machine's slowness now: the median of PROBE_BLOCK probes over
    PROBE_REF_S."""
    return statistics.median(probe() for _ in range(PROBE_BLOCK)) / PROBE_REF_S


def timings(passes):
    """Passes of (key, seconds, wall seconds) items as (key, seconds) items."""
    return [[(key, t) for key, t, _ in items] for items in passes]


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def demo_config():
    return {
        "dimension": 3,
        "mu0": [0.0, 0.0, 0.0],
        "sigma0": np.eye(3).tolist(),
        "channels": [{"lambda": w, "sigma_n": n} for w, n in zip(DEMO_WEIGHTS, DEMO_NOISE)],
        "epsilon": DEMO_EPSILON,
    }


def warm_up(program, span):
    """One joint upper-bound solve on the demo problem."""
    ensemble = program.ChannelEnsemble.from_arrays(
        [np.array(m) for m in DEMO_NOISE], DEMO_WEIGHTS)
    ball = program.DivergenceBall(
        program.GaussianReference(np.zeros(3), np.eye(3)), DEMO_EPSILON)
    with span("problem.validate_problem", "problem"):
        prob = program.validate_problem(ensemble, ball)
    with span("solver.solve_bound", "solver"):
        program.solve_bound("upper", prob, ball)


def run_cli(program, argv):
    """cli.main(argv) with its output captured; (exit code, (CPU seconds,
    wall seconds), stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        rc = program.cli.main(argv)
        dt = elapsed(t0)
    return rc, dt, out.getvalue(), err.getvalue()


class Workload:
    pass_estimate_s = 1.0  # one untraced pass on a 2-core machine
    repeats_inputs = True  # every pass runs the same inputs

    @classmethod
    def passes_for(cls, seconds):
        """Passes that fill `seconds`; fixed by `seconds`, not by measured speed."""
        return max(2, round(seconds / cls.pass_estimate_s))

    def __init__(self, seed, passes):
        self.seed = seed
        self.passes = passes
        self.program = None

    def work_rate(self, passes):
        """Work per second: the median over passes, each a list of (item key,
        seconds), so a pass slowed by a neighbour on a shared machine moves
        it less."""
        return statistics.median(self.work_per_pass / sum(t for _, t in items)
                                 for items in passes)


class CliWorkload(Workload):
    """Shared by the two workloads that run CLI subcommands on the demo config."""

    probe_scaled = False  # divide each subcommand's time by the slowness around it

    def __init__(self, seed, passes):
        super().__init__(seed, passes)
        OUT.mkdir(exist_ok=True)
        self.config_path = OUT / "demo.json"
        self.config_path.write_text(json.dumps(demo_config(), indent=2) + "\n")

    def prepare(self, program, span):
        self.program = program
        with span("problem.load_config", "problem"):
            ensemble, ball = program.load_config(str(self.config_path))
        with span("problem.validate_problem", "problem"):
            program.validate_problem(ensemble, ball)
        warm_up(program, span)

    def commands(self):
        raise NotImplementedError

    def run_pass(self, tracer, index):
        span = tracer.span if tracer else null_span
        items, outputs = [], []
        before = slowness() if self.probe_scaled else 1.0
        for key, argv in self.commands():
            with span("cli." + argv[0].replace("-", "_"), "cli", root=True):
                rc, (cpu, wall), out, err = run_cli(self.program, argv)
            after = slowness() if self.probe_scaled else 1.0
            items.append((key, 2.0 * cpu / (before + after), wall))
            outputs.append((key, rc, out, err))
            before = after
        return items, outputs

    def op_times(self, passes):
        """One operation is a whole pass: what a user waits for."""
        return [sum(t for _, t in items) for items in passes]


class PaperSweeps(CliWorkload):
    name = "paper_sweeps"
    work_name = "rows_per_s"
    op_name = "pass"
    pass_estimate_s = 6.0

    def commands(self):
        for sub, grid in SWEEPS:
            yield sub, [sub, "--config", str(self.config_path), "--grid", grid,
                        "--out", str(OUT / f"{sub}.csv")]

    @property
    def work_per_pass(self):
        return sum(int(grid.split(":")[2]) for _, grid in SWEEPS)

    def check(self, outputs):
        attempted = failed = 0
        correct = True
        notes = {}
        for sub, rc, _, err in outputs:
            ref_text = (REFERENCE / f"{sub}.csv").read_text()
            rows = ref_text.count("\n") - 1
            attempted += rows
            if rc != 0:  # an aborted sweep: its rows are neither done nor checked
                failed += rows
                correct = False
                notes[sub] = f"exit code {rc}: {err.strip()[-200:]}"
                continue
            text = (OUT / f"{sub}.csv").read_text()
            ok, empty_rows, why = compare_csv(text, ref_text)
            failed += empty_rows
            correct = correct and ok
            notes[sub] = {"bytes_identical": text == ref_text, "matches": ok, "why": why,
                          "rows_with_new_empty_cells": empty_rows}
        return attempted, failed, correct, notes


class McVerify(CliWorkload):
    name = "mc_verify"
    work_name = "mc_samples_per_s"
    op_name = "pass"
    pass_estimate_s = 4.0
    probe_scaled = True

    def commands(self):
        for prior in VERIFY_PRIORS:
            yield prior, ["verify", "--config", str(self.config_path), "--prior", prior,
                          "--n-outer", str(VERIFY_N_OUTER), "--n-inner", str(VERIFY_N_INNER),
                          "--seed", str(self.seed)]

    @property
    def work_per_pass(self):
        return len(VERIFY_PRIORS) * VERIFY_N_OUTER * VERIFY_N_INNER * len(DEMO_WEIGHTS)

    def check(self, outputs):
        attempted, failed, correct, notes = 0, 0, True, {}
        for prior, rc, out, err in outputs:
            attempted += 1
            last = (out.strip() or err.strip()).splitlines()
            notes[prior] = f"exit code {rc}: {last[-1] if last else ''}"
            if rc != 0:  # 3 is FAIL (no bracket); any other code is an error
                failed += 1
                correct = False
        return attempted, failed, correct, notes


def compare_csv(text, ref_text):
    """(matches, rows with a cell empty here but filled in the reference, reason).

    A match needs the reference header and row count, every value within
    CSV_RTOL of the reference, and no new empty cell.
    """
    lines, ref = text.splitlines(), ref_text.splitlines()
    if not lines or lines[0] != ref[0]:
        return False, 0, "header differs"
    if len(lines) != len(ref):
        return False, 0, f"{len(lines) - 1} rows, reference has {len(ref) - 1}"
    empty_rows, why = 0, ""
    for row, ref_row in zip(lines[1:], ref[1:]):
        cells, ref_cells = row.split(","), ref_row.split(",")
        if len(cells) != len(ref_cells):
            return False, empty_rows, f"row {row!r} has {len(cells)} cells"
        new_empty = False
        for a, b in zip(cells, ref_cells):
            if a == "" or b == "":
                new_empty = new_empty or (a == "" and b != "")
                continue
            x, y = float(a), float(b)
            if abs(x - y) > CSV_RTOL * max(abs(x), abs(y)):
                return False, empty_rows, f"{a} differs from reference {b}"
        if new_empty:
            empty_rows += 1
            why = why or f"new empty cell in row {row!r}"
    return empty_rows == 0, empty_rows, why


def spd(rng, k, log10_scale, log10_cond):
    """Random SPD matrix: random rotation, smallest eigenvalue 10**log10_scale,
    condition number exactly 10**log10_cond (K >= 2)."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    t = np.sort(rng.random(k))
    if k > 1:
        t[0], t[-1] = 0.0, 1.0
    ev = 10.0 ** (log10_scale + log10_cond * t)
    m = (q * ev) @ q.T
    return 0.5 * (m + m.T)


def make_corpus(seed, batches):
    """`batches` batches of well-posed problems, one per (K, J) cell in each,
    as plain arrays.

    Within every (K, J) cell the radius, the scale and conditioning of the
    reference and the scale of each noise covariance are Latin-hypercube
    stratified over the batches, so each cell spans their full ranges evenly
    on every seed and the mix of easy and hard solves, which sets the
    latency percentiles, varies little from seed to seed. The rest (the
    rotations, the noise conditioning, mu0, the weights) is i.i.d.
    """
    rng = np.random.default_rng(seed)
    cells = [(k, j) for k in CORPUS_K for j in CORPUS_J]
    shape = (len(cells), batches)

    def strata(lo, hi, extra=()):
        order = np.argsort(rng.random((*extra, *shape)), axis=-1)
        return lo + (hi - lo) * (order + rng.random((*extra, *shape))) / batches

    log_eps = strata(*LOG10_EPS)
    log_s0 = strata(*LOG10_SCALE)
    log_c0 = strata(0.0, LOG10_COND_MAX)
    log_sn = strata(*LOG10_SCALE, extra=(max(CORPUS_J),))
    corpus = []
    for b in range(batches):
        batch = []
        for i, (k, j) in enumerate(cells):
            noise = [spd(rng, k, log_sn[n, i, b], rng.uniform(0.0, LOG10_COND_MAX))
                     for n in range(j)]
            batch.append({
                "mu0": rng.normal(size=k),
                "sigma0": spd(rng, k, log_s0[i, b], log_c0[i, b]),
                "noise": noise,
                "weights": 10.0 ** rng.uniform(*LOG10_WEIGHT, size=j),
                "epsilon": float(10.0 ** log_eps[i, b]),
            })
        corpus.append(batch)
    return corpus


def scalar_oracle(direction, sigma0, noise, weights, epsilon):
    """K = 1 closed form: r - log r - 1 = 2 eps with r < 1 (lower) or r > 1
    (upper), x = r Sigma0, bound = sum_j lambda_j x n_j / (x + n_j)."""
    from scipy.optimize import brentq

    def f(r):
        return r - math.log(r) - 1.0 - 2.0 * epsilon

    if direction == "lower":
        r = brentq(f, math.exp(-2.0 * epsilon - 2.0), 1.0, xtol=1e-300, rtol=1e-15)
    else:
        r = brentq(f, 1.0, 4.0 * epsilon + 4.0, xtol=1e-300, rtol=1e-15)
    x = r * float(sigma0[0][0])
    return sum(w * x * float(n[0][0]) / (x + float(n[0][0])) for w, n in zip(weights, noise))


class SolveCorpus(Workload):
    name = "solve_corpus"
    work_name = "solves_per_s"
    op_name = "solve"
    pass_estimate_s = 4.5
    repeats_inputs = False

    def __init__(self, seed, passes):
        super().__init__(seed, passes)
        self.batches = []

    def prepare(self, program, span):
        self.program = program
        batches = []
        for batch in make_corpus(self.seed, self.passes):
            problems = []
            for p in batch:
                ensemble = program.ChannelEnsemble.from_arrays(p["noise"], p["weights"])
                ball = program.DivergenceBall(
                    program.GaussianReference(p["mu0"], p["sigma0"]), p["epsilon"])
                with span("problem.validate_problem", "problem"):
                    problems.append((p, program.validate_problem(ensemble, ball), ball))
            batches.append(problems)
        self.batches = batches
        warm_up(program, span)

    @property
    def work_per_pass(self):
        return 2 * len(CORPUS_K) * len(CORPUS_J)

    def run_pass(self, tracer, index):
        solve = self.program.solve_bound
        if tracer:
            solve = tracer.wrap(solve, "solver.solve_bound", "solver")
        failures = (self.program.BracketFailure, self.program.NoConvergence)
        timed, probes, outputs = [], [], []
        for i, (_, prob, ball) in enumerate(self.batches[index]):
            for direction in ("lower", "upper"):
                t0 = clock()
                try:
                    res = solve(direction, prob, ball)
                except failures as exc:
                    res = exc
                timed.append(((index, i, direction), *elapsed(t0)))
                probes.append(probe())
                outputs.append(((index, i), direction, res))
        items = [(key, cpu * PROBE_REF_S
                  / statistics.median(probes[max(0, n - PROBE_WINDOW):n + PROBE_WINDOW + 1]), wall)
                 for n, (key, cpu, wall) in enumerate(timed)]
        return items, outputs

    def work_rate(self, passes):
        """Solves per second on a batch at each shape's typical cost.

        Every batch holds one problem per (K, J) cell, solved in both
        directions. Each (cell, direction) costs the median of its times over
        the run's batches, and the rate is their count over the sum of those
        medians. A rare slow solve (a failing one can take seconds) barely
        moves its cell's median, so the rate does not hinge on how many of
        them a seed happens to draw; they show in `failed`, in op_cpu_p90_ms and
        in the traced solver.solve_bound.busy_s instead.
        """
        cells = {}
        for items in passes:
            for (_, i, direction), t in items:
                cells.setdefault((i, direction), []).append(t)
        return len(cells) / sum(statistics.median(ts) for ts in cells.values())

    def op_times(self, passes):
        """One operation is one solve."""
        return [t for items in passes for _, t in items]

    def certify(self, key, direction, res):
        """Reasons this solve fails its certificates (empty when it passes)."""
        mb = self.program
        batch, i = key
        p, prob, ball = self.batches[batch][i]
        why = []
        kl = mb.kl_same_mean_gaussians(res.sigma_x, p["sigma0"])
        if not abs(kl - p["epsilon"]) <= KL_TOL:
            why.append(f"|KL - eps| = {abs(kl - p['epsilon']):.3g}")
        resid = mb.opt_covariance_residual(res.alpha, res.sigma_x, prob.ensemble, prob.reference)
        if not resid <= RESIDUAL_TOL:
            why.append(f"optimality residual {resid:.3g}")
        center = mb.weighted_mmse_sum(prob.reference.covariance, prob.ensemble).weighted_sum
        slack = 1e-9 * max(1.0, abs(center))
        value = res.bound_value
        if (direction == "lower" and value > center + slack) or \
                (direction == "upper" and value < center - slack):
            why.append(f"{direction} bound {value!r} on the wrong side of {center!r}")
        if len(p["sigma0"]) == 1:
            exact = scalar_oracle(direction, p["sigma0"], p["noise"], p["weights"], p["epsilon"])
            if not abs(value - exact) <= ORACLE_RTOL * abs(exact):
                why.append(f"scalar oracle {exact!r}, solver {value!r}")
        return why

    def check(self, outputs):
        attempted = failed = 0
        correct = True
        notes = {"failures": [], "certificate_failures": []}
        for i, direction, res in outputs:
            attempted += 1
            if isinstance(res, Exception):
                failed += 1
                notes["failures"].append(f"{i} {direction}: {type(res).__name__}")
                continue
            why = self.certify(i, direction, res)
            if why:
                failed += 1
                correct = False
                notes["certificate_failures"].append(f"{i} {direction}: {'; '.join(why)}")
        return attempted, failed, correct, notes


WORKLOADS = {w.name: w for w in (PaperSweeps, SolveCorpus, McVerify)}
