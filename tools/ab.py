"""Paired CPU comparison of two trees of this repository, task by task.

    python tools/ab.py PARENT_DIR CHANGE_DIR [--rounds 15] > rows.json

Starts one persistent worker process per tree. Each worker imports the
`mmse_bounds` package from its own tree's `src/` and runs every task once
untimed before any sample is kept. Then, for each round, the driver asks
each worker in turn for one sample of each task; which side goes first
alternates by round, so a drift in the machine's speed falls on both
sides alike. A sample is the CPU time (`time.process_time`, every thread
of the worker) of the calls into the package.

Tasks (inputs from `perfbench.workloads`, which this tool imports and
does not change):

* `mc_verify_pass`: `cli.main verify` on the demo problem for each prior
  of the perfbench `mc_verify` pass, at its draw counts and seed 301;
  the pass's CPU and each prior's.
* `kernel_K3_J1`, `kernel_K3_J4`: one `mc._mmse_channels` call with a
  generalized Gaussian p = 1 prior in K = 3, on the first demo noise
  covariance or on all four, 256 outer x 2000 inner draws; CPU per
  million inner samples (outer x inner x channels).
* `kernel_K1_J4`, `kernel_K6_J4`: the same call in K = 1 and K = 6, on
  four seeded random noise covariances with trace about 3K (the demo
  covariances' scale).
* `kernel_ball_K3_J4`: the `kernel_K3_J4` call with a uniform ball
  R = 2 prior, whose weights take the support mask instead of `g`.
* `kernel_K3_J4_odd`: the `kernel_K3_J4` call at n_inner = 2001, whose
  last -z gets weight 0.

Solver tasks, on the perfbench demo problem (its four channels,
reference N(0, I), epsilon = 0.2) unless named otherwise:

* `evaluate`: one G evaluation with its Jacobian, at the lower bound's
  first predictor (the majorize-minimize step from the centre onto the
  sphere): `solver._evaluate`, then `solver._jacobian` on the whitened
  stack it returns; CPU per call, 200 calls a sample. The digest covers
  the residual and the Jacobian.
* `correct`: `solver._correct` at the target (`final` true) from that
  predictor; CPU per call, 40 calls a sample. The digest covers the
  corrected Sigma and alpha, which every tree returns first.
* `certify`: one `solver._certify` of the demo lower bound's answer (its
  Sigma and alpha, solved untimed), the check every candidate of every
  route passes once; CPU per call, 200 calls a sample. The digest covers
  the BoundResult's floats and Sigma.
* `demo_lower`, `demo_upper`: `solve_bound` in each direction; CPU per
  solve, 10 solves a sample.
* `local_lower`, `local_upper`: `local_bound` in each direction on the
  demo channel 1 and the ball of `cli._family("gen-gauss", 1.0, 3)`, a
  reference exactly c I, so the K-scalar route; CPU per solve, 20 solves
  a sample.
* `corpus_k1`, `corpus_k4`: `solve_bound` on one problem of the perfbench
  `solve_corpus` corpus (`make_corpus(301, 1)`, its K = 1 or K = 4 cell
  with J = 4 channels), lower then upper; CPU per solve, 20 or 10 pairs of
  solves a sample.
* `paper_sweeps_pass`: `cli.main` for each command of the perfbench
  `paper_sweeps` pass, with its CSV written to a scratch directory; CPU
  per pass.
* `sweep_ball_lower`: the 25 joint lower bounds of `sweep-ball --grid
  0.1:40:25` (the uniform-ball balls of `cli.parse_grid`'s grid), solved
  as the sweep solves them: each row after the first starts from the
  previous answer recoloured to its reference (`cli._recoloured`); CPU of
  the 25 solves.

Each solver task reports its exact Jacobian count (`jacobians`: per call
or solve, or over all of the task's solves; `paper_sweeps_pass` counts
through a wrapped `solver._evaluate` on its untimed first run; a solve
task reports its answer's `inner_iterations`, which a K-scalar answer
counts in reduced Newton iterations) and a digest of its answers.

Three counts come from one untimed `mc_verify` pass: `normals_per_pass`,
the standard normal values drawn through `mc._rng_from`,
`monomials_per_pass`, the monomial values written by `mc._features`, and
`qr_calls_per_pass`, the calls to `mc._rotations`.

Every task also reports exact counts and a digest of its answers, so a
row says whether both trees computed the same thing. A kernel task passes
`_mmse_channels` a rotation seed spawned from the inner seed as
`mc_weighted_sum` spawns it. A task that fails in one tree (a private
function that is missing or has a new signature) is reported under
`errors` with its message, never dropped silently.

The output is one JSON object: `rows`, one per metric, each with its
unit, both sides' median and quartiles, the number of paired samples,
how many pairs the change won (ties count for neither side) and
parent_over_change, the ratio of the medians; plus `counts` and
`errors`.

The noise floor of a task on the machine at hand comes from an A/A run:
two copies of the same tree (for example two `git archive` extracts of
one commit), never the same directory on both sides. A same-directory
run understates the floor: two copies whose package code was identical
once read a Monte Carlo kernel row 0.918x and another 1.05x, where the
same-directory run stayed within 0.98-1.013x, a per-process bias of up
to 8%.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VERIFY_SEED = 301
KERNEL_P, KERNEL_RADIUS = 1.0, 2.0  # the generalized Gaussian's p, the ball's R
KERNEL_N_OUTER = 256
SOLVER_REPS = {"evaluate": 200, "correct": 40, "certify": 200, "demo_lower": 10,
               "demo_upper": 10, "local_lower": 20, "local_upper": 20, "corpus_k1": 20,
               "corpus_k4": 10}
SWEEP_BALL_GRID = "0.1:40:25"
LOCAL_CHANNEL = 1
CORPUS_SEED = 301
CORPUS_CELLS = {"corpus_k1": (1, 4), "corpus_k4": (4, 4)}  # task -> (K, J)
SOLVER_TASKS = ("evaluate", "correct", "certify", "demo_lower", "demo_upper", "local_lower",
                "local_upper", *CORPUS_CELLS, "paper_sweeps_pass", "sweep_ball_lower")
KERNELS = {  # name -> (prior family, K, J, n_inner)
    "kernel_K3_J1": ("gen-gauss", 3, 1, 2000), "kernel_K3_J4": ("gen-gauss", 3, 4, 2000),
    "kernel_K1_J4": ("gen-gauss", 1, 4, 2000), "kernel_K6_J4": ("gen-gauss", 6, 4, 2000),
    "kernel_ball_K3_J4": ("uniform-ball", 3, 4, 2000),
    "kernel_K3_J4_odd": ("gen-gauss", 3, 4, 2001),
}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()[:16]


class Worker:
    """The worker side: imports one tree's package and runs tasks on request."""

    def __init__(self, tree, config_path):
        sys.path[:0] = [str(Path(tree).resolve() / "src"), str(ROOT)]
        import numpy as np
        import mmse_bounds
        import mmse_bounds.cli
        from perfbench import workloads

        origin = Path(mmse_bounds.__file__).resolve()
        if Path(tree).resolve() not in origin.parents:
            raise ImportError(f"mmse_bounds resolved to {origin}, not under {tree}")
        self.np, self.mb, self.wl = np, mmse_bounds, workloads
        self.config_path = config_path
        self.kernel_inputs = {name: self._kernel_input(*case) for name, case in KERNELS.items()}
        ensemble = mmse_bounds.ChannelEnsemble.from_arrays(
            [np.array(m) for m in workloads.DEMO_NOISE], workloads.DEMO_WEIGHTS)
        self.demo = mmse_bounds.validate_problem(ensemble, mmse_bounds.DivergenceBall(
            mmse_bounds.GaussianReference(np.zeros(3), np.eye(3)), workloads.DEMO_EPSILON))
        self.balls = [mmse_bounds.DivergenceBall(mmse_bounds.uniform_ball_moments(r, 3),
                                                 mmse_bounds.uniform_ball_epsilon(r, 3))
                      for r in mmse_bounds.cli.parse_grid(SWEEP_BALL_GRID)]
        self.local_ball = mmse_bounds.cli._family("gen-gauss", 1.0, 3)[1]
        corpus = workloads.make_corpus(CORPUS_SEED, 1)[0]
        self.corpus = {}
        for task, shape in CORPUS_CELLS.items():
            p, = (p for p in corpus if (len(p["sigma0"]), len(p["noise"])) == shape)
            self.corpus[task] = mmse_bounds.validate_problem(
                mmse_bounds.ChannelEnsemble.from_arrays(p["noise"], p["weights"]),
                mmse_bounds.DivergenceBall(mmse_bounds.GaussianReference(p["mu0"], p["sigma0"]),
                                           p["epsilon"]))
        self.sweeps_counted = False  # paper_sweeps_pass counts its Jacobians once

    def _noise(self, k, n_channels):
        """The first demo noise covariances in K = 3; elsewhere seeded random
        ones with trace about 3k."""
        np = self.np
        if k == 3:
            return [np.array(m) for m in self.wl.DEMO_NOISE[:n_channels]]
        rng = np.random.default_rng(22)
        noise = []
        for _ in range(n_channels):
            a = rng.standard_normal((k, k))
            m = a @ a.T + k * np.eye(k)
            noise.append(3.0 * k * m / np.trace(m))
        return noise

    def _kernel_input(self, family, k, n_channels, n_inner):
        """(spec, noise covariances, x, ys, seeds, n_inner): seeded prior
        draws, made here with numpy so both trees get the same inputs, and
        the seeds `_mmse_channels` takes: the inner seed, then the rotation
        seed."""
        np, mb = self.np, self.mb
        rng = np.random.default_rng(20)
        z = rng.standard_normal((KERNEL_N_OUTER, k))
        if family == "gen-gauss":
            radius = (KERNEL_P * rng.gamma(k / KERNEL_P, size=KERNEL_N_OUTER)) ** (1 / KERNEL_P)
            spec = mb.PriorSpec(mb.GeneralizedGaussian(KERNEL_P), k)
        else:
            radius = KERNEL_RADIUS * rng.random(KERNEL_N_OUTER) ** (1 / k)
            spec = mb.PriorSpec(mb.UniformBall(KERNEL_RADIUS), k)
        x = z / np.linalg.norm(z, axis=1, keepdims=True) * radius[:, None]
        noise = self._noise(k, n_channels)
        ys = [x + rng.standard_normal(x.shape) @ np.linalg.cholesky(s).T for s in noise]
        seed = np.random.SeedSequence(21)
        seeds = [seed, seed.spawn(1)[0]]
        return spec, noise, x, ys, seeds, n_inner

    def _verify(self, prior):
        wl = self.wl
        argv = ["verify", "--config", self.config_path, "--prior", prior,
                "--n-outer", str(wl.VERIFY_N_OUTER), "--n-inner", str(wl.VERIFY_N_INNER),
                "--seed", str(VERIFY_SEED)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.process_time()
            code = self.mb.cli.main(argv)
            cpu = time.process_time() - t0
        return cpu, code, out.getvalue() + err.getvalue()

    def mc_verify_pass(self):
        wl = self.wl
        metrics, texts = {}, []
        for prior in wl.VERIFY_PRIORS:
            cpu, code, text = self._verify(prior)
            metrics[f"verify_{prior}_cpu_ms"] = 1e3 * cpu
            texts.append(f"exit {code}\n{text}".encode())
        metrics = {"mc_verify_pass_cpu_ms": sum(metrics.values()), **metrics}
        inner = (len(wl.VERIFY_PRIORS) * wl.VERIFY_N_OUTER * wl.VERIFY_N_INNER
                 * len(wl.DEMO_WEIGHTS))
        return metrics, {"inner_samples": inner, "output_sha256": _digest(*texts)}

    def kernel(self, name):
        spec, noise, x, ys, seeds, n_inner = self.kernel_inputs[name]
        t0 = time.process_time()
        sq_err, ess = self.mb.mc._mmse_channels(spec, noise, x, ys, *seeds, n_inner)
        cpu = time.process_time() - t0
        inner = KERNEL_N_OUTER * n_inner * len(noise)
        return ({f"{name}_cpu_ms_per_million_inner_samples": 1e3 * cpu / (inner / 1e6)},
                {"inner_samples": inner, "answers_sha256": _digest(sq_err, ess)})

    def draw_counts(self):
        """Standard normal values one mc_verify pass draws, counted through a
        wrapped `mc._rng_from`, monomial values it writes, counted through a
        wrapped `mc._features`, and its QR calls, counted through a wrapped
        `mc._rotations` (untimed)."""
        mc, count, monomials, qr_calls = self.mb.mc, [0], [0], [0]
        real, real_features, real_rotations = mc._rng_from, mc._features, mc._rotations

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, **kwargs):
                values = self.gen.standard_normal(*args, **kwargs)
                count[0] += values.size
                return values

            def __getattr__(self, name):
                return getattr(self.gen, name)

        def counting_features(z, out):
            monomials[0] += out.size
            return real_features(z, out)

        def counting_rotations(gauss):
            qr_calls[0] += 1
            return real_rotations(gauss)

        mc._rng_from = lambda seed: Counting(real(seed))
        mc._features = counting_features
        mc._rotations = counting_rotations
        try:
            for prior in self.wl.VERIFY_PRIORS:
                self._verify(prior)
        finally:
            mc._rng_from, mc._features, mc._rotations = real, real_features, real_rotations
        return {"normals_per_pass": count[0], "monomials_per_pass": monomials[0],
                "qr_calls_per_pass": qr_calls[0]}

    def _predictor(self):
        """(context, Sigma, alpha, t^2): the demo lower bound's first predictor."""
        solver, eps = self.mb.solver, self.demo.epsilon
        ctx = solver._Ctx(self.demo)
        t2 = self.np.sqrt(eps) ** 2
        return (ctx, *solver._mm_step(ctx, ctx.sigma0, t2, -1.0), t2)

    def evaluate(self):
        solver = self.mb.solver
        ctx, sigma, alpha, t2 = self._predictor()
        chol = self.np.linalg.cholesky(sigma)
        reps = SOLVER_REPS["evaluate"]
        t0 = time.process_time()
        for _ in range(reps):
            out = solver._evaluate(ctx, sigma, chol, alpha, t2)
            jac = solver._jacobian(ctx, alpha, out[1])
        cpu = time.process_time() - t0
        return ({"evaluate_cpu_us_per_call": 1e6 * cpu / reps},
                {"jacobians": ctx.jacobians // reps, "answers_sha256": _digest(out[0], jac)})

    def correct(self):
        solver, reps = self.mb.solver, SOLVER_REPS["correct"]
        ctx, sigma, alpha, t2 = self._predictor()
        t0 = time.process_time()
        for _ in range(reps):
            ctx.jacobians = 0
            out = solver._correct(ctx, sigma, alpha, t2, True)
        cpu = time.process_time() - t0
        return ({"correct_cpu_us_per_call": 1e6 * cpu / reps},
                {"jacobians": ctx.jacobians,
                 "answers_sha256": _digest(*(self.np.asarray(v) for v in out[:2]))})

    def certify(self):
        solver, reps, eps = self.mb.solver, SOLVER_REPS["certify"], self.demo.epsilon
        answer = self.mb.solve_bound("lower", self.demo, self.demo.ball)
        ctx = solver._Ctx(self.demo)
        t0 = time.process_time()
        for _ in range(reps):
            cert = solver._certify("lower", ctx, eps, answer.sigma_x, answer.alpha)
        cpu = time.process_time() - t0
        floats = [cert.alpha, cert.bound_value, cert.kl_at_solution, *cert.residuals]
        return ({"certify_cpu_us_per_call": 1e6 * cpu / reps},
                {"answers_sha256": _digest(self.np.array(floats), cert.sigma_x)})

    def solves(self, task, solve, *args):
        """CPU per call of solve(*args), SOLVER_REPS[task] calls a sample."""
        reps = SOLVER_REPS[task]
        t0 = time.process_time()
        for _ in range(reps):
            res = solve(*args)
        cpu = time.process_time() - t0
        return ({f"{task}_cpu_ms_per_solve": 1e3 * cpu / reps},
                {"inner_iterations": res.inner_iterations, "steps": res.outer_iterations,
                 "answers_sha256": _digest(self.np.array([res.bound_value, res.alpha]),
                                           res.sigma_x)})

    def corpus_solves(self, task):
        """CPU per solve of the task's corpus problem, lower then upper,
        SOLVER_REPS[task] times a sample."""
        np, prob, reps = self.np, self.corpus[task], SOLVER_REPS[task]
        t0 = time.process_time()
        for _ in range(reps):
            results = [self.mb.solve_bound(d, prob, prob.ball) for d in ("lower", "upper")]
        cpu = time.process_time() - t0
        return ({f"{task}_cpu_ms_per_solve": 1e3 * cpu / (2 * reps)},
                {"inner_iterations": [r.inner_iterations for r in results],
                 "steps": [r.outer_iterations for r in results],
                 "answers_sha256": _digest(*(np.append(r.sigma_x, [r.bound_value, r.alpha])
                                             for r in results))})

    def paper_sweeps_pass(self):
        """The perfbench paper_sweeps commands; their Jacobians are counted
        through a wrapped `solver._evaluate` on the first run only."""
        solver, count = self.mb.solver, not self.sweeps_counted
        real, calls, cpu, texts = solver._evaluate, [0], 0.0, []

        def counting(*args):
            calls[0] += 1
            return real(*args)

        if count:
            solver._evaluate = counting
        try:
            with tempfile.TemporaryDirectory() as tmp:
                for sub, grid in self.wl.SWEEPS:
                    out_csv = Path(tmp) / f"{sub}.csv"
                    argv = [sub, "--config", self.config_path, "--grid", grid,
                            "--out", str(out_csv)]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        t0 = time.process_time()
                        code = self.mb.cli.main(argv)
                        cpu += time.process_time() - t0
                    csv = out_csv.read_bytes() if out_csv.exists() else b""
                    texts.append(f"exit {code}\n{out.getvalue()}{err.getvalue()}".encode() + csv)
        finally:
            solver._evaluate = real
        self.sweeps_counted = True
        counts = {"answers_sha256": _digest(*texts)}
        if count:
            counts["jacobians"] = calls[0]
        return {"paper_sweeps_pass_cpu_ms": 1e3 * cpu}, counts

    def sweep_ball_lower(self):
        mb, demo = self.mb, self.demo
        t0 = time.process_time()
        results = []
        for ball in self.balls:
            start = (mb.cli._recoloured(results[-1].sigma_x, l0_prev, ball.reference_chol)
                     if results else None)
            results.append(mb.solve_bound("lower", demo.ensemble, ball, start=start))
            l0_prev = ball.reference_chol
        cpu = time.process_time() - t0
        return ({"sweep_ball_lower_cpu_ms": 1e3 * cpu},
                {"jacobians": sum(r.inner_iterations for r in results),
                 "answers_sha256": _digest(*(self.np.append(r.sigma_x, [r.bound_value, r.alpha])
                                             for r in results))})

    def run(self, task):
        if task == "mc_verify_pass":
            return self.mc_verify_pass()
        if task == "draw_counts":
            return {}, self.draw_counts()
        if task in ("demo_lower", "demo_upper"):
            return self.solves(task, self.mb.solve_bound, task[5:], self.demo, self.demo.ball)
        if task in ("local_lower", "local_upper"):
            return self.solves(task, self.mb.local_bound, task[6:], self.demo.ensemble,
                               LOCAL_CHANNEL, self.local_ball)
        if task in CORPUS_CELLS:
            return self.corpus_solves(task)
        if task in SOLVER_TASKS:
            return getattr(self, task)()
        return self.kernel(task)


def worker_main(tree, config_path):
    """Answer one JSON line per task name read from stdin."""
    worker = Worker(tree, config_path)
    for line in sys.stdin:
        task = line.strip()
        try:
            metrics, counts = worker.run(task)
            reply = {"metrics": metrics, "counts": counts}
        except Exception as exc:  # reported by the driver as this task's error
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Side:
    """The driver's handle on one worker process."""

    def __init__(self, tree, config_path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), config_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, task):
        self.proc.stdin.write(task + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()} on task {task}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent_dir, change_dir, rounds):
    tasks = ["mc_verify_pass", *KERNELS, *SOLVER_TASKS]
    samples = {}  # metric -> ([parent samples], [change samples])
    counts = {}  # task -> [parent counts, change counts]
    errors = {}  # task -> {side: message}
    with tempfile.TemporaryDirectory() as tmp:
        config_path = str(Path(tmp) / "demo.json")
        sys.path.insert(0, str(ROOT))
        from perfbench import workloads
        Path(config_path).write_text(json.dumps(workloads.demo_config(), indent=2) + "\n")
        sides = [Side(parent_dir, config_path), Side(change_dir, config_path)]
        try:
            for task in ["draw_counts", *tasks]:  # warm-up, untimed
                for i, side in enumerate(sides):
                    reply = side.ask(task)
                    if "error" in reply:
                        errors.setdefault(task, {})[("parent", "change")[i]] = reply["error"]
                    else:
                        counts.setdefault(task, [None, None])[i] = reply["counts"]
            for r in range(rounds):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for task in tasks:
                    if task in errors:
                        continue
                    for i in order:
                        reply = sides[i].ask(task)
                        if "error" in reply:
                            raise RuntimeError(f"{task} failed in {(parent_dir, change_dir)[i]} "
                                               f"after its warm-up: {reply['error']}")
                        for name, value in reply["metrics"].items():
                            samples.setdefault(name, ([], []))[i].append(value)
                print(f"round {r + 1}/{rounds}", file=sys.stderr, flush=True)
        finally:
            for side in sides:
                side.close()
    rows = []
    for name, (parent, change) in samples.items():
        won = sum(c < p for p, c in zip(parent, change))
        rows.append({"name": name, "unit": "us" if "_cpu_us_" in name else "ms",
                     "better": "lower",
                     "parent": _quartiles(parent), "change": _quartiles(change),
                     "samples": len(parent), "change_won": won,
                     "parent_over_change": round(statistics.median(parent)
                                                 / statistics.median(change), 3)})
    same = {task: pair[0] == pair[1] for task, pair in counts.items()}
    return {"rows": rows, "counts": counts, "same_counts_and_answers": same,
            "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    for tree in (args.parent_dir, args.change_dir):
        if not (Path(tree) / "src" / "mmse_bounds").is_dir():
            parser.error(f"{tree} has no src/mmse_bounds")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    print(json.dumps(compare(args.parent_dir, args.change_dir, args.rounds), indent=1))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker_main(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
