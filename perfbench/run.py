"""Benchmark for mmse_bounds: end-to-end metrics, or per-layer metrics from spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweeps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: paper_sweeps, solve_corpus, mc_verify, or all of them in turn
from this one process. Each run sets up several times and reports the
median set-up time, then runs as many passes of the workload as fit in
--seconds on a 2-core machine (the count depends only on --seconds, so the
inputs depend only on --seed and --seconds; a run that overruns --seconds
by OVERRUN stops early), checks every output outside the timed region, and
prints each metric by name and unit. Times are CPU times of this process
(see workloads.clock). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones, plus the tracing overhead (traced minus
untraced) of each end-to-end metric. Spans go to .perfbench_out/ as JSON
lines, next to a results file that also records the machine and library
versions. --heldout-seed N measures a second, held-out input set after the
first and prints it alongside; the final JSON line keeps the metrics of
--seed and counts the operations of both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracing
import workloads as wl

SETUPS = 9         # untraced set-ups per run; setup_s is their median
TRACED_SETUPS = 3  # extra traced set-ups in a --trace 1 run
OVERRUN = 1.4      # no pass after the second starts past this share of --seconds
COUNTED_BATCHES = 2  # corpus batches whose exact counts a traced run reports

LAYERS = ("cli", "solver", "priors", "mc", "baselines", "problem")
WORKLOAD_TYPES = wl.WORKLOADS

with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def timed_setup(workload, tracer):
    """One set-up: fresh package import, inputs, validation, warm-up solve.

    Returns (CPU seconds divided by the mean of the machine's slowness just
    before and just after, wall seconds, id of the set-up's root span or
    None)."""
    span = tracer.span if tracer else wl.null_span
    before = wl.slowness()
    with span("setup", "bench", root=True) as root:
        t0 = wl.clock()
        with span("setup.import", "bench"):
            program = wl.load_program()
        workload.prepare(program, span)
        cpu, wall = wl.elapsed(t0)
    return 2.0 * cpu / (before + wl.slowness()), wall, root.get("id")


def end_to_end(workload, passes, setup_s, rss):
    """Metrics from a list of passes, each a list of (item key, seconds,
    wall seconds).

    Throughput is the workload's robust rate (see `work_rate`); the latency
    percentiles pool every operation of the run.
    """
    passes = wl.timings(passes)
    ops = workload.op_times(passes)
    return {
        "setup_s": setup_s,
        "work_per_cpu_s": workload.work_rate(passes),
        "op_cpu_p50_ms": 1e3 * wl.percentile(ops, 50),
        "op_cpu_p90_ms": 1e3 * wl.percentile(ops, 90),
        "peak_rss_mb": rss,
    }


def per_layer(tracer, pass_roots, count_roots, setup_roots, plain, traced):
    """Roll the spans of the traced passes up into per-pass layer metrics.

    Exact counts are summed over `count_roots`: the first traced pass when
    every pass repeats the same inputs, else the first COUNTED_BATCHES
    traced passes, which every run makes whatever the machine's speed.
    """
    n = len(pass_roots)
    spans = tracing.descendants(tracer.spans, pass_roots)
    self_t = tracing.self_times(tracer.spans)
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def dur(recs):
        return sum(r["end"] - r["start"] for r in recs)

    def busy(name):
        return dur(by_name.get(name, ())) / n

    solves = by_name.get("solver.solve_bound", [])
    solve_ms = [1e3 * (r["end"] - r["start"]) for r in solves]
    cli_ids = {r["id"] for r in spans if r["layer"] == "cli"}
    row_solver = [r for r in spans if r["layer"] == "solver" and r["parent"] in cli_ids]
    cli_wall = dur(r for r in spans if r["layer"] == "cli")

    counted = tracing.descendants(tracer.spans, count_roots)
    counted_solves = [r for r in counted if r["name"] == "solver.solve_bound"]
    counted_mc = [r["attrs"] for r in counted if r["name"] == "mc.mc_weighted_sum"]
    chunk = 128  # outer draws per block in the Monte Carlo kernel

    m = {
        "cli.sweep_p.s": busy("cli.sweep_p"),
        "cli.sweep_ball.s": busy("cli.sweep_ball"),
        "cli.verify.s": busy("cli.verify"),
        "cli.pool_overlap": dur(row_solver) / cli_wall if cli_wall else 0.0,
        "solver.solve_bound.calls": len(solves) / n,
        "solver.solve_bound.busy_s": busy("solver.solve_bound"),
        "solver.solve_bound.p50_ms": wl.percentile(solve_ms, 50) if solves else 0.0,
        "solver.solve_bound.p90_ms": wl.percentile(solve_ms, 90) if solves else 0.0,
        "solver.local_bounds_weighted.busy_s": busy("solver.local_bounds_weighted"),
        "solver.inner_iterations": sum(r["attrs"].get("inner", 0) for r in counted_solves),
        "solver.outer_iterations": sum(r["attrs"].get("outer", 0) for r in counted_solves),
        "solver.failures": sum(r["attrs"].get("error") in ("BracketFailure", "NoConvergence")
                               for r in counted_solves),
        "priors.gaussian_log_density.busy_s": busy("priors.gaussian_log_density"),
        "priors.log_density.busy_s": busy("priors.log_density"),
        "priors.closed_form.busy_s": busy("priors.closed_form"),
        "mc.mc_weighted_sum.busy_s": busy("mc.mc_weighted_sum"),
        "mc.inner_samples": sum(a["n_outer"] * a["n_inner"] * a["channels"] for a in counted_mc),
        # computed, not measured: the seven (chunk, n_inner, K) float64
        # arrays one block of the kernel holds (draws, proposals, two
        # repeats, two residuals, weighted proposals)
        "mc.computed_bytes": max((7 * 8 * min(chunk, a["n_outer"]) * a["n_inner"] * a["dimension"]
                                  for a in counted_mc), default=0),
        "baselines.busy_s": busy("baselines.lmmse_upper") + busy("baselines.cramer_rao_lower"),
    }
    setup_spans = tracing.descendants(tracer.spans, setup_roots)
    for name in ("problem.load_config", "problem.validate_problem"):
        m[name + ".s"] = dur(r for r in setup_spans if r["name"] == name) / len(setup_roots)
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(self_t[r["id"]] for r in spans if r["layer"] == layer) / n
    for name in plain:
        m["overhead." + name] = traced[name] - plain[name]
    return m


def measure(workload, trace, seconds=None):
    """Set up, run the workload's passes, check every output, and roll up.

    A traced run runs each pass twice, untraced and then traced, so the
    overhead compares the same inputs. Given `seconds`, no pass after the
    second starts once OVERRUN times that has gone by since the first, so
    a slowed machine or a run of slow failing solves cannot stretch a run
    without limit.
    """
    setups, wall_setups, _ = zip(*(timed_setup(workload, None) for _ in range(SETUPS)))
    tracer = tracing.Tracer() if trace else None
    traced_setups, _, setup_roots = zip(*(timed_setup(workload, tracer)
                                          for _ in range(TRACED_SETUPS))) if trace else ((),) * 3

    attempted = failed = 0
    correct = True
    notes = []
    plain, traced, pass_roots = [], [], []
    rss_first = None
    t0 = time.perf_counter()
    for index in range(max(1, workload.passes // 2) if trace else workload.passes):
        if seconds and index >= 2 and time.perf_counter() - t0 > OVERRUN * seconds:
            break
        runs = [False, True] if trace else [False]
        for traced_run in runs:
            if traced_run:
                with tracing.instrument(tracer, workload.program), \
                        tracer.span("pass", "bench", root=True, index=index) as root:
                    items, outputs = workload.run_pass(tracer, index)
                traced.append(items)
                pass_roots.append(root["id"])
            else:
                items, outputs = workload.run_pass(None, index)
                plain.append(items)
                rss_first = rss_first or peak_rss_mb()
            a, f, ok, note = workload.check(outputs)
            attempted, failed, correct = attempted + a, failed + f, correct and ok
            notes.append(note)

    # in a traced run the untraced peak is the one reached by the first
    # (untraced) pass; the traced passes that follow can only raise it
    rss = rss_first if trace else peak_rss_mb()
    e2e = end_to_end(workload, plain, statistics.median(setups), rss)
    result = {"workload": workload.name, "seed": workload.seed, "correct": correct,
              "attempted": attempted, "failed": failed, "end_to_end": e2e,
              "passes": len(plain), "passes_planned": workload.passes,
              "ops": len(workload.op_times(wl.timings(plain))),
              "setups_s": setups, "wall_setups_s": wall_setups, "checks": notes,
              "wall_pass_seconds": [sum(wall for _, _, wall in items) for items in plain],
              "items": plain}
    if trace:
        e2e_traced = end_to_end(workload, traced, statistics.median(traced_setups),
                                peak_rss_mb())
        count_roots = pass_roots[:1 if workload.repeats_inputs else COUNTED_BATCHES]
        result["per_layer"] = per_layer(tracer, pass_roots, count_roots, setup_roots,
                                        e2e, e2e_traced)
        result["end_to_end_traced"] = e2e_traced
        result["traced_passes"] = len(traced)
        spans_path = wl.OUT / f"{workload.name}-seed{workload.seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        result["spans"] = str(spans_path.relative_to(wl.ROOT))
    return result


def report(result, label=""):
    """Human-readable lines: every metric by name and unit."""
    w = result["workload"] + label
    op = WORKLOAD_TYPES[result["workload"]].op_name
    e2e = result["end_to_end"]
    ops = result["attempted"]
    lines = [
        f"{w}: setup_s = {e2e['setup_s']:.4f} s (CPU, scaled, median of {SETUPS} set-ups; wall "
        f"median {statistics.median(result['wall_setups_s']):.4f} s)",
        f"{w}: {WORKLOAD_TYPES[result['workload']].work_name} = {e2e['work_per_cpu_s']:.6g} "
        f"1/s (work_per_cpu_s, {result['passes']} untraced passes)",
        f"{w}: {op}_p50_ms = {e2e['op_cpu_p50_ms']:.4f} ms, {op}_p90_ms = "
        f"{e2e['op_cpu_p90_ms']:.4f} ms (CPU; op_cpu_p50_ms, op_cpu_p90_ms; "
        f"{result['ops']} samples of one {op})",
        f"{w}: failed_fraction = {result['failed'] / ops:.6g} ({result['failed']} of {ops})",
        f"{w}: peak_rss_mb = {e2e['peak_rss_mb']:.2f} MB",
        f"{w}: correct = {result['correct']}",
    ]
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"{w}: {name} = {value:.6g} {LAYER_UNITS[name]}")
    print("\n".join(lines), flush=True)


def final_line(results, trace):
    """The JSON result: every metric BENCHMARK.json declares for this mode."""
    primary = results[0]
    values, units = ((primary["per_layer"], LAYER_UNITS) if trace
                     else (primary["end_to_end"], E2E_UNITS))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_TYPES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="also measure the inputs of this seed, reported apart")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl.load_program()  # fail before any output when the package is missing
    wl.OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env), flush=True)
    names = list(WORKLOAD_TYPES) if args.workload == "all" else [args.workload]
    seeds = [args.seed] + ([args.heldout_seed] if args.heldout_seed is not None else [])
    by_workload = {}
    for name in names:
        results = []
        for seed in seeds:
            workload = WORKLOAD_TYPES[name](seed, WORKLOAD_TYPES[name].passes_for(args.seconds))
            result = measure(workload, bool(args.trace), args.seconds)
            result["environment"] = env
            path = wl.OUT / f"{name}-seed{seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=2, default=str) + "\n")
            report(result, "" if seed == args.seed else f"[heldout seed {seed}]")
            results.append(result)
        by_workload[name] = final_line(results, args.trace)
    if len(names) == 1:
        print(json.dumps(by_workload[names[0]]))
    else:
        print(json.dumps({"workloads": by_workload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
