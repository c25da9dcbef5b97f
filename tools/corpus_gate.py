"""Bitwise gate over the benchmark's solve corpus.

Solves every problem of `perfbench.workloads.make_corpus(seed, 6)` for
SEED_LO <= seed < SEED_HI in both directions, prints each failed solve as
(seed, batch, index) direction and the error, then one SHA-256 over every
answer: `bound_value`, `alpha`, `inner_iterations`, `outer_iterations`
and the bytes of `sigma_x`, in corpus order, with each failure marked in
its place. Two trees that print the same hash give bitwise-identical
answers and the same failures on every solve.

A second SHA-256, the `answers` line, leaves the two iteration counts
out: `bound_value`, `alpha`, `sigma_x` and the failure markers only. A
change that moves Jacobian counts but no answer keeps that line and
changes only the first. Then comes the same answers hash for each (K, J)
cell of the corpus, so a change that moves one cell on purpose can show
that every other cell is bitwise unchanged. Last, per direction, the
Jacobian evaluations of the answered solves with their per-solve p50 and
p90, and those of the failed solves (as their `NoConvergence` carries them).

Run from the repository root, once on each tree to compare:

    python tools/corpus_gate.py 301 331

`--batches N` takes N batches of 30 problems per seed instead of 6, and
`--eps E[,E...]` solves each problem at each listed radius in turn
instead of at its own. The large-radius grid, where many upper bounds
are not certified, is

    python tools/corpus_gate.py 300 303 --batches 1 --eps 10,100,1000,10000

720 solves. A failed solve's line names its radius in the error.

A change that moves answers on purpose is compared solve by solve
instead: `--save FILE` on one tree writes every answer to FILE (a numpy
.npz), and `--against FILE` on the other prints, per direction, how many
answers are bitwise equal and how many moved (and how many of those took
more than one continuation step on either tree), the largest relative
move of `bound_value` up and down, the saved tree's Jacobians beside this
tree's, and every failure gained or lost:

    python tools/corpus_gate.py 301 331 --save parent.npz     # parent tree
    python tools/corpus_gate.py 301 331 --against parent.npz  # changed tree

Both take `--batches`, which must match; neither takes `--eps`, since a
record names its problem and not its radius.

The corpus comes from perfbench, which this script only imports. It uses
numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mmse_bounds import (ChannelEnsemble, DivergenceBall, Gaussian,  # noqa: E402
                         NoConvergence, solve_bound, validate_problem)
from perfbench.workloads import make_corpus  # noqa: E402

BATCHES = 6  # per seed: 6 x 30 (K, J) cells, 360 solves
DIRECTIONS = ("lower", "upper")


def gate(seed_lo, seed_hi, batches=BATCHES, radii=None):
    """(hex digest, answers hex digest, {(K, J): answers hex digest}, solves,
    failures, records) over `batches` batches of seeds seed_lo..seed_hi - 1,
    each problem at its own radius or, where `radii` are given, at each of
    them; `records` holds one array per field of every solve, in corpus
    order (what `--save` writes)."""
    digest, answers, solves, failures = hashlib.sha256(), hashlib.sha256(), 0, []
    cells = {}
    records = {name: [] for name in ("key", "failed", "answer", "bound_value", "jacobians",
                                     "steps")}
    for seed in range(seed_lo, seed_hi):
        for b, batch in enumerate(make_corpus(seed, batches)):
            for i, p in enumerate(batch):
                cell = cells.setdefault((len(p["sigma0"]), len(p["noise"])), hashlib.sha256())
                for d, direction, ball, prob in _solves(p, radii):
                    solves += 1
                    records["key"].append((seed, b, i, d))
                    try:
                        res = solve_bound(direction, prob, ball)
                    except NoConvergence as exc:
                        failures.append((seed, b, i, direction))
                        print(f"FAIL ({seed},{b},{i}) {direction}: {exc}")
                        marker = f"fail {seed} {b} {i} {direction}".encode()
                        for h in (digest, answers, cell):
                            h.update(marker)
                        for name, value in (("failed", True), ("answer", marker),
                                            ("bound_value", np.nan),
                                            ("jacobians", exc.iterations or 0), ("steps", 0)):
                            records[name].append(value)
                        continue
                    sigma_x = res.sigma_x.astype("<f8").tobytes(order="C")
                    answer = struct.pack("<2d", res.bound_value, res.alpha) + sigma_x
                    digest.update(struct.pack("<2d2q", res.bound_value, res.alpha,
                                              res.inner_iterations, res.outer_iterations))
                    digest.update(sigma_x)
                    for h in (answers, cell):
                        h.update(answer)
                    for name, value in (("failed", False), ("answer", answer),
                                        ("bound_value", res.bound_value),
                                        ("jacobians", res.inner_iterations),
                                        ("steps", res.outer_iterations)):
                        records[name].append(value)
    records["answer"] = [hashlib.sha256(a).digest() for a in records["answer"]]
    records = {name: np.array(values, dtype="S32" if name == "answer" else None)
               for name, values in records.items()}
    return (digest.hexdigest(), answers.hexdigest(),
            {kj: h.hexdigest() for kj, h in sorted(cells.items())}, solves, failures, records)


def _solves(p, radii):
    """(index, direction, ball, validated problem) of the corpus problem p's
    solves: at its own radius, or at each of `radii`, both directions."""
    ensemble = ChannelEnsemble.from_arrays(p["noise"], p["weights"])
    for eps in (p["epsilon"],) if radii is None else radii:
        ball = DivergenceBall(Gaussian(p["mu0"], p["sigma0"]), eps)
        prob = validate_problem(ensemble, ball)
        for d, direction in enumerate(DIRECTIONS):
            yield d, direction, ball, prob


def jacobian_lines(records, label=""):
    """Per direction: the Jacobians of the answered solves, their per-solve
    p50 and p90, and the Jacobians of the failed ones."""
    lines = []
    for d, direction in enumerate(DIRECTIONS):
        mine, failed = records["key"][:, 3] == d, records["failed"]
        jac = records["jacobians"][mine & ~failed]
        lines.append(f"{label}{direction} jacobians {int(jac.sum())} in {jac.size} answered "
                     f"solves (per solve p50 {np.percentile(jac, 50):g}, p90 "
                     f"{np.percentile(jac, 90):g}), "
                     f"{int(records['jacobians'][mine & failed].sum())} in failed ones")
    return lines


def _name(key):
    seed, b, i, d = (int(v) for v in key)
    return f"({seed},{b},{i}) {DIRECTIONS[d]}"


def against(records, saved):
    """Lines comparing this tree's `records` with `saved` (the other tree's),
    solve by solve."""
    lines = []
    both = ~records["failed"] & ~saved["failed"]
    equal = both & (records["answer"] == saved["answer"])
    moved = both & ~equal
    for d, direction in enumerate(DIRECTIONS):
        mine = records["key"][:, 3] == d
        multi = moved & mine & ((records["steps"] > 1) | (saved["steps"] > 1))
        lines.append(f"{direction}: {int((equal & mine).sum())} bitwise equal, "
                     f"{int((moved & mine).sum())} moved ({int(multi.sum())} of them took more "
                     f"than one step on either tree)")
        if (moved & mine).any():
            rel = ((records["bound_value"] - saved["bound_value"])
                   / np.abs(saved["bound_value"]))[moved & mine]
            lines.append(f"{direction}: largest relative move of bound_value "
                         f"up {max(rel.max(), 0.0):.3g}, down {min(rel.min(), 0.0):.3g}")
    lines += jacobian_lines(saved, "saved ")
    for key in records["key"][records["failed"] & ~saved["failed"]]:
        lines.append(f"failure gained: {_name(key)}")
    for key in records["key"][~records["failed"] & saved["failed"]]:
        lines.append(f"failure lost: {_name(key)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed_lo", type=int, help="first corpus seed")
    parser.add_argument("seed_hi", type=int, help="one past the last corpus seed")
    parser.add_argument("--batches", type=int, default=BATCHES, metavar="N",
                        help=f"batches of 30 problems per seed (default {BATCHES})")
    parser.add_argument("--eps", metavar="E[,E...]",
                        type=lambda v: [float(e) for e in v.split(",")],
                        help="solve each problem at each of these radii, not its own")
    parser.add_argument("--save", metavar="FILE", help="write every answer to FILE (.npz)")
    parser.add_argument("--against", metavar="FILE",
                        help="compare every answer with those --save wrote to FILE")
    args = parser.parse_args(argv)
    if args.seed_hi <= args.seed_lo:
        parser.error("SEED_HI must be greater than SEED_LO")
    if args.batches < 1:
        parser.error("--batches must be at least 1")
    if args.eps and (args.save or args.against):
        parser.error("--eps does not combine with --save or --against")
    saved = None
    if args.against:
        with np.load(args.against) as data:
            saved = dict(data)
        if (saved["key"][0, 0], saved["key"][-1, 0]) != (args.seed_lo, args.seed_hi - 1):
            parser.error(f"{args.against} holds the answers of other seeds")
        if saved["key"][:, 1].max() + 1 != args.batches:
            parser.error(f"{args.against} holds the answers of another --batches")
    t0 = time.perf_counter()
    hexdigest, answers, cells, solves, failures, records = gate(args.seed_lo, args.seed_hi,
                                                                args.batches, args.eps)
    print(f"seeds {args.seed_lo}-{args.seed_hi - 1}: {solves} solves, "
          f"{len(failures)} failed, {time.perf_counter() - t0:.1f} s")
    print(f"sha256 {hexdigest}")
    print(f"answers sha256 {answers}")
    for (k, j), cell in cells.items():
        print(f"K={k} J={j} answers sha256 {cell}")
    print("\n".join(jacobian_lines(records)))
    if args.save:
        with open(args.save, "wb") as f:
            np.savez(f, **records)
    if saved is not None:
        print("\n".join(against(records, saved)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
