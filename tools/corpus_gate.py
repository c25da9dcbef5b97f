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
changes only the first. Last comes the same answers hash for each (K, J)
cell of the corpus, so a change that moves one cell on purpose can show
that every other cell is bitwise unchanged.

Run from the repository root, once on each tree to compare:

    python tools/corpus_gate.py 301 331

The corpus comes from perfbench, which this script only imports.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mmse_bounds import (ChannelEnsemble, DivergenceBall, GaussianReference,  # noqa: E402
                         NoConvergence, solve_bound, validate_problem)
from perfbench.workloads import make_corpus  # noqa: E402

BATCHES = 6  # per seed: 6 x 30 (K, J) cells, 360 solves


def gate(seed_lo, seed_hi):
    """(hex digest, answers hex digest, {(K, J): answers hex digest}, solves,
    failures) over seeds seed_lo..seed_hi - 1."""
    digest, answers, solves, failures = hashlib.sha256(), hashlib.sha256(), 0, []
    cells = {}
    for seed in range(seed_lo, seed_hi):
        for b, batch in enumerate(make_corpus(seed, BATCHES)):
            for i, p in enumerate(batch):
                ball = DivergenceBall(GaussianReference(p["mu0"], p["sigma0"]), p["epsilon"])
                prob = validate_problem(ChannelEnsemble.from_arrays(p["noise"], p["weights"]),
                                        ball)
                cell = cells.setdefault((len(p["sigma0"]), len(p["noise"])), hashlib.sha256())
                for direction in ("lower", "upper"):
                    solves += 1
                    try:
                        res = solve_bound(direction, prob, ball)
                    except NoConvergence as exc:
                        failures.append((seed, b, i, direction))
                        print(f"FAIL ({seed},{b},{i}) {direction}: {exc}")
                        marker = f"fail {seed} {b} {i} {direction}".encode()
                        for h in (digest, answers, cell):
                            h.update(marker)
                        continue
                    sigma_x = res.sigma_x.astype("<f8").tobytes(order="C")
                    digest.update(struct.pack("<2d2q", res.bound_value, res.alpha,
                                              res.inner_iterations, res.outer_iterations))
                    digest.update(sigma_x)
                    for h in (answers, cell):
                        h.update(struct.pack("<2d", res.bound_value, res.alpha) + sigma_x)
    return (digest.hexdigest(), answers.hexdigest(),
            {kj: h.hexdigest() for kj, h in sorted(cells.items())}, solves, failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed_lo", type=int, help="first corpus seed")
    parser.add_argument("seed_hi", type=int, help="one past the last corpus seed")
    args = parser.parse_args(argv)
    if args.seed_hi <= args.seed_lo:
        parser.error("SEED_HI must be greater than SEED_LO")
    t0 = time.perf_counter()
    hexdigest, answers, cells, solves, failures = gate(args.seed_lo, args.seed_hi)
    print(f"seeds {args.seed_lo}-{args.seed_hi - 1}: {solves} solves, "
          f"{len(failures)} failed, {time.perf_counter() - t0:.1f} s")
    print(f"sha256 {hexdigest}")
    print(f"answers sha256 {answers}")
    for (k, j), cell in cells.items():
        print(f"K={k} J={j} answers sha256 {cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
