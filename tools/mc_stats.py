"""Statistics of the Monte Carlo oracle's error bars, on one tree.

    python tools/mc_stats.py TREE [--priors gen-gauss:1 gen-gauss:10 uniform-ball:2]
                             [--n-outer 500] [--n-inner 2000] > stats.json

Imports the `mmse_bounds` package from TREE's `src/` and runs
`mc_weighted_sum` on the four-channel problem of
`examples/paper_fig1.json` for each prior. Per prior it prints three
statistics:

* `spread_over_se`: the standard deviation of the estimates over seeds
  1-40 divided by their mean reported SE. Near 1 when the SE is the
  estimate's spread; its own sampling spread over 40 seeds is about 0.11.
* `cluster_ratio`: over seeds 1-60, the cluster-robust variance of the
  mean, taken from the sums of the per-draw values v_i over each block
  of `mc._CHUNK` outer draws, divided by the variance std(v)^2/n_outer
  that the reported SE uses (both summed over the seeds). Near 1 when
  the draws of a block are as good as independent; over 1 when they
  share error.
* `inner_error`: the estimate at n_inner = 2000 minus the estimate at
  n_inner = 40000 on the same outer draws, with the SE of the per-draw
  differences, pooled over seeds 1-5. The x and y streams do not depend
  on n_inner, so the difference is the self-normalized inner error at
  2000 (less the much smaller one at 40000).

The per-draw values come from a wrapped `mc._estimate`, whose first
argument they are. A seed whose run raises `DegenerateWeights` is left
out of every statistic and listed under `skipped_seeds`. Needs numpy and
the package only. The output is one JSON object keyed by prior.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "examples" / "paper_fig1.json"
SPREAD_SEEDS = range(1, 41)
CLUSTER_SEEDS = range(1, 61)
INNER_SEEDS = range(1, 6)
REFERENCE_INNER = 40000


def _spec(mb, prior, k):
    kind, _, value = prior.partition(":")
    family = {"gen-gauss": mb.GeneralizedGaussian, "uniform-ball": mb.UniformBall}[kind]
    return mb.PriorSpec(family(float(value)), k)


class Capture:
    """Runs `mc_weighted_sum` and keeps the per-draw values it averages."""

    def __init__(self, mb):
        self.mb, self.per_draw = mb, None
        real = mb.mc._estimate

        def capturing(per_draw, *args, **kwargs):
            self.per_draw = per_draw.copy()
            return real(per_draw, *args, **kwargs)

        mb.mc._estimate = capturing

    def run(self, spec, ensemble, n_outer, n_inner, seed):
        """(estimate, per-draw values), or None where the run raises
        DegenerateWeights."""
        try:
            est = self.mb.mc_weighted_sum(spec, ensemble, n_outer, n_inner, seed)
        except self.mb.DegenerateWeights:
            return None
        return est, self.per_draw


def cluster_variances(per_draw, block):
    """(cluster-robust, per-draw) variance of the mean of one run's values."""
    n = per_draw.size
    sums = np.add.reduceat(per_draw, np.arange(0, n, block))
    sizes = np.diff(np.append(np.arange(0, n, block), n))
    g = sums.size
    cluster = g / (g - 1) * np.sum((sums - sizes * per_draw.mean()) ** 2) / n**2
    return float(cluster), float(per_draw.var(ddof=1) / n)


def prior_stats(capture, spec, ensemble, n_outer, n_inner):
    block = capture.mb.mc._CHUNK
    values, errors, cluster, naive, skipped = [], [], 0.0, 0.0, []
    for seed in CLUSTER_SEEDS:
        run = capture.run(spec, ensemble, n_outer, n_inner, seed)
        if run is None:
            skipped.append(seed)
            continue
        est, per_draw = run
        if seed in SPREAD_SEEDS:
            values.append(est.value)
            errors.append(est.std_error)
        c, v = cluster_variances(per_draw, block)
        cluster += c
        naive += v
    diffs = []
    for seed in INNER_SEEDS:
        short = capture.run(spec, ensemble, n_outer, n_inner, seed)
        long = capture.run(spec, ensemble, n_outer, REFERENCE_INNER, seed)
        if short is None or long is None:
            skipped.append(seed)
            continue
        diffs.append(short[1] - long[1])
    diffs = np.concatenate(diffs)
    return {
        "spread_over_se": round(float(np.std(values, ddof=1) / np.mean(errors)), 4),
        "mean_se": float(np.mean(errors)),
        "cluster_ratio": round(cluster / naive, 4),
        "block": block,
        "inner_error": float(diffs.mean()),
        "inner_error_se": float(diffs.std(ddof=1) / math.sqrt(diffs.size)),
        "skipped_seeds": sorted(set(skipped)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree")
    parser.add_argument("--priors", nargs="+",
                        default=["gen-gauss:1", "gen-gauss:10", "uniform-ball:2"])
    parser.add_argument("--n-outer", type=int, default=500)
    parser.add_argument("--n-inner", type=int, default=2000)
    args = parser.parse_args(argv)
    src = Path(args.tree).resolve() / "src"
    if not (src / "mmse_bounds").is_dir():
        parser.error(f"{args.tree} has no src/mmse_bounds")
    sys.path.insert(0, str(src))
    import mmse_bounds as mb
    from mmse_bounds.problem import load_config

    if src not in Path(mb.__file__).resolve().parents:
        parser.error(f"mmse_bounds resolved to {mb.__file__}, not under {src}")

    ensemble, _ = load_config(CONFIG)
    capture = Capture(mb)
    out = {"n_outer": args.n_outer, "n_inner": args.n_inner,
           "reference_inner": REFERENCE_INNER}
    for prior in args.priors:
        out[prior] = prior_stats(capture, _spec(mb, prior, ensemble.dimension), ensemble,
                                 args.n_outer, args.n_inner)
        print(prior, out[prior], file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
