"""Command-line front end.

Subcommands
-----------
bound       solve both bounds for a problem config
sweep-p     sweep the generalized-Gaussian exponent p; six curves as CSV
sweep-ball  sweep the uniform-ball radius R; three curves as CSV
verify      Monte Carlo bracketing check for a chosen prior family
scenario    write a problem config from a sensor-field description

Exit codes: 0 success, 1 usage, config/validation or file error, 2 solver
failure, 3 verification failure.

sweep-p, sweep-ball and verify solve at one ball per family parameter p or
R (`_family`): the family's moment-matched Gaussian and the exact KL to it.
A failed sweep solve names its row (p=... or R=...).

CSV output uses 15 significant digits, '.' decimal point, ',' separator,
and a mandatory header row; identical inputs produce byte-identical
output. Grid rows are computed one after another, in grid order; each
row's joint bounds after the first start from the previous row's answers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

import numpy as np

from .baselines import cramer_rao_lower, lmmse_upper
from .exceptions import (ConfigError, DegenerateWeights, FisherUndefined, NoConvergence,
                         NoiseLost)
from .gaussian import Gaussian, _integer, _real
from .mc import MIN_DRAWS, mc_weighted_sum
from .priors import (
    GeneralizedGaussian,
    PriorSpec,
    UniformBall,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    gen_gauss_fisher,
    uniform_ball_epsilon,
    uniform_ball_moments,
)
from .problem import ChannelEnsemble, DivergenceBall, load_config, save_config, validate_problem
from .solver import local_bounds_weighted, solve_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

_ORDER_SLACK = 1e-8  # relative slack for the sweep-row ordering checks
# (x, y) column pairs that a sweep row must keep as x <= y, checked in this order
_ORDERINGS = (("lower", "upper"), ("local_lower", "lower"), ("upper", "local_upper"),
              ("lower", "lmmse"), ("lmmse", "upper"))


def ordering_violation(row, abscissa):
    """The first pair of `_ORDERINGS` whose columns `row` defines with x > y
    beyond the slack, as a message naming the row at `abscissa`; else None."""
    for a, b in _ORDERINGS:
        x, y = row.get(a), row.get(b)
        if x is not None and y is not None and x > y + _ORDER_SLACK * max(abs(x), abs(y), 1.0):
            return f"ordering violation at abscissa {row[abscissa]}: {a} > {b} ({x!r} > {y!r})"
    return None


def noise_from_distances(distances, decay, exponent, base_noise, dimension,
                         weights=None) -> ChannelEnsemble:
    """Channel ensemble for an isotropic power-attenuation sensor field.

    Received power at distance d_j is rho_0^2/(1 + gamma d_j^m), gamma =
    `decay` and m = `exponent`; at unit gain (Y = X + N) the noise is
    Sigma_N_j = sigma_0^2 (1 + gamma d_j^m) I with sigma_0^2 = `base_noise`,
    and the source power rho_0^2 cancels. Weights default to 1 per sensor.
    Each scalar is read by `gaussian._real` (ValueError naming it). A
    distance may be 0, a sensor at the source, which sees the base noise; no
    distance at all is refused as a NaN one is. The exponent's range [2, 3]
    is the sensor model's own rule."""
    bad = ValueError(f"distances must be finite and nonnegative, got {distances}")
    for d in distances or [math.nan]:
        _real(d, "distances", "nonnegative", lambda _: bad)
    decay = _real(decay, "decay", "positive")
    base_noise = _real(base_noise, "base noise", "positive")
    if not 2.0 <= _real(exponent, "path-loss exponent m") <= 3.0:
        raise ValueError("path-loss exponent m must lie in [2, 3]")
    covs = [base_noise * (1.0 + decay * d**exponent) * np.eye(dimension) for d in distances]
    return ChannelEnsemble.from_arrays(covs, [1.0] * len(covs) if weights is None else weights)


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' or a comma-separated list into a strictly
    increasing grid of positive finite values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid {text!r}: {exc}") from exc
        _integer(count, "grid count", 1, error=ConfigError)
        try:
            with np.errstate(invalid="ignore"):  # a non-finite end is rejected below
                grid = np.linspace(start, stop, count)
        except MemoryError:
            raise ConfigError(f"grid {text!r} has too many points to allocate") from None
    else:
        try:
            grid = np.array([float(tok) for tok in text.split(",") if tok.strip()])
        except ValueError as exc:
            raise ConfigError(f"bad grid {text!r}: {exc}") from exc
        if grid.size == 0:
            raise ConfigError("grid is empty")
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ConfigError("grid values must be positive and finite")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ConfigError("grid must be strictly increasing")
    return grid


def _fmt(x) -> str:
    return "" if x is None else "%.15g" % x


def _emit_csv(header, rows, out_path):
    """`rows`, dicts keyed by column, as CSV under `header`; a missing key is empty."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(row.get(c)) for c in header) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _labelled(label, solve, *args, **kwargs):
    """`solve(*args, **kwargs)`; a NoConvergence is raised again with `label`
    in front."""
    try:
        return solve(*args, **kwargs)
    except NoConvergence as exc:
        raise NoConvergence(f"{label}: {exc}", exc.residual, exc.iterations) from exc


def _recoloured(sigma, l0_prev, l0):
    """Sigma carried from the reference L0_prev L0_prev^T to L0 L0^T, with the
    same whitened X: M Sigma M^T, M = L0 L0_prev^-1."""
    m = l0 @ np.linalg.inv(l0_prev)
    return m @ sigma @ m.T


def _family(kind, value, k):
    """The prior family 'gen-gauss' at p or 'uniform-ball' at R in dimension
    K: (spec, ball). The ball is centred at the family's moment match
    N(0, Sigma_0) with the exact KL to it as radius."""
    if kind == "gen-gauss":
        spec = PriorSpec(GeneralizedGaussian(value), k)
        match = Gaussian(np.zeros(k), gen_gauss_covariance(value, k) * np.eye(k))
        return spec, DivergenceBall(match, gen_gauss_epsilon(value, k))
    spec = PriorSpec(UniformBall(value), k)
    return spec, DivergenceBall(uniform_ball_moments(value, k), uniform_ball_epsilon(value, k))


# subcommand, help, prior family, abscissa, and the CSV columns after it
_SWEEPS = (
    ("sweep-p", "generalized-Gaussian exponent sweep", "gen-gauss", "p",
     ("epsilon", "lower", "upper", "local_lower", "local_upper", "lmmse", "cramer_rao")),
    ("sweep-ball", "uniform-ball radius sweep", "uniform-ball", "R",
     ("epsilon", "lower", "upper", "lmmse")),
)


def _sweep(args, kind, abscissa, columns) -> int:
    """One row per grid value x of family `kind`, a dict keyed by CSV column:
    x under `abscissa`, epsilon, both bounds (solves labelled `abscissa`=x),
    the local and Cramer-Rao bounds where `columns` names them, and the
    LMMSE. Then the ordering checks, then the CSV. From the second row on,
    each joint bound starts from the row before's answer, recoloured to
    this row's reference."""
    base = validate_problem(*load_config(args.config))
    rows = []
    previous = {}  # direction -> (the previous row's answer, its reference's L0)
    for x in parse_grid(args.grid):
        _, ball = _family(kind, x, base.dimension)
        prob = validate_problem(base.ensemble, ball)
        row = {abscissa: x, "epsilon": ball.epsilon}
        l0 = ball.reference_chol
        for d in ("lower", "upper"):
            warm = {"start": _recoloured(*previous[d], l0)} if d in previous else {}
            res = _labelled(f"{abscissa}={x} {d}", solve_bound, d, prob, prob.ball, **warm)
            previous[d] = res.sigma_x, l0
            row[d] = res.bound_value
        if "local_lower" in columns:
            for d in ("lower", "upper"):
                row[f"local_{d}"] = _labelled(f"{abscissa}={x} local {d}", local_bounds_weighted,
                                              d, prob, prob.ball)
        if "cramer_rao" in columns:  # left empty where the Fisher information is undefined
            with contextlib.suppress(FisherUndefined):
                row["cramer_rao"] = cramer_rao_lower(gen_gauss_fisher(x, base.dimension),
                                                     prob.ensemble)
        row["lmmse"] = lmmse_upper(ball.reference.covariance, prob.ensemble)
        rows.append(row)
    for violation in filter(None, (ordering_violation(row, abscissa) for row in rows)):
        print(f"solver error: {violation}", file=sys.stderr)
        return EXIT_SOLVER
    _emit_csv([abscissa, *columns], rows, args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    ensemble, ball = load_config(args.config)
    if args.epsilon is not None:
        ball = DivergenceBall(ball.reference, args.epsilon)
    prob = validate_problem(ensemble, ball)
    nominal = lmmse_upper(prob.reference.covariance, prob.ensemble)
    print(f"dimension K={prob.dimension}, channels J={prob.ensemble.count}, "
          f"epsilon={ball.epsilon:.12g}")
    print(f"nominal weighted MMSE sum at the reference: {nominal:.12g}")
    code = EXIT_OK
    for direction in ("lower", "upper"):  # a failed bound does not hide the other
        try:
            res = solve_bound(direction, prob, prob.ball)
        except NoConvergence as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            code = EXIT_SOLVER
            continue
        print(f"{direction} bound: {res.bound_value:.12g}  "
              f"(alpha={res.alpha:.12g}, kl={res.kl_at_solution:.12g}, "
              f"kl_residual={res.residuals[1]:.3g}, "
              f"fixed_point_residual={res.residuals[0]:.3g}, "
              f"inner_iterations={res.inner_iterations}, "
              f"outer_iterations={res.outer_iterations})")
    return code


def cmd_verify(args) -> int:
    # the sampling flags are checked, as mc_weighted_sum checks them, before
    # the two bound solves they follow
    _integer(args.n_outer, "--n-outer", MIN_DRAWS, error=ConfigError)
    _integer(args.n_inner, "--n-inner", MIN_DRAWS, error=ConfigError)
    _integer(args.seed, "--seed", 0, math.inf, ConfigError)
    ensemble, ball = load_config(args.config)
    spec = None  # for the gaussian prior, the config's own validated reference, at its radius
    if args.prior != "gaussian":
        kind, _, value = args.prior.partition(":")
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"prior {args.prior!r} needs a numeric parameter") from None
        if kind not in ("gen-gauss", "uniform-ball"):
            raise ConfigError(f"unknown prior {args.prior!r}; expected gen-gauss:p, "
                              f"uniform-ball:R, or gaussian")
        spec, ball = _family(kind, value, ensemble.dimension)
    prob = validate_problem(ensemble, ball)
    spec = spec or PriorSpec(prob.reference, prob.dimension)
    lower = solve_bound("lower", prob, prob.ball)
    upper = solve_bound("upper", prob, prob.ball)
    est = mc_weighted_sum(spec, prob.ensemble, args.n_outer, args.n_inner, args.seed)
    lo_ok = lower.bound_value - 3.0 * est.std_error <= est.value
    hi_ok = est.value <= upper.bound_value + 3.0 * est.std_error
    print(f"prior {args.prior}: epsilon={prob.epsilon:.12g}")
    print(f"monte carlo weighted sum: {est.value:.12g} +- {est.std_error:.3g} "
          f"(n_outer={est.n_outer}, n_inner={est.n_inner}, seed={est.seed})")
    print(f"solver bounds: lower={lower.bound_value:.12g}, upper={upper.bound_value:.12g}")
    print(f"inner effective sample size: min={est.min_ess:.4g}, "
          f"median={est.median_ess:.4g}, bad draws={est.bad_fraction:.3g}")
    passed = lo_ok and hi_ok
    print("PASS" if passed else "FAIL", "(bracketing at 3 standard errors)")
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_scenario(args) -> int:
    k = _integer(args.dimension, "--dimension", 1, error=ConfigError)
    distances = tuple(float(tok) for tok in args.distances.split(",") if tok.strip())
    weights = None
    if args.weights:
        weights = [float(tok) for tok in args.weights.split(",") if tok.strip()]
    try:
        ensemble = noise_from_distances(distances, args.gamma, args.m, args.sigma0, k, weights)
        ball = DivergenceBall(Gaussian(np.zeros(k), np.eye(k)), args.epsilon)
    except MemoryError:
        raise ConfigError(f"--dimension {k} is too large to allocate") from None
    save_config(args.out, ensemble, ball)
    print(f"wrote {args.out}: {len(distances)} channels, K={k}, epsilon={args.epsilon}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmse-bounds",
        description="Bounds on weighted MMSE sums over a KL ball of priors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="solve both bounds for a config")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--epsilon", type=float, default=None,
                         help="override the config's KL radius")
    p_bound.set_defaults(fn=cmd_bound)

    for name, help_text, kind, abscissa, columns in _SWEEPS:
        p_sw = sub.add_parser(name, help=help_text)
        p_sw.add_argument("--config", required=True)
        p_sw.add_argument("--grid", required=True,
                          help="start:stop:count or comma-separated values")
        p_sw.add_argument("--out", default=None, help="CSV path (default stdout)")
        p_sw.set_defaults(fn=functools.partial(_sweep, kind=kind, abscissa=abscissa,
                                               columns=columns))

    p_v = sub.add_parser("verify", help="Monte Carlo bracketing check")
    p_v.add_argument("--config", required=True)
    p_v.add_argument("--prior", required=True,
                     help="gen-gauss:p | uniform-ball:R | gaussian")
    p_v.add_argument("--n-outer", type=int, default=2000)
    p_v.add_argument("--n-inner", type=int, default=4000)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.set_defaults(fn=cmd_verify)

    p_sc = sub.add_parser("scenario", help="write a sensor-field config")
    p_sc.add_argument("--distances", required=True, help="comma-separated meters")
    p_sc.add_argument("--gamma", type=float, required=True, help="decay coefficient")
    p_sc.add_argument("--m", type=float, required=True, help="path-loss exponent in [2,3]")
    p_sc.add_argument("--sigma0", type=float, required=True, help="base noise sigma_0^2")
    p_sc.add_argument("--out", required=True, help="config path to write")
    p_sc.add_argument("--dimension", type=int, default=3)
    p_sc.add_argument("--epsilon", type=float, default=0.0,
                      help="KL radius stored in the config")
    p_sc.add_argument("--weights", default=None,
                      help="comma-separated channel weights (default all 1)")
    p_sc.set_defaults(fn=cmd_scenario)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 2, the solver-failure code; --help 0
        raise SystemExit(exc.code and EXIT_CONFIG) from None
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DegenerateWeights, NoiseLost) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
