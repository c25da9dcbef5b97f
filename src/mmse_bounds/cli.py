"""Command-line front end.

Subcommands
-----------
bound       solve both bounds for a problem config
sweep-p     sweep the generalized-Gaussian exponent p; six curves as CSV
sweep-ball  sweep the uniform-ball radius R; three curves as CSV
verify      Monte Carlo bracketing check for a chosen prior family
scenario    write a problem config from a sensor-field description

Exit codes: 0 success, 1 config/validation or file error, 2 solver
failure, 3 verification failure.

sweep-p, sweep-ball and verify solve at one ball per family parameter p or
R (`_family`): the family's moment-matched Gaussian and the exact KL to it.
A failed sweep solve names its row (p=... or R=...).

CSV output uses 15 significant digits, '.' decimal point, ',' separator,
and a mandatory header row; identical inputs produce byte-identical
output. Grid rows are computed one after another, in grid order.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .baselines import cramer_rao_lower, lmmse_upper
from .exceptions import ConfigError, DegenerateWeights, FisherUndefined, NoConvergence
from .mc import MIN_DRAWS, mc_weighted_sum
from .priors import (
    Gaussian,
    GeneralizedGaussian,
    PriorSpec,
    UniformBall,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    gen_gauss_fisher,
    uniform_ball_epsilon,
    uniform_ball_moments,
)
from .problem import (
    ChannelEnsemble,
    DivergenceBall,
    GaussianReference,
    load_config,
    save_config,
    validate_problem,
)
from .solver import local_bounds_weighted, solve_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

_ORDER_SLACK = 1e-8  # relative slack for the record ordering checks


@dataclass(frozen=True)
class SweepRecord:
    """One sweep row: abscissa (p or R), epsilon, and the bound curves.

    Fields are None where a curve is undefined: cramer_rao without Fisher
    information, and the columns a subcommand does not compute.
    """

    abscissa: float
    epsilon: float
    lower: float | None
    upper: float | None
    local_lower: float | None = None
    local_upper: float | None = None
    lmmse: float | None = None
    cramer_rao: float | None = None

    def check_ordering(self):
        """Raise ValueError when the defined fields violate the orderings
        lower <= lmmse <= upper, local_lower <= lower, upper <= local_upper."""
        def leq(x, y, what):
            if x is not None and y is not None:
                slack = _ORDER_SLACK * max(abs(x), abs(y), 1.0)
                if x > y + slack:
                    raise ValueError(
                        f"ordering violation at abscissa {self.abscissa}: "
                        f"{what} ({x!r} > {y!r})")

        leq(self.lower, self.upper, "lower > upper")
        leq(self.local_lower, self.lower, "local_lower > lower")
        leq(self.upper, self.local_upper, "upper > local_upper")
        leq(self.lower, self.lmmse, "lower > lmmse")
        leq(self.lmmse, self.upper, "lmmse > upper")


@dataclass(frozen=True)
class SensorField:
    """Isotropic power-attenuation scenario: received power at distance d
    is rho_0^2 / (1 + gamma d^m), and rho_0^2 cancels out of the noise."""

    distances: tuple[float, ...]
    decay: float
    exponent: float
    base_noise: float

    def __post_init__(self):
        # d = 0 is allowed: a sensor at the source sees the base noise
        if not self.distances or not all(0.0 <= d < math.inf for d in self.distances):
            raise ValueError(f"distances must be finite and nonnegative, got {self.distances}")
        for name, value in (("decay", self.decay), ("base noise", self.base_noise)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 2.0 <= self.exponent <= 3.0:
            raise ValueError("path-loss exponent m must lie in [2, 3]")


def noise_from_distances(field: SensorField, dimension: int,
                         weights=None) -> ChannelEnsemble:
    """Channel ensemble for a sensor field.

    The attenuation model gives received power rho_j^2 = rho_0^2/(1 + gamma
    d_j^m); normalizing each channel to unit gain (Y = X + N) scales the
    noise by rho_0^2/rho_j^2, so Sigma_N_j = sigma_0^2 (1 + gamma d_j^m) I
    and the source power cancels out of the covariances. Weights default
    to 1 for every sensor.
    """
    covs = [field.base_noise * (1.0 + field.decay * d**field.exponent)
            * np.eye(dimension) for d in field.distances]
    if weights is None:
        weights = [1.0] * len(covs)
    return ChannelEnsemble.from_arrays(covs, weights)


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
        if count < 1:
            raise ConfigError("grid count must be >= 1")
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
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _labelled(label, solve, *args):
    """`solve(*args)`; a NoConvergence is raised again with `label` in front."""
    try:
        return solve(*args)
    except NoConvergence as exc:
        raise NoConvergence(f"{label}: {exc}", exc.residual, exc.iterations) from exc


def _family(kind, value, k):
    """The prior family 'gen-gauss' at p or 'uniform-ball' at R in dimension
    K: (spec, ball). The ball is centred at the family's moment match
    N(0, Sigma_0) with the exact KL to it as radius."""
    if kind == "gen-gauss":
        spec = PriorSpec(GeneralizedGaussian(value), k)
        sigma0, eps = gen_gauss_covariance(value, k) * np.eye(k), gen_gauss_epsilon(value, k)
    else:
        spec = PriorSpec(UniformBall(value), k)
        sigma0, eps = uniform_ball_moments(value, k).covariance, uniform_ball_epsilon(value, k)
    return spec, DivergenceBall(GaussianReference(np.zeros(k), sigma0), eps)


# subcommand, help, prior family, abscissa, and the CSV columns after it
_SWEEPS = (
    ("sweep-p", "generalized-Gaussian exponent sweep", "gen-gauss", "p",
     ("epsilon", "lower", "upper", "local_lower", "local_upper", "lmmse", "cramer_rao")),
    ("sweep-ball", "uniform-ball radius sweep", "uniform-ball", "R",
     ("epsilon", "lower", "upper", "lmmse")),
)


def _sweep(args, kind, abscissa, columns) -> int:
    """One row per grid value x of family `kind`: both bounds at its ball,
    labelled `abscissa`=x, the LMMSE, and the local and Cramer-Rao bounds
    where `columns` names them. Then the ordering checks, then the CSV: x
    under the header `abscissa`, and the SweepRecord fields in `columns`."""
    ensemble, ball = load_config(args.config)
    base = validate_problem(ensemble, ball)
    rows = []
    for x in parse_grid(args.grid):
        _, ball = _family(kind, x, base.dimension)
        prob = validate_problem(base.ensemble, ball)
        both = ("lower", "upper")
        bounds = [_labelled(f"{abscissa}={x} {d}", solve_bound, d, prob, prob.ball).bound_value
                  for d in both]
        bounds += ([_labelled(f"{abscissa}={x} local {d}", local_bounds_weighted, d, prob,
                              prob.ball)[0] for d in both]
                   if "local_lower" in columns else [None, None])
        try:
            cr = (cramer_rao_lower(gen_gauss_fisher(x, base.dimension), prob.ensemble)
                  if "cramer_rao" in columns else None)
        except FisherUndefined:
            cr = None
        rows.append(SweepRecord(x, ball.epsilon, *bounds,
                                lmmse_upper(ball.reference.covariance, prob.ensemble), cr))
    for rec in rows:
        try:
            rec.check_ordering()
        except ValueError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    _emit_csv([abscissa, *columns],
              [(r.abscissa, *(getattr(r, c) for c in columns)) for r in rows], args.out)
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
    for direction in ("lower", "upper"):
        res = solve_bound(direction, prob, prob.ball)
        print(f"{direction} bound: {res.bound_value:.12g}  "
              f"(alpha={res.alpha:.12g}, kl={res.kl_at_solution:.12g}, "
              f"kl_residual={res.residuals[1]:.3g}, "
              f"fixed_point_residual={res.residuals[0]:.3g}, "
              f"inner_iterations={res.inner_iterations}, "
              f"outer_iterations={res.outer_iterations})")
    return EXIT_OK


def cmd_verify(args) -> int:
    # the sampling flags are checked before the two bound solves they follow
    for flag, value, floor in (("--n-outer", args.n_outer, MIN_DRAWS),
                               ("--n-inner", args.n_inner, MIN_DRAWS),
                               ("--seed", args.seed, 0)):
        if value < floor:
            raise ConfigError(f"{flag} must be >= {floor}, got {value}")
    ensemble, ball = load_config(args.config)
    k = ensemble.dimension
    if args.prior == "gaussian":  # the config's own reference and radius
        spec = PriorSpec(Gaussian(ball.reference.mean, ball.reference.covariance), k)
    else:
        kind, _, value = args.prior.partition(":")
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"prior {args.prior!r} needs a numeric parameter") from None
        if kind not in ("gen-gauss", "uniform-ball"):
            raise ConfigError(f"unknown prior {args.prior!r}; expected gen-gauss:p, "
                              f"uniform-ball:R, or gaussian")
        spec, ball = _family(kind, value, k)
    prob = validate_problem(ensemble, ball)
    lower = solve_bound("lower", prob, prob.ball)
    upper = solve_bound("upper", prob, prob.ball)
    est = mc_weighted_sum(spec, prob.ensemble, args.n_outer, args.n_inner, args.seed)
    lo_ok = lower.bound_value - 3.0 * est.std_error <= est.value
    hi_ok = est.value <= upper.bound_value + 3.0 * est.std_error
    print(f"prior {args.prior}: epsilon={prob.epsilon:.12g}")
    print(f"monte carlo weighted sum: {est.value:.12g} +- {est.std_error:.3g} "
          f"(n_outer={est.n_outer}, n_inner={est.n_inner}, seed={est.seed})")
    print(f"solver bounds: lower={lower.bound_value:.12g}, "
          f"upper={upper.bound_value:.12g}")
    print(f"inner effective sample size: min={est.min_ess:.4g}, "
          f"median={est.median_ess:.4g}, bad draws={est.bad_fraction:.3g}")
    passed = lo_ok and hi_ok
    print("PASS" if passed else "FAIL", "(bracketing at 3 standard errors)")
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_scenario(args) -> int:
    distances = tuple(float(tok) for tok in args.distances.split(",") if tok.strip())
    field = SensorField(distances, args.gamma, args.m, args.sigma0)
    weights = None
    if args.weights:
        weights = [float(tok) for tok in args.weights.split(",") if tok.strip()]
    ensemble = noise_from_distances(field, args.dimension, weights)
    k = args.dimension
    ball = DivergenceBall(GaussianReference(np.zeros(k), np.eye(k)), args.epsilon)
    validate_problem(ensemble, ball)
    save_config(args.out, ensemble, ball)
    print(f"wrote {args.out}: {len(distances)} channels, K={k}, "
          f"epsilon={args.epsilon}")
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DegenerateWeights as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
