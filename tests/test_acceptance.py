"""Acceptance suite: seven end-to-end criteria, one verdict line each.

Each test prints a single ``A<n>: PASS/FAIL - detail`` line outside
pytest's capture so the verdicts always reach the console, then asserts.

Reference data: ``tests/data/reference_curves.csv`` holds the six frozen
reference curves for the bundled four-channel example on the 25-point
exponent grid. Four of the six (lmmse, cramer_rao, local_lower,
local_upper) reproduce under this implementation to 0.012% or better.
The joint lower/upper reference values are NOT reproducible under the
exact-KL-radius constraint this package enforces (|KL - eps| <= 1e-10).
The worst deviation is at p = 10: 11.49% (lower) and 10.19% (upper); at
p = 0.51 it is 10.72% and 3.02%. The gap is unexplained. A halved radius
does not account for it (re-solving at eps/2 still leaves 3.69% and
3.29%), nor does any constant radius factor (the best-fit factor per row
ranges from 0.15 to 0.60), nor re-weighting the channels in the
stationarity condition alone (with lambda^2, sqrt(lambda) or unit weights
the p = 10 lower bound still misses by 10.9-11.4%), nor restricting
Sigma_X to isotropic or diagonal matrices (0.8158 / 2.0022 and 0.8151 /
2.0030 at p = 10, against the reference's 0.9157 / 1.8303 and this
package's 0.8105 / 2.0168), nor one radius for both directions (the
best-fit radius is 0.602 eps for the lower bound and 0.552 eps for the
upper at p = 10, 0.525 eps and 0.152 eps at p = 0.51). A1 is asserted as
written and fails honestly on those two columns; every cross-check of
this implementation (scalar analytic oracles, Monte Carlo bracketing, the
saddle-point property, and an independent derivative-free search over
the feasible set) confirms the computed values.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from mmse_bounds import (
    ChannelEnsemble,
    DivergenceBall,
    Gaussian,
    GeneralizedGaussian,
    PriorSpec,
    UniformBall,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    kl_same_mean_gaussians,
    linear_estimator_mse,
    lmmse_upper,
    local_bounds_weighted,
    mc_weighted_sum,
    prior_moments,
    solve_bound,
    uniform_ball_epsilon,
    validate_problem,
    weight_matrix,
)
from mmse_bounds import cli
from conftest import TEST_SEED, random_spd
from oracles import mc_kl

HERE = Path(__file__).parent
REFERENCE_CSV = HERE / "data" / "reference_curves.csv"
EXAMPLE_CONFIG = HERE.parent / "examples" / "paper_fig1.json"

P_GRID = "0.51:10:25"
R_GRID = "0.1:40:25"
MC_SEED = 20240905

# reference endpoint values for the ball sweep, printed for comparison
# (exact reproduction deliberately not asserted: the reference's ball
# covariance convention differs from R^2/(K+2) by an unresolved factor)
BALL_REFERENCE = {"R=0.1": {"lower": 0.0146, "lmmse": 0.0333, "upper": 0.0632},
                  "R=40": {"lower": 20.732, "lmmse": 21.072, "upper": 21.150}}


def _verdict(capsys, name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)


def _note(capsys, text):
    with capsys.disabled():
        print(text, flush=True)


def test_a1_exponent_sweep_reproduction(capsys, tmp_path):
    """All six curves within 0.5% of the reference at all 25 grid points."""
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    rc = cli.main(["sweep-p", "--config", str(EXAMPLE_CONFIG),
                   "--grid", P_GRID, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    got = np.genfromtxt(out, delimiter=",", names=True)
    ref = np.genfromtxt(REFERENCE_CSV, delimiter=",", names=True)
    assert got.shape == (25,)
    np.testing.assert_allclose(got["p"], ref["p"], rtol=1e-12)

    tol = 0.005
    columns = ["lower", "upper", "lmmse", "cramer_rao", "local_lower",
               "local_upper"]
    devs = {}
    for col in columns:
        rel = np.abs(got[col] - ref[col]) / np.abs(ref[col])
        devs[col] = (float(rel.max()), float(got["p"][int(rel.argmax())]))
    bad = {c: d for c, d in devs.items() if d[0] > tol}
    ok = not bad and elapsed < 60.0

    summary = ", ".join(
        f"{c} {d[0]:.3%}{'*' if c in bad else ''}" for c, d in devs.items())
    _verdict(capsys, "A1", ok,
             f"max rel deviation per curve (tol 0.5%): {summary}; "
             f"runtime {elapsed:.1f}s")

    lines = [f"A1: curves exceeding the 0.5% tolerance: {sorted(bad)}",
             f"    (worst deviation and the grid point where it occurs)"]
    for c, (dev, at_p) in sorted(devs.items()):
        lines.append(f"    {c:<12} max rel dev {dev:.4%} at p={at_p:.4g}")
    assert ok, "\n".join(lines)
    assert elapsed < 60.0


def test_a2_gaussian_degeneracy(capsys, demo_ensemble):
    """p = 2: eps = 0 and lower = upper = LMMSE to 1e-8 relative."""
    eps = gen_gauss_epsilon(2.0, 3)
    sigma0 = gen_gauss_covariance(2.0, 3) * np.eye(3)
    ball = DivergenceBall(Gaussian(np.zeros(3), sigma0), eps)
    lo = solve_bound("lower", demo_ensemble, ball).bound_value
    up = solve_bound("upper", demo_ensemble, ball).bound_value
    lm = lmmse_upper(sigma0, demo_ensemble)
    rel_lo = abs(lo - lm) / lm
    rel_up = abs(up - lm) / lm
    ok = eps == 0.0 and rel_lo <= 1e-8 and rel_up <= 1e-8
    _verdict(capsys, "A2", ok,
             f"eps={eps!r}, lower={lo:.12g}, upper={up:.12g}, lmmse={lm:.12g} "
             f"(rel gaps {rel_lo:.2e}, {rel_up:.2e}, tol 1e-8)")
    assert ok


def _bisect_ratio(epsilon: float, lower: bool) -> float:
    """Plain bisection on s - log s - 1 = 2 epsilon, independent of the solver."""
    f = lambda s: s - math.log(s) - 1.0 - 2.0 * epsilon
    a, b = (1e-14, 1.0) if lower else (1.0, 1e6)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (f(mid) > 0.0) == (f(a) > 0.0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def test_a3_scalar_oracle(capsys):
    """K = J = 1, Sigma_0 = Sigma_N = [[1]]: bound = s/(s+1) to 1e-8 absolute."""
    ens = ChannelEnsemble.from_arrays([[[1.0]]], [1.0])
    ref = Gaussian(np.zeros(1), np.eye(1))
    worst = 0.0
    for eps in (0.01, 0.1, 0.5):
        ball = DivergenceBall(ref, eps)
        for direction, is_lower in (("lower", True), ("upper", False)):
            s = _bisect_ratio(eps, is_lower)
            oracle = s / (s + 1.0)
            got = solve_bound(direction, ens, ball).bound_value
            worst = max(worst, abs(got - oracle))
    ok = worst <= 1e-8
    _verdict(capsys, "A3", ok,
             f"max |solver - bisection oracle| = {worst:.2e} over "
             f"eps in {{0.01, 0.1, 0.5}}, both directions (tol 1e-8)")
    assert ok


def test_a4_monte_carlo_bracketing(capsys, demo_ensemble):
    """Generalized Gaussian p in {1, 3}: MC estimate inside [L-3SE, U+3SE]."""
    details = []
    ok = True
    for p in (1.0, 3.0):
        sigma0 = gen_gauss_covariance(p, 3) * np.eye(3)
        eps = gen_gauss_epsilon(p, 3)
        ball = DivergenceBall(Gaussian(np.zeros(3), sigma0), eps)
        lo = solve_bound("lower", demo_ensemble, ball).bound_value
        up = solve_bound("upper", demo_ensemble, ball).bound_value
        spec = PriorSpec(GeneralizedGaussian(p), 3)
        t0 = time.perf_counter()
        est = mc_weighted_sum(spec, demo_ensemble, 2000, 4000, seed=MC_SEED)
        elapsed = time.perf_counter() - t0
        inside = (lo - 3.0 * est.std_error <= est.value
                  <= up + 3.0 * est.std_error)
        ok = ok and inside and elapsed < 60.0
        details.append(
            f"p={p:g}: {lo:.4f} <= {est.value:.4f}(+-{est.std_error:.4f}) "
            f"<= {up:.4f} {'OK' if inside else 'VIOLATED'} ({elapsed:.1f}s)")
    _verdict(capsys, "A4", ok, "; ".join(details))
    assert ok


def test_a5_ball_sweep_shape(capsys, tmp_path):
    """Ball sweep: nondecreasing, ordered, vanishing at R -> 0, saturating."""
    out = tmp_path / "ball.csv"
    rc = cli.main(["sweep-ball", "--config", str(EXAMPLE_CONFIG),
                   "--grid", R_GRID, "--out", str(out)])
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    r = data["R"]
    curves = {c: data[c] for c in ("lower", "lmmse", "upper")}

    nondecreasing = all(
        np.all(np.diff(v) >= -1e-9 * np.maximum(1.0, np.abs(v[:-1])))
        for v in curves.values())
    ordered = bool(np.all((curves["lower"] <= curves["lmmse"] + 1e-9)
                          & (curves["lmmse"] <= curves["upper"] + 1e-9)))
    vanishing = all(v[0] < 0.05 for v in curves.values())
    # saturation in the operational form: relative change between the last
    # two grid rows below 1% for every curve
    last_two = {c: abs(v[-1] - v[-2]) / v[-1] for c, v in curves.items()}
    saturating = all(ch < 0.01 for ch in last_two.values())
    # change over R in [4, 40] reported for context: under the
    # R^2/(K+2) ball covariance the curves are still climbing at R = 4,
    # unlike the reference rendering, so this is informational only
    i4 = int(np.searchsorted(r, 4.0))
    decade = {c: (v[-1] - v[i4]) / v[-1] for c, v in curves.items()}

    ok = nondecreasing and ordered and vanishing and saturating
    _verdict(capsys, "A5", ok,
             f"nondecreasing={nondecreasing}, ordered={ordered}, "
             f"vanishing={vanishing}, last-two-rows change "
             f"{max(last_two.values()):.3%} (tol 1%); change over R in "
             f"[{r[i4]:.3g}, 40] is {max(decade.values()):.1%} (informational)")
    _note(capsys,
          f"    computed R=0.1: lower={curves['lower'][0]:.4f}, "
          f"lmmse={curves['lmmse'][0]:.4f}, upper={curves['upper'][0]:.4f}; "
          f"reference: {BALL_REFERENCE['R=0.1']}")
    _note(capsys,
          f"    computed R=40:  lower={curves['lower'][-1]:.4f}, "
          f"lmmse={curves['lmmse'][-1]:.4f}, upper={curves['upper'][-1]:.4f}; "
          f"reference: {BALL_REFERENCE['R=40']}")
    assert ok


def _random_feasible_covariance(rng, sigma0, epsilon):
    """Random SPD covariance with kl(Sigma, Sigma_0) <= epsilon.

    Perturbs along a random symmetric direction in whitened coordinates and
    places the KL at a uniform fraction of the budget by root finding; KL is
    congruence-invariant, so the whitened computation is exact.
    """
    k = sigma0.shape[0]
    b = rng.normal(size=(k, k))
    b = 0.5 * (b + b.T)
    b /= np.linalg.norm(b)
    chol = np.linalg.cholesky(sigma0)
    target = epsilon * rng.uniform(0.05, 1.0)
    eye = np.eye(k)
    lam_min = float(np.linalg.eigvalsh(b)[0])
    t_max = 0.95 / max(-lam_min, 1e-12) if lam_min < 0 else 100.0

    def gap(t):
        return kl_same_mean_gaussians(eye + t * b, eye) - target

    t = t_max if gap(t_max) < 0 else brentq(gap, 0.0, t_max, xtol=1e-13)
    return chol @ (eye + t * b) @ chol.T


def test_a6_robust_estimator_guarantee(capsys, demo_ensemble):
    """Upper-bound estimators: weighted MSE <= Upper + 1e-8 inside the ball."""
    k = 3
    eps = gen_gauss_epsilon(0.51, k)
    sigma0 = gen_gauss_covariance(0.51, k) * np.eye(k)
    ball = DivergenceBall(Gaussian(np.zeros(k), sigma0), eps)
    t0 = time.perf_counter()
    up = solve_bound("upper", demo_ensemble, ball)
    gains = weight_matrix(up.sigma_x, demo_ensemble)

    rng = np.random.default_rng(MC_SEED)
    worst_excess = -np.inf
    for _ in range(100):
        sigma = _random_feasible_covariance(rng, sigma0, eps)
        assert kl_same_mean_gaussians(sigma, sigma0) <= eps + 1e-10
        mse = linear_estimator_mse(gains, sigma, demo_ensemble)
        worst_excess = max(worst_excess, mse - up.bound_value)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-8 and elapsed < 5.0
    _verdict(capsys, "A6", ok,
             f"worst MSE - Upper = {worst_excess:.3e} over 100 random "
             f"feasible Gaussians (tol 1e-8); runtime {elapsed:.2f}s (limit 5s)")
    assert ok


def test_a7_invariant_suite(capsys):
    """Monotonicity, ordering, constraint activity, residuals, mc_kl vs eps."""
    eps_grid = (0.05, 0.2, 0.8)
    kl_tol, fp_tol, slack = 1e-10, 1e-11, 1e-9
    max_kl_gap = 0.0
    max_fp_res = 0.0
    problems = []
    ordering_ok = True
    monotone_ok = True

    for k in (1, 2, 3):
        for j in (1, 4):
            rng = np.random.default_rng(TEST_SEED + 10 * k + j)
            noise = [random_spd(rng, k, scale=float(rng.uniform(0.5, 3.0)))
                     for _ in range(j)]
            weights = rng.uniform(0.5, 1.5, size=j)
            sigma0 = random_spd(rng, k, scale=float(rng.uniform(0.5, 3.0)))
            ens = ChannelEnsemble.from_arrays(noise, weights)
            ref = Gaussian(np.zeros(k), sigma0)
            uppers, lowers = [], []
            for eps in eps_grid:
                ball = DivergenceBall(ref, eps)
                prob = validate_problem(ens, ball)
                up = solve_bound("upper", prob, ball)
                lo = solve_bound("lower", prob, ball)
                for res in (up, lo):
                    max_kl_gap = max(max_kl_gap, abs(res.kl_at_solution - eps))
                    max_fp_res = max(max_fp_res, res.residuals[0])
                loc_lo = local_bounds_weighted("lower", prob, ball)
                loc_up = local_bounds_weighted("upper", prob, ball)
                lm = lmmse_upper(sigma0, ens)
                chain = (loc_lo, lo.bound_value, lm, up.bound_value, loc_up)
                if not all(a <= b + slack * max(1.0, abs(b))
                           for a, b in zip(chain, chain[1:])):
                    ordering_ok = False
                uppers.append(up.bound_value)
                lowers.append(lo.bound_value)
            if not all(b >= a - 1e-12 * max(1.0, abs(a))
                       for a, b in zip(uppers, uppers[1:])):
                monotone_ok = False
            if not all(b <= a + 1e-12 * max(1.0, abs(a))
                       for a, b in zip(lowers, lowers[1:])):
                monotone_ok = False
            problems.append((k, j))

    # analytic radius formulas against the Monte Carlo KL at 3 sigma
    max_z = 0.0
    for k in (1, 2, 3):
        cases = [(PriorSpec(GeneralizedGaussian(p), k), gen_gauss_epsilon(p, k))
                 for p in (1.0, 3.0)]
        cases.append((PriorSpec(UniformBall(2.0), k),
                      uniform_ball_epsilon(2.0, k)))
        for spec, eps_true in cases:
            mom = prior_moments(spec)
            value, std_error = mc_kl(spec, Gaussian(mom.mean, mom.covariance),
                                     20000, seed=7)
            max_z = max(max_z, abs(value - eps_true) / std_error)
    mc_ok = max_z <= 3.0

    ok = (max_kl_gap <= kl_tol and max_fp_res <= fp_tol and ordering_ok
          and monotone_ok and mc_ok)
    _verdict(capsys, "A7", ok,
             f"{len(problems)} (K, J) cases x {len(eps_grid)} radii: "
             f"max |KL-eps| {max_kl_gap:.2e} (tol 1e-10), max fixed-point "
             f"residual {max_fp_res:.2e} (tol 1e-11), ordering "
             f"{'OK' if ordering_ok else 'VIOLATED'}, eps-monotonicity "
             f"{'OK' if monotone_ok else 'VIOLATED'}, mc_kl max z "
             f"{max_z:.2f} (tol 3)")
    assert ok
