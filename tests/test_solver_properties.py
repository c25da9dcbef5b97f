"""Property tests of solve_bound on problems drawn from the benchmark
corpus ranges: K 1-6, J 1-5, smallest eigenvalues of Sigma_0 and of each
Sigma_N from 0.1 to 100, condition numbers up to 1e4, weights 0.1-10 and
radii 1e-4 to 5. Never narrow these ranges to hide a failure; freeze it as
a named case in test_solver.py instead.

The examples are derandomized, so tier-1 runs the same small set every
time. For a longer search, raise PROPERTY_EXAMPLES in the environment,
e.g. ``PROPERTY_EXAMPLES=500 python -m pytest tests/test_solver_properties.py``.

Hypothesis (6.131 on) also draws 5-15% of its values from the numeric
literals it finds in the loaded non-test modules, here
src/mmse_bounds/*.py, so an edit to any constant of the package, even in
the Monte Carlo code, used to change every example drawn here. With the
Hypothesis 6.155 pool, adding 1e-100 and 1e100 to `mc.py` and dropping
1e300 made `test_certificates` draw problems at epsilon 4.2-5 (K 2-3,
J 2-3, most Sigma_N about I, Sigma_0 about 100 I or of condition number
1e4) whose lower bounds the solver does not certify, on the commit
before as well (ROADMAP items 2 and 4). This module therefore empties
that pool (`_no_package_literals`), so the examples depend on this file
and the Hypothesis version alone; the two failing examples Hypothesis
reported are frozen in test_solver.py (`TestUncertifiedPropertyExamples`).
Never shape code or literals to steer the examples.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmse_bounds import (
    ChannelEnsemble,
    DivergenceBall,
    Gaussian,
    kl_same_mean_gaussians,
    opt_covariance_residual,
    solve_bound,
    weighted_mmse_sum,
)
from conftest import corpus_spd
from oracles import (commuting_upper, isotropic_bounds, multistart_lower, scalar_ratio,
                     weighted_mmse)


def _no_package_literals():
    """Give Hypothesis an empty pool of the package's literals; a
    Hypothesis without the pool has nothing to empty."""
    try:
        from hypothesis.internal.conjecture import providers
        from hypothesis.internal.constants_ast import Constants
    except ImportError:
        return
    if hasattr(providers, "_get_local_constants"):
        empty = Constants()
        providers._get_local_constants = lambda: empty


_no_package_literals()
EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "25"))
PROPERTY = settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

log_scale = st.floats(-1.0, 2.0)
log_cond = st.floats(0.0, 4.0)
log_weight = st.floats(-1.0, 1.0)
epsilon = st.floats(-4.0, np.log10(5.0)).map(lambda e: float(10.0 ** e))


def spectrum(rng, k, log10_scale, log10_cond):
    """K eigenvalues in random order, the smallest 10**log10_scale, with
    condition number 10**log10_cond."""
    t = rng.random(k)
    if k > 1:
        t[:2] = 0.0, 1.0
    return rng.permutation(10.0 ** (log10_scale + log10_cond * t))


@st.composite
def problems(draw, k_max=6, j_max=5):
    k = draw(st.integers(1, k_max))
    j = draw(st.integers(1, j_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma0 = corpus_spd(rng, k, draw(log_scale), draw(log_cond))
    noise = [corpus_spd(rng, k, draw(log_scale), draw(log_cond)) for _ in range(j)]
    weights = [10.0 ** draw(log_weight) for _ in range(j)]
    return sigma0, noise, weights, draw(epsilon)


def solve(direction, sigma0, noise, weights, eps):
    ens = ChannelEnsemble.from_arrays(noise, weights)
    ball = DivergenceBall(Gaussian(np.zeros(len(sigma0)), sigma0), eps)
    return solve_bound(direction, ens, ball), ens, ball


@PROPERTY
@given(problems())
def test_certificates(problem):
    sigma0, noise, weights, eps = problem
    centre = weighted_mmse(sigma0, noise, weights)
    values = {}
    for direction, sign in (("lower", -1.0), ("upper", 1.0)):
        res, ens, ball = solve(direction, *problem)
        kl = kl_same_mean_gaussians(res.sigma_x, sigma0)
        assert abs(kl - eps) <= 1e-10
        # the certificate's own kl and value, against the public functions
        assert abs(res.kl_at_solution - kl) <= 1e-12
        # the K-scalar route's value is analytic, so equal only to rounding
        assert res.bound_value == pytest.approx(weighted_mmse_sum(res.sigma_x, ens).weighted_sum,
                                                rel=1e-12)
        assert opt_covariance_residual(res.alpha, res.sigma_x, ens, ball.reference) <= 1e-8
        assert sign * res.alpha > 0
        values[direction] = res.bound_value
    slack = 1e-9 * max(1.0, centre)
    assert values["lower"] <= centre + slack
    assert centre <= values["upper"] + slack


@PROPERTY
@given(problems(k_max=1, j_max=3))
def test_scalar_closed_form(problem):
    sigma0, noise, weights, eps = problem
    for direction in ("lower", "upper"):
        res, _, _ = solve(direction, *problem)
        x = scalar_ratio(eps, direction) * sigma0[0, 0]
        expect = sum(w * x * n[0, 0] / (x + n[0, 0]) for n, w in zip(noise, weights))
        assert res.bound_value == pytest.approx(expect, rel=1e-8)


@PROPERTY
@given(st.integers(2, 4), log_scale, log_scale, log_weight, epsilon)
def test_isotropic_oracle(k, log_s0, log_n, log_lam, eps):
    s0, n, lam = 10.0 ** log_s0, 10.0 ** log_n, 10.0 ** log_lam
    lower, upper = isotropic_bounds(s0, n, k, eps, lam)
    problem = (s0 * np.eye(k), [n * np.eye(k)], [lam], eps)
    assert solve("lower", *problem)[0].bound_value == pytest.approx(lower, rel=1e-8)
    assert solve("upper", *problem)[0].bound_value == pytest.approx(upper, rel=1e-8)


@PROPERTY
@given(problems(k_max=3))
def test_lower_bound_matches_multistart_search(problem):
    sigma0, noise, weights, eps = problem
    res, _, _ = solve("lower", *problem)
    best = multistart_lower(sigma0, noise, weights, eps, starts=20)
    assert res.bound_value <= best + 1e-7 * abs(best)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1), log_scale, log_cond,
       st.lists(st.tuples(log_scale, log_cond, log_weight), min_size=5, max_size=5), epsilon)
def test_commuting_oracle_upper(k, j, seed, log_s0, log_c0, channels, eps):
    rng = np.random.default_rng(seed)
    q, s = np.linalg.qr(rng.normal(size=(k, k)))[0], spectrum(rng, k, log_s0, log_c0)
    n = np.array([spectrum(rng, k, ls, lc) for ls, lc, _ in channels[:j]])
    weights = [10.0 ** lw for _, _, lw in channels[:j]]
    x = commuting_upper(s, n, weights, eps)
    res, _, _ = solve("upper", (q * s) @ q.T, [(q * nj) @ q.T for nj in n], weights, eps)
    expect = sum(w * np.sum(x * nj / (x + nj)) for nj, w in zip(n, weights))
    assert res.bound_value == pytest.approx(expect, rel=1e-9)
    sigma = (q * x) @ q.T
    assert np.linalg.norm(res.sigma_x - sigma) <= 1e-9 * np.linalg.norm(sigma)
