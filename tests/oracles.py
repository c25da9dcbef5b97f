"""Oracles for the bound solver that share no code with it.

* `scalar_ratio`: the K = 1 closed form. The feasible covariances form an
  interval in s = sigma_x^2 / sigma_0^2 and every channel MMSE increases
  in s, so each bound sits at an end, where s - log s - 1 = 2 epsilon.
* `isotropic_bounds`: Sigma_0 = s0 I and one channel Sigma_N = n I. Both
  the objective and the KL radius depend on the eigenvalues of Sigma_X
  only. The upper bound keeps Sigma_X = r s0 I with K (r - 1 - log r) / 2
  = epsilon. The lower bound need not: it is the least value over
  two-level splits, m eigenvalues at u and K - m at v, both below s0, with
  m h(u) + (K - m) h(v) = epsilon and h(s) = (s/s0 - 1 - log(s/s0)) / 2,
  found by a one-dimensional search for each m.
* `commuting_upper`: Sigma_0 = Q diag(s) Q^T and every Sigma_N_j =
  Q diag(n_j) Q^T. The upper bound is Q diag(x) Q^T, with K scalar fixed
  points that share one alpha (see its docstring).
* `reduced_lower`: Sigma_0 = c I and one channel Q diag(nu) Q^T. Some
  minimizer is Q diag(s) Q^T (eigenvalue rearrangement, README "Solver
  notes"); this is the least value over every stationary point of the
  K-scalar problem, found branch combination by branch combination.
* `multistart_lower`: SLSQP from many random starts over Sigma =
  L0 expm(M) L0^T, with the KL radius written as (tr e^M - K - tr M) / 2,
  which stays finite at the extreme points the search visits.
* `mc_kl`: the Monte Carlo KL divergence from a prior family to a
  Gaussian, the oracle of the analytic KL radii (`gen_gauss_epsilon`,
  `uniform_ball_epsilon`). It draws with the package's sampler and reads
  the package's `log_density` on both sides.
"""

import itertools
import math

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

from mmse_bounds import PriorSpec, log_density
from mmse_bounds.mc import MIN_DRAWS, _rng_from
from mmse_bounds.priors import _sample_with


def scalar_ratio(epsilon: float, direction: str) -> float:
    """Root of s - log s - 1 = 2 epsilon on the side matching `direction`."""
    f = lambda s: s - np.log(s) - 1.0 - 2.0 * epsilon
    if direction == "lower":
        return brentq(f, 1e-300, 1.0, xtol=1e-300, rtol=8.9e-16)
    return brentq(f, 1.0, 4.0 * epsilon + 4.0, xtol=1e-15, rtol=8.9e-16)


def isotropic_bounds(s0, n, k, epsilon, lam=1.0):
    """(lower, upper) for Sigma_0 = s0 I_k and one channel (n I_k, lam)."""
    phi = lambda s: lam * s * n / (s + n)
    upper = k * phi(s0 * scalar_ratio(epsilon / k, "upper"))
    lower = k * phi(s0 * scalar_ratio(epsilon / k, "lower"))

    def below(budget, count):
        # the eigenvalue below s0 that spends `budget` nats on `count` copies
        return s0 * scalar_ratio(budget / count, "lower") if budget > 0 else s0

    for m in range(1, k):
        def split(theta):
            u = below(theta * epsilon, m)
            v = below((1.0 - theta) * epsilon, k - m)
            return m * phi(u) + (k - m) * phi(v)

        grid = np.linspace(0.0, 1.0, 401)
        i = int(np.argmin([split(th) for th in grid]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        best = minimize_scalar(split, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-13})
        lower = min(lower, split(best.x), split(grid[i]))
    return lower, upper


def commuting_upper(s, n, weights, epsilon):
    """Eigenvalues x of the upper-bound covariance Q diag(x) Q^T when
    Sigma_0 = Q diag(s) Q^T and Sigma_N_j = Q diag(n[j]) Q^T.

    The maximizer is unique: if there were two, their midpoint would be
    at least as good (f is concave) and strictly inside the ball (kl is
    strictly convex), and a small Loewner increase of it would stay in the
    ball and be strictly better (f is strictly increasing). The maps
    Sigma -> Q D Q^T Sigma Q D Q^T with D = diag(+-1) fix every input and
    leave f and kl unchanged, so they fix the maximizer, which is
    therefore diagonal in Q. Its eigenvalues solve, for one alpha > 0,

        1/x_k - 1/s_k + alpha sum_j lambda_j n_jk^2 / (x_k + n_jk)^2 = 0,

    whose left side is strictly decreasing in x_k and positive at s_k, so
    x_k is its unique root above s_k; alpha is then the root of
    sum_k (x_k/s_k - 1 - log(x_k/s_k)) / 2 = epsilon, increasing in alpha.

    The lower bound is left out: for alpha < 0 the scalar equation can
    have several positive roots, and the minimizer of a concave function
    need not be unique. For Sigma_0 = c I and one channel some minimizer
    still commutes with Sigma_N (Lidskii's inequalities; `reduced_lower`),
    but it may split repeated eigenvalues (see `isotropic_bounds`).
    """
    s, n, lam = np.asarray(s, float), np.asarray(n, float), np.asarray(weights, float)

    def root(k, alpha):
        g = lambda x: 1.0 / x - 1.0 / s[k] + alpha * np.sum(lam * n[:, k]**2 / (x + n[:, k])**2)
        hi = 2.0 * s[k]
        while g(hi) > 0.0:
            hi *= 2.0
        return brentq(g, s[k], hi, xtol=1e-300, rtol=8.9e-16)

    def x_of(alpha):
        return np.array([root(k, alpha) for k in range(s.size)])

    def gap(alpha):
        r = x_of(alpha) / s
        return 0.5 * np.sum(r - 1.0 - np.log(r)) - epsilon

    hi = 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
    return x_of(brentq(gap, 0.0, hi, xtol=1e-300, rtol=8.9e-16))


def reduced_lower(c, nu, epsilon, grid=120):
    """Least sum_i s_i nu_i / (s_i + nu_i) over the stationary points of
    that sum on sum_i (s_i/c - 1 - log(s_i/c)) / 2 = epsilon, s_i < c.

    Stationarity reads a = (s_i + nu_i)^2 (c - s_i) / (c nu_i^2 s_i) for
    one a > 0 shared by every i. Where c > 8 nu_i the right side turns at
    s = (c -+ sqrt(c^2 - 8 c nu_i)) / 4, so s_i lies on one of three
    monotone branches (left, middle, right), else on one. Every
    combination of branches is tried: on the a-interval where all of its
    branches exist, each s_i(a) is a brentq root in log s, the radius is
    scanned on `grid` points in log a, and every sign change is refined
    by brentq.
    """
    nu = np.sort(np.asarray(nu, dtype=float))
    k = nu.size
    def la(t, n):  # log a at s = e^t
        s = np.exp(t)
        return 2.0 * np.log(s + n) + np.log(c - s) - np.log(c) - 2.0 * np.log(n) - t

    branches, left = [], -700.0  # per coordinate: (log s lo, log s hi) of each branch
    for n in nu:
        ends = [left, np.log(c) + np.log1p(-1e-15)]
        if c > 8.0 * n:
            root = np.sqrt(c * c - 8.0 * c * n)
            ends[1:1] = [np.log((c - root) / 4.0), np.log((c + root) / 4.0)]
        branches.append(list(zip(ends[:-1], ends[1:])))

    def s_of(n, br, a):
        g = lambda t: la(t, n) - np.log(a)
        glo, ghi = g(br[0]), g(br[1])
        if glo * ghi > 0.0:  # a at (or, by rounding, just past) an end
            return np.exp(br[0] if abs(glo) < abs(ghi) else br[1])
        return np.exp(brentq(g, *br, xtol=1e-15, rtol=8.9e-16))

    def radius(s):
        return 0.5 * np.sum(s / c - 1.0 - np.log(s / c))

    best = np.inf
    for combo in itertools.product(*branches):
        # the a-interval on which every branch of the combination exists
        lo, hi = -np.inf, np.inf
        for n, br in zip(nu, combo):
            e = sorted(la(t, n) for t in br)
            lo, hi = max(lo, e[0]), min(hi, e[1])
        if lo >= hi:
            continue
        # with x = s/c, log(1 - x) <= log(a c) and x - 1 - log x <= (1 - x)^2
        # when 1 - x <= 1/2, so kl < epsilon below the first bound; x <= 81 /
        # (a c) on a branch that reaches s = 0, so kl > epsilon above the second
        lo = max(lo, min(0.5 * np.log(2.0 * epsilon / k), -np.log(2.0)) - np.log(c) - 1.0)
        if any(br[0] == left for br in combo):
            hi = min(hi, 2.0 * epsilon + 2.0 + 2.0 * np.log(9.0) - np.log(c))
        grid_a = np.exp(np.linspace(lo, hi, grid))
        gap = lambda a: radius(np.array([s_of(n, br, a) for n, br in zip(nu, combo)])) - epsilon
        gaps = [gap(a) for a in grid_a]
        for a0, a1, g0, g1 in zip(grid_a[:-1], grid_a[1:], gaps[:-1], gaps[1:]):
            if g0 * g1 <= 0.0:
                a = np.exp(brentq(lambda t: gap(np.exp(t)), np.log(a0), np.log(a1),
                                  xtol=1e-15, rtol=8.9e-16))
                s = np.array([s_of(n, br, a) for n, br in zip(nu, combo)])
                best = min(best, float(np.sum(s * nu / (s + nu))))
    return best


def weighted_mmse(sigma, noise, weights):
    return sum(w * np.trace(sigma @ np.linalg.solve(sigma + nm, nm))
               for nm, w in zip(noise, weights))


def multistart_lower(sigma0, noise, weights, epsilon, starts=20, seed=0):
    """Least weighted MMSE sum that SLSQP finds on kl(Sigma, Sigma_0) =
    epsilon from `starts` random starts, with analytic gradients."""
    k = len(sigma0)
    l0 = np.linalg.cholesky(sigma0)
    iu = np.triu_indices(k)
    twice = np.where(iu[0] == iu[1], 1.0, 2.0)  # p holds each off-diagonal once

    def eig(p):
        m = np.zeros((k, k))
        m[iu] = p
        w, v = np.linalg.eigh(m + np.triu(m, 1).T)
        return np.clip(w, -30.0, 30.0), v  # keeps far line-search points finite

    def value(p):
        if not np.all(np.isfinite(p)):
            return 1e300, np.zeros_like(p)
        w, v = eig(p)
        lv = l0 @ v
        sigma = (lv * np.exp(w)) @ lv.T
        total, grad = 0.0, np.zeros((k, k))
        for nm, lam in zip(noise, weights):
            wt = np.linalg.solve(sigma + nm, nm)
            total += lam * np.trace(sigma @ wt)
            grad += lam * wt @ wt.T  # d f / d Sigma
        # chain rule through expm: divided differences of exp
        ew = np.exp(w)
        dw = w[:, None] - w[None, :]
        same = np.abs(dw) < 1e-12
        phi = np.where(same, ew[:, None], (ew[:, None] - ew[None, :]) / np.where(same, 1.0, dw))
        gm = v @ (phi * (lv.T @ grad @ lv)) @ v.T
        return total, twice * gm[iu]

    def kl(p):
        w, v = eig(p)
        g = 0.5 * (v * (np.exp(w) - 1.0)) @ v.T
        return 0.5 * np.sum(np.exp(w) - 1.0 - w) - epsilon, twice * g[iu]

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        # random directions, most of them shrinking, as a lower bound does
        d = rng.normal(size=iu[0].size)
        d[iu[0] == iu[1]] -= 2.0 * abs(rng.normal())
        top = 30.0 / np.abs(eig(d)[0]).max()
        scale = brentq(lambda s: kl(s * d)[0], 0.0, top)
        try:
            res = minimize(value, scale * d, jac=True, method="SLSQP",
                           constraints={"type": "eq", "fun": lambda p: kl(p)[0],
                                        "jac": lambda p: kl(p)[1]},
                           options={"ftol": 1e-14, "maxiter": 200})
        except np.linalg.LinAlgError:  # a start that wandered off; try the next
            continue
        if np.all(np.isfinite(res.x)) and abs(kl(res.x)[0]) <= 1e-9 * max(1.0, epsilon):
            best = min(best, value(res.x)[0])
    return best


def mc_kl(spec, gaussian, n, seed):
    """(value, standard error) of the Monte Carlo KL divergence from the
    prior `spec` to the Gaussian `gaussian`: the mean of log p(x) - log q(x)
    over n >= 100 draws x of the prior from the Philox stream of `seed`.
    The Gaussian is checked as a Gaussian prior of the prior's dimension
    (`PriorSpec`), and both densities are `log_density`."""
    if n < MIN_DRAWS:
        raise ValueError(f"n must be >= {MIN_DRAWS}")
    reference = PriorSpec(gaussian, spec.dimension)
    x = _sample_with(spec, n, _rng_from(np.random.SeedSequence(seed)))
    terms = log_density(spec, x) - log_density(reference, x)
    return float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(n))
