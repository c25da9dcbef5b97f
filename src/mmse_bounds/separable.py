"""The closed forms: the problems whose extrema reduce to scalars.

`closed_forms` is the one entry: `solver.solve_bound` calls it before
any continuation, certifies the candidates it returns, best first, and
answers with the first that passes. Two classes of problem reduce:

* K = 1 (any J): the ball is the interval r - 1 - log r <= 2 epsilon in
  r = Sigma / Sigma_0 and f increases along it, so each bound is an end,
  a scalar Newton root (`_interval_end`). It is the only candidate, so an
  end that leaves the double range fails at once, by name.
* One channel on a reference exactly c I, with Sigma_N = Q diag(nu) Q^T:
  both extrema of tr((Sigma^-1 + Sigma_N^-1)^-1) over the ball kl(Sigma,
  c I) <= epsilon are attained at some Q diag(s) Q^T (README "Solver
  notes"). In x_i = s_i / c and rho_i = nu_i / c the problem is to
  extremize sum_i x_i rho_i / (x_i + rho_i) on sum_i (x_i - 1 - log x_i)
  / 2 = epsilon. `upper_candidates` and `lower_candidates` return its
  stationary points of each direction's sign of alpha (`_one_channel`).

Every other problem has no closed form and goes to continuation. The
lower bound's chain takes logit 0 and 1 at its brackets, and a candidate
may overflow: the arrays' floating-point flags are `solve_bound`'s, which
ignores them all, and the certificate decides.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NoConvergence

_MAX_ITER = 40  # Newton iterations per solve
_ROOT_ITER = 100  # cap on the Newton iterations for the end of a K = 1 ball
_M_PIECES = 8  # pieces of each middle-branch segment of the lower bound's chain
_M_ENDS = np.linspace(0.0, 1.0, _M_PIECES + 1)


def _branch(y, rho, sign, xp=np):
    """One eigenvalue ratio x = s / c of a one-channel problem on Sigma_0 =
    c I with noise eigenvalues nu = rho c, in the variable y = logit x below
    the centre (sign < 0) or log(x - 1) above it. Returns x; G = log(|alpha|
    c) = log((x + rho)^2 |1 - x| / (rho^2 x)), at which x is stationary;
    dG/dy; h = x - 1 - log x, twice x's share of kl; and dh/dy. Arrays take
    xp = numpy, floats xp = math."""
    if sign < 0:
        e = xp.exp(-y)
        x = 1.0 / (1.0 + e)
        d = e * x  # 1 - x
        t = x / rho
        return x, 2.0 * xp.log1p(t) - y, 2.0 * d * t / (1.0 + t) - 1.0, xp.log1p(e) - d, -d * d
    d = xp.exp(y)  # x - 1
    x = 1.0 + d
    lx = xp.log1p(d)
    return (x, 2.0 * xp.log1p(x / rho) + y - lx, 2.0 * d / (x + rho) + 1.0 / x, d - lx,
            d * d / x)


def _converged(step, prev):
    """Whether a Newton step this small, and this much smaller than the one
    before it (so in the quadratic regime), leaves only rounding."""
    return step <= 1e-12 or (step <= 1e-8 and step <= 1e-4 * prev)


def _halfway(old, new, lo, hi):
    """new, or half-way from old to the bound of (lo, hi) it passed."""
    return 0.5 * (old + hi) if new >= hi else (0.5 * (old + lo) if new <= lo else new)


def _newton(y, u, rho, eps, sign, box=None):
    """Newton on G(y_i) = u, log(sum_i h_i / (2 eps)) = 0 for one candidate,
    with u = log(|alpha| c), in Python floats: K is small, so numpy's cost
    per call would dominate. A step that leaves box = (y_lo, y_hi, u_lo,
    u_hi) goes half-way to its edge. Returns (x, |alpha| c, iterations), or
    None where the arithmetic overflows."""
    prev = math.inf
    try:
        for n in range(1, _MAX_ITER + 1):
            parts = [_branch(yi, ri, sign, math) for yi, ri in zip(y, rho)]
            f = [g - u for _, g, _, _, _ in parts]
            q = [dh / dg for _, _, dg, _, dh in parts]
            hs = sum(h for _, _, _, h, _ in parts)
            du = (sum(a * b for a, b in zip(q, f)) - hs * math.log(hs / (2.0 * eps))) / sum(q)
            y_new = [yi + (du - fi) / p[2] for yi, fi, p in zip(y, f, parts)]
            u_new = u + du
            if box is not None:
                y_new = [_halfway(*v) for v in zip(y, y_new, *box[:2])]
                u_new = _halfway(u, u_new, *box[2:])
            step = max(abs(u_new - u), *(abs(a - b) for a, b in zip(y_new, y)))
            y, u = y_new, u_new
            if _converged(step, prev):
                break
            prev = step
        return [_branch(yi, ri, sign, math)[0] for yi, ri in zip(y, rho)], math.exp(u), n
    except (OverflowError, ZeroDivisionError, ValueError):
        return None


def upper_candidates(rho, eps):
    """[(x, |alpha| c, iterations)] of the upper bound's one stationary
    point, by Newton from x = 1 / (1 - b tau) with b the first-order
    majorize-minimize multiplier."""
    tau = (rho / (1.0 + rho))**2
    b = min(2.0 * math.sqrt(eps) / np.linalg.norm(tau), 0.5 / tau[-1])
    found = _newton(np.log(b * tau / (1.0 - b * tau)).tolist(), math.log(b), rho.tolist(),
                    eps, 1.0)
    return [found] if found else []


def lower_candidates(rho, eps):
    """[(x, |alpha| c, iterations)] of the lower bound's candidates.

    rho ascending: coordinates i < m (rho_i < 1/8) have three stationary
    branches below the centre, L, M and R, which meet at the turning points
    y_i^-, y_i^+ of G; the others have one, U. The candidates R^r M? L* U*
    form one chain of segments P_0, M_0, P_1, ..., M_(m-1), P_m: P_r puts r
    coordinates on R, M_r moves coordinate r from L (at y_r^-) to R (at
    y_r^+) along M. kl is above eps at the far end of P_0 and below it at
    the far end of P_m. It is monotone along each P_r, not along M_r, so
    each M_r is cut into _M_PIECES pieces, evenly in coordinate r's y. Each
    piece on which kl falls through eps (a local minimum) gets one bordered
    Newton solve, started by interpolation between its ends.
    """
    k, i = rho.size, np.arange(rho.size)
    m = int(np.count_nonzero(rho < 0.125))
    root = np.sqrt(1.0 - 8.0 * rho[:m])
    x_m, x_p = np.ones(k), np.zeros(k)  # the turning points x^-, x^+ = (1 -+ root) / 4
    x_m[:m], x_p[:m] = (1.0 - root) / 4.0, (1.0 + root) / 4.0
    y_m, y_p = np.log(x_m / (1.0 - x_m)), np.log(x_p / (1.0 - x_p))  # +inf, -inf on U
    # the chain's points: its far ends, where x - 1 - log x >= -1 - log x >=
    # u - 1 - log 81 on L and U, and <= (1 - x)^2 <= e^(2u) below u = -log 2
    # anywhere; between them the ends of M_r's pieces, where coordinate r is
    # pinned (pivot r)
    y_pin = y_m[:m, None] + (y_p[:m] - y_m[:m])[:, None] * _M_ENDS
    u_pin = _branch(y_pin, rho[:m, None], -1.0)[1]
    top = max([2.0 * eps + 1.0 + 2.0 * np.log(9.0), *(u_pin[:1, 0] + 1.0)])
    bottom = min([0.5 * np.log(2.0 * eps / k), -np.log(2.0), *(u_pin[-1:, -1] - 1.0)]) - 1.0
    u = np.concatenate([[top], u_pin.ravel(), [bottom]])
    pivot = np.concatenate([[-1], np.repeat(np.arange(m), _M_PIECES + 1), [m]])
    # coordinate i < pivot is on R, above x_i^+; the others on L or U
    right = i < pivot[:, None]
    x_lo, x_hi = np.where(right, x_p, 0.0), np.where(right, 1.0, x_m)
    # G falls along L, R and U, and G + y = 2 log(1 + x / rho) brackets y
    lo = np.maximum(2.0 * np.log1p(x_lo / rho) - u[:, None], np.log(x_lo / (1.0 - x_lo)))
    hi = np.minimum(2.0 * np.log1p(x_hi / rho) - u[:, None], np.log(x_hi / (1.0 - x_hi)))
    rows = np.arange(1, u.size - 1)
    lo[rows, pivot[rows]] = hi[rows, pivot[rows]] = y_pin.ravel()
    y, prev, u_col = 0.5 * (lo + hi), np.inf, u[:, None]
    for n in range(1, _MAX_ITER + 1):
        _, g, dg, h, _ = _branch(y, rho, -1.0)
        f = g - u_col
        below = f > 0.0
        lo, hi = np.where(below, y, lo), np.where(below, hi, y)
        y_new = y - f / dg
        y_new = np.where((y_new >= lo) & (y_new <= hi), y_new, 0.5 * (lo + hi))
        step = np.abs(y_new - y).max()
        y = y_new
        if _converged(step, prev):
            break
        prev = step
    hs = h.sum(-1)
    seg = np.flatnonzero((hs[:-1] >= 2.0 * eps) & (hs[1:] <= 2.0 * eps))
    t = ((hs[seg] - 2.0 * eps) / np.maximum(hs[seg] - hs[seg + 1], 1e-300))[:, None]
    r = pivot[seg + 1, None]
    on_r, on_m = i < r, (i == r) & (pivot[seg, None] == r)
    y_lo = np.where(on_m, y_m, np.where(on_r, y_p, -np.inf))
    y_hi = np.where(on_m, y_p, np.where(on_r, np.inf, y_m))
    y0, u0 = y[seg] + t * (y[seg + 1] - y[seg]), u[seg] + t[:, 0] * (u[seg + 1] - u[seg])
    boxes = zip(y_lo.tolist(), y_hi.tolist(), np.minimum(u[seg], u[seg + 1]).tolist(),
                np.maximum(u[seg], u[seg + 1]).tolist())
    rho = rho.tolist()
    found = (_newton(y_s, u_s, rho, eps, -1.0, box)
             for y_s, u_s, box in zip(y0.tolist(), u0.tolist(), boxes))
    return [(x, b, n + its) for x, b, its in filter(None, found)]


def closed_forms(sigma0, noise, weights, sign, eps):
    """The closed-form candidates [(Sigma, alpha, value, iterations)] of
    the problem with reference covariance sigma0, noise stack (J, K, K)
    and weights (J,), in the direction of `sign`, best first: the end of
    the interval for K = 1, the K-scalar stationary points for one channel
    on sigma0 exactly c I, and none for any other problem. iterations
    counts the scalar Newton iterations. A K = 1 end that is not a finite
    double raises NoConvergence: nothing else can be the answer."""
    c = sigma0[0, 0]
    if sigma0.shape[0] == 1:
        return _interval_end(float(c), noise[:, 0, 0].tolist(), weights.tolist(), sign, eps)
    if weights.size == 1 and np.array_equal(sigma0, c * np.eye(sigma0.shape[0])):
        return _one_channel(c, noise[0], weights[0], sign, eps)
    return []


def _interval_end(c, noise, weights, sign, eps):
    """The one candidate of a K = 1 problem, as a list: each bound sits at
    an end of the interval, x = r c with r from `_ratio`. [([[x]], alpha,
    value, Newton iterations of the root)] with alpha = (1/c - 1/x) / S(x),
    S(x) = sum_j lambda_j (n_j / (x + n_j))^2, and the value sum_j lambda_j
    x n_j / (x + n_j), in Python floats. Where x or S(x) is 0 or alpha
    overflows, NoConvergence."""
    r, iterations = _ratio(sign, eps)
    x = r * c
    channels = list(zip(weights, noise))
    try:
        alpha = (1.0 / c - 1.0 / x) / sum(w * (n / (x + n)) ** 2 for w, n in channels)
    except ZeroDivisionError:  # x or S(x) is 0
        alpha = sign * math.inf
    if not math.isfinite(alpha):
        raise NoConvergence(f"the end of the interval leaves the double range (Sigma = {x!r}, "
                            f"alpha = {alpha!r})")
    return [(np.array([[x]]), alpha, sum(w * x * n / (x + n) for w, n in channels), iterations)]


def _ratio(sign, eps):
    """(r, Newton iterations): the root of r - 1 - log r = 2 epsilon above 1
    (sign > 0) or below it, by Newton in Python floats on v = r - 1 above
    and v = log r below, where the equation reads v - log1p(v) = 2 epsilon
    and expm1(v) - v = 2 epsilon. Both sides are convex in v and at least 2
    epsilon at |v| = 2 sqrt(epsilon) + 2 epsilon, so Newton from there
    moves monotonically onto the root. It stops after a step below 4e-15 (1
    + |v|), the scale of r's rounding, or at a step no shorter than the one
    before (rounding), which it does not take."""
    v = sign * (2.0 * math.sqrt(eps) + 2.0 * eps)
    prev = math.inf
    for n in range(1, _ROOT_ITER + 1):
        if sign > 0:
            step = (v - math.log1p(v) - 2.0 * eps) * (1.0 + v) / v
        else:
            e = math.expm1(v)
            step = (e - v - 2.0 * eps) / e
        if not abs(step) < prev:
            break
        v, prev = v - step, abs(step)
        if prev <= 4e-15 * (1.0 + abs(v)):
            break
    return (1.0 + v if sign > 0 else math.exp(v)), n


def _one_channel(c, noise, lam, sign, eps):
    """The candidates of one channel of weight lam on Sigma_0 = c I from the
    K-scalar stationary points, best first: (Q diag(c x) Q^T, alpha, value,
    reduced Newton iterations) with Sigma_N = Q diag(nu) Q^T, the value
    scaled by lam and alpha by 1 / lam."""
    nu, q = np.linalg.eigh(noise)
    rho = nu / c
    found = (upper_candidates if sign > 0 else lower_candidates)(rho, eps)
    found = [(lam * c * sum(xi * ri / (xi + ri) for xi, ri in zip(x, rho.tolist())), x, b, n)
             for x, b, n in found if all(xi > 0.0 for xi in x)]  # no NaN, no underflow
    return [((q * (c * np.array(x))) @ q.T, sign * b / c / lam, value, n)
            for value, x, b, n in sorted(found, key=lambda cand: -sign * cand[0])]
