"""Solver for the extremal-covariance conditions.

The bounds are the extrema of f(Sigma) = sum_j lambda_j tr((Sigma^-1 +
Sigma_N_j^-1)^-1) over the ball kl(Sigma, Sigma_0) <= epsilon.

* f is concave, because the parallel sum is jointly concave (Anderson &
  Duffin 1969), and increasing in the Loewner order; its gradient is
  S(Sigma) = sum_j lambda_j W_j^T W_j, W_j^T = (Sigma + Sigma_N_j)^-1 Sigma_N_j.
* kl is strictly convex and tends to infinity at the boundary of the
  positive definite cone and at infinity, so the ball is compact and
  convex: both extrema exist for every epsilon >= 0, with the constraint
  active, and satisfy Sigma^-1 = Sigma_0^-1 - alpha S(Sigma), kl = epsilon.
* The upper bound (alpha > 0) maximizes a concave function over a convex
  set, so any such point is the global maximum. The lower bound (alpha <
  0) minimizes one: a stationary point may be a saddle or a worse local
  minimum, so it needs a minimality check.

The solver follows the bordered system {L0^T (Sigma^-1 - Sigma_0^-1 +
alpha S) L0 = 0, kl = t^2} (Sigma_0 = L0 L0^T) in t = sqrt(kl) from the
centre: a majorize-minimize first step onto the sphere, then tangent
predictors and Newton correctors on the analytic Jacobian. An evaluation
gives the residual and the whitened matrices the Jacobian is made of;
the Jacobian itself is assembled only where it is read: for a Newton
step, for the tangent short of the target and for a lower bound's
minimality check. In whitened coordinates X = L0^-1 Sigma L0^-T, on an
orthonormal packing, the Jacobian's X-block is alpha times the Hessian of
the Lagrangian f - (2 / alpha) kl, so a lower bound is checked to be a
local minimum on the tangent space of the sphere and moved off saddles
along negative curvature. A lower bound also tries a start at the target,
unless its path reached the target in one step, which is such a start,
with a certified answer; a descent from the centre when the path stalls at
a fold; and a symmetry-breaking split when its answer has a repeated
eigenvalue; and keeps the lowest. Each candidate is certified once, as it
joins the solve's one ranked list, from the solve's own context: the
fixed-point residual and |kl - epsilon| (the sign of alpha is kept by the
search); the answer is the first certified candidate in rank order. A
given start near the answer (a sweep's previous row) replaces the path
and the start at the target: one majorize-minimize step puts it on the
sphere and a corrector settles it; a lower bound keeps the split, and an
uncertified warm candidate gives way to the solve from the centre. All of
a solve's attempts share one budget of 500 Jacobian evaluations.

Before any of this, `separable.closed_forms` gives the candidates of the
problems that reduce to scalars (K = 1, and one channel on a reference
exactly c I); the first that passes the same certificate is the answer,
without the ranked list, and continuation runs only if none passes.
README "Solver notes" gives the details.

The hot linear algebra goes through `_kernels`: numpy's LAPACK gufuncs,
C einsum and ufunc reductions without numpy's Python layers, bitwise
numpy's results; that module states how each kernel reports a LAPACK
failure. The solver imports nothing from `gaussian`, whose closed forms
(`weighted_mmse_sum`, `opt_covariance_residual`) check its answers
independently; `_value` is its one formula for f. An evaluation writes
its products into its stack and Jacobian; the scratch of `_Ctx` holds
what a call uses and drops, and what a call returns is fresh.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import LinAlgError

from ._kernels import cholesky, eigh, einsum, inv, max_, norm, solve, solve_stack, sum_
from .exceptions import DimensionMismatch, NoConvergence
from .problem import DivergenceBall, validate_problem
from .separable import closed_forms

_NEWTON_ITER = 12  # Newton iterations per corrector
_MAX_JACOBIANS = 500  # Jacobian evaluations per solve
_INNER_TOL = 1e-11  # certified relative Frobenius residual of the fixed point
_OUTER_TOL = 1e-10  # certified |kl - epsilon|
_PATH_TOL = 1e-9  # relative residual of a corrector short of the target
_FINAL_TOL = 1e-13  # ... and at the target
_FLOOR_TOL = 1e-10  # a corrector stalled below this has reached rounding
_KICKS = 6  # escapes from saddles per corrector
_MM_STEPS = 100  # majorize-minimize steps when the path stalls
_SMOOTH = 4  # fixed-alpha majorize-minimize steps after a lower-bound predictor
_SPLIT_STEPS = 10  # majorize-minimize steps from each symmetry-breaking split


def _sign(direction) -> float:
    """+1 for "upper", -1 for "lower"; a ValueError names any other value."""
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    return 1.0 if direction == "upper" else -1.0


@dataclass(frozen=True)
class BoundResult:
    """Solved bound: multiplier, extremal covariance, value, diagnostics.

    inner_iterations counts Jacobian evaluations, outer_iterations
    continuation steps; a K = 1 problem solved at the end of its interval
    counts the Newton iterations of the end, and a one-channel problem on
    c I solved as K scalars its reduced Newton iterations, both with no
    steps. An answer from a given start takes no step either.
    """

    direction: str
    alpha: float
    sigma_x: np.ndarray
    bound_value: float
    kl_at_solution: float
    inner_iterations: int
    outer_iterations: int
    residuals: tuple[float, float]


@functools.cache
def _packing(k):
    """The (K^2, K(K+1)/2) orthonormal packing E_ii, (E_ij + E_ji) / sqrt 2,
    its transpose and negated transpose, I_K and I_n, all read-only. The
    negation keeps the transposed layout: BLAS runs another kernel on a
    contiguous copy."""
    iu, ju = np.triu_indices(k)
    n = iu.size
    basis = np.zeros((k, k, n))
    val = np.where(iu == ju, 1.0, np.sqrt(0.5))
    basis[iu, ju, np.arange(n)] = val
    basis[ju, iu, np.arange(n)] = val
    basis = basis.reshape(k * k, n)
    consts = (basis, basis.T, -basis.T, np.eye(k), np.eye(n))
    for a in consts:
        a.flags.writeable = False
    return consts


class _Ctx:
    """Per-solve constants of a validated problem (the reference, L0 and
    log det Sigma_0, the channels, the orthonormal packing and identities),
    the solve's counters and its scratch: everything the search and the
    certificate read. The scratch holds what a call uses and drops; an
    array a call returns is never scratch, since callers hold two at once."""

    def __init__(self, prob):
        self.sigma0 = prob.reference.covariance
        self.k = k = self.sigma0.shape[0]
        self.l0 = prob.ball.reference_chol
        self.l0t = self.l0.T
        self.l0i = inv(self.l0)  # a Cholesky factor: triangular, positive diagonal
        self.sigma0_inv = self.l0i.T @ self.l0i
        self.logdet0 = 2.0 * sum_(np.log(np.diag(self.l0)), None)
        self.noise, self.weights = prob.noise_stack, prob.weights
        self.nj = nj = self.weights.size
        self.basis, self.basis_t, self.neg_basis_t, self.eye_k, self.eye_n = _packing(k)
        self.n = n = self.basis.shape[1]
        # [chol(Sigma), Sigma + Sigma_N_j] of `_inverses` (buf_a: the A_j), read
        # before it is filled again
        self.buf = np.empty((nj + 1, k, k))
        self.buf_a = self.buf[1:]
        # `_jacobian`'s coefficients [1, 2 alpha lambda_j] (coef_w: the second
        # part), Kronecker sum (as (K, K, K, K) for the einsum) and projected product
        self.coef = np.empty(nj + 1)
        self.coef[0] = 1.0
        self.coef_w = self.coef[1:]
        self.kron = np.empty((k * k, k * k))
        self.kron4 = self.kron.reshape(k, k, k, k)
        self.proj = np.empty((n, k * k))
        self.jacobians = self.steps = 0

    def unpack_sigma(self, v):  # packed whitened X -> L0 X L0^T
        return self.l0 @ (self.basis @ v).reshape(self.k, self.k) @ self.l0t

    def lift(self, m, out=None):  # whitened precision-like L0^T M L0
        return np.matmul(self.l0t @ m, self.l0, out=out)


def _gradient(ctx, ai, cm=None, out=None):
    """S from A_j^-1 = (Sigma + Sigma_N_j)^-1, with the W_j^T W_j written to
    `cm` and S to `out` where given."""
    wt = ai @ ctx.noise
    wtw = np.matmul(wt, wt.swapaxes(1, 2), out=cm)
    out = np.empty((ctx.k, ctx.k)) if out is None else out  # einsum rejects out=None
    return einsum("j,jab->ab", ctx.weights, wtw, out=out)


def _inverses(ctx, sigma, chol, out=None):
    """chol^-1 and every A_j^-1 = (Sigma + Sigma_N_j)^-1 from one stacked
    inverse of the solve's buffer, which keeps the A_j, written to `out`
    where given. A Cholesky factor, and A_j with Sigma positive definite,
    are invertible: LAPACK cannot fail."""
    buf = ctx.buf
    buf[0] = chol
    np.add(sigma, ctx.noise, out=ctx.buf_a)
    return inv(buf, out=out)


def _s(ctx, sigma):
    """S(Sigma), the gradient of f: all NaN where a Sigma + Sigma_N_j is
    singular, and a start that gives it is dropped (`eigh` raises, or the
    corrector finds no finite Sigma)."""
    return _gradient(ctx, inv(sigma + ctx.noise))


def _value(ctx, sigma):
    """f(Sigma) = sum_j lambda_j tr(Sigma A_j^-1 Sigma_N_j), the solve's one
    formula for f, with each A_j = Sigma + Sigma_N_j symmetrized. At a
    symmetric Sigma, which covers every certified value (`_certify`
    symmetrizes first), the value is bitwise `gaussian.weighted_mmse_sum`'s.
    At an unsymmetrized iterate, whose value only ranks candidates, the two
    differ by a term of first order in the skew, not by rounding alone:
    that function reads only Sigma's symmetrization, this one Sigma as it is.
    Sigma is positive definite (the reference, a corrected iterate or a
    majorize-minimize step), so LAPACK cannot fail on the A_j; a step that
    overflowed gives NaN."""
    a = sigma + ctx.noise
    a = 0.5 * (a + a.swapaxes(1, 2))
    return float(ctx.weights @ np.trace(sigma @ solve_stack(a, ctx.noise), axis1=1, axis2=2))


def _kl(ctx, sigma, ci):
    """kl(Sigma, Sigma_0) from ci = chol(Sigma)^-1."""
    return (0.5 * (sum_(ctx.sigma0_inv * sigma, None) - ctx.k + ctx.logdet0)
            + sum_(np.log(ci.diagonal()), None))


def _evaluate(ctx, sigma, chol, alpha, t2):
    """(residual, whitened stack) of the bordered system at Sigma = chol
    chol^T, counted against the cap of Jacobian evaluations; the residual is
    formed in the original coordinates. The stack is L0^T (.) L0 of Sigma^-1,
    the A_j^-1, Sigma^-1 again, the W_j^T W_j, S and the residual's matrix:
    stack[0] is X^-1, and `_jacobian` assembles the Jacobian from the stack
    where one is read."""
    if ctx.jacobians >= _MAX_JACOBIANS:
        raise NoConvergence("Jacobian evaluation cap reached", iterations=ctx.jacobians)
    ctx.jacobians += 1
    k, n, nj = ctx.k, ctx.n, ctx.nj
    # one product L0^T (.) L0 whitens all of them; the Jacobian's einsum reads the
    # first two runs of J + 1 as they lie
    stack = np.empty((2 * nj + 4, k, k))
    ci = _inverses(ctx, sigma, chol, out=stack[:nj + 1])[0]
    res = np.empty(n + 1)
    res[n] = _kl(ctx, sigma, ci) - t2  # before Sigma^-1 overwrites ci
    si = np.matmul(ci.T, ci, out=stack[nj + 1])
    stack[0] = si
    s, r = stack[-2], stack[-1]
    _gradient(ctx, stack[1:nj + 1], stack[nj + 2:-2], out=s)
    np.subtract(si, ctx.sigma0_inv, out=r)
    r += alpha * s
    ctx.lift(stack, out=stack)
    np.matmul(ctx.basis_t, r.ravel(), out=res[:n])  # packed residual matrix
    return res, stack


def _jacobian(ctx, alpha, stack):
    """The bordered Jacobian at the point `_evaluate` left `stack` for."""
    n, nj = ctx.n, ctx.nj
    np.multiply(2.0 * alpha, ctx.weights, out=ctx.coef_w)
    # kron(X^-1, X^-1) + 2 alpha sum_j lambda_j kron(L0^T A_j^-1 L0, L0^T W_j^T W_j L0)
    einsum("j,jab,jcd->acbd", ctx.coef, stack[:nj + 1], stack[nj + 1:-2], out=ctx.kron4)
    jac = np.empty((n + 1, n + 1))
    np.matmul(np.matmul(ctx.neg_basis_t, ctx.kron, out=ctx.proj), ctx.basis, out=jac[:n, :n])
    np.matmul(ctx.basis_t, stack[-2].ravel(), out=jac[:n, n])  # packed S
    np.matmul(ctx.basis_t, (0.5 * (ctx.eye_k - stack[0])).ravel(), out=jac[n, :n])  # kl's
    jac[n, n] = 0.0
    return jac


def _newton_step(ctx, sigma, alpha, res, jac):
    """Newton step, shortened only to keep Sigma positive definite; the
    new (Sigma, alpha, chol(Sigma)) or None."""
    try:
        step = solve(jac, -res)
    except LinAlgError:
        return None
    lam, d = 1.0, ctx.unpack_sigma(step[:ctx.n])
    trial = sigma + d  # lam = 1
    while lam >= 1e-6:
        chol = cholesky(trial)
        if chol is not None:
            return trial, alpha + lam * step[ctx.n], chol
        lam *= 0.5
        trial = sigma + lam * d
    return None


def _correct(ctx, sigma, alpha, t2, final, iters=_NEWTON_ITER):
    """Newton on the bordered system at kl = t2. The residual is relative
    to max|X^-1|; it passes below the target's tolerances where `final`,
    else below the path's, or once it stops contracting below the rounding
    floor. Returns (Sigma, alpha, the evaluation's whitened stack) or None,
    after at most `iters` evaluations."""
    tol, kl_tol = (_FINAL_TOL, 0.1 * _OUTER_TOL) if final else (_PATH_TOL, 1e-9 * t2)
    prev, chol = np.inf, cholesky(sigma)
    if chol is None:
        return None
    for i in range(1, iters + 1):
        res, stack = _evaluate(ctx, sigma, chol, alpha, t2)
        rel = norm(res[:-1]) / max_(np.abs(stack[0]), None)
        if abs(res[-1]) <= kl_tol and (rel <= tol or _FLOOR_TOL > rel > 0.25 * prev):
            return sigma, alpha, stack
        if i == iters:  # no Newton step that nothing would evaluate
            return None
        prev = rel
        step = _newton_step(ctx, sigma, alpha, res, _jacobian(ctx, alpha, stack))
        if step is None:
            return None
        sigma, alpha, chol = step


def _mm_step(ctx, sigma, t2, sign, alpha=None):
    """Majorize-minimize step (Sigma, alpha): L0 (I - alpha T(Sigma))^-1 L0^T,
    with alpha of the direction's sign putting it on kl = t2 unless given."""
    return _sphere(ctx, *eigh(ctx.lift(_s(ctx, sigma))), t2, sign, alpha)


def _sphere(ctx, tau, q, t2, sign, alpha=None):
    """(L0 q diag(1 / (1 - alpha tau)) q^T L0^T, alpha) for T = q diag(tau) q^T.
    At extreme radii the safeguarded Newton's trial points overflow or leave
    the domain of the log; those steps are rejected, and the flags they
    raise are the solve's (`solve_bound`). Its scalars stay numpy scalars:
    in Python floats a division by zero raises."""
    if alpha is None:
        lo, hi = 0.0, (1.0 / tau[-1] if sign > 0 else np.inf)
        b = min(2.0 * np.sqrt(t2) / norm(tau), 0.5 * hi)  # first order
        for _ in range(100):
            x = 1.0 / (1.0 - sign * b * tau)
            xm1 = x - 1.0
            g = 0.5 * sum_(xm1 - np.log(x), None) - t2
            if abs(g) <= 1e-13 * t2:
                break
            lo, hi = (lo, b) if g > 0 else (b, hi)
            b_new = b - g / (0.5 * sign * sum_(tau * x * xm1, None))
            b = b_new if lo < b_new < hi else (0.5 * (lo + hi) if hi < np.inf else 2.0 * b)
        alpha = sign * b
    lq = ctx.l0 @ q
    return (lq / (1.0 - alpha * tau)) @ lq.T, alpha


def _settle(ctx, sigma, alpha, t2, sign, final, iters=_NEWTON_ITER):
    """Correct at kl = t2 (`final`: the target); a lower bound must also
    make the reduced Hessian (1/alpha) P^T J_XX P (P spanning the tangent
    space of the sphere) positive semidefinite and is moved off saddles
    along its most negative curvature. Returns (Sigma, alpha, J) or None;
    J, the Jacobian at the answer, is built for a lower bound's check or
    for the tangent short of the target, and is None otherwise."""
    hit = _correct(ctx, sigma, alpha, t2, final, iters)
    for _ in range(_KICKS):
        if hit is None or sign * hit[1] <= 0.0:
            return None
        sigma, alpha, stack = hit
        if sign > 0:
            return sigma, alpha, None if final else _jacobian(ctx, alpha, stack)
        jac = _jacobian(ctx, alpha, stack)
        g = jac[-1, :-1] / norm(jac[-1, :-1])
        proj = ctx.eye_n - g[:, None] * g
        ev, vec = eigh(proj @ (jac[:-1, :-1] + jac[:-1, :-1].T) @ proj / (2 * alpha))
        if ev[0] >= -1e-9 * max_(np.abs(ev), None):
            return sigma, alpha, jac
        # half-way to the edge of the cone both ways, then a
        # majorize-minimize step back onto the sphere; keep the lower side
        x_min = np.linalg.eigvalsh(ctx.l0i @ sigma @ ctx.l0i.T)[0]
        dx = (ctx.basis @ vec[:, 0]).reshape(ctx.k, ctx.k)
        d = ctx.unpack_sigma(0.5 * x_min / max_(np.abs(np.linalg.eigvalsh(dx)), None) * vec[:, 0])
        sigma, alpha = min((_mm_step(ctx, sigma + s * d, t2, sign) for s in (1.0, -1.0)),
                           key=lambda c: _value(ctx, c[0]))
        hit = _correct(ctx, sigma, alpha, t2, final)
    return None


def _split_start(ctx, eps):
    """The lowest of majorize-minimize descents from the splits that spend
    the whole radius shrinking the m steepest directions of T(Sigma_0)
    alike, m < K: a start off the symmetric subspace a path stays in."""
    q = eigh(ctx.lift(_s(ctx, ctx.sigma0)))[1]
    splits = (_sphere(ctx, (np.arange(ctx.k) >= ctx.k - m).astype(float), q, eps, -1.0)[0]
              for m in range(1, ctx.k))
    return min((_descent(ctx, start, eps, _SPLIT_STEPS) for start in splits),
               key=lambda c: _value(ctx, c[0]))


def _descent(ctx, sigma, eps, steps):
    """(Sigma, alpha) after `steps` lower-bound majorize-minimize steps from sigma."""
    for _ in range(steps):
        sigma, alpha = _mm_step(ctx, sigma, eps, -1.0)
    return sigma, alpha


def _path(ctx, sign, eps):
    """Continuation in t = sqrt(kl) from the centre; (Sigma, alpha) at t^2 = eps."""
    n, target, h = ctx.n, np.sqrt(eps), np.sqrt(eps)
    t, sigma, alpha, tangent = 0.0, ctx.sigma0, 0.0, None
    while t < target:
        ctx.steps += 1
        t_new = target if target - (t + h) <= 1e-9 * target else t + h
        if tangent is None:
            s_p, a_p = _mm_step(ctx, ctx.sigma0, t_new**2, sign)
        else:  # Sigma^1/2 exp(dt Sigma^-1/2 Sigma' Sigma^-1/2) Sigma^1/2 stays definite
            c = cholesky(sigma)  # a corrected Sigma: positive definite
            ci = inv(c)
            w, v = eigh(ci @ ctx.unpack_sigma((t_new - t) * tangent[:n]) @ ci.T)
            s_p = (c @ v * np.exp(np.minimum(w, 30.0))) @ (c @ v).T
            a_p = alpha + (t_new - t) * tangent[n]
            for _ in range(_SMOOTH if sign < 0 and a_p < 0 else 0):  # descend the Lagrangian
                s_p = _mm_step(ctx, s_p, t_new**2, sign, a_p)[0]
        hit = _settle(ctx, s_p, a_p, t_new**2, sign, t_new == target)
        if hit is None:
            h *= 0.5
            if h < 1e-9 * target or ctx.jacobians > 0.8 * _MAX_JACOBIANS:
                raise NoConvergence(f"continuation stalled at kl={float(t * t)!r} of {eps!r}",
                                    iterations=ctx.jacobians)
            continue
        t, (sigma, alpha, jac), h = t_new, hit, 1.5 * h
        if t < target:
            tangent = solve(jac, np.append(np.zeros(n), 2.0 * t))
    return sigma, alpha


def _residual(ctx, sigma, alpha, s):
    """||G(Sigma) - Sigma|| / ||Sigma|| for G(Sigma) = (Sigma_0^-1 - alpha
    S(Sigma))^-1 (Frobenius), given s = S(Sigma); inf where Sigma_0^-1 -
    alpha S(Sigma) is not positive definite. Both norms read their matrix
    scaled by the power of two of max|Sigma|: exact, and the squares of a
    tiny Sigma's entries do not underflow."""
    with np.errstate(invalid="ignore"):  # silent outside a solve too
        c = cholesky(ctx.sigma0_inv - alpha * s)
    if c is None:
        return np.inf
    mi = inv(c)  # a Cholesky factor
    scale = np.ldexp(1.0, -np.frexp(max_(np.abs(sigma), None))[1])
    return float(norm(scale * (mi.T @ mi - sigma)) / norm(scale * sigma))


def solve_bound(direction, ensemble, ball: DivergenceBall, start=None) -> BoundResult:
    """Solve for the upper or lower bound on the weighted MMSE sum.

    The candidates of `separable.closed_forms` come first: a K = 1
    problem's interval end, and one channel on a reference exactly c I as
    K scalars (README "Solver notes"; `inner_iterations` counts their
    Newton iterations, `outer_iterations` is 0). Other problems, or one
    whose closed-form candidates all fail the certificate, are solved by
    continuation, or from `start` where one is given.

    Parameters
    ----------
    direction : {"upper", "lower"}
    ensemble : ChannelEnsemble or Problem
        Raw channel data is paired with `ball` first (`validate_problem`).
    ball : DivergenceBall
        Reference prior and KL radius epsilon >= 0; with a `Problem`, the
        problem's own ball.
    start : (K, K) array or None
        A covariance near the answer, such as a sweep's previous answer
        recoloured to this ball. It replaces the continuation: one
        majorize-minimize step puts it on the sphere, a corrector settles
        it, and a lower bound still tries the split where the answer has a
        repeated eigenvalue. If it gives no certified answer, the problem
        is solved as without `start`, on the rest of the same budget of
        500 Jacobian evaluations: bitwise the same answer unless the two
        attempts together exhaust it, with `inner_iterations` counting
        both. None (the default) is the solve from the centre.

    Returns
    -------
    BoundResult
        With ``|kl_at_solution - epsilon| <= 1e-10``, the fixed-point
        residual of ``sigma_x`` at most 1e-11 and alpha of the direction's
        sign; a lower bound is also a local minimum.

    Raises
    ------
    DimensionMismatch
        If the ball's K is not the channels', or `start` is not (K, K).
    ValueError
        If the direction is neither "upper" nor "lower", or a `Problem`
        comes with a ball other than its own.
    NoConvergence
        If no answer passes the checks, or at once, with no Jacobian
        evaluated, if a K = 1 end leaves the double range; the message
        names the bound and epsilon.
    """
    sign = _sign(direction)
    prob = validate_problem(ensemble, ball)
    if start is not None:
        start, k = np.asarray(start, dtype=float), prob.dimension
        if start.shape != (k, k):
            raise DimensionMismatch(f"start has shape {start.shape}, expected {(k, k)}")
    # the solve's one floating-point state, set nowhere inside it: at extreme radii
    # the search's trial points overflow, divide by zero or leave the log's domain
    # (the closed forms' brackets take logit 0 and 1), and a tiny candidate's norms
    # underflow. The certificate decides, whatever the caller's numpy error state.
    with np.errstate(all="ignore"):
        ctx = _Ctx(prob)
        eps = prob.epsilon
        if eps <= _OUTER_TOL:
            # the ball is (numerically) a point; both bounds sit at the center
            return BoundResult(direction, 0.0, ctx.sigma0.copy(), _value(ctx, ctx.sigma0), 0.0,
                               0, 0, (0.0, abs(eps)))

        found = []  # [f or None, Sigma, BoundResult or residual], best first

        def offer(sigma, alpha):
            """Certify the candidate (Sigma, alpha) and rank it into `found` by f
            at Sigma as given; its BoundResult or residual. A lone candidate
            needs no f; each gets its f once, when there are two."""
            cert = _certify(direction, ctx, eps, sigma, alpha)
            found.append([None, sigma, cert])
            if len(found) > 1:
                for c in found:
                    if c[0] is None:
                        c[0] = _value(ctx, c[1])
                found.sort(key=lambda c: -sign * c[0])
            return cert

        def add(start, *args):
            """Correct the start(*args) at kl = eps and offer it; its BoundResult
            or residual, None when the corrector fails or the start breaks down."""
            try:
                hit = _settle(ctx, *start(*args), eps, sign, True, 3 * _NEWTON_ITER)
            except LinAlgError:
                return None
            return None if hit is None else offer(*hit[:2])

        # a K = 1 end past the double range, a failed upper path, or the
        # Jacobian cap, ends the solve
        try:
            for candidate in closed_forms(ctx.sigma0, ctx.noise, ctx.weights, sign, eps):
                if isinstance(cert := _certify(direction, ctx, eps, *candidate), BoundResult):
                    return cert
            # continuation, unless a warm candidate given by `start` is certified:
            # it replaces the path and its start
            if start is None or not isinstance(add(_mm_step, ctx, start, eps, sign),
                                               BoundResult):
                found.clear()  # solved from the centre as without a start
                try:
                    sigma, alpha = _path(ctx, sign, eps)
                except (NoConvergence, LinAlgError):
                    if sign > 0:
                        raise
                    add(_descent, ctx, ctx.sigma0, eps, _MM_STEPS)
                else:
                    # a one-step path's predictor was a majorize-minimize start at the
                    # target, so it runs again only for an uncertified answer
                    cert = offer(sigma, alpha)
                    if sign < 0 and not (ctx.steps == 1 and isinstance(cert, BoundResult)):
                        add(_mm_step, ctx, ctx.sigma0, eps, sign, alpha)
            if sign < 0 and ctx.k > 1:
                w = np.linalg.eigvalsh(ctx.l0i @ found[0][1] @ ctx.l0i.T) if found else [0.0, 0.0]
                if np.min(np.diff(w)) <= 1e-6 * w[-1]:
                    # no answer, or one with a repeated eigenvalue: break the symmetry
                    add(_split_start, ctx, eps)
        except (NoConvergence, LinAlgError) as exc:
            raise NoConvergence(f"{direction} bound at epsilon={eps!r}: {exc}",
                                getattr(exc, "residual", None), ctx.jacobians) from exc
        for _, _, cert in found:
            if isinstance(cert, BoundResult):
                return replace(cert, inner_iterations=ctx.jacobians)
        res = found[-1][2] if found else np.inf
        raise NoConvergence(f"{direction} bound at epsilon={eps!r}: {len(found)} local "
                            f"extrema found, none certified (residual {res:.3g})", residual=res,
                            iterations=ctx.jacobians)


def _certify(direction, ctx, eps, sigma, alpha, value=None, inner=None):
    """The candidate (Sigma, alpha) as a BoundResult if, once Sigma is
    symmetrized, it passes the certificate: a fixed-point residual of at
    most 1e-11 and |kl - epsilon| <= 1e-10; else its residual (inf where
    Sigma is not positive definite). A closed form gives its value and
    iteration count; a continuation candidate's value is `_value` at the
    symmetrized Sigma, and the solve sets its inner_iterations when it
    returns it."""
    sigma = 0.5 * (sigma + sigma.T)
    chol = cholesky(sigma)
    if chol is None:
        return np.inf
    inverses = _inverses(ctx, sigma, chol)
    res = _residual(ctx, sigma, alpha, _gradient(ctx, inverses[1:]))
    kl = float(_kl(ctx, sigma, inverses[0]))
    if not (res <= _INNER_TOL and abs(kl - eps) <= _OUTER_TOL):
        return res
    value = _value(ctx, sigma) if value is None else value
    return BoundResult(direction, float(alpha), sigma, float(value), kl, inner, ctx.steps,
                       (res, abs(kl - eps)))


def local_bound(direction, ensemble, channel_index: int, ball: DivergenceBall) -> BoundResult:
    """Bound for a single channel under the same KL constraint: `solve_bound`
    on the channel alone with weight 1 (`single`; a validated `Problem`'s
    ball is not validated again), so independent of the channel's weight,
    and, for K >= 2 on a reference exactly c I, solved as K scalars.
    direction: "upper" or "lower"."""
    return solve_bound(direction, ensemble.single(channel_index), ball)


def local_bounds_weighted(direction, ensemble, ball: DivergenceBall) -> float:
    """Weighted sum of per-channel bounds: sum_j lambda_j local_bound(j).

    Optimizing each channel separately under the full KL budget is looser
    than the joint problem, so this brackets the joint bound from outside.

    Returns the sum as a float; channel j's own `BoundResult` is
    `local_bound(direction, ensemble, j, ball)`.
    """
    return float(np.dot(ensemble.weights, [local_bound(direction, ensemble, j, ball).bound_value
                                           for j in range(len(ensemble.weights))]))
