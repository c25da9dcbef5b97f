"""Gaussians and their closed-form quantities.

`Gaussian(mean, covariance)` is N(m, C) in each of its roles: the
reference P_0 at the centre of a KL ball, a prior family's moment match,
and the Gaussian prior family itself. Its one check (`_checked`) lives
here too.

Estimator gain matrices, MMSE matrices and traces, the additive-form
residual of the bounds' optimality condition, same-mean Gaussian KL
divergence, and the exact MSE of a fixed affine estimator under an
arbitrary Gaussian prior. These closed forms are the checks of the
solver's answers, so they share no code with `solver.py`. One check,
`_check_spd`, decides what a covariance is, and every covariance passes
it once, where it enters: every input covariance, the Sigma_X of every
MMSE closed form (in `weight_matrix`), both arguments of the KL
divergence and both covariances of `linear_estimator_mse`. A non-finite,
singular or indefinite matrix raises NotPositiveDefinite, and one not
symmetric to SYMMETRY_RTOL NonSymmetric, naming it. The MMSE closed forms
read their channels from a ChannelEnsemble or Problem, whose noise
covariances were checked when it was built, so a sum Sigma_X + Sigma_N_j
of two checked covariances is solved as it is. KL is in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (DimensionMismatch, NonSymmetric, NotPositiveDefinite,
                         ProblemValidationError)

SYMMETRY_RTOL = 1e-12


def _as_matrix(a, name, channel=None):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty square matrix, got shape "
                                f"{m.shape}", channel=channel)
    return m


def _check_spd(m, name, channel=None):
    """The module's one check that `m` is a covariance: a (K, K) matrix or a
    (J, K, K) stack, finite (NotPositiveDefinite), symmetric within
    SYMMETRY_RTOL in relative Frobenius norm (NonSymmetric) and positive
    definite by Cholesky (NotPositiveDefinite), each error naming `name`.
    A stack is symmetric when its antisymmetric part is within
    SYMMETRY_RTOL of the whole stack. Returns the symmetrized `m` and its
    Cholesky factor (one per matrix of a stack). The norms are taken of
    `m` scaled to a peak of 1, and each half before the sum, so that
    entries near the double maximum cannot overflow; halving is exact, so
    this is 0.5 (m + m^T) bit for bit unless an entry is subnormal. It is
    called where a covariance enters, on the matrix as given, never on one
    computed from checked covariances, such as their sum."""
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(f"{name} has non-finite entries", channel=channel)
    peak = np.abs(m).max()
    unit = m / peak if peak > 0 else m
    if np.linalg.norm(unit - unit.swapaxes(-1, -2)) > SYMMETRY_RTOL * np.linalg.norm(unit):
        raise NonSymmetric(f"{name} is not symmetric within tolerance", channel=channel)
    m = 0.5 * m + 0.5 * m.swapaxes(-1, -2)
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} is not positive definite", channel=channel)


@dataclass(frozen=True)
class Gaussian:
    """N(mean, covariance): a reference prior P_0, a moment match, or the
    Gaussian prior family. Two are equal when both arrays are."""

    mean: np.ndarray
    covariance: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Gaussian):
            return NotImplemented
        return (np.array_equal(self.mean, other.mean)
                and np.array_equal(self.covariance, other.covariance))


def _checked(g: Gaussian, name: str):
    """(mean, covariance, Cholesky factor) of `g` as float arrays: the mean
    a read-only flattened copy, the covariance a read-only symmetrized one,
    so no later write to the caller's arrays reaches them. DimensionMismatch
    unless the covariance is a nonempty square matrix and the mean has its
    size, ProblemValidationError for a non-finite mean, and the `_check_spd`
    errors for the covariance; `name` ("reference", say) leads each message."""
    mean = np.array(g.mean, dtype=float).reshape(-1)
    cov = _as_matrix(g.covariance, f"{name} covariance")
    k = cov.shape[0]
    if mean.shape[0] != k:
        raise DimensionMismatch(f"{name} mean has length {mean.shape[0]}, covariance is {k}x{k}")
    if not np.isfinite(mean).all():
        raise ProblemValidationError(f"{name} mean has non-finite entries")
    sym, chol = _check_spd(cov, f"{name} covariance")
    mean.flags.writeable = sym.flags.writeable = False
    return mean, sym, chol


def _check_same_shape(a, b, name_a, name_b):
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"{name_a} {a.shape} and {name_b} {b.shape} must be equal square shapes")


def _gain_transpose(sigma_x, noise):
    """W^T = (Sigma_X + Sigma_N)^-1 Sigma_N for a (J, K, K) noise stack,
    one W_j^T per channel. Both terms are covariances checked where they
    entered, so the sums are not checked again. They are formed from
    halves, which cannot overflow; halving is exact, so this is the solve
    with the plain sums bit for bit unless an entry is subnormal."""
    return np.linalg.solve(0.5 * sigma_x + 0.5 * noise, 0.5 * noise)


def weight_matrix(sigma_x, ensemble):
    """Gain matrices W_j = Sigma_N_j (Sigma_X + Sigma_N_j)^-1, one per channel.

    The conditional-mean estimator of channel j for a Gaussian prior is
    f(y) = (I - W_j) y + W_j mu_0; at the extremal Sigma_X of the upper
    bound, `weight_matrix(upper.sigma_x, ensemble)[j]` is channel j's
    minimax-robust gain.

    The one entry through which the MMSE closed forms take Sigma_X, which
    passes `_check_spd` as every input covariance does and is read
    symmetrized: a non-finite, singular or indefinite Sigma_X raises
    NotPositiveDefinite, and one not symmetric to SYMMETRY_RTOL
    NonSymmetric, each naming `sigma_x`. The noise covariances were checked
    when the ensemble was built.

    Parameters
    ----------
    sigma_x : (K, K) ndarray
        Prior covariance, symmetric positive definite.
    ensemble : ChannelEnsemble or Problem

    Returns
    -------
    (J, K, K) ndarray: the J gains W_j
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    _check_same_shape(sigma_x, ensemble.noise_stack[0], "sigma_x", "sigma_n")
    sigma_x = _check_spd(sigma_x, "sigma_x")[0]
    return _gain_transpose(sigma_x, ensemble.noise_stack).swapaxes(-1, -2)


def mmse_matrix(sigma_x, ensemble):
    """MMSE matrices Sigma_X (Sigma_X + Sigma_N_j)^-1 Sigma_N_j, one per
    channel of a ChannelEnsemble or Problem, as a (J, K, K) array.

    Each equals Sigma_X W_j^T and, algebraically, (Sigma_X^-1 +
    Sigma_N_j^-1)^-1; symmetric positive definite for SPD inputs, and
    returned symmetrized, from halves. Sigma_X is checked, and named, as
    `weight_matrix` checks it.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    m = sigma_x @ weight_matrix(sigma_x, ensemble).swapaxes(-1, -2)
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


@dataclass(frozen=True)
class MmseSummary:
    """The weighted MMSE sum sum_j lambda_j tr(MMSE_j); the per-channel
    matrices are `mmse_matrix(sigma_x, ensemble)`."""

    weighted_sum: float


def weighted_mmse_sum(sigma_x, ensemble) -> MmseSummary:
    """Weighted sum of per-channel MMSE traces for a common prior covariance.

    All channels are computed at once: `mmse_matrix` checks Sigma_X's
    shape and definiteness and gives every W_j^T with one batched solve on
    the ensemble's (J, K, K) noise stack.

    Parameters
    ----------
    sigma_x : (K, K) ndarray
        Prior covariance.
    ensemble : ChannelEnsemble or Problem
    """
    traces = np.trace(mmse_matrix(sigma_x, ensemble), axis1=1, axis2=2)
    return MmseSummary(float(ensemble.weights @ traces))


def opt_covariance_residual(alpha, sigma_x, ensemble, reference) -> float:
    """Relative Frobenius residual of the additive-form optimality condition.

    Checks Sigma_X = Sigma_0 + alpha (sum_j lambda_j MMSE_j^T MMSE_j) SNR_0^-1
    at the given point; equivalent to the inverse form Sigma_X = (Sigma_0^-1 -
    alpha S(Sigma_X))^-1 that `solve_bound` certifies, but computed without
    the solver's code, so this is an independent verification of a solution
    (`ensemble`: a ChannelEnsemble or Problem)."""
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma0 = np.asarray(reference.covariance, dtype=float)
    m = mmse_matrix(sigma_x, ensemble)
    acc = np.sum(ensemble.weights[:, None, None] * (m.swapaxes(1, 2) @ m), axis=0)
    # SNR_0^-1 = Sigma_X^-1 Sigma_0
    inv_snr = np.linalg.solve(sigma_x, sigma0)
    rhs = sigma0 + alpha * acc @ inv_snr
    return float(np.linalg.norm(sigma_x - rhs) / np.linalg.norm(sigma_x))


def kl_same_mean_gaussians(sigma_x, sigma_0) -> float:
    """KL divergence (nats) between same-mean Gaussians N(m, Sigma_X), N(m, Sigma_0).

    Equals (tr(SNR_0) - K - log det(SNR_0)) / 2 with SNR_0 = Sigma_0^-1 Sigma_X,
    formed from the Cholesky factors of the two arguments, each checked as
    every input covariance is (`_check_spd`) and read symmetrized: a
    non-finite or indefinite argument raises NotPositiveDefinite, and one
    not symmetric to SYMMETRY_RTOL raises NonSymmetric, each naming the
    argument. Nonnegative; zero iff the covariances coincide.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_0 = np.asarray(sigma_0, dtype=float)
    _check_same_shape(sigma_x, sigma_0, "sigma_x", "sigma_0")
    sigma_x, chol_x = _check_spd(sigma_x, "sigma_x")
    chol = _check_spd(sigma_0, "sigma_0")[1]
    k = sigma_x.shape[0]
    ci = np.linalg.inv(chol)
    logdet_0 = 2.0 * float(np.sum(np.log(np.diag(chol))))
    logdet_x = 2.0 * float(np.sum(np.log(np.diag(chol_x))))
    trace = float(np.trace(ci.T @ (ci @ sigma_x)))
    value = 0.5 * (trace - k - (logdet_x - logdet_0))
    return max(value, 0.0)


def linear_estimator_mse(w, prior_cov, sigma_n) -> float:
    """Exact MSE of the fixed affine estimator (I - W) y + W mu_0.

    Valid for any prior with mean mu_0 and covariance `prior_cov` under
    noise N(0, Sigma_N): the error is -W (X - mu_0) + (I - W) N, so the MSE
    is tr(W Sigma W^T) + tr((I - W) Sigma_N (I - W)^T) regardless of the
    prior's shape beyond its first two moments. Both covariances pass
    `_check_spd`, named `prior_cov` and `sigma_n`, and are read symmetrized.
    """
    w = np.asarray(w, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    sigma_n = np.asarray(sigma_n, dtype=float)
    _check_same_shape(prior_cov, sigma_n, "prior_cov", "sigma_n")
    prior_cov = _check_spd(prior_cov, "prior_cov")[0]
    sigma_n = _check_spd(sigma_n, "sigma_n")[0]
    if w.shape != prior_cov.shape:
        raise DimensionMismatch(f"gain shape {w.shape} != covariance shape "
                                f"{prior_cov.shape}")
    iw = np.eye(w.shape[0]) - w
    return float(np.sum((w @ prior_cov) * w) + np.sum((iw @ sigma_n) * iw))
