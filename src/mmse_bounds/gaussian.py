"""Gaussians and their closed-form quantities.

`Gaussian(mean, covariance)` is N(m, C) in each of its roles: the
reference P_0 at the centre of a KL ball, a prior family's moment match,
and the Gaussian prior family itself. Its one check (`_checked`) lives
here too.

Estimator gain matrices, MMSE matrices and traces, the additive-form
residual of the bounds' optimality condition, same-mean Gaussian KL
divergence, and the exact weighted MSE of fixed affine estimators under
an arbitrary prior covariance. These closed forms are the checks of the
solver's answers, so they share no code with `solver.py`. One reader,
`_read`, decides what a (K, K) covariance is, and every covariance passes
it once, where it enters. It has three kinds of caller:

- `ChannelEnsemble`, for each noise covariance, naming its channel;
- `_checked`, for a reference's covariance and a Gaussian prior's;
- each public closed form, for each covariance argument (Sigma_X, the
  reference's Sigma_0 in `opt_covariance_residual`, both arguments of the
  KL divergence, `linear_estimator_mse`'s `prior_cov`), of the channels'
  K, or of Sigma_X's in the KL divergence.

A matrix that is not square or of the expected K raises
DimensionMismatch, a non-finite, singular or indefinite one
NotPositiveDefinite, and one not symmetric to SYMMETRY_RTOL NonSymmetric,
each naming it. A caller computes only with the symmetrized matrix `_read`
returns, never with its argument as given. The MMSE closed forms read
their channels from a ChannelEnsemble or Problem, so a sum Sigma_X +
Sigma_N_j of two checked covariances is solved as it is. KL is in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (DimensionMismatch, NonSymmetric, NotPositiveDefinite,
                         ProblemValidationError)

SYMMETRY_RTOL = 1e-12


def _read(a, name, k=None, channel=None):
    """The package's one reader of a covariance `a`: a float nonempty
    square matrix, k x k when `k` is given (DimensionMismatch), finite
    (NotPositiveDefinite), symmetric within SYMMETRY_RTOL in relative
    Frobenius norm (NonSymmetric) and positive definite by Cholesky
    (NotPositiveDefinite), each error naming `name` and carrying `channel`.
    Returns the symmetrized matrix and its Cholesky factor; the caller
    computes with these alone, never with `a` as given. The norms are
    taken of the matrix scaled to a peak of 1, and each half before the
    sum, so that entries near the double maximum cannot overflow; halving
    is exact, so this is 0.5 (m + m^T) bit for bit unless an entry is
    subnormal. It reads a covariance as given, never one computed from
    checked covariances, such as their sum."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty square matrix, got shape "
                                f"{m.shape}", channel=channel)
    if k is not None and m.shape[0] != k:
        raise DimensionMismatch(f"{name} is {m.shape[0]}x{m.shape[0]}, expected {k}x{k}",
                                channel=channel)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(f"{name} has non-finite entries", channel=channel)
    peak = np.abs(m).max()
    unit = m / peak if peak > 0 else m
    if np.linalg.norm(unit - unit.T) > SYMMETRY_RTOL * np.linalg.norm(unit):
        raise NonSymmetric(f"{name} is not symmetric within tolerance", channel=channel)
    m = 0.5 * m + 0.5 * m.T
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
    a read-only copy, the covariance a read-only symmetrized one, so no
    later write to the caller's arrays reaches them. The covariance is read
    first, by `_read` as "{name} covariance"; then DimensionMismatch unless
    the mean has shape (K,), and ProblemValidationError for a non-finite
    mean; `name` ("reference", say) leads each message."""
    cov, chol = _read(g.covariance, f"{name} covariance")
    mean = np.array(g.mean, dtype=float)
    if mean.shape != cov.shape[:1]:
        raise DimensionMismatch(f"{name} mean has shape {mean.shape}, expected {cov.shape[:1]}")
    if not np.isfinite(mean).all():
        raise ProblemValidationError(f"{name} mean has non-finite entries")
    mean.flags.writeable = cov.flags.writeable = False
    return mean, cov, chol


def _gain_transpose(sigma_x, noise):
    """W^T = (Sigma_X + Sigma_N)^-1 Sigma_N for a (J, K, K) noise stack,
    one W_j^T per channel. Both terms are covariances checked where they
    entered, so the sums are not checked again. They are formed from
    halves, which cannot overflow; halving is exact, so this is the solve
    with the plain sums bit for bit unless an entry is subnormal."""
    return np.linalg.solve(0.5 * sigma_x + 0.5 * noise, 0.5 * noise)


def _mmse(sigma_x, gain_t):
    """The MMSE matrices Sigma_X W_j^T of a checked Sigma_X, given its gains
    W^T (`_gain_transpose`), one per channel, symmetrized from halves."""
    m = sigma_x @ gain_t
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


def weight_matrix(sigma_x, ensemble):
    """Gain matrices W_j = Sigma_N_j (Sigma_X + Sigma_N_j)^-1, one per channel.

    The conditional-mean estimator of channel j for a Gaussian prior is
    f(y) = (I - W_j) y + W_j mu_0; at the extremal Sigma_X of the upper
    bound, `weight_matrix(upper.sigma_x, ensemble)` are the minimax-robust
    gains, whose weighted MSE `linear_estimator_mse` gives.

    Sigma_X is read through `_read`, as every MMSE closed form reads it:
    a Sigma_X not K x K raises DimensionMismatch, a non-finite, singular
    or indefinite one NotPositiveDefinite, and one not symmetric to
    SYMMETRY_RTOL NonSymmetric, each naming `sigma_x`; the gains are those
    of its symmetrization. The noise covariances were checked when the
    ensemble was built.

    Parameters
    ----------
    sigma_x : (K, K) ndarray
        Prior covariance, symmetric positive definite.
    ensemble : ChannelEnsemble or Problem

    Returns
    -------
    (J, K, K) ndarray: the J gains W_j
    """
    sigma_x = _read(sigma_x, "sigma_x", ensemble.dimension)[0]
    return _gain_transpose(sigma_x, ensemble.noise_stack).swapaxes(-1, -2)


def mmse_matrix(sigma_x, ensemble):
    """MMSE matrices Sigma_X (Sigma_X + Sigma_N_j)^-1 Sigma_N_j, one per
    channel of a ChannelEnsemble or Problem, as a (J, K, K) array.

    Each equals Sigma_X W_j^T and, algebraically, (Sigma_X^-1 +
    Sigma_N_j^-1)^-1; symmetric positive definite for SPD inputs, and
    returned symmetrized, from halves. Sigma_X is read, checked and named
    as `weight_matrix` reads it, and only its symmetrization enters.
    """
    sigma_x = _read(sigma_x, "sigma_x", ensemble.dimension)[0]
    return _mmse(sigma_x, _gain_transpose(sigma_x, ensemble.noise_stack))


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
    (`ensemble`: a ChannelEnsemble or Problem). Sigma_X and the reference's
    covariance, named `sigma_x` and `sigma_0`, are each read through `_read`
    as `weight_matrix` reads Sigma_X, and only their symmetrizations enter.
    """
    k = ensemble.dimension
    sigma_x = _read(sigma_x, "sigma_x", k)[0]
    sigma_0 = _read(reference.covariance, "sigma_0", k)[0]
    m = _mmse(sigma_x, _gain_transpose(sigma_x, ensemble.noise_stack))
    acc = np.sum(ensemble.weights[:, None, None] * (m.swapaxes(1, 2) @ m), axis=0)
    # SNR_0^-1 = Sigma_X^-1 Sigma_0
    inv_snr = np.linalg.solve(sigma_x, sigma_0)
    rhs = sigma_0 + alpha * acc @ inv_snr
    return float(np.linalg.norm(sigma_x - rhs) / np.linalg.norm(sigma_x))


def kl_same_mean_gaussians(sigma_x, sigma_0) -> float:
    """KL divergence (nats) between same-mean Gaussians N(m, Sigma_X), N(m, Sigma_0).

    Equals (tr(SNR_0) - K - log det(SNR_0)) / 2 with SNR_0 = Sigma_0^-1 Sigma_X,
    formed from the Cholesky factors of the two arguments, each read through
    `_read` (Sigma_0 of Sigma_X's shape): a non-finite or indefinite
    argument raises NotPositiveDefinite, and one not symmetric to
    SYMMETRY_RTOL raises NonSymmetric, each naming the argument.
    Nonnegative; zero iff the covariances coincide.
    """
    sigma_x, chol_x = _read(sigma_x, "sigma_x")
    chol = _read(sigma_0, "sigma_0", len(sigma_x))[1]
    k = sigma_x.shape[0]
    ci = np.linalg.inv(chol)
    logdet_0 = 2.0 * float(np.sum(np.log(np.diag(chol))))
    logdet_x = 2.0 * float(np.sum(np.log(np.diag(chol_x))))
    trace = float(np.trace(ci.T @ (ci @ sigma_x)))
    value = 0.5 * (trace - k - (logdet_x - logdet_0))
    return max(value, 0.0)


def linear_estimator_mse(gains, prior_cov, ensemble) -> float:
    """Exact weighted MSE sum_j lambda_j MSE_j of the fixed affine
    estimators (I - W_j) y_j + W_j mu_0, one per channel of a
    ChannelEnsemble or Problem.

    Valid for any prior with mean mu_0 and covariance `prior_cov`: channel
    j's error is -W_j (X - mu_0) + (I - W_j) N_j, so MSE_j is
    tr(W_j Sigma W_j^T) + tr((I - W_j) Sigma_N_j (I - W_j)^T) regardless of
    the prior's shape beyond its first two moments. With the upper bound's
    gains, `linear_estimator_mse(weight_matrix(upper.sigma_x, ensemble),
    sigma, ensemble) <= upper.bound_value` for every Gaussian prior
    covariance `sigma` in the ball: the estimators are minimax robust.

    `gains` is a (J, K, K) array, one W_j per channel (DimensionMismatch
    otherwise). `prior_cov` is read through `_read` as `weight_matrix`
    reads Sigma_X, named `prior_cov`, and only its symmetrization enters;
    the noise covariances were checked when the ensemble was built.
    """
    prior_cov = _read(prior_cov, "prior_cov", ensemble.dimension)[0]
    w, noise = np.asarray(gains, dtype=float), ensemble.noise_stack
    if w.shape != noise.shape:
        raise DimensionMismatch(f"gains have shape {w.shape}, the channels {noise.shape}")
    iw = np.eye(noise.shape[1]) - w
    mse = np.sum((w @ prior_cov) * w, axis=(1, 2)) + np.sum((iw @ noise) * iw, axis=(1, 2))
    return float(ensemble.weights @ mse)
