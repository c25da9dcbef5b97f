"""Gaussians and their closed-form quantities.

`Gaussian(mean, covariance)` is N(m, C) in each of its roles: the
reference P_0 at the centre of a KL ball, a prior family's moment match,
and the Gaussian prior family itself. Its one check (`_checked`) and the
covariance check it shares with every noise covariance (`_check_spd`)
live here too.

Estimator gain matrices, MMSE matrices and traces, same-mean Gaussian KL
divergence, and the exact MSE of a fixed affine estimator under an
arbitrary Gaussian prior. Every Sigma_X + Sigma_N and every reference
Sigma_0 passes a Cholesky factorization, so is positive definite, before
a system with it is solved; KL is in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (DimensionMismatch, NonSymmetric, NotPositiveDefinite,
                         ProblemValidationError, SingularReference, SingularSum)

SYMMETRY_RTOL = 1e-12


def _as_matrix(a, name, channel=None):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty square matrix, got shape "
                                f"{m.shape}", channel=channel)
    return m


def _check_spd(m, name, channel=None):
    """Validate symmetry to relative tolerance, then return the symmetrized
    matrix and its Cholesky factor, which checks positive definiteness."""
    if not np.all(np.isfinite(m)):
        raise NotPositiveDefinite(f"{name} has non-finite entries", channel=channel)
    peak = np.abs(m).max()
    unit = m / peak if peak > 0 else m  # so that the norms cannot overflow
    if np.linalg.norm(unit - unit.T, "fro") > SYMMETRY_RTOL * np.linalg.norm(unit, "fro"):
        raise NonSymmetric(f"{name} is not symmetric within tolerance", channel=channel)
    sym = 0.5 * (m + m.T)
    try:
        return sym, np.linalg.cholesky(sym)
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
    flattened, the covariance symmetrized. DimensionMismatch unless the
    covariance is a nonempty square matrix and the mean has its size,
    ProblemValidationError for a non-finite mean, and the `_check_spd`
    errors for the covariance; `name` ("reference", say) leads each message."""
    mean = np.asarray(g.mean, dtype=float).reshape(-1)
    cov = _as_matrix(g.covariance, f"{name} covariance")
    k = cov.shape[0]
    if mean.shape[0] != k:
        raise DimensionMismatch(f"{name} mean has length {mean.shape[0]}, covariance is {k}x{k}")
    if not np.isfinite(mean).all():
        raise ProblemValidationError(f"{name} mean has non-finite entries")
    return (mean, *_check_spd(cov, f"{name} covariance"))


def _check_same_shape(a, b, name_a, name_b):
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(
            f"{name_a} {a.shape} and {name_b} {b.shape} must be equal square shapes")


def _gain_transpose(sigma_x, sigma_n):
    """W^T = (Sigma_X + Sigma_N)^-1 Sigma_N for a (K, K) Sigma_N or a (J, K, K)
    stack; raises SingularSum when a symmetrized sum fails its Cholesky check."""
    total = sigma_x + sigma_n
    total = 0.5 * (total + total.swapaxes(-1, -2))
    try:
        np.linalg.cholesky(total)
    except np.linalg.LinAlgError as exc:
        raise SingularSum(f"Sigma_X + Sigma_N factorization failed: {exc}") from exc
    return np.linalg.solve(total, sigma_n)


def weight_matrix(sigma_x, sigma_n):
    """Gain matrix W = Sigma_N (Sigma_X + Sigma_N)^-1.

    The conditional-mean estimator for a Gaussian prior is
    f(y) = (I - W) y + W mu_0.

    Parameters
    ----------
    sigma_x, sigma_n : (K, K) ndarray
        Prior and noise covariances, symmetric positive definite.

    Returns
    -------
    (K, K) ndarray
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_n = np.asarray(sigma_n, dtype=float)
    _check_same_shape(sigma_x, sigma_n, "sigma_x", "sigma_n")
    return _gain_transpose(sigma_x, sigma_n).T


def mmse_matrix(sigma_x, sigma_n):
    """MMSE matrix Sigma_X (Sigma_X + Sigma_N)^-1 Sigma_N.

    Equals Sigma_X W^T and, algebraically, (Sigma_X^-1 + Sigma_N^-1)^-1;
    symmetric positive definite for SPD inputs.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    m = sigma_x @ weight_matrix(sigma_x, sigma_n).T
    return 0.5 * (m + m.T)


def mmse_trace(sigma_x, sigma_n) -> float:
    """Trace of the MMSE matrix; the scalar MMSE of the channel."""
    return float(np.trace(mmse_matrix(sigma_x, sigma_n)))


@dataclass(frozen=True)
class MmseSummary:
    """Per-channel MMSE matrices and traces with their weighted sum."""

    per_channel_matrix: tuple
    per_channel_trace: tuple
    weighted_sum: float


def weighted_mmse_sum(sigma_x, ensemble) -> MmseSummary:
    """Weighted sum of per-channel MMSE traces for a common prior covariance.

    All channels are computed at once on the (J, K, K) noise stack: one
    batched Cholesky factorization checks that every Sigma_X + Sigma_N_j
    is positive definite, and one batched solve gives every W_j^T.

    Parameters
    ----------
    sigma_x : (K, K) ndarray
        Prior covariance.
    ensemble : ChannelEnsemble or Problem
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    if sigma_x.shape != (ensemble.dimension, ensemble.dimension):
        raise DimensionMismatch(
            f"sigma_x has shape {sigma_x.shape}, ensemble dimension is "
            f"{ensemble.dimension}")
    m = sigma_x @ _gain_transpose(sigma_x, ensemble.noise_stack)
    m = 0.5 * (m + m.swapaxes(1, 2))
    traces = np.trace(m, axis1=1, axis2=2)
    weighted = float(ensemble.weights @ traces)
    return MmseSummary(tuple(m), tuple(traces.tolist()), weighted)


def kl_same_mean_gaussians(sigma_x, sigma_0) -> float:
    """KL divergence (nats) between same-mean Gaussians N(m, Sigma_X), N(m, Sigma_0).

    Equals (tr(SNR_0) - K - log det(SNR_0)) / 2 with SNR_0 = Sigma_0^-1 Sigma_X,
    formed from the Cholesky factor of Sigma_0 (SingularReference when it
    fails). SingularSum when Sigma_X fails its own Cholesky check or has a
    nonpositive determinant. Nonnegative; zero iff the covariances coincide.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_0 = np.asarray(sigma_0, dtype=float)
    _check_same_shape(sigma_x, sigma_0, "sigma_x", "sigma_0")
    k = sigma_x.shape[0]
    try:
        chol = np.linalg.cholesky(sigma_0)
    except np.linalg.LinAlgError as exc:
        raise SingularReference(f"reference covariance factorization failed: {exc}") from exc
    try:  # an even count of negative eigenvalues passes the determinant sign
        np.linalg.cholesky(sigma_x)
    except np.linalg.LinAlgError as exc:
        raise SingularSum(f"sigma_x factorization failed: {exc}") from exc
    ci = np.linalg.inv(chol)
    logdet_0 = 2.0 * float(np.sum(np.log(np.diag(chol))))
    trace = float(np.trace(ci.T @ (ci @ sigma_x)))
    sign_x, logdet_x = np.linalg.slogdet(sigma_x)
    if sign_x <= 0:
        raise SingularSum("sigma_x has nonpositive determinant")
    value = 0.5 * (trace - k - (logdet_x - logdet_0))
    return max(value, 0.0)


def linear_estimator_mse(w, prior_cov, sigma_n) -> float:
    """Exact MSE of the fixed affine estimator (I - W) y + W mu_0.

    Valid for any prior with mean mu_0 and covariance `prior_cov` under
    noise N(0, Sigma_N): the error is -W (X - mu_0) + (I - W) N, so the MSE
    is tr(W Sigma W^T) + tr((I - W) Sigma_N (I - W)^T) regardless of the
    prior's shape beyond its first two moments.
    """
    w = np.asarray(w, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    sigma_n = np.asarray(sigma_n, dtype=float)
    _check_same_shape(prior_cov, sigma_n, "prior_cov", "sigma_n")
    if w.shape != prior_cov.shape:
        raise DimensionMismatch(f"gain shape {w.shape} != covariance shape "
                                f"{prior_cov.shape}")
    iw = np.eye(w.shape[0]) - w
    return float(np.sum((w @ prior_cov) * w) + np.sum((iw @ sigma_n) * iw))
