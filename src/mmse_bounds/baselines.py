"""Comparison bounds built from per-channel arguments only.

`lmmse_upper` is the weighted MSE of the best affine estimators, an upper
bound because affine estimators are a subset of all estimators.
`cramer_rao_lower` is the weighted Bayesian Cramer-Rao bound, which needs
the prior's Fisher information and therefore refuses priors without one.
"""

from __future__ import annotations

import numpy as np

from .exceptions import FisherUndefined
from .gaussian import weighted_mmse_sum


def lmmse_upper(sigma_x, ensemble) -> float:
    """Weighted sum of per-channel affine-estimator MSEs.

    Equals sum_j lambda_j tr(Sigma_X (Sigma_X + Sigma_N_j)^-1 Sigma_N_j),
    i.e. the weighted MMSE sum a Gaussian prior with covariance Sigma_X
    would attain; an upper bound on the true weighted MMSE sum for any
    prior with that covariance.
    """
    return weighted_mmse_sum(sigma_x, ensemble).weighted_sum


def cramer_rao_lower(fisher, ensemble) -> float:
    """Weighted Bayesian Cramer-Rao bound sum_j lambda_j K^2 / (tr(Sigma_N_j^-1) + J).

    Parameters
    ----------
    fisher : float
        Fisher information J of the prior; must be finite and positive.
    ensemble : ChannelEnsemble or Problem

    Raises
    ------
    FisherUndefined
        When `fisher` is None, non-finite, or not positive; callers with
        such priors must use the solver's lower bound instead.
    """
    if fisher is None or not np.isfinite(fisher) or fisher <= 0:
        raise FisherUndefined(
            f"Cramer-Rao bound needs finite positive Fisher information, got {fisher!r}")
    k = ensemble.dimension
    total = 0.0
    for w, sigma_n in zip(ensemble.weights, ensemble.noise_stack):
        trace_inv = float(np.trace(np.linalg.inv(sigma_n)))
        total += float(w) * k**2 / (trace_inv + fisher)
    return total
