"""Comparison bounds built from per-channel arguments only.

`lmmse_upper` is the weighted MSE of the best affine estimators, an upper
bound because affine estimators are a subset of all estimators.
`cramer_rao_lower` is the weighted Bayesian Cramer-Rao bound, which needs
the prior's Fisher information and therefore refuses priors without one.
"""

from __future__ import annotations

import numpy as np

from .exceptions import FisherUndefined
from .gaussian import _real, weighted_mmse_sum


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
        When `fisher` is not a finite positive number (`gaussian._real`): None,
        an array, non-finite or not positive; callers with such priors must
        use the solver's lower bound instead.
    """
    fisher = _real(fisher, "fisher", "positive", FisherUndefined)
    trace_inv = np.trace(np.linalg.inv(ensemble.noise_stack), axis1=1, axis2=2)
    return float(np.sum(ensemble.weights * ensemble.dimension**2 / (trace_inv + fisher)))
