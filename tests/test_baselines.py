"""Affine-estimator upper bound and Bayesian Cramer-Rao lower bound."""

import numpy as np
import pytest

from mmse_bounds import (
    ChannelEnsemble,
    FisherUndefined,
    cramer_rao_lower,
    lmmse_upper,
    mmse_matrix,
    weighted_mmse_sum,
)
from conftest import TEST_SEED, random_spd


def test_lmmse_scalar():
    # one channel, lambda = 1.7: 1.7 * sx*sn/(sx+sn)
    ens = ChannelEnsemble.from_arrays([[[3.0]]], [1.7])
    assert lmmse_upper([[2.0]], ens) == pytest.approx(1.7 * 1.2, rel=1e-14)


def test_lmmse_equals_weighted_gaussian_mmse(demo_ensemble):
    rng = np.random.default_rng(TEST_SEED)
    sx = random_spd(rng, 3, 5.0)
    assert lmmse_upper(sx, demo_ensemble) == pytest.approx(
        weighted_mmse_sum(sx, demo_ensemble).weighted_sum, rel=1e-15)


class TestCramerRao:
    def test_tight_for_isotropic_gaussian(self):
        # Gaussian prior N(0, s*I_k) has Fisher information k/s, and for
        # isotropic noise the bound collapses to the exact MMSE.
        for k in (1, 2, 3):
            for s, sn in ((1.0, 1.0), (2.5, 0.7)):
                ens = ChannelEnsemble.from_arrays([sn * np.eye(k)], [1.0])
                cr = cramer_rao_lower(k / s, ens)
                exact = np.trace(mmse_matrix(s * np.eye(k), ens)[0])
                assert cr == pytest.approx(exact, rel=1e-12)

    def test_strictly_below_for_anisotropic_noise(self):
        sn = np.diag([0.2, 5.0])
        ens = ChannelEnsemble.from_arrays([sn], [1.0])
        s = 1.3
        cr = cramer_rao_lower(2 / s, ens)
        exact = np.trace(mmse_matrix(s * np.eye(2), ens)[0])
        assert cr < exact

    def test_weighted_sum_over_channels(self, demo_ensemble):
        fisher = 0.8
        k = 3
        manual = sum(
            w * k**2 / (np.trace(np.linalg.inv(sn)) + fisher)
            for w, sn in zip(demo_ensemble.weights, demo_ensemble.noise_stack))
        assert cramer_rao_lower(fisher, demo_ensemble) == pytest.approx(
            manual, rel=1e-13)

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, 0.0, -1.0])
    def test_rejects_unusable_fisher(self, bad, demo_ensemble):
        with pytest.raises(FisherUndefined):
            cramer_rao_lower(bad, demo_ensemble)
