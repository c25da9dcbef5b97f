"""Shared fixtures: the four-channel demo ensemble and small helpers."""

import numpy as np
import pytest

from mmse_bounds import ChannelEnsemble, DivergenceBall, Gaussian

# Four correlated 3x3 noise covariances with fixed positive weights; the
# same ensemble the bundled example config and reference curves use.
DEMO_NOISE = [
    [[3.0405, -2.1179, 2.1107],
     [-2.1179, 4.1238, -1.3414],
     [2.1107, -1.3414, 4.8199]],
    [[0.9221, 1.2047, 0.5731],
     [1.2047, 2.3851, -0.2188],
     [0.5731, -0.2188, 1.5767]],
    [[9.9708, 0.7749, -2.4323],
     [0.7749, 0.9252, -2.3907],
     [-2.4323, -2.3907, 6.3022]],
    [[1.2353, -1.1973, -1.1141],
     [-1.1973, 4.2225, 1.0695],
     [-1.1141, 1.0695, 1.6102]],
]
DEMO_WEIGHTS = [0.3565, 0.0732, 0.5910, 0.9102]

TEST_SEED = 20240905


@pytest.fixture(scope="session")
def demo_ensemble() -> ChannelEnsemble:
    return ChannelEnsemble.from_arrays(
        [np.array(m, dtype=float) for m in DEMO_NOISE], DEMO_WEIGHTS)


def one_channel(sigma_n) -> ChannelEnsemble:
    """The one-channel ensemble {(sigma_n, 1)}, through which a test hands
    one noise covariance to `weight_matrix` and `mmse_matrix`."""
    return ChannelEnsemble.from_arrays([sigma_n], [1.0])


def isotropic_ball(k: int, variance: float, epsilon: float) -> DivergenceBall:
    """Zero-mean isotropic reference N(0, variance*I_k) with radius epsilon."""
    return DivergenceBall(Gaussian(np.zeros(k), variance * np.eye(k)),
                          epsilon)


def random_spd(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random SPD matrix with trace about k*scale."""
    a = rng.normal(size=(k, k))
    m = a @ a.T + k * np.eye(k)
    return scale * k * m / np.trace(m)


def corpus_spd(rng, k, log10_scale, log10_cond):
    """Random rotation, smallest eigenvalue 10**log10_scale, condition
    number 10**log10_cond, as in the benchmark corpus."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    t = np.sort(rng.random(k))
    if k > 1:
        t[0], t[-1] = 0.0, 1.0
    m = (q * 10.0 ** (log10_scale + log10_cond * t)) @ q.T
    return 0.5 * (m + m.T)
