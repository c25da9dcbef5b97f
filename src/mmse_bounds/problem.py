"""Problem data: channel ensemble, Gaussian reference, divergence ball.

A problem consists of J additive-Gaussian-noise channels Y_j = X + N_j
with noise covariances Sigma_N_j and positive weights lambda_j, a Gaussian
reference prior N(mu_0, Sigma_0), and a KL-divergence radius epsilon that
constrains how far the true prior may sit from the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionMismatch,
    NegativeRadius,
    NonPositiveWeight,
    NonSymmetric,
    NotPositiveDefinite,
    ProblemValidationError,
)

SYMMETRY_RTOL = 1e-12


def _as_matrix(a, name, channel=None):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty square matrix, got shape "
                                f"{m.shape}", channel=channel)
    return m


def _check_spd(m, name, channel=None):
    """Validate symmetry to relative tolerance, then return the symmetrized
    matrix after a Cholesky-based positive-definiteness check."""
    if not np.all(np.isfinite(m)):
        raise NotPositiveDefinite(f"{name} has non-finite entries", channel=channel)
    peak = np.abs(m).max()
    unit = m / peak if peak > 0 else m  # so that the norms cannot overflow
    if np.linalg.norm(unit - unit.T, "fro") > SYMMETRY_RTOL * np.linalg.norm(unit, "fro"):
        raise NonSymmetric(f"{name} is not symmetric within tolerance", channel=channel)
    sym = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} is not positive definite", channel=channel)
    return sym


@dataclass(frozen=True)
class Channel:
    """One observation channel: noise covariance and its weight in the objective."""

    noise_covariance: np.ndarray
    weight: float

    def __eq__(self, other):
        if not isinstance(other, Channel):
            return NotImplemented
        return (self.weight == other.weight
                and np.array_equal(self.noise_covariance, other.noise_covariance))


@dataclass(frozen=True)
class ChannelEnsemble:
    """The J channels (Sigma_N_j, lambda_j) sharing input dimension K."""

    channels: tuple[Channel, ...]

    @classmethod
    def from_arrays(cls, noise_covariances, weights):
        return cls(tuple(Channel(np.asarray(s, dtype=float), float(w))
                         for s, w in zip(noise_covariances, weights)))

    @property
    def count(self) -> int:
        return len(self.channels)

    @property
    def dimension(self) -> int:
        return self.channels[0].noise_covariance.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.channels])

    @property
    def noise_stack(self) -> np.ndarray:
        """All noise covariances as a (J, K, K) array."""
        return np.stack([c.noise_covariance for c in self.channels])

    def single(self, j: int) -> "ChannelEnsemble":
        """The one-channel ensemble {(Sigma_N_j, 1)} used by local bounds."""
        return ChannelEnsemble((Channel(self.channels[j].noise_covariance, 1.0),))


@dataclass(frozen=True)
class GaussianReference:
    """Reference prior P_0 = N(mu_0, Sigma_0)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, GaussianReference):
            return NotImplemented
        return (np.array_equal(self.mean, other.mean)
                and np.array_equal(self.covariance, other.covariance))


@dataclass(frozen=True)
class DivergenceBall:
    """KL ball of radius epsilon (nats) centered at the reference prior."""

    reference: GaussianReference
    epsilon: float


@dataclass(frozen=True)
class Problem:
    """Validated problem handle with cached derived quantities.

    Immutable after validation; safe to share across threads.
    """

    ensemble: ChannelEnsemble
    ball: DivergenceBall
    noise_stack: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.ensemble.dimension

    @property
    def reference(self) -> GaussianReference:
        return self.ball.reference

    @property
    def epsilon(self) -> float:
        return self.ball.epsilon

    def __eq__(self, other):
        if not isinstance(other, Problem):
            return NotImplemented
        return self.ensemble == other.ensemble and self.ball == other.ball

    def single(self, j: int) -> "Problem":
        """The one-channel problem {(Sigma_N_j, 1)} used by local bounds,
        built from the validated arrays without validating them again."""
        return Problem(self.ensemble.single(j), self.ball, self.noise_stack[j:j + 1], np.ones(1))


def validate_problem(ensemble, ball: DivergenceBall | None = None) -> Problem:
    """Validate problem data and return an immutable handle.

    Checks symmetry (1e-12 relative Frobenius), positive definiteness of
    every covariance, consistent nonzero dimensions, a finite mean, finite
    positive weights, and a finite nonnegative radius. Matrices are
    symmetrized by averaging with their transpose before the definiteness
    check. An already-validated `Problem` is returned as it is.

    Parameters
    ----------
    ensemble : ChannelEnsemble or Problem
        Channel data, or a previously validated problem.
    ball : DivergenceBall or None
        Reference prior and radius. With a `Problem`, None or a ball equal
        to the problem's own; any other ball raises ValueError.

    Returns
    -------
    Problem

    Raises
    ------
    NonSymmetric, NotPositiveDefinite, DimensionMismatch,
    NonPositiveWeight, NegativeRadius
    ProblemValidationError
        Their base class, for a non-finite mean.
    ValueError
        If a `Problem` comes with a ball other than its own.
    """
    if isinstance(ensemble, Problem):
        if ball is not None and ball != ensemble.ball:
            raise ValueError("validated problem passed with a different ball")
        return ensemble

    if ensemble.count < 1:
        raise DimensionMismatch("ensemble has no channels")

    ref = ball.reference
    mu0 = np.asarray(ref.mean, dtype=float).reshape(-1)
    sigma0 = _as_matrix(ref.covariance, "reference covariance")
    k = sigma0.shape[0]
    if mu0.shape[0] != k:
        raise DimensionMismatch(
            f"reference mean has length {mu0.shape[0]}, covariance is {k}x{k}")
    if not np.isfinite(mu0).all():
        raise ProblemValidationError("reference mean has non-finite entries")
    sigma0 = _check_spd(sigma0, "reference covariance")

    channels = []
    for j, ch in enumerate(ensemble.channels):
        sn = _as_matrix(ch.noise_covariance, f"channel {j} noise covariance", channel=j)
        if sn.shape[0] != k:
            raise DimensionMismatch(
                f"channel {j} noise covariance is {sn.shape[0]}x{sn.shape[1]}, "
                f"expected {k}x{k}", channel=j)
        sn = _check_spd(sn, f"channel {j} noise covariance", channel=j)
        if not 0.0 < ch.weight < math.inf:
            raise NonPositiveWeight(f"channel {j} weight {ch.weight} is not a finite "
                                    f"positive number", channel=j)
        channels.append(Channel(sn, float(ch.weight)))

    if not 0.0 <= ball.epsilon < math.inf:
        raise NegativeRadius(
            f"radius epsilon={ball.epsilon} must be a finite nonnegative number")

    clean_ensemble = ChannelEnsemble(tuple(channels))
    clean_ball = DivergenceBall(GaussianReference(mu0, sigma0), float(ball.epsilon))
    return Problem(
        ensemble=clean_ensemble,
        ball=clean_ball,
        noise_stack=clean_ensemble.noise_stack,
        weights=clean_ensemble.weights,
    )


_TOP_KEYS = {"dimension", "mu0", "sigma0", "channels", "epsilon"}
_CHANNEL_KEYS = {"lambda", "sigma_n"}


def problem_from_config(cfg: dict) -> tuple[ChannelEnsemble, DivergenceBall]:
    """Build (ensemble, ball) from a parsed config dict.

    Schema: `dimension` (int), `mu0` (length-K array), `sigma0` (K x K,
    row-major), `channels` (array of {"lambda": w, "sigma_n": K x K}),
    `epsilon` (nonnegative real). Unknown keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    k = cfg["dimension"]
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"dimension must be a positive integer, got {k!r}")
    mu0 = np.asarray(cfg["mu0"], dtype=float)
    if mu0.shape != (k,):
        raise ConfigError(f"mu0 must be a length-{k} array")
    sigma0 = np.asarray(cfg["sigma0"], dtype=float)
    if sigma0.shape != (k, k):
        raise ConfigError(f"sigma0 must be {k}x{k}")

    if not isinstance(cfg["channels"], list) or not cfg["channels"]:
        raise ConfigError("channels must be a nonempty array")
    covs, weights = [], []
    for j, entry in enumerate(cfg["channels"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"channel {j} must be an object")
        bad = set(entry) - _CHANNEL_KEYS
        if bad:
            raise ConfigError(f"channel {j} has unknown keys: {sorted(bad)}")
        if set(entry) != _CHANNEL_KEYS:
            raise ConfigError(f"channel {j} must have keys 'lambda' and 'sigma_n'")
        sn = np.asarray(entry["sigma_n"], dtype=float)
        if sn.shape != (k, k):
            raise ConfigError(f"channel {j} sigma_n must be {k}x{k}")
        covs.append(sn)
        weights.append(float(entry["lambda"]))

    epsilon = cfg["epsilon"]
    if not isinstance(epsilon, (int, float)):
        raise ConfigError(f"epsilon must be a number, got {epsilon!r}")

    ensemble = ChannelEnsemble.from_arrays(covs, weights)
    ball = DivergenceBall(GaussianReference(mu0, sigma0), float(epsilon))
    return ensemble, ball


def load_config(path) -> tuple[ChannelEnsemble, DivergenceBall]:
    """Read a JSON problem config from `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return problem_from_config(cfg)


def save_config(path, ensemble: ChannelEnsemble, ball: DivergenceBall) -> None:
    """Write a problem config as JSON (inverse of `load_config`)."""
    cfg = {
        "dimension": ensemble.dimension,
        "mu0": np.asarray(ball.reference.mean, dtype=float).tolist(),
        "sigma0": np.asarray(ball.reference.covariance, dtype=float).tolist(),
        "channels": [
            {"lambda": ch.weight, "sigma_n": np.asarray(ch.noise_covariance).tolist()}
            for ch in ensemble.channels
        ],
        "epsilon": float(ball.epsilon),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
