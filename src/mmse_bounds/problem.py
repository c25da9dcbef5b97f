"""Problem data: channel ensemble, Gaussian reference, divergence ball.

A problem consists of J additive-Gaussian-noise channels Y_j = X + N_j
with noise covariances Sigma_N_j and positive weights lambda_j, a Gaussian
reference prior N(mu_0, Sigma_0), and a KL-divergence radius epsilon that
constrains how far the true prior may sit from the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
class ChannelEnsemble:
    """The J channels (Sigma_N_j, lambda_j) sharing input dimension K: the J
    matrices as given (once validated, one read-only (J, K, K) stack) and the
    (J,) weights."""

    noise_covariances: tuple[np.ndarray, ...] | np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.noise_covariances) != len(self.weights):
            raise DimensionMismatch(f"{len(self.noise_covariances)} noise covariances for "
                                    f"{len(self.weights)} weights")

    @classmethod
    def from_arrays(cls, noise_covariances, weights):
        return cls(tuple(np.asarray(s, dtype=float) for s in noise_covariances),
                   np.array([float(w) for w in weights]))

    def __eq__(self, other):
        if not isinstance(other, ChannelEnsemble):
            return NotImplemented
        return (np.array_equal(self.weights, other.weights)
                and all(map(np.array_equal, self.noise_covariances, other.noise_covariances)))

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def dimension(self) -> int:
        if not len(self.noise_covariances):
            raise DimensionMismatch("ensemble has no channels")
        return self.noise_covariances[0].shape[0]

    @property
    def noise_stack(self) -> np.ndarray:
        """All noise covariances as a (J, K, K) array; a validated stack as it is.
        A shape that differs from channel 0's is a DimensionMismatch naming the
        first channel that has one."""
        covs = self.noise_covariances
        if not isinstance(covs, np.ndarray):  # as given, not yet one stack
            for j, s in enumerate(covs):
                if np.shape(s) != np.shape(covs[0]):
                    raise DimensionMismatch(f"channel {j} noise covariance has shape {np.shape(s)}"
                                            f", channel 0 has {np.shape(covs[0])}", channel=j)
        return np.asarray(covs)

    def single(self, j: int) -> "ChannelEnsemble":
        """The one-channel ensemble {(Sigma_N_j, 1)} used by local bounds."""
        # a view of channel j, and a read-only unit weight
        return ChannelEnsemble(self.noise_covariances[j][None], np.broadcast_to(1.0, 1))


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
    """Validated problem: a channel ensemble with one read-only (J, K, K)
    noise stack and read-only weights, and a checked divergence ball."""

    ensemble: ChannelEnsemble
    ball: DivergenceBall

    @property
    def noise_stack(self) -> np.ndarray:
        return self.ensemble.noise_stack

    @property
    def weights(self) -> np.ndarray:
        return self.ensemble.weights

    @property
    def dimension(self) -> int:
        return self.ensemble.dimension

    @property
    def reference(self) -> GaussianReference:
        return self.ball.reference

    @property
    def epsilon(self) -> float:
        return self.ball.epsilon

    def single(self, j: int) -> "Problem":
        """The one-channel problem {(Sigma_N_j, 1)} used by local bounds,
        built from the validated arrays without validating them again."""
        return Problem(self.ensemble.single(j), self.ball)


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
    TypeError
        If a `ChannelEnsemble` comes without a ball.
    """
    if isinstance(ensemble, Problem):
        if ball is not None and ball != ensemble.ball:
            raise ValueError("validated problem passed with a different ball")
        return ensemble
    if ball is None:
        raise TypeError("a ChannelEnsemble needs a DivergenceBall")

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

    stack = np.empty((ensemble.count, k, k))
    for j, (s, w) in enumerate(zip(ensemble.noise_covariances, ensemble.weights)):
        sn = _as_matrix(s, f"channel {j} noise covariance", channel=j)
        if sn.shape[0] != k:
            raise DimensionMismatch(
                f"channel {j} noise covariance is {sn.shape[0]}x{sn.shape[1]}, "
                f"expected {k}x{k}", channel=j)
        stack[j] = _check_spd(sn, f"channel {j} noise covariance", channel=j)
        if not 0.0 < w < math.inf:
            raise NonPositiveWeight(f"channel {j} weight {w} is not a finite "
                                    f"positive number", channel=j)

    if not 0.0 <= ball.epsilon < math.inf:
        raise NegativeRadius(
            f"radius epsilon={ball.epsilon} must be a finite nonnegative number")

    weights = np.array(ensemble.weights, dtype=float)
    stack.flags.writeable = weights.flags.writeable = False
    clean_ball = DivergenceBall(GaussianReference(mu0, sigma0), float(ball.epsilon))
    return Problem(ChannelEnsemble(stack, weights), clean_ball)


_TOP_KEYS = {"dimension", "mu0", "sigma0", "channels", "epsilon"}
_CHANNEL_KEYS = {"lambda", "sigma_n"}


def _number(value, name) -> float:
    """A JSON number (not a boolean) as a float; ConfigError naming `name` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{name} is out of range") from None


def _numbers(value, name) -> np.ndarray:
    """A nested JSON array as a float array; each entry as `_number` reads it."""
    entries = np.asarray(value, dtype=object)
    return np.array([_number(v, f"{name} entry") for v in entries.flat]).reshape(entries.shape)


def problem_from_config(cfg: dict) -> tuple[ChannelEnsemble, DivergenceBall]:
    """Build (ensemble, ball) from a parsed config dict.

    Schema: `dimension` (int), `mu0` (length-K array), `sigma0` (K x K,
    row-major), `channels` (array of {"lambda": w, "sigma_n": K x K}),
    `epsilon` (nonnegative real); booleans and strings are not numbers.
    Unknown keys are rejected.
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
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ConfigError(f"dimension must be a positive integer, got {k!r}")
    mu0 = _numbers(cfg["mu0"], "mu0")
    if mu0.shape != (k,):
        raise ConfigError(f"mu0 must be a length-{k} array")
    sigma0 = _numbers(cfg["sigma0"], "sigma0")
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
        sn = _numbers(entry["sigma_n"], f"channel {j} sigma_n")
        if sn.shape != (k, k):
            raise ConfigError(f"channel {j} sigma_n must be {k}x{k}")
        covs.append(sn)
        weights.append(_number(entry["lambda"], f"channel {j} lambda"))

    ensemble = ChannelEnsemble.from_arrays(covs, weights)
    ball = DivergenceBall(GaussianReference(mu0, sigma0), _number(cfg["epsilon"], "epsilon"))
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
            {"lambda": float(w), "sigma_n": np.asarray(sn).tolist()}
            for sn, w in zip(ensemble.noise_covariances, ensemble.weights)
        ],
        "epsilon": float(ball.epsilon),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
