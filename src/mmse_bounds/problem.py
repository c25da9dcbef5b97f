"""Problem data: channel ensemble, Gaussian reference, divergence ball.

A problem consists of J additive-Gaussian-noise channels Y_j = X + N_j
with noise covariances Sigma_N_j and positive weights lambda_j, a Gaussian
reference prior N(mu_0, Sigma_0), and a KL-divergence radius epsilon that
constrains how far the true prior may sit from the reference.

Every input checks itself where it is built. A `ChannelEnsemble`, by
`from_arrays` or its bare constructor, holds its channels as one
read-only (J, K, K) stack of symmetrized noise covariances with read-only
(J,) weights; no reader of channel data sees anything else. A
`DivergenceBall` checks its reference, a `gaussian.Gaussian`
(`GaussianReference` is the same class), holds it as read-only copies
with the check's Cholesky factor, and checks its radius. A `Problem`
checks that the ball's K is the channels'. Every covariance, a channel's
or the reference's, is read by `gaussian._read`, the one reader that a
Gaussian prior's and every closed form's covariance pass too, and
`validate_problem` only pairs a checked ensemble with a checked ball.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, NegativeRadius, NonPositiveWeight
from .gaussian import Gaussian, _checked, _read

GaussianReference = Gaussian  # the reference's former class name, still read by perfbench


@dataclass(frozen=True)
class ChannelEnsemble:
    """The J >= 1 channels (Sigma_N_j, lambda_j) sharing input dimension K,
    checked where they are built: one read-only (J, K, K) float stack of
    symmetrized noise covariances, `noise_stack`, which every reader of
    channel data reads, and read-only (J,) `weights`. Weights that are not
    one 1-D array of one entry per matrix raise DimensionMismatch. Each
    matrix is read by `gaussian._read`, at channel 0's K from channel 1 on:
    one that is not square or of that K (DimensionMismatch), asymmetric
    (NonSymmetric) or not finite positive definite (NotPositiveDefinite), or
    a weight that is not finite and positive (NonPositiveWeight), names its
    channel."""

    noise_stack: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        covs, weights = self.noise_stack, np.array(self.weights, dtype=float)
        if weights.ndim != 1:
            raise DimensionMismatch(f"weights must be one-dimensional, got shape {weights.shape}")
        if len(covs) != len(weights):
            raise DimensionMismatch(f"{len(covs)} noise covariances for {len(weights)} weights")
        if not len(weights):
            raise DimensionMismatch("ensemble has no channels")
        for j, (s, w) in enumerate(zip(covs, weights)):
            k = stack.shape[1] if j else None
            sn = _read(s, f"channel {j} noise covariance", k, channel=j)[0]
            if not j:
                stack = np.empty((len(weights), *sn.shape))
            stack[j] = sn
            if not 0.0 < w < math.inf:
                raise NonPositiveWeight(f"channel {j} weight {w} is not a finite "
                                        f"positive number", channel=j)
        stack.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "noise_stack", stack)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_arrays(cls, noise_covariances, weights):
        return cls(tuple(noise_covariances), weights)

    def __eq__(self, other):
        if not isinstance(other, ChannelEnsemble):
            return NotImplemented
        return (np.array_equal(self.weights, other.weights)
                and np.array_equal(self.noise_stack, other.noise_stack))

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def dimension(self) -> int:
        return self.noise_stack.shape[1]

    def single(self, j: int) -> "ChannelEnsemble":
        """The one-channel ensemble {(Sigma_N_j, 1)} used by local bounds: a
        read-only view of channel j of the checked stack, not checked again
        (its symmetrized form is itself, bitwise). `j` indexes as a list
        index does (`operator.index`), so a bool is 0 or 1 and not a mask."""
        one = object.__new__(ChannelEnsemble)
        weights = np.ones(1)
        weights.flags.writeable = False
        stack = self.noise_stack[operator.index(j)][None]
        object.__setattr__(one, "noise_stack", stack)
        object.__setattr__(one, "weights", weights)
        return one


@dataclass(frozen=True)
class DivergenceBall:
    """KL ball of radius epsilon (nats) centered at the reference prior,
    checked where it is built: the reference as `gaussian._checked` checks
    it (its covariance read by `gaussian._read`: square, symmetric to 1e-12
    relative Frobenius, which it symmetrizes away, and positive definite;
    then a finite mean of shape (K,)), held as read-only float copies, and
    a finite nonnegative radius (NegativeRadius), held as a float. The
    check's Cholesky factor of the reference covariance is kept, read-only,
    as `reference_chol`."""

    reference: Gaussian
    epsilon: float
    reference_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean, cov, chol = _checked(self.reference, "reference")
        if not 0.0 <= self.epsilon < math.inf:
            raise NegativeRadius(
                f"radius epsilon={self.epsilon} must be a finite nonnegative number")
        chol.flags.writeable = False
        object.__setattr__(self, "reference", Gaussian(mean, cov))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "reference_chol", chol)


@dataclass(frozen=True)
class Problem:
    """Validated problem: a channel ensemble with one read-only (J, K, K)
    noise stack and read-only weights, and a checked divergence ball whose
    reference has the channels' K (DimensionMismatch otherwise)."""

    ensemble: ChannelEnsemble
    ball: DivergenceBall

    def __post_init__(self):
        k, n = len(self.reference.mean), self.dimension
        if k != n:
            raise DimensionMismatch(f"reference is {k}x{k}, the channels are {n}x{n}")

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
    def reference(self) -> Gaussian:
        return self.ball.reference

    @property
    def epsilon(self) -> float:
        return self.ball.epsilon

    def single(self, j: int) -> "Problem":
        """The one-channel problem {(Sigma_N_j, 1)} used by local bounds, on
        the same ball; only its one channel is checked again."""
        return Problem(self.ensemble.single(j), self.ball)


def validate_problem(ensemble, ball: DivergenceBall | None = None) -> Problem:
    """Pair an ensemble with a ball, each checked where it was built, and
    return an immutable handle. `Problem` checks that their K agree; an
    already-validated `Problem` is returned as it is.

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
    DimensionMismatch
        If the reference's K is not the channels'.
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
    return Problem(ensemble, ball)


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
    ball = DivergenceBall(Gaussian(mu0, sigma0), _number(cfg["epsilon"], "epsilon"))
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
            {"lambda": float(w), "sigma_n": sn.tolist()}
            for sn, w in zip(ensemble.noise_stack, ensemble.weights)
        ],
        "epsilon": float(ball.epsilon),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
