"""Analytic prior families: moments, Fisher information, KL to the best
Gaussian approximation, log densities, and samplers.

Families
--------
Gaussian(mean, covariance)
    The reference family itself: `gaussian.Gaussian`, the same class as a
    ball's reference and as the moment match `prior_moments` returns.
GeneralizedGaussian(p)
    Radially symmetric density c_p exp(-||x||^p / p); standard Gaussian at
    p = 2, heavy-tailed for p < 2, compactly concentrated for p > 2.
UniformBall(radius)
    Uniform distribution on the centered K-ball of the given radius.

All gamma-function arithmetic runs in log space: Gamma(K/p) overflows in
double precision for small p. The best Gaussian approximation (in
D_KL(P || Q) over Gaussians Q) of a zero-mean family is the moment-matched
zero-mean Gaussian, so epsilon here is always the KL to the moment match.

A `PriorSpec` checks its family and K where it is built, as a ball checks
its reference: a Gaussian family passes that same check (`gaussian._checked`,
whose covariance `gaussian._read` reads) and is held as read-only copies,
so no reader checks it again. A family parameter (p, R) is read by
`gaussian._real` as a finite positive number, and K by `gaussian._integer`
as an integer >= 1, in the family constructors, `PriorSpec` and each
closed form, each raising ValueError naming the argument.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, FisherUndefined, ProblemValidationError
from .gaussian import Gaussian, _checked, _floats, _integer, _real


@dataclass(frozen=True)
class GeneralizedGaussian:
    p: float

    def __post_init__(self):
        _real(self.p, "exponent p", "positive")


@dataclass(frozen=True)
class UniformBall:
    radius: float

    def __post_init__(self):
        _real(self.radius, "radius", "positive")


@dataclass(frozen=True)
class PriorSpec:
    """A prior family instance in dimension K, checked where it is built:
    K an integer >= 1 (`_integer`, ValueError naming it), the family one of
    the three (TypeError), and a Gaussian family checked as a reference is
    (`gaussian._checked`: its covariance read by `gaussian._read`, its mean
    of shape (K,); held as its read-only copies) and of dimension K
    (DimensionMismatch)."""

    family: Gaussian | GeneralizedGaussian | UniformBall
    dimension: int

    def __post_init__(self):
        k, fam = _integer(self.dimension, "dimension", 1), self.family
        if isinstance(fam, Gaussian):
            mean, cov, _ = _checked(fam, "Gaussian prior")
            if len(mean) != k:
                raise DimensionMismatch(f"Gaussian prior has dimension {len(mean)}, "
                                        f"spec has {k}")
            object.__setattr__(self, "family", Gaussian(mean, cov))
        elif not isinstance(fam, (GeneralizedGaussian, UniformBall)):
            raise TypeError(f"unknown prior family {fam!r}")


def gen_gauss_covariance(p: float, k: int) -> float:
    """Per-coordinate variance of the generalized Gaussian: covariance is
    sigma^2 I with sigma^2 = p^(2/p) Gamma((K+2)/p) / (K Gamma(K/p)). A
    variance beyond the double range raises ValueError naming p and K, and
    so does a subnormal p, whose log variance comes out inf - inf, NaN."""
    p, k = _real(p, "exponent p", "positive"), _integer(k, "dimension", 1)
    log_val = ((2.0 / p) * math.log(p) + math.lgamma((k + 2.0) / p)
               - math.log(k) - math.lgamma(k / p))
    if not log_val <= math.log(sys.float_info.max):  # exp overflows just past it
        raise ValueError(f"generalized Gaussian variance at exponent p={p}, K={k} "
                         f"overflows double precision (log variance {log_val:.6g})")
    return math.exp(log_val)


def gen_gauss_fisher(p: float, k: int) -> float:
    """Fisher information J(X) = p^((2p-2)/p) Gamma((K+2p-2)/p) / Gamma(K/p).

    Raises FisherUndefined when (K + 2p - 2)/p <= 0, i.e. the defining
    integral diverges (possible only for K = 1 and p <= 1/2).
    """
    p, k = _real(p, "exponent p", "positive"), _integer(k, "dimension", 1)
    arg = (k + 2.0 * p - 2.0) / p
    if arg <= 0:
        raise FisherUndefined(
            f"generalized Gaussian with p={p}, K={k} has no finite Fisher "
            f"information (gamma argument {arg} <= 0)")
    log_val = ((2.0 * p - 2.0) / p) * math.log(p) + math.lgamma(arg) - math.lgamma(k / p)
    return float(math.exp(log_val))


def _gen_gauss_log_normaliser(p: float, k: int) -> float:
    """log c_p = -log(S_{K-1} p^(K/p - 1) Gamma(K/p)), with the sphere area
    S_{K-1} = 2 pi^(K/2) / Gamma(K/2)."""
    log_sphere = math.log(2.0) + 0.5 * k * math.log(math.pi) - math.lgamma(0.5 * k)
    return -(log_sphere + (k / p - 1.0) * math.log(p) + math.lgamma(k / p))


def gen_gauss_epsilon(p: float, k: int) -> float:
    """KL divergence from the generalized Gaussian to its moment-matched
    Gaussian N(0, sigma^2(p, K) I); zero exactly at p = 2.

    The value is a difference of terms of size K log K, so near p = 2 it
    can round below zero (to -5e-11 at K = 300); it is clamped to zero
    silently, as `uniform_ball_epsilon` clamps the same cancellation.
    """
    p, k = _real(p, "exponent p", "positive"), _integer(k, "dimension", 1)
    if p == 2.0:
        return 0.0  # N(0, I) is its own moment match; the formula leaves rounding noise
    sigma2 = gen_gauss_covariance(p, k)
    log_cp = _gen_gauss_log_normaliser(p, k)
    # E||X||^p = K by the radial Gamma identity, and E||X||^2 = K sigma^2
    # by construction, so the entropy and quadratic terms reduce to -K/p
    # and K/2 exactly
    value = (log_cp - k / p
             + 0.5 * k * math.log(2.0 * math.pi * sigma2)
             + 0.5 * k)
    return max(value, 0.0)


def _ball_variance(radius: float, k: int) -> float:
    """R^2/(K+2), the per-coordinate variance of the uniform K-ball. Raises
    ValueError naming R and K where it or 2 pi R^2, the largest term of
    `uniform_ball_epsilon`, leaves the normal double range."""
    radius, k = _real(radius, "radius", "positive"), _integer(k, "dimension", 1)
    try:
        r2 = radius**2
    except OverflowError:
        r2 = math.inf
    if not (sys.float_info.min <= r2 / (k + 2.0) and 2.0 * math.pi * r2 <= sys.float_info.max):
        raise ValueError(f"uniform ball at radius R={radius}, K={k}: R^2/(K+2) or 2 pi R^2 "
                         f"leaves the normal double range")
    return r2 / (k + 2.0)


def uniform_ball_moments(radius: float, k: int) -> Gaussian:
    """Moments of the uniform distribution on the K-ball of given radius:
    mean zero, covariance (R^2/(K+2)) I."""
    variance = _ball_variance(radius, k)  # reads R and K before numpy sees K
    return Gaussian(np.zeros(k), variance * np.eye(k))


def _ball_log_volume(radius: float, k: int) -> float:
    """log V_K(R), with V_K(R) = pi^(K/2) R^K / Gamma(K/2 + 1)."""
    return 0.5 * k * math.log(math.pi) + k * math.log(radius) - math.lgamma(0.5 * k + 1.0)


def uniform_ball_epsilon(radius: float, k: int) -> float:
    """KL from Uniform(B_K(R)) to its moment match N(0, (R^2/(K+2)) I).

    Closed form -log V_K(R) + (K/2) log(2 pi R^2/(K+2)) + K/2
    (`_ball_log_volume`); scale-invariant, so the value depends only on K.
    """
    _ball_variance(radius, k)
    value = (-_ball_log_volume(radius, k)
             + 0.5 * k * math.log(2.0 * math.pi * radius**2 / (k + 2.0)) + 0.5 * k)
    return max(value, 0.0)


def prior_moments(spec: PriorSpec) -> Gaussian:
    """The family's moment match N(mean, covariance): its first two moments.
    The KL radius and the Fisher information have their own functions
    (`gen_gauss_epsilon`, `uniform_ball_epsilon`, `gen_gauss_fisher`)."""
    k = spec.dimension
    fam = spec.family
    if isinstance(fam, Gaussian):
        return fam
    if isinstance(fam, GeneralizedGaussian):
        return Gaussian(np.zeros(k), gen_gauss_covariance(fam.p, k) * np.eye(k))
    return uniform_ball_moments(fam.radius, k)


def _quadratic_log_density(spec: PriorSpec):
    """The family's log density as log_norm - g(q) of one quadratic form in x.

    Returns (c, W, g, log_norm, q_max) with q = ||W (x - c)||^2 =
    (x - c)^T W^T W (x - c): c = 0 and W = I for the generalized Gaussian
    and the ball, and c = mean and W = L^-1 (C = L L^T) for the Gaussian.
    On the support q <= q_max (R^2 for the ball, inf otherwise) the log
    density is log_norm - g(q), where `g` overwrites an array of forms with
    the part that varies and returns it, in the arithmetic of the plain
    expressions: `q ** (p/2) * (1/p)` for the generalized Gaussian, whose
    in-place `**=` takes the same np.sqrt and np.square paths at p = 1 and
    4, and `q * 0.5` for the Gaussian. The ball's density is constant on
    its support, so its `g` is None. The Monte Carlo kernel reads g alone,
    since log_norm cancels from self-normalized weights; `log_density`
    adds it back, and gives -inf off the support.
    """
    k = spec.dimension
    fam = spec.family
    if isinstance(fam, Gaussian):
        chol = np.linalg.cholesky(fam.covariance)
        log_norm = -0.5 * (k * math.log(2.0 * math.pi)
                           + 2.0 * float(np.sum(np.log(np.diag(chol)))))

        def g(q):
            q *= 0.5
            return q

        return fam.mean, np.linalg.inv(chol), g, log_norm, math.inf
    if isinstance(fam, GeneralizedGaussian):
        half_p, inv_p = 0.5 * fam.p, 1.0 / fam.p

        def g(q):
            q **= half_p
            q *= inv_p
            return q

        return np.zeros(k), np.eye(k), g, _gen_gauss_log_normaliser(fam.p, k), math.inf
    return np.zeros(k), np.eye(k), None, -_ball_log_volume(fam.radius, k), fam.radius**2


def log_density(spec: PriorSpec, x) -> np.ndarray:
    """Log density evaluated row-wise on an (n, K) array (or a single point),
    read by `gaussian._floats`; other shapes raise DimensionMismatch, and
    non-finite points ProblemValidationError."""
    x = np.atleast_2d(_floats(x, "points"))
    k = spec.dimension
    if x.ndim != 2:
        raise DimensionMismatch(f"points must be a point or an (n, K) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ProblemValidationError("points have non-finite entries")
    if x.shape[1] != k:
        raise DimensionMismatch(f"points have dimension {x.shape[1]}, spec has {k}")
    c, w, g, log_norm, q_max = _quadratic_log_density(spec)
    # the short, wide product W (x - c)^T: the tall (n, K) @ (K, K) form can
    # take a much slower threaded BLAS path at large n
    r = w @ (x - c).T
    q = np.einsum("kn,kn->n", r, r)
    if g is not None:
        return np.subtract(log_norm, g(q), out=q)
    return np.where(q <= q_max, log_norm, -np.inf)


def _sample_with(spec: PriorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from `rng`. The generalized Gaussian is sampled
    radially: a uniform direction on the sphere times r = (p g)^(1/p) with
    g ~ Gamma(K/p, 1), which follows from the radial density being
    proportional to r^(K-1) exp(-r^p / p). The ball radius uses the usual
    u^(1/K) volume transform.
    """
    k = spec.dimension
    fam = spec.family
    if isinstance(fam, Gaussian):
        return fam.mean + rng.standard_normal((n, k)) @ np.linalg.cholesky(fam.covariance).T
    z = rng.standard_normal((n, k))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    directions = z / norms
    if isinstance(fam, GeneralizedGaussian):
        g = rng.gamma(shape=k / fam.p, scale=1.0, size=n)
        r = (fam.p * g) ** (1.0 / fam.p)
        return directions * r[:, None]
    u = rng.random(n)
    r = fam.radius * u ** (1.0 / k)
    return directions * r[:, None]
