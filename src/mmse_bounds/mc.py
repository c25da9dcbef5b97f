"""Monte Carlo oracle: estimates of true MMSEs and KL divergences.

Built to verify the analytic machinery independently, at desk scale. The
conditional mean E[X | Y = y] is approximated by self-normalized
importance sampling whose proposal is the Gaussian posterior one would
obtain if the prior were its own moment-matched Gaussian; for the families
in this package that posterior sits on the true posterior mass at the
noise levels of interest.

The importance weights are computed in whitened coordinates: the Gaussian
proposal and noise log densities are written in terms of the standard
normals each proposal draw was made from, so no per-sample linear solve is
needed. Every importance-sampling estimate reports the smallest and median
inner effective sample size and the share of outer draws whose ESS fell
below 1% of the inner sample count.

A log weight depends on the inner normals only through two quadratic
forms in them, so the kernel gets every channel's weights from one matrix
product per block and never builds the proposal points (`_mmse_channels`).
The inner normals come in antithetic pairs z and -z (Hammersley and Morton,
1956): only half of them are drawn and expanded into monomials, and the
forms at -z come from the same product through coefficient rows whose
linear part is negated. Where every weight is equal, as for a Gaussian
prior, the pairs cancel and an even n_inner gives the posterior mean
exactly.

All channels of a weighted sum share the outer prior draws and each block
of inner standard normals and its monomials; only the noise draws are per
channel. The per-draw weighted sums stay independent across outer draws
and each channel keeps its marginal law, so the estimate's mean, its
self-normalized bias and its standard error keep their meaning
(`mc_weighted_sum`).

Randomness comes from the counter-based Philox generator through
`SeedSequence` spawning, so every estimate is bit-reproducible from the
recorded integer seed and independent streams never overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateWeights
from .gaussian import mmse_matrix, weight_matrix
from .priors import (PriorSpec, _quadratic_log_density, _sample_with, gaussian_log_density,
                     log_density, prior_moments)

# outer draws per block. A block holds its (b, n_plus, K) normals, their
# (b, P, n_plus) monomials and (b, 4J, n_plus) forms, with n_plus =
# ceil(n_inner/2), and its (b, n_inner) weights. Measured CPU per four-channel mc_weighted_sum
# (K = 3, 500 outer draws), against 8: at n_inner = 500, 4 is 35% slower
# and 16 15% faster; at 2000, 4 is 6% slower and 16 6% faster; at 4000
# (the verify default), 4 is 1% slower and 16 6% faster, the last two
# inside the quartile spread. The mc_verify pass (500 x 2000) takes the
# same CPU at 8 and 16, and its peak RSS is 40.5 MB at 4, 41.3 at 8 and
# 43.4 at 16
_CHUNK = 8

MIN_DRAWS = 100  # fewest outer, inner or KL draws an estimate accepts


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo value with its standard error and provenance.

    For the importance-sampling estimates, `min_ess` and `median_ess` are the
    smallest and the median inner effective sample size over the outer draws
    (of every channel), and `bad_fraction` is the share of outer draws whose
    ESS fell below 1% of n_inner. They stay NaN where no importance sampling
    was done (`mc_kl`).
    """

    value: float
    std_error: float
    n_outer: int
    n_inner: int
    seed: int
    min_ess: float = math.nan
    median_ess: float = math.nan
    bad_fraction: float = math.nan


def _rng_from(seed_seq) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _features(z, out):
    """Monomials of a (b, n, K) block of normals, written into the (b, P, n)
    array `out`: the rows z_i z_j for i <= j (`np.triu_indices` order),
    then z_1..z_K, then 1, so P = K(K+1)/2 + K + 1."""
    k = z.shape[2]
    n_quad = k * (k + 1) // 2
    lin = out[:, n_quad:-1]
    lin[...] = z.transpose(0, 2, 1)
    row = 0
    for i in range(k):  # z_i times z_i..z_K in one call
        np.multiply(lin[:, i:i + 1], lin[:, i:], out=out[:, row:row + k - i])
        row += k - i
    out[:, -1] = 1.0


def _form_rows(quad, lin, const, out):
    """Coefficients of z^T Q z + l^T z + c0 against the rows of `_features`,
    one row per outer draw, written into the (n, P) array `out`: `quad` is
    the symmetric (K, K) Q, `lin` the (n, K) rows l and `const` the (n,) c0."""
    iu, ju = np.triu_indices(quad.shape[0])
    out[:, :iu.size] = np.where(iu == ju, 1.0, 2.0) * quad[iu, ju]
    out[:, iu.size:-1] = lin
    out[:, -1] = const


def _mmse_channels(spec, noise_stack, x, ys, inner_seed, n_inner):
    """Squared conditional-mean errors and inner effective sample sizes.

    `noise_stack` holds the J noise covariances and `ys` yields the J
    observation arrays, one per channel, each (n_outer, K) like `x`; it is
    read once, so a generator lets each y go as soon as it is used. Returns
    (squared_errors, ess), each (J, n_outer): per channel and outer draw,
    ||E[X|y_j] - x||^2 and the effective sample size (sum w)^2 / sum w^2 of
    its inner weights.

    A proposal draw is x = m_post + L_post z with C_post = L_post L_post^T.
    Its whitened proposal residual is the drawn z and its whitened noise
    residual L_n^-1 (y - x) is u - A z, with u = L_n^-1 (y - m_post) and
    A = L_n^-1 L_post; the K log 2 pi terms cancel. So the log weight is
    h(q0) + q1 for two quadratic forms in z:
    q0 = ||W (x - c)||^2 = ||d + M z||^2, with d = W (m_post - c) and
    M = W L_post, which the prior's density h reads
    (`priors._quadratic_log_density`), and
    q1 = 1/2 (||z||^2 - ||A z - u||^2) + 1/2 (logdet C_post - logdet Sigma_n).
    Within a channel all outer draws share the quadratic coefficients;
    only the linear and constant ones follow d and u. Each channel's
    coefficient rows are computed for all outer draws before any block, so
    no row depends on the block it falls in.

    The inner points are antithetic pairs: per outer draw, n_plus =
    ceil(n_inner/2) normals z and the first n_inner of [z, -z], so an odd
    n_inner drops the last -z. A form at -z is the form at z with its linear
    coefficients negated, so only z is expanded into monomials, and the
    coefficient rows are stacked once as an (n_outer, 4J, P) array: per
    channel q0(+z), q0(-z), q1(+z), q1(-z). One batched product with a
    block's (b, P, n_plus) monomials then gives every form at both signs,
    each channel's q0 and q1 a contiguous (b, 2 n_plus) run over the inner
    points. The estimate is x_hat = m_post + L_post (sum (w+ - w-) z) / sum w,
    with w+ and w- the weights at z and -z; no proposal is built.

    The outer draws are taken _CHUNK at a time, each block's normals drawn
    as (b, n_plus, K), in the order every block size shares
    (`mc_weighted_sum` says why sharing them across channels keeps the
    estimate's meaning).
    The block buffers (normals, monomials, forms, weights) are allocated
    once per call. Expanded, q0 can round a near-zero norm below zero, so
    it is clipped at zero.
    """
    moments = prior_moments(spec)
    m, c = moments.mean, moments.covariance
    centre, whiten, h = _quadratic_log_density(spec)
    n_outer, k = x.shape
    n_ch = len(noise_stack)
    n_quad = k * (k + 1) // 2
    n_plus = (n_inner + 1) // 2
    n_minus = n_inner - n_plus

    coef = np.empty((n_outer, 4 * n_ch, n_quad + k + 1))
    chol_posts, m_posts = [], []
    for j, (sigma_n, y) in enumerate(zip(noise_stack, ys)):
        w = weight_matrix(c, sigma_n)
        chol_post = np.linalg.cholesky(mmse_matrix(c, sigma_n))
        chol_n = np.linalg.cholesky(sigma_n)
        inv_chol_n = np.linalg.inv(chol_n)
        half_logdet_ratio = float(np.sum(np.log(np.diag(chol_post)))
                                  - np.sum(np.log(np.diag(chol_n))))
        gain = np.eye(k) - w  # posterior mean = m + (I - W)(y - m)
        m_post = m + (y - m) @ gain.T
        u = (y - m_post) @ inv_chol_n.T
        d = (m_post - centre) @ whiten.T
        mz = whiten @ chol_post
        a = inv_chol_n @ chol_post
        _form_rows(mz.T @ mz, 2.0 * d @ mz, np.einsum("nk,nk->n", d, d), coef[:, 4 * j])
        _form_rows(0.5 * (np.eye(k) - a.T @ a), u @ a,
                   half_logdet_ratio - 0.5 * np.einsum("nk,nk->n", u, u), coef[:, 4 * j + 2])
        chol_posts.append(chol_post)
        m_posts.append(m_post)
    coef[:, 1::2] = coef[:, 0::2]
    coef[:, 1::2, n_quad:-1] *= -1.0  # the rows at -z

    size = min(_CHUNK, n_outer)
    z_buf = np.empty((size, n_plus, k))
    feat_buf = np.empty((size, n_quad + k + 1, n_plus))
    forms_buf = np.empty((size, 4 * n_ch, n_plus))
    pairs = forms_buf.reshape(size, 2 * n_ch, 2 * n_plus)  # q0_j at 2j, q1_j at 2j+1
    wts_buf = np.empty((size, n_inner))
    diff_buf = np.empty((size, n_plus))

    rng = _rng_from(inner_seed)
    sq_err = np.empty((n_ch, n_outer))
    ess = np.empty((n_ch, n_outer))
    for start in range(0, n_outer, _CHUNK):
        stop = min(start + _CHUNK, n_outer)
        b = stop - start
        z = z_buf[:b]
        rng.standard_normal(out=z)
        _features(z, feat_buf[:b])
        np.matmul(coef[start:stop], feat_buf[:b], out=forms_buf[:b])
        q0s = pairs[:b, 0::2]
        np.maximum(q0s, 0.0, out=q0s)
        wts, diff = wts_buf[:b], diff_buf[:b]
        for j in range(n_ch):
            np.add(h(pairs[:b, 2 * j, :n_inner]), pairs[:b, 2 * j + 1, :n_inner], out=wts)
            row_max = wts.max(axis=1, keepdims=True)
            wts -= np.where(np.isfinite(row_max), row_max, 0.0)
            np.exp(wts, out=wts)
            totals = wts.sum(axis=1)
            sq_totals = np.einsum("bn,bn->b", wts, wts)
            with np.errstate(divide="ignore", invalid="ignore"):
                ess[j, start:stop] = np.where(sq_totals > 0, totals**2 / sq_totals, 0.0)
            np.subtract(wts[:, :n_minus], wts[:, n_plus:], out=diff[:, :n_minus])
            diff[:, n_minus:] = wts[:, n_minus:n_plus]  # a z without its -z
            z_bar = (diff[:, None] @ z)[:, 0] / totals[:, None]
            x_hat = m_posts[j][start:stop] + z_bar @ chol_posts[j].T
            sq_err[j, start:stop] = np.sum((x_hat - x[start:stop]) ** 2, axis=1)
    return sq_err, ess


def _check_degenerate(n_bad, n_outer, n_inner):
    if n_bad > 0.01 * n_outer:
        raise DegenerateWeights(
            f"inner effective sample size fell below 0.01*n_inner on "
            f"{n_bad}/{n_outer} outer draws; the moment-matched proposal is a "
            f"bad fit for this prior/noise pair", bad_fraction=n_bad / n_outer)


def _estimate(per_draw, ess, n_inner, seed) -> McEstimate:
    """Mean of the per-outer-draw values, its standard error and the
    importance-weight diagnostics pooled over every inner sample set."""
    n_outer = per_draw.size
    n_bad = int(np.count_nonzero(ess < 0.01 * n_inner))
    _check_degenerate(n_bad, ess.size, n_inner)
    return McEstimate(float(per_draw.mean()),
                      float(per_draw.std(ddof=1) / math.sqrt(n_outer)),
                      n_outer, n_inner, seed,
                      min_ess=float(ess.min()), median_ess=float(np.median(ess)),
                      bad_fraction=n_bad / ess.size)


def mc_weighted_sum(spec: PriorSpec, ensemble, n_outer: int, n_inner: int,
                    seed: int) -> McEstimate:
    """Weighted MMSE sum across a ChannelEnsemble or Problem, sharing outer x draws.

    The same prior draws feed every channel (common random numbers), each
    channel gets its own noise stream, and one inner stream of standard
    normals serves every channel (see `_mmse_channels`). The per-draw sums
    v_i = sum_j lambda_j ||x_hat_j - x_i||^2 stay independent and
    identically distributed across outer draws i, since draw i's x, noises
    and inner normals are its own, and each channel's (x, y_j, z) keeps its
    marginal law, so E[v_i] (with the self-normalized bias) is what each
    channel sampled alone would give. The standard error is therefore
    std(v)/sqrt(n_outer) over the per-draw weighted sums; it counts the
    correlation between channels, which a quadrature sum of per-channel
    errors would not. The ESS diagnostics pool every channel's outer draws;
    an ESS under 1% of n_inner on over 1% of them raises DegenerateWeights.

    Seeds: the root spawns 1 + 2J streams, x first. Channel j draws its
    noise from stream 1 + 2j, and the shared inner normals come from
    stream 2, channel 0's inner stream, so a one-channel estimate keeps
    the one-stream-per-channel layout.
    """
    if n_outer < MIN_DRAWS or n_inner < MIN_DRAWS:
        raise ValueError(f"n_outer and n_inner must both be >= {MIN_DRAWS}")
    root = np.random.SeedSequence(seed)
    noise_stack = ensemble.noise_stack
    s_x, *chan_seeds = root.spawn(1 + 2 * len(noise_stack))
    x = _sample_with(spec, n_outer, _rng_from(s_x))
    ys = (x + _rng_from(chan_seeds[2 * j]).standard_normal(x.shape)
          @ np.linalg.cholesky(sigma_n).T
          for j, sigma_n in enumerate(noise_stack))
    sq_err, ess = _mmse_channels(spec, noise_stack, x, ys, chan_seeds[1], n_inner)

    weighted = np.zeros(n_outer)
    for w, sq_err_j in zip(ensemble.weights, sq_err):
        weighted += float(w) * sq_err_j
    return _estimate(weighted, ess.ravel(), n_inner, seed)


def mc_kl(spec: PriorSpec, gaussian, n: int, seed: int) -> McEstimate:
    """Monte Carlo KL divergence from the prior to a Gaussian.

    Averages log prior_density(x) - log gaussian_density(x) over x drawn
    from the prior. `gaussian` is a GaussianReference.
    """
    if n < MIN_DRAWS:
        raise ValueError(f"n must be >= {MIN_DRAWS}")
    root = np.random.SeedSequence(seed)
    x = _sample_with(spec, n, _rng_from(root))
    terms = (log_density(spec, x)
             - gaussian_log_density(np.asarray(gaussian.mean, dtype=float),
                                    np.asarray(gaussian.covariance, dtype=float), x))
    value = float(terms.mean())
    std_error = float(terms.std(ddof=1) / math.sqrt(n))
    return McEstimate(value, std_error, n, 0, seed)
