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
forms in them, so the kernel gets every channel's weights from one
broadcast matrix product per block and never builds the proposal points
(`_mmse_channels`).
Each step from those forms to the weights' sums, ESS and signed
differences runs once per block over all channels, in buffers allocated
once per call; only the estimate itself is taken channel by channel. The
uniform ball's points off its support are masked to weight 0 rather
than given log weight -inf, which numpy's `exp` takes a slow path on.

The outer draws of a block share one pool of inner normals, expanded into
monomials once, and each draw turns the pool by its own Haar-random
rotation, which goes into the draw's coefficient rows (K x K work) rather
than into its points: a stochastic spherical-radial rule (Genz and
Monahan, SIAM J. Sci. Comput. 1998) used as common random numbers. Every
draw's inner points are still iid standard normal, so each draw's
estimate keeps the law a fresh draw of normals would give. The points
come in antithetic pairs z and -z (Hammersley and Morton, 1956): the
forms at -z come from the same product through coefficient rows whose
linear part is negated. Where every weight is equal, as for a Gaussian
prior, the pairs cancel and an even n_inner gives the posterior mean
exactly.

All channels of a weighted sum share the outer prior draws and each block's
pool, its rotations and its monomials; only the noise draws are per
channel. Each channel keeps its marginal law, so the estimate's mean and
its self-normalized bias keep their meaning, and the draws of a block are
correlated only through the pool's rotation-invariant statistics, so
std(v)/sqrt(n_outer) stays the standard error (`mc_weighted_sum`).

Randomness comes from the counter-based Philox generator through
`SeedSequence` spawning, so every estimate is bit-reproducible from the
recorded integer seed and independent streams never overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateWeights, DimensionMismatch
from .gaussian import _checked, mmse_matrix, weight_matrix
from .priors import (PriorSpec, _quadratic_log_density, _sample_with, gaussian_log_density,
                     log_density, prior_moments)

# outer draws per block. The draws of a block share one pool of inner
# normals, so _CHUNK also decides which draws are correlated through a
# pool: changing it changes every Monte Carlo answer (within its SE), not
# only the speed. A block holds its (n_plus, K) pool, with n_plus =
# ceil(n_inner/2), the pool's (P, n_plus) monomials, its (b, 4J, P)
# coefficient rows and (b, 4J, n_plus) forms, its (b, J, n_inner) weights
# and, for the ball, their (b, J, n_inner) support mask; the signed weight
# differences reuse the forms' storage. Measured with tools/ab.py on two
# cores, against 8 (6 rounds): the mc_verify pass (500 x 2000) takes 1.17x
# the CPU at 4 and 0.84x at 16, and its peak RSS is 40.6 MB at 4, 41.3 at
# 8 and 42.9 at 16
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
    """Monomials of an (n, K) pool of normals, written into the (P, n) array
    `out`: the rows z_i z_j for i <= j (`np.triu_indices` order), then
    z_1..z_K, then 1, so P = K(K+1)/2 + K + 1."""
    k = z.shape[1]
    n_quad = k * (k + 1) // 2
    lin = out[n_quad:-1]
    lin[...] = z.T
    row = 0
    for i in range(k):  # z_i times z_i..z_K in one call
        np.multiply(lin[i:i + 1], lin[i:], out=out[row:row + k - i])
        row += k - i
    out[-1] = 1.0


def _rotations(rng, b, k):
    """b Haar-random (K, K) orthogonal matrices: QR of Gaussian matrices
    with the signs of diag(R) folded into Q (Mezzadri, Notices AMS 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((b, k, k)))
    q *= np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q


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
    Within a channel all outer draws share the quadratic matrices, M^T M
    for q0 and 1/2 (I - A^T A) for q1, kept as one (2, J, K, K) array;
    only the linear rows and constants follow d and u, kept per draw as
    (n_outer, 2, J, K) and (n_outer, 2, J) arrays computed before any
    block, so no coefficient depends on the block its draw falls in.

    The outer draws are taken _CHUNK at a time, and the draws of a block
    share one pool of n_plus = ceil(n_inner/2) inner normals z, each draw
    turning it by its own Haar-random rotation Q_i: per block the inner
    stream gives the (n_plus, K) pool, then the b rotations
    (`_rotations`). Draw i's inner points are the rows of z Q_i and
    -z Q_i, the first n_inner of them, so an odd n_inner drops the last
    -z Q_i. For any orthogonal Q_i the rows of z Q_i are iid N(0, I), so
    given x and y each draw's estimate has the law a fresh draw of normals
    would give; the draws of a block are correlated only through the
    pool's rotation-invariant statistics. The pool is expanded into
    monomials once per block, as a (P, n_plus) array, and the rotation
    goes into the coefficients instead: a form z S z^T + l z^T at the row
    z Q_i is z (Q_i S Q_i^T) z^T + (l Q_i^T) z^T, K x K work per draw and
    channel rather than per inner point. A form at -z is the form at z
    with its linear coefficients negated, so a block's rows are written
    as (b, 4J, P): q0 at +z and -z for
    every channel, then q1 at +z and -z for every channel. One broadcast
    product with the pool's monomials then gives every form at both
    signs, and q0 and q1 are each a (b, J, 2 n_plus) view whose rows run
    over a channel's inner points. Each weight step (h(q0) + q1 written in
    place, the row max, exp, the sums, the squared sums and ESS, w+ - w-)
    is then one call per block for all J channels. For the ball, h is
    -log V everywhere and the points with q0 > R^2 are masked: pushed
    1e300 down for the row max, then multiplied by the 0/1 mask before exp
    and after it, so no -inf reaches exp and every weight is bitwise what
    -inf would have given.

    The estimate is x_hat = m_post + L_post (z_bar Q_i)^T, with z_bar =
    (sum (w+ - w-) z) / sum w in pool coordinates and w+ and w- the weights
    at z Q_i and -z Q_i; no proposal is built. z_bar stays one broadcast
    (b, 1, n_plus) @ (n_plus, K) product per channel: one stacked product
    over the channels rounds differently from the one-channel call, and a
    one-channel estimate must not depend on the channels it is computed
    with (`test_channels_match_one_channel_kernel`); nor, as one
    (b, n_plus) @ (n_plus, K) product would, on the size of its block.
    The turn by Q_i, the map by L_post and the squared error are then
    einsums over all channels, which sum each entry in the same order
    whatever J and b. Since a draw's normals depend only on the draws
    before it, the first n draws of a call give bitwise the answers of a
    call on those n draws alone.

    Expanded, q0 can round a near-zero norm below zero, so it is clipped
    at zero. A draw whose inner weights all vanish (for the ball, every
    inner point off the support) has no estimate, so any such draw raises
    DegenerateWeights naming their count.
    """
    moments = prior_moments(spec)
    m, c = moments.mean, moments.covariance
    centre, whiten, h, q_max = _quadratic_log_density(spec)
    bounded = q_max < math.inf
    n_outer, k = x.shape
    n_ch = len(noise_stack)
    n_quad = k * (k + 1) // 2
    n_plus = (n_inner + 1) // 2
    n_minus = n_inner - n_plus

    quad = np.empty((2, n_ch, k, k))
    lin = np.empty((n_outer, 2, n_ch, k))
    const = np.empty((n_outer, 2, n_ch))
    chol_posts = np.empty((n_ch, k, k))
    m_posts = np.empty((n_outer, n_ch, k))
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
        quad[0, j] = mz.T @ mz
        quad[1, j] = 0.5 * (np.eye(k) - a.T @ a)
        lin[:, 0, j] = 2.0 * d @ mz
        lin[:, 1, j] = u @ a
        const[:, 0, j] = np.einsum("nk,nk->n", d, d)
        const[:, 1, j] = half_logdet_ratio - 0.5 * np.einsum("nk,nk->n", u, u)
        chol_posts[j] = chol_post
        m_posts[:, j] = m_post

    # A block's coefficient rows against the rows of `_features`: the
    # upper triangle of each rotated S, off-diagonal entries doubled, then
    # the rotated l, negated at -z, then the constant.
    iu, ju = np.triu_indices(k)
    doubled = np.where(iu == ju, 1.0, 2.0)
    sign = np.array([[1.0], [-1.0]])  # the rows at +z and at -z
    size = min(_CHUNK, n_outer)
    z = np.empty((n_plus, k))
    feat = np.empty((n_quad + k + 1, n_plus))
    rows_buf = np.empty((size, 2, n_ch, 2, n_quad + k + 1))
    rows = rows_buf.reshape(size, 4 * n_ch, n_quad + k + 1)
    forms_buf = np.empty((size, 4 * n_ch, n_plus))
    forms = forms_buf.reshape(size, 2, n_ch, 2 * n_plus)  # q0 at [:, 0], q1 at [:, 1]
    wts_buf = np.empty((size, n_ch, n_inner))
    inside_buf = np.empty((size, n_ch, n_inner), dtype=bool) if bounded else None

    rng = _rng_from(inner_seed)
    sq_err = np.empty((n_ch, n_outer))
    ess = np.empty((n_ch, n_outer))
    n_empty = 0
    for start in range(0, n_outer, _CHUNK):
        stop = min(start + _CHUNK, n_outer)
        b = stop - start
        rng.standard_normal(out=z)
        rot = _rotations(rng, b, k)
        _features(z, feat)
        rot_t = rot.transpose(0, 2, 1)[:, None, None]
        block_rows = rows_buf[:b]
        np.multiply((rot[:, None, None] @ quad @ rot_t)[..., None, iu, ju], doubled,
                    out=block_rows[..., :n_quad])  # Q_i S Q_i^T
        np.multiply(lin[start:stop, :, :, None] @ rot_t, sign,
                    out=block_rows[..., n_quad:-1])  # l Q_i^T
        block_rows[..., -1] = const[start:stop, :, :, None]
        # A broadcast (b, 4J, P) @ (P, n_plus) product, not one 2-D
        # (b 4J, P) @ (P, n_plus): that larger product crosses OpenBLAS's
        # threading threshold, and on two cores the mc_verify pass then
        # took 316 ms of CPU against 142 (tools/ab.py, 4 rounds).
        np.matmul(rows[:b], feat, out=forms_buf[:b])
        q0, q1 = forms[:b, 0, :, :n_inner], forms[:b, 1, :, :n_inner]
        wts = np.maximum(q0, 0.0, out=wts_buf[:b])
        if bounded:
            inside = np.less_equal(wts, q_max, out=inside_buf[:b])
        np.add(h(wts), q1, out=wts)
        if bounded:  # the row max over the support: the rest go 1e300 down (q0 is spent)
            wts -= np.multiply(np.logical_not(inside, out=q0), 1e300, out=q0)
        wts -= wts.max(axis=2, keepdims=True)
        if bounded:  # exp sees 0, not a huge negative, off the support
            wts *= inside
        np.exp(wts, out=wts)
        if bounded:
            wts *= inside
        totals = wts.sum(axis=2)
        empty = np.count_nonzero(~(totals > 0))
        if empty:
            n_empty += empty
            continue  # the call raises below
        ess[:, start:stop] = (totals**2 / np.einsum("bjn,bjn->bj", wts, wts)).T
        diff = forms[:b, 0, :, :n_plus]  # q0's storage again
        np.subtract(wts[..., :n_minus], wts[..., n_plus:], out=diff[..., :n_minus])
        diff[..., n_minus:] = wts[..., n_minus:n_plus]  # a z without its -z
        z_bar = np.empty((b, n_ch, k))  # in pool coordinates
        for j in range(n_ch):
            np.divide((diff[:, j:j + 1] @ z)[:, 0], totals[:, j, None], out=z_bar[:, j])
        z_bar = np.einsum("bjk,bkm->bjm", z_bar, rot)  # z_bar Q_i
        err = np.einsum("bjk,jmk->bjm", z_bar, chol_posts)
        err += m_posts[start:stop]
        err -= x[start:stop, None]
        sq_err[:, start:stop] = np.einsum("bjk,bjk->jb", err, err)
    if n_empty:
        raise DegenerateWeights(
            f"every inner importance weight vanished on {n_empty}/{n_ch * n_outer} outer "
            f"draws; the moment-matched proposal is a bad fit for this prior/noise pair",
            bad_fraction=n_empty / (n_ch * n_outer))
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


def _check_dimension(spec, k, what):
    """DimensionMismatch naming both dimensions unless the prior's is k."""
    if spec.dimension != k:
        raise DimensionMismatch(f"prior has dimension {spec.dimension}, {what} dimension is {k}")


def mc_weighted_sum(spec: PriorSpec, ensemble, n_outer: int, n_inner: int,
                    seed: int) -> McEstimate:
    """Weighted MMSE sum across a ChannelEnsemble or Problem, sharing outer x draws.

    The same prior draws feed every channel (common random numbers), each
    channel gets its own noise stream, and one inner stream of standard
    normals serves every channel (see `_mmse_channels`). The per-draw sums
    v_i = sum_j lambda_j ||x_hat_j - x_i||^2 are identically distributed
    across outer draws i, and each channel's (x, y_j, inner points) keeps
    its marginal law, so E[v_i] (with the self-normalized bias) is what
    each channel sampled alone would give. Draws in different blocks of
    `_CHUNK` are independent; the draws of one block share a pool of inner
    normals, each turned by its own random rotation, so they are
    correlated only through the pool's rotation-invariant statistics. The
    standard error is std(v)/sqrt(n_outer) over the per-draw weighted
    sums: at 500 x 2000 draws on the demo ensemble, the cluster-robust
    variance from block sums is 0.999-1.007 times the per-draw one over 60
    seeds, as it is for independent draws (`tools/mc_stats.py`). It counts
    the correlation between channels, which a quadrature sum of
    per-channel errors would not. The ESS diagnostics pool every channel's
    outer draws; an ESS under 1% of n_inner on over 1% of them raises
    DegenerateWeights, and so does any draw whose inner weights all
    vanish.

    Seeds: the root spawns 1 + 2J streams, x first. Channel j draws its
    noise from stream 1 + 2j, and the shared inner stream is stream 2,
    channel 0's inner stream, so a one-channel estimate keeps the
    one-stream-per-channel layout. The inner stream gives, per block, the
    pool of normals and then the Gaussian matrices of its draws'
    rotations.
    """
    if n_outer < MIN_DRAWS or n_inner < MIN_DRAWS:
        raise ValueError(f"n_outer and n_inner must both be >= {MIN_DRAWS}")
    _check_dimension(spec, ensemble.dimension, "ensemble")
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
    from the prior. `gaussian` is a `Gaussian`, checked as a Gaussian prior
    is (DimensionMismatch, NotPositiveDefinite and the like).
    """
    if n < MIN_DRAWS:
        raise ValueError(f"n must be >= {MIN_DRAWS}")
    mean, cov, _ = _checked(gaussian, "Gaussian")
    _check_dimension(spec, len(mean), "Gaussian")
    root = np.random.SeedSequence(seed)
    x = _sample_with(spec, n, _rng_from(root))
    terms = log_density(spec, x) - gaussian_log_density(mean, cov, x)
    value = float(terms.mean())
    std_error = float(terms.std(ddof=1) / math.sqrt(n))
    return McEstimate(value, std_error, n, 0, seed)
