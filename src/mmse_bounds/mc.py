"""Monte Carlo oracle: estimates of true MMSEs.

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
(`_mmse_channels`). Each (draw, channel) row of log weights is shifted by
its value at the proposal mean, which the forms' constant terms already
hold, so no row max is taken, and the constants that self-normalization
cancels are never computed; the rare row whose weight sum then leaves a
safe range is redone at its exact row max. Each step from those forms to
the weights' sums, ESS and the two antithetic sums runs once per block
over all channels, in buffers allocated once per call. The uniform
ball's points off its support are masked to weight 0 rather than given
log weight -inf, which numpy's `exp` takes a slow path on.

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
recorded integer seed and independent streams never overlap; the
"Seeds" paragraph of `mc_weighted_sum` lays the streams out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateWeights, DimensionMismatch, NoiseLost
from .gaussian import _gain_transpose, _mmse
from .priors import PriorSpec, _quadratic_log_density, _sample_with, prior_moments

# outer draws per block. The draws of a block share one pool of inner
# normals, so _CHUNK also decides which draws are correlated through a
# pool: changing it changes every Monte Carlo answer (within its SE), not
# only the speed. A block holds its (n_plus, K) pool, with n_plus =
# ceil(n_inner/2), the pool's (P, n_plus) monomials, its (b, 4J, P)
# coefficient rows and (b, 4J, n_plus) forms, whose q1 half the weights
# overwrite, and, for the ball, the weights' (b, J, 2 n_plus) support
# mask. At 4 and 16, against 8, the CPU of tools/ab.py's mc_verify pass
# (two priors, 500 x 2000 draws, demo ensemble, two cores, 30 alternating
# rounds) is 1.17x and 0.91x, and the pass's peak RSS 40.6, 41.1 and
# 42.2 MB at 4, 8 and 16
_CHUNK = 8

# the range a row's weight sum must fall in after the shift at the
# proposal mean; a row outside it is redone at its exact row max
_SAFE_SUMS = (1e-100, 1e100)

MIN_DRAWS = 100  # fewest outer or inner draws an estimate accepts

# the largest share of its norm by which a draw's noise y - x may differ
# from the noise drawn. Rounding y = x + n moves it by about |x| 1e-16;
# at 200 x 300 draws on the demo ensemble the largest share is 2e-7 at
# gen-gauss p = 0.07, 2e-4 at 0.05 and over 0.03 at 0.04
_NOISE_RTOL = 1e-3


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo value with its standard error and provenance.

    `min_ess` and `median_ess` are the smallest and the median inner
    effective sample size over the outer draws (of every channel), and
    `bad_fraction` is the share of outer draws whose ESS fell below 1% of
    n_inner.
    """

    value: float
    std_error: float
    n_outer: int
    n_inner: int
    seed: int
    min_ess: float
    median_ess: float
    bad_fraction: float


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


def _rotations(gauss):
    """Haar-random (K, K) orthogonal matrices from a (n, K, K) stack of
    Gaussian ones: QR with the signs of diag(R) folded into Q (Mezzadri,
    Notices AMS 2007). A stacked call factors each matrix as a call on it
    alone would, bitwise."""
    q, r = np.linalg.qr(gauss)
    q *= np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q


@np.errstate(over="ignore", under="ignore")
def _mmse_channels(spec, noise_stack, x, ys, inner_seed, rotation_seed, n_inner):
    """Squared conditional-mean errors and inner effective sample sizes.

    `noise_stack` holds the J noise covariances, a list or a (J, K, K)
    array, stacked once, and `ys` the J observation arrays, one per
    channel, each (n_outer, K) like `x`: a list, an iterator or a
    (J, n_outer, K) array, stacked once. Returns
    (squared_errors, ess), each (J, n_outer): per channel and outer draw,
    ||E[X|y_j] - x||^2 and the effective sample size (sum w)^2 / sum w^2 of
    its inner weights. `inner_seed` seeds the pools of inner normals and
    `rotation_seed` the rotations (the "Seeds" paragraph of
    `mc_weighted_sum`).

    A proposal draw is x = m_post + L_post z with C_post = L_post L_post^T.
    Its whitened proposal residual is the drawn z and its whitened noise
    residual L_n^-1 (y - x) is u - A z, with u = L_n^-1 (y - m_post) and
    A = L_n^-1 L_post; the K log 2 pi terms cancel. So the log weight is
    log_norm - g(q0) + 1/2 (||z||^2 - ||A z - u||^2) plus a constant, for
    the quadratic form q0 = ||W (x - c)||^2 = ||d + M z||^2, with
    d = W (m_post - c) and M = W L_post, which the prior's density reads
    (`priors._quadratic_log_density`). Self-normalized weights are free of
    any factor common to a (draw, channel) row, so the kernel shifts each
    row by its log weight at the proposal mean z = 0: the weight is
    exp(q1 - g(q0)), with q1 = 1/2 z^T (I - A^T A) z + u^T A z + g(||d||^2),
    so the exponent is 0 at z = 0, and the log-determinant ratio, the
    1/2 ||u||^2 and log_norm drop out. For the ball, g is None and the
    weight is exp(q1) on the support q0 <= R^2 and 0 off it. Within a channel all
    outer draws share the quadratic matrices, M^T M for q0 and
    1/2 (I - A^T A) for q1, kept as one (2, J, K, K) array; only the
    linear rows and constants follow d and u, kept per draw as
    (n_outer, 2, J, K) and (n_outer, 2, J) arrays computed before any
    block, so no coefficient depends on the block its draw falls in. That
    set-up runs on the (J, K, K) stacks at once, with one Sigma_X + Sigma_N
    solve per channel giving W^T (`gaussian._gain_transpose`, the unchecked
    solve of `weight_matrix`: the moment covariance and the noise
    covariances were checked where they entered) and, from it, the MMSE
    matrix C_post by `mmse_matrix`'s own formula (`gaussian._mmse`); each
    stacked product makes the same per-channel calls a loop would.

    The outer draws are taken _CHUNK at a time, and the draws of a block
    share one pool of n_plus = ceil(n_inner/2) inner normals z, each draw
    turning it by its own Haar-random rotation Q_i; one `_rotations` call
    makes every draw's Q_i before the first block.
    Draw i's inner points are the rows of z Q_i and -z Q_i, the first
    n_inner of them, so an odd n_inner drops the last -z Q_i. For any
    orthogonal Q_i the rows of z Q_i are iid N(0, I), so given x and y
    each draw's estimate has the law a fresh draw of normals would give;
    the draws of a block are correlated only through the pool's
    rotation-invariant statistics. The pool is expanded into monomials
    once per block, as a (P, n_plus) array, and the rotation goes into the
    coefficients instead: a form z S z^T + l z^T at the row z Q_i is
    z (Q_i S Q_i^T) z^T + (l Q_i^T) z^T, K x K work per draw and channel
    rather than per inner point. A form at -z is the form at z with its
    linear coefficients negated, so a block's rows are written as
    (b, 2, J, 2, P): q0 at +z and -z for every channel, then q1 at +z and
    -z for every channel. One broadcast product with the pool's monomials
    then gives every form at both signs, and q0 and q1 are each a
    (b, J, 2 n_plus) view whose rows run over a channel's points at +z,
    then at -z. Each weight step (g(q0) subtracted from q1 in place, exp,
    the sums, the squared sums and ESS) is then one call per block for all
    J channels, and the weight of the -z an odd n_inner drops is set to 0.
    For the ball, q1 is multiplied by the 0/1 support mask before exp and
    the weights after it, so no -inf reaches exp.

    The shift at z = 0 keeps a row's weights in range while the proposal
    sits on the row's mass. A row whose weight sum leaves [1e-100, 1e100]
    (_SAFE_SUMS; inf or 0 included) is worked again from its forms,
    shifted by its exact maximum log weight on the support.

    The estimate is x_hat = m_post + L_post (z_bar Q_i)^T, with z_bar =
    (sum w+ z - sum w- z) / sum w in pool coordinates and w+ and w- the
    weights at z Q_i and -z Q_i; no proposal is built. Both sums come from
    one broadcast (b, J, 2, n_plus) @ (n_plus, K) product, which makes one
    (2, n_plus) @ (n_plus, K) call per draw and channel whatever J and b,
    so a one-channel estimate does not depend on the channels it is
    computed with (`test_channels_match_one_channel_kernel`) nor on the
    size of its block. The turn by Q_i, the map by L_post and the squared
    error are then einsums over all channels, which sum each entry in the
    same order whatever J and b. Since a draw's normals depend only on the
    draws before it, the first n draws of a call give bitwise the answers
    of a call on those n draws alone.

    The whole call, set-up, blocks and `_redo_at_row_max`, runs in one
    floating-point state that ignores overflow and underflow: a weight
    that overflows is redone at its row max, one that underflows is 0 as
    it should be, and the estimate does not depend on the caller's numpy
    error state. It is set here, not in `mc_weighted_sum`, because tests
    and tools call this kernel directly.

    Expanded, q0 can round a near-zero norm below zero, so it is clipped
    at zero. A draw whose inner weights all vanish (for the ball, every
    inner point off the support) has no estimate, so any such draw raises
    DegenerateWeights naming their count.
    """
    moments = prior_moments(spec)
    m, c = moments.mean, moments.covariance
    centre, whiten, g, _, q_max = _quadratic_log_density(spec)
    noise_stack = np.asarray(noise_stack, dtype=float)
    n_outer, k = x.shape
    n_ch = len(noise_stack)
    n_quad = k * (k + 1) // 2
    n_plus = (n_inner + 1) // 2
    odd = n_inner % 2 == 1

    gain_t = _gain_transpose(c, noise_stack)
    chol_posts = np.linalg.cholesky(_mmse(c, gain_t))
    inv_chol_n = np.linalg.inv(np.linalg.cholesky(noise_stack))
    y = np.stack(list(ys))
    m_posts = m + (y - m) @ (np.eye(k) - gain_t)  # m + (I - W)(y - m)
    u = (y - m_posts) @ inv_chol_n.swapaxes(1, 2)
    d = (m_posts - centre) @ whiten.T
    mz = whiten @ chol_posts
    a = inv_chol_n @ chol_posts
    quad = np.stack([mz.swapaxes(1, 2) @ mz, 0.5 * (np.eye(k) - a.swapaxes(1, 2) @ a)])
    lin = np.stack([2.0 * d @ mz, u @ a]).transpose(2, 0, 1, 3)  # (n_outer, 2, J, K)
    q0_mean = np.einsum("jnk,jnk->jn", d, d)  # q0 at z = 0
    shift = np.zeros_like(q0_mean) if g is None else g(q0_mean.copy())
    const = np.stack([q0_mean, shift]).transpose(2, 0, 1)  # (n_outer, 2, J)
    m_posts = m_posts.swapaxes(0, 1)  # (n_outer, J, K), as the blocks read it

    # A block's coefficient rows against the rows of `_features`: the
    # upper triangle of each rotated S, off-diagonal entries doubled, then
    # the rotated l, negated at -z, then the constant.
    iu, ju = np.triu_indices(k)
    doubled = np.where(iu == ju, 1.0, 2.0)
    sign = np.array([[1.0], [-1.0]])  # the rows at +z and at -z
    size = min(_CHUNK, n_outer)
    feat = np.empty((n_quad + k + 1, n_plus))
    rows_buf = np.empty((size, 2, n_ch, 2, n_quad + k + 1))
    rows = rows_buf.reshape(size, 4 * n_ch, n_quad + k + 1)
    forms_buf = np.empty((size, 2, n_ch, 2, n_plus))  # q0 at [:, 0], q1 at [:, 1]
    products = forms_buf.reshape(size, 4 * n_ch, n_plus)
    forms = forms_buf.reshape(size, 2, n_ch, 2 * n_plus)
    inside_buf = np.empty((size, n_ch, 2 * n_plus), dtype=bool) if g is None else None

    sq_err = np.empty((n_ch, n_outer))
    ess = np.empty((n_ch, n_outer))
    n_empty = 0
    rotations = _rotations(_rng_from(rotation_seed).standard_normal((n_outer, k, k)))
    rng = _rng_from(inner_seed)
    z = np.empty((n_plus, k))
    for start in range(0, n_outer, _CHUNK):
        stop = min(start + _CHUNK, n_outer)
        b = stop - start
        _features(rng.standard_normal(out=z), feat)
        rot = rotations[start:stop]
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
        np.matmul(rows[:b], feat, out=products[:b])
        q0, wts = forms[:b, 0], forms[:b, 1]  # the weights overwrite q1
        if g is None:
            inside = np.less_equal(q0, q_max, out=inside_buf[:b])
            wts *= inside
            np.exp(wts, out=wts)
            wts *= inside
        else:
            wts -= g(np.maximum(q0, 0.0, out=q0))
            np.exp(wts, out=wts)
        if odd:
            wts[..., -1] = 0.0  # the -z an odd n_inner drops
        totals = wts.sum(axis=2)
        redo = ~((totals >= _SAFE_SUMS[0]) & (totals <= _SAFE_SUMS[1]))
        if redo.any():
            _redo_at_row_max(redo, wts, totals, rows_buf[:b], feat, g, q_max, odd)
        empty = np.count_nonzero(~(totals > 0))
        if empty:
            n_empty += empty
            continue  # the call raises below
        ess[:, start:stop] = (totals**2 / np.einsum("bjn,bjn->bj", wts, wts)).T
        sums = forms_buf[:b, 1] @ z  # sum w z over +z and over -z: (b, J, 2, K)
        z_bar = np.subtract(sums[:, :, 0], sums[:, :, 1], out=sums[:, :, 0])
        z_bar /= totals[..., None]  # in pool coordinates
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


def _redo_at_row_max(redo, wts, totals, block_rows, feat, g, q_max, odd):
    """Work the (draw, channel) rows flagged in `redo` again from their
    coefficient rows, each shifted by its exact maximum log weight on the
    support, writing their weights into `wts` and their sums into `totals`.
    A row with no point on the support keeps weight 0."""
    bi, ji = np.nonzero(redo)
    again = (block_rows[bi, :, ji] @ feat).reshape(len(bi), 2, -1)  # q0, q1 at +-z
    q0, log_w = again[:, 0], again[:, 1]
    if g is None:
        log_w[~(q0 <= q_max)] = -np.inf
    else:
        log_w -= g(np.maximum(q0, 0.0, out=q0))
    if odd:
        log_w[:, -1] = -np.inf
    top = log_w.max(axis=1, keepdims=True)
    log_w -= np.where(top > -np.inf, top, 0.0)
    np.exp(log_w, out=log_w)
    wts[bi, ji] = log_w
    totals[bi, ji] = log_w.sum(axis=1)


def _check_degenerate(n_bad, n_outer):
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
    _check_degenerate(n_bad, ess.size)
    return McEstimate(float(per_draw.mean()),
                      float(per_draw.std(ddof=1) / math.sqrt(n_outer)),
                      n_outer, n_inner, seed,
                      min_ess=float(ess.min()), median_ess=float(np.median(ess)),
                      bad_fraction=n_bad / ess.size)


def _check_noise_kept(carried, noise):
    """NoiseLost unless every draw's noise y - x is its drawn noise to
    within _NOISE_RTOL of its norm: prior draws far larger than the noise
    round y = x + n back towards x."""
    miss = np.linalg.norm(carried - noise, axis=2)
    n_lost = np.count_nonzero(~(miss <= _NOISE_RTOL * np.linalg.norm(noise, axis=2)))
    if n_lost:
        raise NoiseLost(
            f"y = x + n lost the drawn noise on {n_lost}/{miss.size} outer draws (off by "
            f"more than {_NOISE_RTOL:g} of its norm): the prior's draws are too large "
            f"against the noise for double precision")


def mc_weighted_sum(spec: PriorSpec, ensemble, n_outer: int, n_inner: int,
                    seed: int) -> McEstimate:
    """Weighted MMSE sum across a ChannelEnsemble or Problem, sharing outer x draws.

    The same prior draws feed every channel (common random numbers), each
    channel gets its own noise stream, whose normals go through their
    channels' noise factors in one stacked product, and one inner stream of
    standard normals serves every channel (see `_mmse_channels`). The
    per-draw sums v_i = sum_j lambda_j ||x_hat_j - x_i||^2 are identically distributed
    across outer draws i, and each channel's (x, y_j, inner points) keeps
    its marginal law, so E[v_i] (with the self-normalized bias) is what
    each channel sampled alone would give. Draws in different blocks of
    `_CHUNK` are independent; the draws of one block share a pool of inner
    normals, each turned by its own random rotation, so they are
    correlated only through the pool's rotation-invariant statistics. The
    standard error is std(v)/sqrt(n_outer) over the per-draw weighted
    sums: at 500 x 2000 draws on the demo ensemble, the cluster-robust
    variance from block sums is 0.997-1.004 times the per-draw one over 60
    seeds, as it is for independent draws (`tools/mc_stats.py`). It counts
    the correlation between channels, which a quadrature sum of
    per-channel errors would not. The ESS diagnostics pool every channel's
    outer draws; an ESS under 1% of n_inner on over 1% of them raises
    DegenerateWeights, and so does any draw whose inner weights all
    vanish. A draw whose y = x + n no longer carries its noise, since the
    prior's draws dwarf it, raises NoiseLost.

    Seeds: the root spawns 1 + 2J streams. Stream 0 draws x, and
    channel j draws its noise from stream 1 + 2j. Stream 2, channel 0's
    inner stream, gives every channel's inner pools: one (ceil(n_inner/2),
    K) block of normals per block of `_CHUNK` outer draws, in block order.
    Its first spawned child gives the rotations: one Gaussian (K, K)
    matrix per outer draw, in draw order. Neither stream depends on J, so
    a one-channel estimate keeps the one-stream-per-channel layout, and
    the first n draws get the pools and rotations of a call on n draws.
    """
    if n_outer < MIN_DRAWS or n_inner < MIN_DRAWS:
        raise ValueError(f"n_outer and n_inner must both be >= {MIN_DRAWS}")
    if spec.dimension != ensemble.dimension:
        raise DimensionMismatch(f"prior has dimension {spec.dimension}, ensemble dimension is "
                                f"{ensemble.dimension}")
    root = np.random.SeedSequence(seed)
    noise_stack = ensemble.noise_stack
    s_x, *chan_seeds = root.spawn(1 + 2 * len(noise_stack))
    x = _sample_with(spec, n_outer, _rng_from(s_x))
    normals = np.stack([_rng_from(chan_seeds[2 * j]).standard_normal(x.shape)
                        for j in range(len(noise_stack))])
    noise = normals @ np.linalg.cholesky(noise_stack).swapaxes(1, 2)
    ys = x + noise
    _check_noise_kept(ys - x, noise)
    sq_err, ess = _mmse_channels(spec, noise_stack, x, ys, chan_seeds[1],
                                 chan_seeds[1].spawn(1)[0], n_inner)
    weighted = np.sum(ensemble.weights[:, None] * sq_err, axis=0)
    return _estimate(weighted, ess.ravel(), n_inner, seed)
