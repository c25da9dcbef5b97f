"""Monte Carlo oracle: exactness on Gaussian priors, reproducibility, guards."""

import math

import numpy as np
import pytest

from mmse_bounds import (
    ChannelEnsemble,
    DegenerateWeights,
    DimensionMismatch,
    Gaussian,
    GeneralizedGaussian,
    PriorSpec,
    UniformBall,
    gen_gauss_epsilon,
    lmmse_upper,
    mc_weighted_sum,
    prior_moments,
    uniform_ball_epsilon,
)
from mmse_bounds.gaussian import mmse_matrix, weight_matrix
from mmse_bounds import mc
from mmse_bounds.exceptions import NoiseLost
from mmse_bounds.mc import _check_degenerate, _mmse_channels, _rng_from
from mmse_bounds.priors import _sample_with, log_density
from conftest import TEST_SEED, one_channel, random_spd
from oracles import mc_kl


def _one_channel(spec, sigma_n, n_outer, n_inner, seed):
    """The channel MMSE: `mc_weighted_sum` on the one-channel ensemble {(Sigma_N, 1)}."""
    return mc_weighted_sum(spec, ChannelEnsemble.from_arrays([sigma_n], [1.0]),
                           n_outer, n_inner, seed)


def _lu_gaussian_log_density(mean, cov, x):
    """Row-wise normal log density through a general LU solve."""
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, (x - mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (x.shape[1] * math.log(2.0 * math.pi) + logdet + np.sum(z * z, axis=0))


def _oracle_one_channel(spec, sigma_n, x, y, inner_seed, rotation_seed, n_inner):
    """Reference kernel: the importance weights are the prior, noise and
    proposal log densities of every proposal point, evaluated directly on
    repeated copies of y and the posterior means. Same draws, same order
    and the same antithetic point set as `_mmse_channels` on one channel,
    each stream from the generator `mc._rng_from` gives: the inner stream
    draws one (ceil(n_inner/2), K) pool z per block, and the rotation
    stream one Gaussian (K, K) matrix per outer draw. Draw i turns its
    block's pool by the Q_i of its matrix's QR, with the signs of diag(R)
    folded in, and its points are m_post + L_post (z' Q_i)^T for the rows
    z' of [z, -z][:n_inner]. Returns (squared_errors, ess)."""
    moments = prior_moments(spec)
    m, c = moments.mean, moments.covariance
    k = x.shape[1]
    gain = np.eye(k) - weight_matrix(c, one_channel(sigma_n))[0]
    c_post = mmse_matrix(c, one_channel(sigma_n))[0]
    chol_post = np.linalg.cholesky(c_post)
    rng = mc._rng_from(inner_seed)
    rot = []
    for gauss in mc._rng_from(rotation_seed).standard_normal((x.shape[0], k, k)):
        q, r = np.linalg.qr(gauss)
        rot.append(q @ np.diag(np.sign(np.diag(r))))
    sq_err = np.empty(x.shape[0])
    ess = np.empty(x.shape[0])
    for start in range(0, x.shape[0], mc._CHUNK):
        stop = min(start + mc._CHUNK, x.shape[0])
        yc = y[start:stop]
        b = yc.shape[0]
        m_post = m + (yc - m) @ gain.T
        z = rng.standard_normal(((n_inner + 1) // 2, k))
        z = np.concatenate([z, -z])[:n_inner]
        xs = np.stack([m_post[i] + z @ rot[start + i] @ chol_post.T for i in range(b)])
        flat = xs.reshape(-1, k)
        log_w = (log_density(spec, flat)
                 + _lu_gaussian_log_density(np.zeros(k), sigma_n,
                                            np.repeat(yc, n_inner, axis=0) - flat)
                 - _lu_gaussian_log_density(np.zeros(k), c_post,
                                            flat - np.repeat(m_post, n_inner, axis=0)))
        log_w = log_w.reshape(b, n_inner)
        row_max = log_w.max(axis=1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        wts = np.exp(log_w - row_max)
        totals = wts.sum(axis=1)
        sq_totals = (wts**2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ess[start:stop] = np.where(sq_totals > 0, totals**2 / sq_totals, 0.0)
        x_hat = (wts[:, :, None] * xs).sum(axis=1) / totals[:, None]
        sq_err[start:stop] = np.sum((x_hat - x[start:stop]) ** 2, axis=1)
    return sq_err, ess


def _kernel_cases():
    """(spec, noise scale) pairs; the low-noise ball has one bad draw."""
    for k in (1, 2, 3, 5, 6):
        rng = np.random.default_rng(100 + k)
        cov = random_spd(rng, k, 2.0)
        yield pytest.param(PriorSpec(Gaussian(rng.normal(size=k), cov), k), 0.8,
                           id=f"gaussian-K{k}")
        for p in (0.7, 4.0):
            yield pytest.param(PriorSpec(GeneralizedGaussian(p), k), 0.8,
                               id=f"gen-gauss-{p:g}-K{k}")
        yield pytest.param(PriorSpec(UniformBall(1.5), k), 0.8, id=f"ball-K{k}")
    yield pytest.param(PriorSpec(UniformBall(1.5), 5), 0.001, id="ball-K5-low-noise")


def _kernel_input(spec, noise_scale, n_outer, n_channels=1):
    """Full noise covariances and seeded (x, y_j) draws for the channels,
    and the inner and rotation seeds they share; the first channel's data
    do not depend on n_channels."""
    k = spec.dimension
    rng = np.random.default_rng(7 * k)
    noise = [random_spd(rng, k, noise_scale) for _ in range(n_channels)]
    assert k == 1 or np.any(noise[0] != np.diag(np.diag(noise[0])))  # full noise
    s_x, s_noise, s_inner, *more = np.random.SeedSequence(TEST_SEED).spawn(2 + n_channels)
    x = _sample_with(spec, n_outer, _rng_from(s_x))
    ys = [x + _rng_from(s).standard_normal(x.shape) @ np.linalg.cholesky(sigma_n).T
          for sigma_n, s in zip(noise, [s_noise, *more])]
    return noise, x, ys, s_inner, s_inner.spawn(1)[0]



def _mostly_outside_ball(n_outer):
    """(spec, noise, x, ys) for a K = 3 unit ball and four full noise
    covariances, each y placed so that its proposal is centred at 1.1 times
    the radius: about 3/4 of the inner points fall off the support, and
    every draw keeps some on it."""
    k = 3
    spec = PriorSpec(UniformBall(1.0), k)
    c = prior_moments(spec).covariance
    rng = np.random.default_rng(5)
    noise = [random_spd(rng, k, 0.2) for _ in range(4)]
    u = rng.standard_normal((n_outer, k))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ys = [np.linalg.solve(np.eye(k) - weight_matrix(c, one_channel(sigma_n))[0], 1.1 * u.T).T
          for sigma_n in noise]
    return spec, noise, 0.9 * u, ys

def _recorded_redos(monkeypatch):
    """A list that collects each block's (b, J) mask of rows sent to
    `mc._redo_at_row_max`."""
    redone = []
    real = mc._redo_at_row_max

    def recording(redo, *args):
        redone.append(redo.copy())
        return real(redo, *args)

    monkeypatch.setattr(mc, "_redo_at_row_max", recording)
    return redone


class TestKernel:
    @pytest.mark.parametrize("spec, noise_scale", _kernel_cases())
    def test_matches_direct_density_oracle(self, spec, noise_scale):
        # Whitening from the drawn normals and the stacked rows at -z must
        # change the per-draw errors only at rounding level and leave every
        # bad-draw verdict alone; an odd n_inner drops the last -z.
        n_outer = 150  # full blocks and a partial last one
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, noise_scale, n_outer)
        for n_inner in (300, 301):
            sq_err, ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, n_inner)
            assert sq_err.shape == ess.shape == (1, n_outer)
            ref_err, ref_ess = _oracle_one_channel(spec, noise[0], x, ys[0], s_inner, s_rot,
                                                   n_inner)
            np.testing.assert_allclose(sq_err[0], ref_err, rtol=1e-9, atol=0.0)
            assert int(np.count_nonzero(ess < 0.01 * n_inner)) == \
                int(np.count_nonzero(ref_ess < 0.01 * n_inner))
            assert np.all((ess >= 1.0) & (ess <= n_inner * (1 + 1e-12)))
            if isinstance(spec.family, Gaussian):
                # the proposal is the exact posterior, so every weight is equal
                np.testing.assert_allclose(ess, n_inner, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_gaussian_prior_estimate_is_the_posterior_mean(self, n_channels):
        # With a Gaussian prior every weight is equal, and an even n_inner
        # pairs each z with -z, so sum z = 0 and x_hat = m_post exactly.
        k = 3
        rng = np.random.default_rng(11)
        spec = PriorSpec(Gaussian(rng.normal(size=k), random_spd(rng, k, 2.0)), k)
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, 0.8, 150, n_channels)
        sq_err, ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, 300)
        c = spec.family.covariance
        for j, (sigma_n, y) in enumerate(zip(noise, ys)):
            m_post = spec.family.mean + (y - spec.family.mean) @ (
                np.eye(k) - weight_matrix(c, one_channel(sigma_n))[0]).T
            np.testing.assert_allclose(sq_err[j], np.sum((m_post - x) ** 2, axis=1),
                                       rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ess, 300, rtol=1e-12, atol=0.0)

    def test_proposals_at_the_prior_centre_stay_finite(self, monkeypatch):
        # Inner draws within 1e-8 of the z that maps to x = 0: the expanded
        # ||x||^2 rounds below zero there, and ||x||^p of it must not be NaN.
        # The (n_outer, K, K) matrices the rotations come from are identities, so
        # every draw keeps the pool as it is.
        spec = PriorSpec(GeneralizedGaussian(0.7), 3)
        sigma_n = np.diag([0.5, 0.8, 1.1])
        c = prior_moments(spec).covariance
        x = np.tile([1.0, -2.0, 0.5], (100, 1))
        y = x + 0.3
        m_post = y[0] @ (np.eye(3) - weight_matrix(c, one_channel(sigma_n))[0]).T
        z_centre = np.linalg.solve(np.linalg.cholesky(mmse_matrix(c, one_channel(sigma_n))[0]),
                                   -m_post)

        class Clustered:
            def standard_normal(self, size=None, out=None):
                shape = size if out is None else out.shape
                if len(shape) == 3:
                    return np.broadcast_to(np.eye(3), shape).copy()
                z = z_centre + 1e-8 * np.random.default_rng(0).standard_normal(shape)
                if out is None:
                    return z
                out[...] = z
                return out

        monkeypatch.setattr(mc, "_rng_from", lambda seed: Clustered())
        sq_err, ess = _mmse_channels(spec, [sigma_n], x, [y], None, None, 300)
        assert np.all(np.isfinite(sq_err))
        # The +z half sits at the centre, where the expanded ||x||^2 is its
        # rounding (about 1e-15 against a true 1e-16) and ||x||^0.7 of it
        # moves those log weights by about 1e-5; the -z half lands away
        # from the centre, so the weights are not all equal.
        ref_err, ref_ess = _oracle_one_channel(spec, sigma_n, x, y, None, None, 300)
        np.testing.assert_allclose(sq_err[0], ref_err, rtol=1e-6, atol=0.0)
        np.testing.assert_allclose(ess[0], ref_ess, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("spec, noise_scale", _kernel_cases())
    def test_channels_match_one_channel_kernel(self, spec, noise_scale):
        # The shared inner block gives each channel exactly the draws it
        # would get from a one-channel call with the same inner seed.
        n_outer, n_inner = 150, 300
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, noise_scale, n_outer, n_channels=4)
        sq_err, ess = _mmse_channels(spec, noise, x, iter(ys), s_inner, s_rot, n_inner)
        assert sq_err.shape == ess.shape == (4, n_outer)
        for j, (sigma_n, y) in enumerate(zip(noise, ys)):
            err_j, ess_j = _mmse_channels(spec, [sigma_n], x, [y], s_inner, s_rot, n_inner)
            np.testing.assert_allclose(sq_err[j], err_j[0], rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(ess[j], ess_j[0])

    @pytest.mark.parametrize("spec, noise_scale", _kernel_cases())
    def test_halves_solve_is_the_plain_sum_bitwise(self, monkeypatch, spec, noise_scale):
        # The set-up solves with the sums Sigma_X + Sigma_N_j formed from
        # halves; since halving is exact, every answer is the one the plain
        # sums give, bit for bit.
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, noise_scale, 150, n_channels=4)
        got = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, 301)
        monkeypatch.setattr(mc, "_gain_transpose", lambda c, n: np.linalg.solve(c + n, n))
        want = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, 301)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_ball_with_most_points_off_the_support(self):
        # The ball's off-support points are masked, not given -inf: against
        # the direct densities, which give them -inf, and bitwise against
        # each channel's own call, with an odd n_inner.
        n_outer, n_inner = 150, 301
        spec, noise, x, ys = _mostly_outside_ball(n_outer)
        s_inner = np.random.SeedSequence(TEST_SEED)
        s_rot = s_inner.spawn(1)[0]
        sq_err, ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, n_inner)
        assert np.all(ess < 0.5 * n_inner)  # ESS <= the number of nonzero weights
        for j, (sigma_n, y) in enumerate(zip(noise, ys)):
            ref_err, ref_ess = _oracle_one_channel(spec, sigma_n, x, y, s_inner, s_rot,
                                                   n_inner)
            np.testing.assert_allclose(sq_err[j], ref_err, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(ess[j], ref_ess, rtol=1e-9, atol=0.0)
            err_j, ess_j = _mmse_channels(spec, [sigma_n], x, [y], s_inner, s_rot, n_inner)
            np.testing.assert_array_equal(sq_err[j], err_j[0])
            np.testing.assert_array_equal(ess[j], ess_j[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draws_without_weight_raise(self):
        # A y far outside the ball puts every inner point off the support,
        # so that draw has no estimate; the call names how many such draws
        # there are over all channels, with no numpy warning on the way.
        spec, noise, x, ys = _mostly_outside_ball(100)
        ys[1][[3, 50, 97]] = 100.0
        with pytest.raises(DegenerateWeights, match="vanished on 3/400 outer draws") as exc:
            _mmse_channels(spec, noise, x, ys, np.random.SeedSequence(TEST_SEED),
                           np.random.SeedSequence(TEST_SEED).spawn(1)[0], 301)
        assert exc.value.bad_fraction == 3 / 400

    @pytest.mark.parametrize("n_inner", [300, 301])
    @pytest.mark.parametrize("n_channels", [1, 4])
    @pytest.mark.parametrize("spec", [
        PriorSpec(GeneralizedGaussian(0.7), 3), PriorSpec(UniformBall(1.5), 3),
        PriorSpec(Gaussian(np.array([0.5, -1.0, 0.2]), random_spd(np.random.default_rng(3),
                                                                   3, 2.0)), 3),
    ], ids=["gen-gauss-0.7", "ball", "gaussian"])
    def test_exact_row_max_matches_the_shift(self, spec, n_channels, n_inner, monkeypatch):
        # With an empty safe window every (draw, channel) row is worked
        # again at its exact row max; the answers stay those of the shift
        # at the proposal mean, for either parity of n_inner.
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, 0.8, 150, n_channels)
        sq_err, ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, n_inner)
        redone = _recorded_redos(monkeypatch)
        monkeypatch.setattr(mc, "_SAFE_SUMS", (math.inf, 0.0))
        all_err, all_ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, n_inner)
        assert all(r.all() for r in redone) and sum(r.size for r in redone) == sq_err.size
        np.testing.assert_allclose(all_err, sq_err, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(all_ess, ess, rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_far_from_the_shift_are_redone(self, monkeypatch):
        # y far out in a p = 10 prior's tail: the log weights at the inner
        # points exceed the one at the proposal mean by more than exp can
        # hold, so those rows leave the safe window and are redone at their
        # row max, with no numpy warning, as the direct densities give.
        spec = PriorSpec(GeneralizedGaussian(10.0), 3)
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, 0.8, 150)
        ys[0][:10] = 5.0
        redone = _recorded_redos(monkeypatch)
        sq_err, ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, 301)
        assert sum(int(r.sum()) for r in redone) == 10
        ref_err, ref_ess = _oracle_one_channel(spec, noise[0], x, ys[0], s_inner, s_rot, 301)
        np.testing.assert_allclose(sq_err[0], ref_err, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(ess[0], ref_ess, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("spec, noise_scale", _kernel_cases())
    def test_chunk_size_changes_no_answer(self, spec, noise_scale, monkeypatch):
        # The block size decides which draws share a pool, so it changes the
        # answers; but every block size that holds all the outer draws makes
        # one block of them, takes the same pool from the inner stream and
        # the same rotations, and may move the per-draw errors by rounding
        # at most.
        n_outer, n_inner = 150, 300
        for n_channels in (1, 4):
            noise, x, ys, s_inner, s_rot = _kernel_input(spec, noise_scale, n_outer, n_channels)
            runs = []
            for chunk in (150, 151, 256, 1024):
                monkeypatch.setattr(mc, "_CHUNK", chunk)
                runs.append(_mmse_channels(spec, noise, x, ys, s_inner, s_rot, n_inner))
            ref_err, ref_ess = runs[0]
            for sq_err, ess in runs[1:]:
                np.testing.assert_allclose(sq_err, ref_err, rtol=1e-13, atol=0.0)
                np.testing.assert_array_equal(ess, ref_ess)

    @pytest.mark.parametrize("spec, noise_scale", _kernel_cases())
    def test_outer_prefix_keeps_its_answers(self, spec, noise_scale):
        # A draw's pool and rotation depend only on the draws before it, so
        # the first 75 outer draws of a 150-draw call give bitwise the
        # answers of a call on those 75 draws alone; the 75-draw call ends
        # in a partial block that the 150-draw call fills. (At 300 draws
        # the low-noise ball's input has a draw whose weights all vanish.)
        n_inner = 300
        for n_channels in (1, 4):
            noise, x, ys, s_inner, s_rot = _kernel_input(spec, noise_scale, 150, n_channels)
            sq_err, ess = _mmse_channels(spec, noise, x, ys, s_inner, s_rot, n_inner)
            part_err, part_ess = _mmse_channels(spec, noise, x[:75], [y[:75] for y in ys],
                                                s_inner, s_rot, n_inner)
            np.testing.assert_array_equal(part_err, sq_err[:, :75])
            np.testing.assert_array_equal(part_ess, ess[:, :75])

    def test_one_qr_call_per_kernel_call(self, monkeypatch):
        # Every draw's rotation comes from one stacked `_rotations` call,
        # however many blocks of _CHUNK draws the 150 draws fill.
        spec = PriorSpec(GeneralizedGaussian(0.7), 3)
        noise, x, ys, s_inner, s_rot = _kernel_input(spec, 0.8, 150, n_channels=4)
        calls = []
        real = mc._rotations
        monkeypatch.setattr(mc, "_rotations",
                            lambda gauss: calls.append(gauss.shape) or real(gauss))
        _mmse_channels(spec, noise, x, ys, s_inner, s_rot, 300)
        assert calls == [(150, 3, 3)]


class TestGaussianExactness:
    # For a Gaussian prior SNIS is estimating a quantity with a closed form,
    # so the estimate must land within a few standard errors of it.

    def test_mc_mmse_single_channel(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        sigma_n = np.array([[0.5, 0.1], [0.1, 0.7]])
        spec = PriorSpec(Gaussian(np.array([1.0, -1.0]), cov), 2)
        est = _one_channel(spec, sigma_n, n_outer=400, n_inner=1000, seed=TEST_SEED)
        exact = np.trace(mmse_matrix(cov, one_channel(sigma_n))[0])
        assert abs(est.value - exact) < 4 * est.std_error
        assert est.std_error < 0.2 * exact

    def test_mc_weighted_sum_matches_lmmse(self, demo_ensemble):
        cov = 3.0 * np.eye(3)
        spec = PriorSpec(Gaussian(np.zeros(3), cov), 3)
        est = mc_weighted_sum(spec, demo_ensemble, n_outer=300, n_inner=500,
                              seed=TEST_SEED)
        exact = lmmse_upper(cov, demo_ensemble)
        assert abs(est.value - exact) < 4 * est.std_error
        assert est.n_outer == 300 and est.n_inner == 500 and est.seed == TEST_SEED


class TestReproducibility:
    @pytest.mark.parametrize("seed, value, std_error, min_ess, median_ess", [
        (42, 1.0544693741748659, 0.09767200667290668, 39.404037130112954, 182.4059986841475),
        (43, 0.8763227417038816, 0.07173349946275007, 65.41499539735938, 179.78156470619834),
    ], ids=["seed-42", "seed-43"])
    def test_mc_mmse_pinned(self, seed, value, std_error, min_ess, median_ess):
        # One channel keeps the stream layout of one inner stream per
        # channel; the values are those of the antithetic inner points of
        # one pool per block, rotated per draw, with each row's weights
        # shifted at the proposal mean.
        spec = PriorSpec(GeneralizedGaussian(1.0), 2)
        est = _one_channel(spec, np.array([[0.8, 0.3], [0.3, 0.6]]), 150, 200, seed=seed)
        assert (est.value, est.std_error, est.min_ess, est.median_ess, est.bad_fraction) == \
            (value, std_error, min_ess, median_ess, 0.0)

    @pytest.mark.parametrize("family, value, std_error, bad_fraction", [
        (GeneralizedGaussian(1.0), 8.419184536157445, 0.287581353911115, 0.0005),
        (UniformBall(2.0), 2.8667969568063225, 0.06209300394797277, 0.0),
    ], ids=["gen-gauss:1", "uniform-ball:2"])
    def test_weighted_sum_pinned(self, demo_ensemble, family, value, std_error,
                                 bad_fraction):
        # the values of the antithetic inner points of one pool per block,
        # rotated per draw by a rotation from a stream of its own
        est = mc_weighted_sum(PriorSpec(family, 3), demo_ensemble, 500, 2000, seed=42)
        np.testing.assert_allclose((est.value, est.std_error), (value, std_error),
                                   rtol=1e-12, atol=0.0)
        assert est.bad_fraction == bad_fraction

    def test_same_seed_bitwise(self):
        spec = PriorSpec(GeneralizedGaussian(1.0), 2)
        sigma_n = 0.8 * np.eye(2)
        a = _one_channel(spec, sigma_n, 150, 200, seed=42)
        b = _one_channel(spec, sigma_n, 150, 200, seed=42)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_different_seed_differs(self):
        spec = PriorSpec(GeneralizedGaussian(1.0), 2)
        sigma_n = 0.8 * np.eye(2)
        a = _one_channel(spec, sigma_n, 150, 200, seed=42)
        c = _one_channel(spec, sigma_n, 150, 200, seed=43)
        assert a.value != c.value

    @pytest.mark.parametrize("p", [10.0, 300.0])
    def test_callers_error_state_changes_nothing(self, demo_ensemble, p):
        # the kernel's weights underflow in exp (p = 10) and in the density's
        # power (p = 300); under a raising error state both once raised
        # FloatingPointError, and now the estimate keeps its bits
        spec = PriorSpec(GeneralizedGaussian(p), 3)
        expect = mc_weighted_sum(spec, demo_ensemble, 200, 300, seed=1)
        with np.errstate(all="raise"):
            assert mc_weighted_sum(spec, demo_ensemble, 200, 300, seed=1) == expect

    def test_weighted_sum_reproducible(self, demo_ensemble):
        spec = PriorSpec(GeneralizedGaussian(3.0), 3)
        a = mc_weighted_sum(spec, demo_ensemble, 120, 150, seed=7)
        b = mc_weighted_sum(spec, demo_ensemble, 120, 150, seed=7)
        assert a == b


class TestWeightedSumStatistics:
    def _per_channel_errors(self, spec, ensemble, n_outer, n_inner, seed):
        # the seeds of mc_weighted_sum, as its "Seeds" paragraph lays them out
        s_x, *chan_seeds = np.random.SeedSequence(seed).spawn(1 + 2 * ensemble.count)
        s_rot = chan_seeds[1].spawn(1)[0]
        x = _sample_with(spec, n_outer, _rng_from(s_x))
        errs, ess = [], []
        for j, sigma_n in enumerate(ensemble.noise_stack):
            chol_n = np.linalg.cholesky(sigma_n)
            y = x + _rng_from(chan_seeds[2 * j]).standard_normal(x.shape) @ chol_n.T
            err_j, ess_j = _mmse_channels(spec, [sigma_n], x, [y],
                                          chan_seeds[1], s_rot, n_inner)
            errs.append(err_j[0])
            ess.append(ess_j[0])
        return np.array(errs), np.concatenate(ess)

    def test_std_error_counts_the_shared_draws(self, demo_ensemble):
        # Every channel sees the same x, so the per-channel errors are
        # correlated and the SE must be that of the per-draw weighted sum.
        spec = PriorSpec(GeneralizedGaussian(1.0), 3)
        est = mc_weighted_sum(spec, demo_ensemble, 300, 400, seed=1)
        errs, _ = self._per_channel_errors(spec, demo_ensemble, 300, 400, seed=1)
        weights = demo_ensemble.weights
        per_draw = weights @ errs
        assert est.value == pytest.approx(per_draw.mean(), rel=1e-13)
        assert est.std_error == pytest.approx(per_draw.std(ddof=1) / math.sqrt(300),
                                              rel=1e-12)
        quadrature = math.sqrt(sum((lam * e.std(ddof=1)) ** 2
                                   for lam, e in zip(weights, errs)) / 300)
        assert est.std_error > quadrature

    def test_ess_fields_filled_and_reproducible(self, demo_ensemble):
        spec = PriorSpec(UniformBall(2.0), 3)
        est = mc_weighted_sum(spec, demo_ensemble, 200, 300, seed=3)
        again = mc_weighted_sum(spec, demo_ensemble, 200, 300, seed=3)
        _, ess = self._per_channel_errors(spec, demo_ensemble, 200, 300, seed=3)
        assert (est.min_ess, est.median_ess, est.bad_fraction) == \
            (again.min_ess, again.median_ess, again.bad_fraction)
        assert est.min_ess == ess.min()
        assert est.median_ess == np.median(ess)
        assert est.bad_fraction == np.count_nonzero(ess < 0.01 * 300) / ess.size
        assert 1.0 <= est.min_ess <= est.median_ess <= 300

    @pytest.mark.parametrize("family", [GeneralizedGaussian(1.0), UniformBall(2.0)],
                             ids=["gen-gauss:1", "uniform-ball:2"])
    def test_std_error_covers_the_spread_over_seeds(self, family):
        # The draws of a block share one pool of inner normals, so they are
        # not independent; std(v)/sqrt(n_outer) must still be the estimate's
        # spread over seeds. With 30 estimates the ratio's own sampling
        # spread is about 0.13.
        spec = PriorSpec(family, 2)
        sigma_n = np.array([[0.8, 0.3], [0.3, 0.6]])
        ests = [_one_channel(spec, sigma_n, 200, 200, seed=s) for s in range(1, 31)]
        spread = np.std([e.value for e in ests], ddof=1)
        assert 0.7 <= spread / np.mean([e.std_error for e in ests]) <= 1.4

    def test_mc_mmse_reports_ess(self):
        spec = PriorSpec(GeneralizedGaussian(1.0), 2)
        est = _one_channel(spec, 0.8 * np.eye(2), 150, 200, seed=42)
        assert 1.0 <= est.min_ess <= est.median_ess <= 200
        assert 0.0 <= est.bad_fraction <= 0.01


class TestMcKl:
    def test_gaussian_against_itself_is_zero(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = PriorSpec(Gaussian(np.zeros(2), cov), 2)
        value, std_error = mc_kl(spec, Gaussian(np.zeros(2), cov), 5000, seed=3)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert std_error == pytest.approx(0.0, abs=1e-12)

    def test_gen_gauss_matches_analytic(self):
        for p, k in ((1.0, 2), (3.0, 3)):
            spec = PriorSpec(GeneralizedGaussian(p), k)
            mom = prior_moments(spec)
            ref = Gaussian(mom.mean, mom.covariance)
            value, std_error = mc_kl(spec, ref, 20000, seed=7)
            assert abs(value - gen_gauss_epsilon(p, k)) < 3 * std_error

    def test_ball_matches_analytic(self):
        spec = PriorSpec(UniformBall(2.0), 3)
        mom = prior_moments(spec)
        ref = Gaussian(mom.mean, mom.covariance)
        value, std_error = mc_kl(spec, ref, 20000, seed=7)
        assert abs(value - uniform_ball_epsilon(2.0, 3)) < 3 * std_error

    def test_n_guard(self):
        spec = PriorSpec(GeneralizedGaussian(1.0), 1)
        with pytest.raises(ValueError):
            mc_kl(spec, Gaussian(np.zeros(1), np.eye(1)), 99, seed=1)


class TestGuards:
    def test_sample_size_floors(self, demo_ensemble):
        spec = PriorSpec(GeneralizedGaussian(1.0), 3)
        with pytest.raises(ValueError):
            _one_channel(spec, np.eye(3), 99, 1000, seed=1)
        with pytest.raises(ValueError):
            _one_channel(spec, np.eye(3), 1000, 99, seed=1)
        with pytest.raises(ValueError):
            mc_weighted_sum(spec, demo_ensemble, 99, 1000, seed=1)

    def test_prior_dimension_must_match(self, demo_ensemble):
        # K = 2 priors against the K = 3 ensemble and a K = 3 Gaussian
        for family in (GeneralizedGaussian(1.0), UniformBall(2.0)):
            spec = PriorSpec(family, 2)
            with pytest.raises(DimensionMismatch, match="prior has dimension 2, ensemble "
                                                        "dimension is 3"):
                mc_weighted_sum(spec, demo_ensemble, 100, 100, seed=1)
            with pytest.raises(DimensionMismatch, match="Gaussian prior has dimension 3, "
                                                        "spec has 2"):
                mc_kl(spec, Gaussian(np.zeros(3), np.eye(3)), 100, seed=1)

    def test_degenerate_threshold(self):
        # raises strictly above 1% of outer draws, never at or below
        _check_degenerate(n_bad=10, n_outer=1000)
        with pytest.raises(DegenerateWeights) as exc:
            _check_degenerate(n_bad=11, n_outer=1000)
        assert exc.value.bad_fraction == pytest.approx(0.011)
        _check_degenerate(n_bad=0, n_outer=1000)

    def test_noise_rounded_away_is_named(self, demo_ensemble):
        # p = 0.02 draws reach about 1e24, so y = x + n rounds back to x;
        # the estimate read 0 +- 0 at full ESS, though lmmse_upper is 21.23
        spec = PriorSpec(GeneralizedGaussian(0.02), 3)
        with pytest.raises(NoiseLost, match="lost the drawn noise on 800/800 outer draws"):
            mc_weighted_sum(spec, demo_ensemble, 200, 300, seed=1)
        # at p = 0.05 rounding moves some draws' noise by up to 6e-5 of its
        # norm, which leaves the estimate's error far below its SE
        est = mc_weighted_sum(PriorSpec(GeneralizedGaussian(0.05), 3), demo_ensemble,
                              200, 300, seed=1)
        assert est.value > 10 * est.std_error > 0
