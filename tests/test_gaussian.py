"""Closed-form Gaussian quantities against hand-computed and identity oracles."""

import dataclasses
import warnings

import numpy as np
import pytest

from mmse_bounds import (
    ChannelEnsemble,
    DimensionMismatch,
    DivergenceBall,
    Gaussian,
    MmseSummary,
    NonSymmetric,
    NotPositiveDefinite,
    PriorSpec,
    kl_same_mean_gaussians,
    linear_estimator_mse,
    lmmse_upper,
    mmse_matrix,
    opt_covariance_residual,
    weight_matrix,
    validate_problem,
    weighted_mmse_sum,
)
from conftest import TEST_SEED, corpus_spd, isotropic_ball, one_channel, random_spd


def rel_error(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


class TestScalarOracles:
    # sigma_x^2 = 2, sigma_n^2 = 3: W = 3/5, mmse = 2*3/(2+3) = 6/5
    def test_weight(self):
        w = weight_matrix([[2.0]], one_channel([[3.0]]))[0]
        np.testing.assert_allclose(w, [[0.6]], rtol=1e-14)

    def test_mmse(self):
        m = mmse_matrix([[2.0]], one_channel([[3.0]]))[0]
        np.testing.assert_allclose(m, [[1.2]], rtol=1e-14)
        assert np.trace(m) == pytest.approx(1.2, rel=1e-14)

    def test_kl(self):
        # s = 4: (s - 1 - ln s)/2
        s = 4.0
        expect = 0.5 * (s - 1.0 - np.log(s))
        assert kl_same_mean_gaussians([[4.0]], [[1.0]]) == pytest.approx(expect, rel=1e-14)


class TestMatrixIdentities:
    @pytest.fixture()
    def pair(self):
        rng = np.random.default_rng(TEST_SEED)
        return random_spd(rng, 4, 2.0), random_spd(rng, 4, 0.7)

    def test_weight_matrix_identity(self, pair):
        sx, sn = pair
        expect = sn @ np.linalg.inv(sx + sn)
        np.testing.assert_allclose(weight_matrix(sx, one_channel(sn))[0], expect, rtol=1e-12)

    def test_mmse_matrix_harmonic_form(self, pair):
        sx, sn = pair
        expect = np.linalg.inv(np.linalg.inv(sx) + np.linalg.inv(sn))
        np.testing.assert_allclose(mmse_matrix(sx, one_channel(sn))[0], expect, rtol=1e-11)

    def test_mmse_matrix_symmetric(self, pair):
        sx, sn = pair
        m = mmse_matrix(sx, one_channel(sn))[0]
        np.testing.assert_array_equal(m, m.T)

    def test_kl_properties(self, pair):
        sx, s0 = pair
        assert kl_same_mean_gaussians(s0, s0) == 0.0
        assert kl_same_mean_gaussians(sx, s0) > 0.0
        # invariant under a joint congruence transform
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        before = kl_same_mean_gaussians(sx, s0)
        after = kl_same_mean_gaussians(a @ sx @ a.T, a @ s0 @ a.T)
        assert after == pytest.approx(before, rel=1e-9)

    @pytest.mark.parametrize("sigma_x", [-np.eye(2), [[1.0, 5.0], [-5.0, 1.0]]])
    def test_kl_rejects_a_non_covariance(self, sigma_x):
        # both have determinant sign +1, which slogdet alone would accept; the
        # second is not symmetric, so is rejected before any factorization
        error = (NotPositiveDefinite if np.array_equal(sigma_x, np.transpose(sigma_x))
                 else NonSymmetric)
        with pytest.raises(error):
            kl_same_mean_gaussians(sigma_x, np.eye(2))

    @pytest.mark.parametrize("sigma_x, sigma_0, name", [
        ([[1.0, 5.0], [0.0, 1.0]], np.eye(2), "sigma_x"),
        (np.eye(2), [[1.0, 5.0], [0.0, 1.0]], "sigma_0"),
        (np.eye(2), [[1.0, 0.0], [3.0, 1.0]], "sigma_0"),
    ])
    def test_kl_rejects_an_asymmetric_argument(self, sigma_x, sigma_0, name):
        # a Cholesky factorization reads one triangle: the first two gave
        # 0.0, the third a failed factorization
        with pytest.raises(NonSymmetric, match=f"{name} is not symmetric"):
            kl_same_mean_gaussians(sigma_x, sigma_0)

    def test_kl_singular_reference(self):
        with pytest.raises(NotPositiveDefinite):
            kl_same_mean_gaussians(np.eye(2), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weight_matrix(np.eye(2), one_channel(np.eye(3)))


NON_FINITE = {"nan": np.full((3, 3), np.nan), "inf": np.diag([np.inf, 1.0, 1.0])}


class TestNonFiniteArguments:
    """A closed form rejects a non-finite matrix by name, as it rejects an
    indefinite one, and warns nothing: numpy's Cholesky factor of a
    non-finite matrix is NaN, not an error, so each once returned NaN."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["sigma_x", "sigma_0"])
    def test_kl(self, bad, name):
        args = {"sigma_x": 2.0 * np.eye(3), "sigma_0": np.eye(3), name: NON_FINITE[bad]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match=f"^{name} has non-finite entries$"):
                kl_same_mean_gaussians(**args)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_mmse_closed_forms(self, demo_ensemble, bad):
        sx = NON_FINITE[bad]
        reference = isotropic_ball(3, 2.0, 0.3).reference
        calls = [lambda: weighted_mmse_sum(sx, demo_ensemble),
                 lambda: mmse_matrix(sx, one_channel(demo_ensemble.noise_stack[0])),
                 lambda: opt_covariance_residual(-0.5, sx, demo_ensemble, reference)]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPositiveDefinite, match="^sigma_x has non-finite entries$"):
                    call()


class TestPriorCovarianceCheck:
    """`weight_matrix` checks Sigma_X where the MMSE closed forms take it:
    a singular or indefinite Sigma_X raises by name and warns nothing. An
    indefinite one once gave a negative MMSE sum (-1.0 at K = 1, Sigma_N =
    1, Sigma_X = -0.5), and Sigma_X = 0 numpy's bare LinAlgError."""

    @pytest.mark.parametrize("scale", [-0.5, 0.0])
    def test_closed_forms_reject_sigma_x(self, scale):
        ens = ChannelEnsemble.from_arrays([np.eye(1)], [1.0])
        sx = scale * np.eye(1)
        reference = isotropic_ball(1, 1.0, 0.1).reference
        calls = [lambda: weighted_mmse_sum(sx, ens), lambda: lmmse_upper(sx, ens),
                 lambda: mmse_matrix(sx, ens),
                 lambda: opt_covariance_residual(0.5, sx, ens, reference)]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPositiveDefinite, match="^sigma_x is not positive definite$"):
                    call()


    @pytest.mark.parametrize("sx", [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 5.0], [0.0, 1.0]]])
    def test_closed_forms_reject_an_asymmetric_sigma_x(self, sx):
        # as kl does: a Cholesky factorization reads one triangle, so the
        # first gave the symmetrized Sigma_X's values and the second an
        # indefinite sigma_x + sigma_n
        ens = ChannelEnsemble.from_arrays([np.eye(2)], [1.0])
        sx = np.array(sx)
        reference = isotropic_ball(2, 1.0, 0.1).reference
        calls = [lambda: weight_matrix(sx, one_channel(np.eye(2))), lambda: mmse_matrix(sx, ens),
                 lambda: weighted_mmse_sum(sx, ens), lambda: lmmse_upper(sx, ens),
                 lambda: opt_covariance_residual(0.5, sx, ens, reference)]
        for call in calls:
            with pytest.raises(NonSymmetric, match="^sigma_x is not symmetric within tolerance$"):
                call()

    def test_nearly_symmetric_sigma_x_is_read_symmetrized(self, demo_ensemble):
        rng = np.random.default_rng(TEST_SEED)
        sym = random_spd(rng, 3, 2.0)
        skew = np.triu(rng.normal(size=(3, 3)), 1)
        skew -= skew.T
        sx = sym + 1e-14 * np.linalg.norm(sym) / np.linalg.norm(skew) * skew
        sym = 0.5 * sx + 0.5 * sx.T
        reference = isotropic_ball(3, 2.0, 0.3).reference
        assert kl_same_mean_gaussians(sx, np.eye(3)) == kl_same_mean_gaussians(sym, np.eye(3))
        for read in [lambda s: weight_matrix(s, demo_ensemble),
                     lambda s: weighted_mmse_sum(s, demo_ensemble).weighted_sum,
                     lambda s: lmmse_upper(s, demo_ensemble),
                     lambda s: opt_covariance_residual(0.5, s, demo_ensemble, reference)]:
            assert rel_error(read(sx), read(sym)) <= 1e-13


    def test_nearly_symmetric_sigma_x_is_read_as_its_symmetrization_bitwise(
            self, demo_ensemble):
        # every closed form computes with the symmetrized Sigma_X alone; when
        # the raw one entered the products, solves and norms, most draws
        # skewed by 1e-14 gave a value other than the symmetrization's
        rng = np.random.default_rng([TEST_SEED, 58])
        ens = ChannelEnsemble(demo_ensemble.noise_stack[:3], demo_ensemble.weights[:3])
        reference = isotropic_ball(3, 2.0, 0.3).reference
        reads = {
            "mmse_matrix": lambda s: mmse_matrix(s, ens),
            "weighted_mmse_sum": lambda s: weighted_mmse_sum(s, ens).weighted_sum,
            "lmmse_upper": lambda s: lmmse_upper(s, ens),
            "opt_covariance_residual": lambda s: opt_covariance_residual(0.5, s, ens, reference),
            "linear_estimator_mse": lambda s: linear_estimator_mse(gains, s, ens),
        }
        for _ in range(200):
            sym = random_spd(rng, 3, 2.0)
            skew = np.triu(rng.normal(size=(3, 3)), 1)
            skew -= skew.T
            sx = sym + 1e-14 * np.linalg.norm(sym) / np.linalg.norm(skew) * skew
            sym = 0.5 * sx + 0.5 * sx.T
            gains = rng.normal(size=(3, 3, 3))
            for name, read in reads.items():
                assert np.array_equal(read(sx), read(sym)), name


class TestReferenceCheck:
    """`opt_covariance_residual` reads the reference's covariance through the
    closed forms' one entry, named `sigma_0` as `kl_same_mean_gaussians`
    names it. Read unchecked, these gave 2.1249999999999996,
    3.979439344932901, nan and 1.0, and the last numpy's bare ValueError."""

    @pytest.mark.parametrize("sigma_0, error, message", [
        (-np.eye(2), NotPositiveDefinite, "sigma_0 is not positive definite"),
        ([[1.0, 5.0], [0.0, 1.0]], NonSymmetric, "sigma_0 is not symmetric within tolerance"),
        (np.full((2, 2), np.nan), NotPositiveDefinite, "sigma_0 has non-finite entries"),
        (np.zeros((2, 2)), NotPositiveDefinite, "sigma_0 is not positive definite"),
        (np.eye(3), DimensionMismatch, "sigma_0 is 3x3, expected 2x2"),
    ], ids=["negative", "asymmetric", "nan", "zero", "wrong-shape"])
    def test_residual_rejects_a_bad_reference(self, sigma_0, error, message):
        reference = Gaussian(np.zeros(len(sigma_0)), np.asarray(sigma_0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{message}$"):
                opt_covariance_residual(0.5, np.eye(2), one_channel(np.eye(2)), reference)


class TestOneReader:
    """Every covariance enters through `_read`, so a bad matrix gets the same
    exception class at every entry, each naming what it read."""

    BAD = {
        "non-square": (np.ones((2, 3)), DimensionMismatch),
        "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), NotPositiveDefinite),
        "asymmetric": (np.array([[1.0, 5.0], [0.0, 1.0]]), NonSymmetric),
        "negative": (-np.eye(2), NotPositiveDefinite),
        "zero": (np.zeros((2, 2)), NotPositiveDefinite),
    }
    ENTRIES = {
        "channel 0 noise covariance": lambda m: ChannelEnsemble.from_arrays([m], [1.0]),
        "reference covariance": lambda m: DivergenceBall(Gaussian(np.zeros(2), m), 0.3),
        "Gaussian prior covariance": lambda m: PriorSpec(Gaussian(np.zeros(2), m), 2),
        "sigma_x": lambda m: weighted_mmse_sum(m, one_channel(np.eye(2))),
        "sigma_0": lambda m: kl_same_mean_gaussians(np.eye(2), m),
    }

    @pytest.mark.parametrize("bad", list(BAD))
    @pytest.mark.parametrize("name", list(ENTRIES))
    def test_same_error_at_every_entry(self, name, bad):
        matrix, error = self.BAD[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{name} "):
                self.ENTRIES[name](matrix)


def test_checked_covariances_near_the_double_maximum():
    # Sigma_X and every Sigma_N_j were checked where they entered, so their
    # sums are solved as they are, formed from halves: 1e308 + 1e308 would
    # overflow, warn and then fail a definiteness check. The values are
    # those at unit scale times 1e308 to rounding, not bit for bit: the
    # solve scales by a pivot's reciprocal, about 1e-308 and so subnormal,
    # which costs W_j = 0.5 I its last bit
    big = 1e308 * np.eye(2)
    ens = ChannelEnsemble.from_arrays([big, big], [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weighted_mmse_sum(big, ens).weighted_sum == pytest.approx(1e308, rel=1e-15)
        assert lmmse_upper(big, ens) == pytest.approx(1e308, rel=1e-15)
        np.testing.assert_allclose(mmse_matrix(big, ens), [0.5 * big] * 2, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(weight_matrix(big, ens), [0.5 * np.eye(2)] * 2, rtol=1e-15,
                                   atol=0.0)


class TestWeightedSum:
    def test_matches_manual_sum(self, demo_ensemble):
        sx = 3.0 * np.eye(3)
        summary = weighted_mmse_sum(sx, demo_ensemble)
        manual = sum(w * np.trace(mmse_matrix(sx, one_channel(sn))[0]) for w, sn in
                     zip(demo_ensemble.weights, demo_ensemble.noise_stack))
        assert summary.weighted_sum == pytest.approx(manual, rel=1e-14)
        stacked = mmse_matrix(sx, demo_ensemble)
        loop = [mmse_matrix(sx, one_channel(sn))[0] for sn in demo_ensemble.noise_stack]
        np.testing.assert_array_equal(stacked, loop)
        np.testing.assert_array_equal(np.trace(stacked, axis1=1, axis2=2),
                                      [np.trace(m) for m in loop])

    def test_summary_is_the_sum_alone(self, demo_ensemble):
        assert [f.name for f in dataclasses.fields(MmseSummary)] == ["weighted_sum"]
        assert type(weighted_mmse_sum(np.eye(3), demo_ensemble).weighted_sum) is float

    def test_dimension_guard(self, demo_ensemble):
        with pytest.raises(DimensionMismatch):
            weighted_mmse_sum(np.eye(2), demo_ensemble)


class TestStackedKernel:
    """mmse_matrix on an ensemble, which weighted_mmse_sum reads, solves
    for all channels at once; the loop over one-channel ensembles is the
    reference."""

    # (smallest eigenvalue, condition number) as powers of ten: the corners
    # of the corpus ranges, then random draws inside them
    CORNERS = [(-1.0, 4.0), (2.0, 4.0), (-1.0, 0.0), (2.0, 0.0)]

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("j", [1, 5])
    def test_matches_per_channel_loop(self, k, j):
        rng = np.random.default_rng(TEST_SEED + 10 * k + j)
        draws = [(a, b, c, d) for a, b in self.CORNERS for c, d in self.CORNERS]
        draws += [tuple(rng.uniform([-1, 0, -1, 0], [2, 4, 2, 4])) for _ in range(8)]
        for sx_scale, sx_cond, n_scale, n_cond in draws:
            sx = corpus_spd(rng, k, sx_scale, sx_cond)
            sigma0 = corpus_spd(rng, k, *rng.uniform([-1, 0], [2, 4]))
            noise = [corpus_spd(rng, k, n_scale, n_cond) for _ in range(j)]
            weights = 10.0 ** rng.uniform(-1, 1, j)
            ens = ChannelEnsemble.from_arrays(noise, weights)
            ref = Gaussian(np.zeros(k), sigma0)
            got = weighted_mmse_sum(sx, ens)
            stacked = mmse_matrix(sx, ens)
            loop = [mmse_matrix(sx, one_channel(sn))[0] for sn in noise]
            traces = [np.trace(m) for m in loop]
            # the ensemble makes the same per-channel calls as the loop
            np.testing.assert_array_equal(stacked, loop)
            np.testing.assert_array_equal(weight_matrix(sx, ens),
                                          [weight_matrix(sx, one_channel(sn))[0] for sn in noise])
            for m, expect, tr, tr_expect in zip(stacked, loop,
                                                np.trace(stacked, axis1=1, axis2=2), traces):
                assert rel_error(m, expect) <= 1e-12
                np.testing.assert_array_equal(m, m.T)
                assert tr == pytest.approx(tr_expect, rel=1e-12)
            assert got.weighted_sum == pytest.approx(np.dot(weights, traces), rel=1e-12)
            # a validated Problem carries the same stack
            prob = validate_problem(ens, DivergenceBall(ref, 0.1))
            assert weighted_mmse_sum(sx, prob).weighted_sum == got.weighted_sum

    @pytest.mark.parametrize("bad", [1, 4])
    def test_singular_sum_raised_for_any_channel(self, bad):
        # an indefinite Sigma_X is rejected by name, whatever the channels:
        # also where Sigma_X + Sigma_N_j is indefinite for channel `bad` only,
        # since the sums of checked covariances are not checked again
        sx = np.diag([-2.0, 1.0, 1.0])
        ens = ChannelEnsemble.from_arrays([10.0 * np.eye(3)] * 5, np.ones(5))
        one_bad = ChannelEnsemble.from_arrays(
            [np.diag([1.0, 10.0, 10.0]) if j == bad else 10.0 * np.eye(3) for j in range(5)],
            np.ones(5))
        for call in (lambda: weighted_mmse_sum(sx, ens),
                     lambda: mmse_matrix(sx, one_channel(10.0 * np.eye(3))),
                     lambda: mmse_matrix(sx, one_bad)):
            with pytest.raises(NotPositiveDefinite, match="^sigma_x is not positive definite$"):
                call()


class TestAffineEstimator:
    def test_optimal_gain_attains_mmse(self):
        rng = np.random.default_rng(TEST_SEED + 1)
        sx, sn = random_spd(rng, 3, 1.3), random_spd(rng, 3, 0.4)
        w = weight_matrix(sx, one_channel(sn))
        mse = linear_estimator_mse(w, sx, one_channel(sn))
        assert mse == pytest.approx(np.trace(mmse_matrix(sx, one_channel(sn))[0]), rel=1e-12)

    def test_perturbed_gain_is_worse(self):
        rng = np.random.default_rng(TEST_SEED + 2)
        sx, sn = random_spd(rng, 3, 1.3), random_spd(rng, 3, 0.4)
        w = weight_matrix(sx, one_channel(sn))
        base = linear_estimator_mse(w, sx, one_channel(sn))
        for _ in range(5):
            mse = linear_estimator_mse(w + 0.05 * rng.normal(size=(3, 3)), sx, one_channel(sn))
            assert mse > base

    def test_scalar_mse_formula(self):
        # w, sigma^2 = 2, sigma_n^2 = 3: w^2*2 + (1-w)^2*3
        for w in (0.0, 0.25, 0.6, 1.0):
            expect = w * w * 2.0 + (1.0 - w) ** 2 * 3.0
            got = linear_estimator_mse([[[w]]], [[2.0]], one_channel([[3.0]]))
            assert got == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("w, prior_cov, sigma_n, error, message", [
        (1.0, -np.eye(2), np.eye(2), NotPositiveDefinite, "prior_cov is not positive definite"),
        (1.0, np.zeros((2, 2)), np.eye(2), NotPositiveDefinite,
         "prior_cov is not positive definite"),
    ], ids=["negative-prior", "zero-prior"])
    def test_mse_checks_its_covariances(self, w, prior_cov, sigma_n, error, message):
        # each was read unchecked: the first gave a negative MSE, -2.0, the
        # second 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{message}$"):
                linear_estimator_mse(w * np.eye(2)[None], prior_cov, one_channel(sigma_n))

    def test_mse_reads_its_covariances_symmetrized(self):
        # a covariance asymmetric within SYMMETRY_RTOL gives the MSE of its
        # symmetrization, bit for bit; read as given, about a quarter did not
        rng = np.random.default_rng(TEST_SEED + 3)
        for _ in range(20):
            sx, sn = random_spd(rng, 3, 1.3), random_spd(rng, 3, 0.4)
            w = rng.normal(size=(1, 3, 3))
            sx[0, 1] *= 1.0 + 1e-13
            sn[1, 2] *= 1.0 + 1e-13
            assert linear_estimator_mse(w, sx, one_channel(sn)) == linear_estimator_mse(
                w, 0.5 * sx + 0.5 * sx.T, one_channel(0.5 * sn + 0.5 * sn.T))

    def test_mse_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            linear_estimator_mse(np.eye(3)[None], np.eye(2), one_channel(np.eye(2)))
        with pytest.raises(DimensionMismatch, match="^gains have shape"):
            linear_estimator_mse(np.stack([np.eye(2)] * 2), np.eye(2), one_channel(np.eye(2)))
