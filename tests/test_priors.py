"""Prior families: frozen moment/Fisher/KL oracles and samplers.

Frozen constants were cross-checked against direct numerical quadrature of
the radial integrals (E r^m, normalization, and the KL integrand itself)
and against `mc_kl`; quadrature agreement was at or below 1e-11 absolute
for every value pinned here.
"""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from mmse_bounds import (
    ChannelEnsemble,
    DimensionMismatch,
    FisherUndefined,
    Gaussian,
    GaussianReference,
    GeneralizedGaussian,
    NotPositiveDefinite,
    PriorSpec,
    UniformBall,
    gaussian_log_density,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    gen_gauss_fisher,
    log_density,
    mc_kl,
    mc_weighted_sum,
    prior_moments,
    uniform_ball_epsilon,
    uniform_ball_moments,
)
from mmse_bounds.priors import _gen_gauss_log_normaliser, _quadratic_log_density, _sample_with

# Frozen: (p, K) -> (sigma^2, fisher, epsilon)
GEN_GAUSS_TABLE = {
    (0.51, 3): (56.55016038553131, 0.21194275392950146, 0.5956003879952156),
    (1.0, 1): (2.0, 1.0, 0.07236494292469997),
    (1.0, 3): (4.0, 1.0, 0.11208571376461762),
    (3.0, 3): (0.6259286267344963, 5.151597267416276, 0.023012958869710776),
    (10.0, 3): (0.3130074389964223, 22.07162641691961, 0.19951043997846907),
}

# Frozen: K -> epsilon of the uniform ball (any radius)
BALL_EPS = {
    1: 0.17648520831067244,
    2: 0.3068528194400546,
    3: 0.4102467726616865,
}


class TestGeneralizedGaussian:
    @pytest.mark.parametrize("pk, expect", sorted(GEN_GAUSS_TABLE.items()))
    def test_frozen_values(self, pk, expect):
        p, k = pk
        s2, fisher, eps = expect
        assert gen_gauss_covariance(p, k) == pytest.approx(s2, rel=1e-12)
        assert gen_gauss_fisher(p, k) == pytest.approx(fisher, rel=1e-12)
        assert gen_gauss_epsilon(p, k) == pytest.approx(eps, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_p2_is_the_standard_gaussian(self, k):
        assert gen_gauss_covariance(2.0, k) == pytest.approx(1.0, rel=1e-13)
        assert gen_gauss_fisher(2.0, k) == pytest.approx(float(k), rel=1e-13)
        eps = gen_gauss_epsilon(2.0, k)
        assert eps == 0.0
        assert type(eps) is float

    def test_epsilon_positive_away_from_p2(self):
        for p in (0.6, 1.0, 1.5, 3.0, 6.0):
            assert gen_gauss_epsilon(p, 3) > 0.0

    def test_fisher_undefined_at_small_p_k1(self):
        # (K + 2p - 2)/p <= 0 only for K = 1, p <= 1/2
        for p in (0.5, 0.4):
            with pytest.raises(FisherUndefined):
                gen_gauss_fisher(p, 1)
        assert gen_gauss_fisher(0.4, 2) > 0.0
        assert gen_gauss_fisher(0.51, 1) > 0.0

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            gen_gauss_covariance(0.0, 3)
        with pytest.raises(ValueError):
            gen_gauss_epsilon(1.0, 0)
        # the variance overflows double precision below p of about 0.0039 at K = 3
        for f in (gen_gauss_covariance, gen_gauss_epsilon):
            with pytest.raises(ValueError, match="exponent p=0.003, K=3 overflows"):
                f(0.003, 3)

    def test_moments_glue(self):
        mom = prior_moments(PriorSpec(GeneralizedGaussian(3.0), 3))
        np.testing.assert_array_equal(mom.mean, np.zeros(3))
        np.testing.assert_allclose(
            mom.covariance, gen_gauss_covariance(3.0, 3) * np.eye(3), rtol=1e-15)

    def test_density_normalized(self):
        # radial quadrature of the package's own log density
        for p, k in ((0.7, 2), (3.0, 1)):
            sphere = 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)

            def radial(r):
                x = np.zeros(k)
                x[0] = r
                return sphere * r ** (k - 1) * math.exp(float(log_density(
                    PriorSpec(GeneralizedGaussian(p), k), x)[0]))

            total = quad(radial, 0, np.inf, limit=300)[0]
            assert total == pytest.approx(1.0, abs=1e-8)


class TestUniformBall:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_frozen_epsilon_and_scale_invariance(self, k):
        assert uniform_ball_epsilon(1.0, k) == pytest.approx(BALL_EPS[k], abs=1e-14)
        assert uniform_ball_epsilon(7.3, k) == pytest.approx(BALL_EPS[k], abs=1e-13)
        assert uniform_ball_epsilon(0.02, k) == pytest.approx(BALL_EPS[k], abs=1e-13)

    def test_moments(self):
        mom = uniform_ball_moments(2.0, 3)
        np.testing.assert_array_equal(mom.mean, np.zeros(3))
        np.testing.assert_allclose(mom.covariance, (4.0 / 5.0) * np.eye(3), rtol=1e-15)

    def test_density_support(self):
        spec = PriorSpec(UniformBall(2.0), 2)
        vals = log_density(spec, [[0.0, 0.0], [1.9, 0.0], [2.1, 0.0]])
        assert vals[0] == vals[1] == pytest.approx(-math.log(4 * math.pi), rel=1e-13)
        assert vals[2] == -np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("radius", [1e200, np.float64(1e200), 1e154, 1e-160, 1e-200])
    def test_radius_outside_double_range(self, radius):
        for fn in (uniform_ball_moments, uniform_ball_epsilon):
            with pytest.raises(ValueError, match=re.escape(f"radius R={radius}, K=3")):
                fn(radius, 3)

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            uniform_ball_epsilon(-1.0, 3)
        with pytest.raises(ValueError):
            UniformBall(0.0)


class TestGaussianFamily:
    def test_moments_passthrough(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        mom = prior_moments(PriorSpec(Gaussian(np.array([1.0, -1.0]), cov), 2))
        np.testing.assert_array_equal(mom.mean, [1.0, -1.0])
        np.testing.assert_array_equal(mom.covariance, cov)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            prior_moments(PriorSpec(Gaussian(np.zeros(3), np.eye(2)), 2))

    @pytest.mark.parametrize("mean, cov, error", [
        ([5.0], np.eye(2), DimensionMismatch),  # not broadcast to (5, 5)
        (np.zeros(3), np.eye(3), DimensionMismatch),  # a K = 3 Gaussian in K = 2
        (np.zeros(2), 1.0, DimensionMismatch),  # a scalar, not a K x K matrix
        (np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefinite),
    ], ids=["short-mean", "wrong-dimension", "scalar-covariance", "indefinite"])
    @pytest.mark.parametrize("entry", [
        lambda g: prior_moments(PriorSpec(g, 2)),
        lambda g: log_density(PriorSpec(g, 2), [[5.0, 5.0]]),
        lambda g: _draw(PriorSpec(g, 2), 10, 0),
        lambda g: mc_weighted_sum(PriorSpec(g, 2), ChannelEnsemble.from_arrays([np.eye(2)], [1.0]),
                                  100, 100, 0),
        lambda g: mc_kl(PriorSpec(g, 2), Gaussian(np.zeros(2), np.eye(2)), 100, 0),
        lambda g: mc_kl(PriorSpec(GeneralizedGaussian(1.0), 2), g, 100, 0),
    ], ids=["prior_moments", "log_density", "_sample_with", "mc_weighted_sum",
            "mc_kl-prior", "mc_kl-reference"])
    def test_every_entry_checks_the_gaussian(self, entry, mean, cov, error):
        # the check a reference passes in validate_problem, with its error types
        with pytest.raises(error):
            entry(Gaussian(np.asarray(mean), cov))

    def test_families_compare_by_value(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = PriorSpec(Gaussian(np.array([1.0, -1.0]), cov), 2)
        assert spec == PriorSpec(Gaussian(np.array([1.0, -1.0]), cov.copy()), 2)
        assert spec != PriorSpec(Gaussian(np.array([1.0, 0.0]), cov), 2)
        assert Gaussian(np.zeros(2), cov) == Gaussian(np.zeros(2), cov.copy())
        assert Gaussian(np.zeros(2), cov) != Gaussian(np.zeros(2), 2.0 * cov)

    def test_log_density_matches_helper(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        mean = np.array([1.0, -1.0])
        x = np.array([[0.3, 0.4], [2.0, -3.0]])
        spec = PriorSpec(Gaussian(mean, cov), 2)
        np.testing.assert_allclose(log_density(spec, x),
                                   multivariate_normal(mean, cov).logpdf(x), rtol=1e-13)
        cov = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 0.7]])
        mean = np.array([1.0, -1.0, 0.5])
        x = mean + 2.0 * np.random.default_rng(13).normal(size=(60, 3))
        np.testing.assert_allclose(log_density(PriorSpec(Gaussian(mean, cov), 3), x),
                                   multivariate_normal(mean, cov).logpdf(x), rtol=1e-13,
                                   atol=0.0)

    def test_gaussian_log_density_matches_scipy(self):
        cov = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 0.7]])
        mean = np.array([1.0, -1.0, 0.5])
        x = mean + 2.0 * np.random.default_rng(5).normal(size=(50, 3))
        ref = multivariate_normal(mean, cov).logpdf(x)
        np.testing.assert_allclose(gaussian_log_density(mean, cov, x), ref, rtol=1e-12)
        single = gaussian_log_density(mean, cov, x[7])
        assert single.shape == (1,)
        assert single[0] == pytest.approx(ref[7], rel=1e-12)

    def test_gaussian_log_density_scalar_oracle(self):
        # N(0, 4): log f(2) = -0.5 log(8 pi) - 0.5
        got = gaussian_log_density(np.zeros(1), 4.0 * np.eye(1), [[2.0]])
        assert got[0] == pytest.approx(-0.5 * math.log(8 * math.pi) - 0.5, rel=1e-13)


class TestLogDensityForms:
    # Every family's log density is read from one quadratic form in x;
    # these compare it with the direct formula of each family.

    @pytest.mark.parametrize("p, k", [(0.51, 3), (1.0, 1), (1.0, 3), (3.0, 2), (10.0, 3)])
    def test_gen_gauss_matches_radial_formula(self, p, k):
        x = np.vstack([np.zeros(k), 1.7 * np.random.default_rng(11).normal(size=(40, k))])
        log_cp = ((1.0 - k / p) * math.log(p) + math.lgamma(k / 2.0) - math.log(2.0)
                  - 0.5 * k * math.log(math.pi) - math.lgamma(k / p))
        r = np.sqrt(np.sum(x**2, axis=1))
        np.testing.assert_allclose(log_density(PriorSpec(GeneralizedGaussian(p), k), x),
                                   log_cp - r**p / p, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [0.51, 1.0, 3.0, 4.0, 10.0])
    def test_in_place_h_keeps_the_plain_expression(self, p):
        # g writes over its forms; numpy's in-place ** takes the sqrt
        # (p = 1) and square (p = 4) paths of the plain **, so the Monte
        # Carlo log weights are bitwise those of the expression, and the
        # log density adds the normaliser back
        q = 4.0 * np.random.default_rng(14).random(500)
        spec = PriorSpec(GeneralizedGaussian(p), 3)
        _, _, g, log_norm, q_max = _quadratic_log_density(spec)
        expected = q ** (0.5 * p) * (1.0 / p)
        np.testing.assert_array_equal(g(q.copy()), expected)
        assert log_norm == _gen_gauss_log_normaliser(p, 3) and q_max == math.inf
        x = np.sqrt(q)[:, None] * np.eye(3)[[0]]
        np.testing.assert_array_equal(log_density(spec, x), log_norm - (x[:, 0] ** 2) ** (0.5 * p) * (1.0 / p))

    def test_ball_matches_norm_test(self):
        k, radius = 3, 2.0
        x = 1.3 * np.random.default_rng(12).normal(size=(200, k))
        log_vk = 0.5 * k * math.log(math.pi) + k * math.log(radius) - math.lgamma(0.5 * k + 1.0)
        inside = np.linalg.norm(x, axis=1) <= radius
        assert 0 < np.count_nonzero(inside) < len(x)
        np.testing.assert_allclose(log_density(PriorSpec(UniformBall(radius), k), x),
                                   np.where(inside, -log_vk, -np.inf), rtol=1e-13, atol=0.0)

    def test_ball_boundary_is_inside(self):
        # ||x|| = R exactly (3-4-5 and an axis point): on the closed ball
        vals = log_density(PriorSpec(UniformBall(5.0), 2), [[3.0, 4.0], [0.0, -5.0]])
        assert np.all(vals == -math.log(25.0 * math.pi))

    @pytest.mark.parametrize("seed, expect", [
        (3, {"gen-gauss:1": (0.15505263939398173, 0.00865069447675094),
             "gen-gauss:0.7": (0.3030458615905106, 0.013174148914159547),
             "ball": (0.4835013039865138, 0.007572371338202081),
             "gaussian": (0.05687037483545932, 0.004403454782905812)}),
        (7, {"gen-gauss:1": (0.15386796662674523, 0.008596562863965082),
             "gen-gauss:0.7": (0.28242307642979925, 0.012196728462703465),
             "ball": (0.4649956642677039, 0.0074493400474575835),
             "gaussian": (0.05678161085367673, 0.004375490175742025)}),
    ])
    def test_mc_kl_pinned(self, seed, expect):
        # values recorded when log_density still took square roots and
        # called gaussian_log_density itself
        cov = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 0.7]])
        specs = {"gen-gauss:1": PriorSpec(GeneralizedGaussian(1.0), 3),
                 "gen-gauss:0.7": PriorSpec(GeneralizedGaussian(0.7), 2),
                 "ball": PriorSpec(UniformBall(2.0), 3),
                 "gaussian": PriorSpec(Gaussian(np.array([1.0, -1.0, 0.5]), cov), 3)}
        for name, spec in specs.items():
            mom = prior_moments(spec)
            ref = GaussianReference(mom.mean + 0.1, 1.3 * mom.covariance)
            est = mc_kl(spec, ref, 5000, seed)
            np.testing.assert_allclose((est.value, est.std_error), expect[name],
                                       rtol=1e-13, atol=0.0, err_msg=name)


def _draw(spec, n, seed):
    """The kernel's sampler on the Philox stream of an integer seed."""
    return _sample_with(spec, n, np.random.Generator(np.random.Philox(seed)))


class TestSamplers:
    def test_deterministic_for_seed(self):
        spec = PriorSpec(GeneralizedGaussian(1.0), 3)
        a = _draw(spec, 50, 123)
        b = _draw(spec, 50, 123)
        c = _draw(spec, 50, 124)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("p", [0.51, 1.0, 3.0])
    def test_gen_gauss_moments(self, p):
        k = 3
        x = _draw(PriorSpec(GeneralizedGaussian(p), k), 200000, 11)
        s2 = gen_gauss_covariance(p, k)
        # per-coordinate second moment within 2 percent at n = 2e5
        np.testing.assert_allclose((x * x).mean(axis=0), s2, rtol=0.02)
        # E ||x||^p = K exactly for this family
        rp = np.linalg.norm(x, axis=1) ** p
        se = rp.std() / math.sqrt(len(rp))
        assert abs(rp.mean() - k) < 4 * se

    def test_ball_support_and_moments(self):
        r = 2.0
        x = _draw(PriorSpec(UniformBall(r), 3), 200000, 11)
        assert np.linalg.norm(x, axis=1).max() <= r + 1e-12
        np.testing.assert_allclose((x * x).mean(axis=0), r**2 / 5.0, rtol=0.02)
        assert abs(x.mean()) < 0.01

    def test_gaussian_family_sampling(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        mean = np.array([3.0, -1.0])
        x = _draw(PriorSpec(Gaussian(mean, cov), 2), 200000, 5)
        np.testing.assert_allclose(x.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(np.cov(x.T, bias=True), cov, atol=0.03)


class TestSpecValidation:
    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            GeneralizedGaussian(-1.0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            PriorSpec(GeneralizedGaussian(1.0), 0)

    @pytest.mark.parametrize("family, value", [(GeneralizedGaussian, math.inf),
                                               (GeneralizedGaussian, math.nan),
                                               (UniformBall, math.inf),
                                               (UniformBall, math.nan)])
    def test_parameter_must_be_finite(self, family, value):
        with pytest.raises(ValueError, match="finite positive"):
            family(value)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("closed_form, name", [(gen_gauss_covariance, "exponent p"),
                                                   (gen_gauss_epsilon, "exponent p"),
                                                   (gen_gauss_fisher, "exponent p"),
                                                   (uniform_ball_epsilon, "radius"),
                                                   (uniform_ball_moments, "radius")])
    def test_closed_forms_need_finite_parameter(self, closed_form, name, value, recwarn):
        # the closed forms give the family constructors' verdict, and no
        # NaN, math domain error or RuntimeWarning on the way
        with pytest.raises(ValueError, match=f"^{name} must be a finite positive number, "
                                             f"got {value}$"):
            closed_form(value, 3)
        assert not recwarn.list
