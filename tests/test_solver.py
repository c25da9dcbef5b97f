"""Bound solver: analytic oracles, postconditions, frozen regression cases.

Analytic oracles used here:

* K = 1 (any J): the feasible covariances form an interval in the ratio
  s = sigma_x^2/sigma_0^2 and every channel MMSE is strictly increasing in
  s, so each bound sits at the endpoint where s - log s - 1 = 2 epsilon;
  the smaller root gives the lower bound, the larger the upper.
* Isotropic K >= 2 (Sigma_0 = a I, all Sigma_N_j = b_j I): the upper
  bound's extremal covariance stays isotropic, reducing to the same scalar
  equation with 2 epsilon / K on the right-hand side. The lower bound's
  need not: past some radius shrinking a few eigenvalues further costs
  less than shrinking all alike, and the isotropic point is a saddle.
  `oracles.isotropic_bounds` takes the least two-level split instead; at
  the small radius of `test_isotropic_k3` that is the isotropic point.

Both are independent of the solver's own continuation machinery.
"""

import dataclasses

import numpy as np
import pytest

from mmse_bounds import (
    BoundResult,
    ChannelEnsemble,
    DimensionMismatch,
    DivergenceBall,
    Gaussian,
    GeneralizedGaussian,
    NoConvergence,
    PriorSpec,
    SingularSum,
    cramer_rao_lower,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    kl_same_mean_gaussians,
    lmmse_upper,
    local_bound,
    local_bounds_weighted,
    mc_weighted_sum,
    opt_covariance_residual,
    solve_bound,
    uniform_ball_epsilon,
    uniform_ball_moments,
    validate_problem,
)
from mmse_bounds import separable, solver
from conftest import TEST_SEED, corpus_spd, isotropic_ball, random_spd
from oracles import isotropic_bounds, multistart_lower, reduced_lower, scalar_ratio

# Frozen regression values for the bundled four-channel ensemble with
# reference N(0, 56.55016038553131 I_3) and epsilon = 0.5956003879952156.
# The lower bound at this radius lies past a fold of the solution curve.
# Both values were confirmed by a derivative-free penalized search over
# Cholesky factors of the feasible set (agreement to 7 significant digits).
HARD_EPS = 0.5956003879952156
HARD_VAR = 56.55016038553131
HARD_LOWER = 14.7818631962
HARD_UPPER = 20.1322578679


class TestScalarOracle:
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5])
    def test_one_channel(self, direction, epsilon):
        s0, sn, lam = 2.0, 0.5, 1.7
        ens = ChannelEnsemble.from_arrays([[[sn]]], [lam])
        res = solve_bound(direction, ens, isotropic_ball(1, s0, epsilon))
        s = scalar_ratio(epsilon, direction)
        expect = lam * (s * s0 * sn) / (s * s0 + sn)
        assert res.bound_value == pytest.approx(expect, rel=1e-9)
        assert res.sigma_x[0, 0] == pytest.approx(s * s0, rel=1e-8)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_tiny_epsilon(self, direction):
        epsilon = 1e-6
        s0, sn, lam = 2.0, 0.5, 1.7
        ens = ChannelEnsemble.from_arrays([[[sn]]], [lam])
        res = solve_bound(direction, ens, isotropic_ball(1, s0, epsilon))
        s = scalar_ratio(epsilon, direction)
        expect = lam * (s * s0 * sn) / (s * s0 + sn)
        assert res.bound_value == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_four_channels(self, direction):
        # all channel MMSEs increase in s, so the same scalar root applies
        epsilon = 0.25
        s0 = 1.4
        sns = [0.3, 1.0, 2.5, 7.0]
        lams = [1.0, 0.2, 2.0, 0.5]
        ens = ChannelEnsemble.from_arrays([[[v]] for v in sns], lams)
        res = solve_bound(direction, ens, isotropic_ball(1, s0, epsilon))
        s = scalar_ratio(epsilon, direction)
        expect = sum(l * (s * s0 * v) / (s * s0 + v) for l, v in zip(lams, sns))
        assert res.bound_value == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_isotropic_k3(self, direction):
        a, b, lam, epsilon = 2.0, 0.7, 1.3, 0.3
        ens = ChannelEnsemble.from_arrays([b * np.eye(3)], [lam])
        res = solve_bound(direction, ens, isotropic_ball(3, a, epsilon))
        s = scalar_ratio(epsilon / 3.0, direction)  # s - log s - 1 = 2 eps / K
        expect = lam * 3.0 * (s * a * b) / (s * a + b)
        assert res.bound_value == pytest.approx(expect, rel=1e-9)
        np.testing.assert_allclose(res.sigma_x, s * a * np.eye(3), rtol=1e-7,
                                   atol=1e-12)


class TestIntervalEnd:
    """A K = 1 bound is an end of the interval the ball is, solved without
    continuation: the closed form to rounding, with the certificate passed."""

    @pytest.mark.parametrize("epsilon", [1e-4, 0.3, 5.0, 50.0])
    @pytest.mark.parametrize("j", range(1, 6))
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_closed_form(self, direction, j, epsilon):
        rng = np.random.default_rng([TEST_SEED, j])
        s0 = 10.0 ** rng.uniform(-2.0, 2.0)
        sns, lams = 10.0 ** rng.uniform(-2.0, 2.0, j), rng.uniform(0.2, 2.0, j)
        ball = isotropic_ball(1, s0, epsilon)
        res = solve_bound(direction, ChannelEnsemble.from_arrays([[[v]] for v in sns], lams),
                          ball)
        x = scalar_ratio(epsilon, direction) * s0
        assert res.bound_value == pytest.approx(np.sum(lams * x * sns / (x + sns)), rel=1e-13)
        assert res.outer_iterations == 0 and res.inner_iterations > 0
        assert (1.0 if direction == "upper" else -1.0) * res.alpha > 0.0
        assert res.residuals[0] <= 1e-11 and res.residuals[1] <= 1e-10
        kl = kl_same_mean_gaussians(res.sigma_x, ball.reference.covariance)
        assert abs(kl - epsilon) <= 1e-10

    @pytest.mark.parametrize("epsilon", [187.0, 200.0, 300.0])
    @pytest.mark.parametrize("j", [1, 3])
    def test_tiny_lower_end_is_certified(self, j, epsilon):
        # the end lies below 1e-162, where the squares in the residual's
        # norms would underflow unless Sigma's scale is divided out first
        sns, lams = np.array([0.5, 2.0, 7.0][:j]), np.array([1.0, 0.3, 2.0][:j])
        ens = ChannelEnsemble.from_arrays([[[v]] for v in sns], lams)
        res = solve_bound("lower", ens, isotropic_ball(1, 1.7, epsilon))
        x = scalar_ratio(epsilon, "lower") * 1.7
        assert res.sigma_x[0, 0] == pytest.approx(x, rel=1e-13)
        assert res.bound_value == pytest.approx(np.sum(lams * x * sns / (x + sns)), rel=1e-13)
        assert res.residuals[0] <= 1e-11 and res.residuals[1] <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [1, 3])
    def test_underflow_falls_through(self, j):
        # the lower end r = exp(-2001) underflows to 0: no candidate, and
        # continuation finds none either; one message, no numpy warning
        ens = ChannelEnsemble.from_arrays([[[v]] for v in (0.5, 2.0, 7.0)[:j]],
                                          [1.0, 0.3, 2.0][:j])
        with pytest.raises(NoConvergence) as info:
            solve_bound("lower", ens, isotropic_ball(1, 2.0, 1000.0))
        assert str(info.value).startswith("lower bound at epsilon=1000.0: ")
        assert str(info.value).count("bound at epsilon") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction, s0, noise, epsilon", [
        ("lower", 2.0, (0.5,), 1000.0),  # the end underflows to 0
        ("lower", 2.0, (0.5, 2.0, 7.0), 1000.0),
        ("lower", 1.7, (0.5, 2.0), 356.0),  # a subnormal end: 1 / x overflows
        ("upper", 1e300, (1.0,), 800.0),  # S at the end underflows to 0
        ("upper", 1.0, (1e-200,), 1e-9),  # alpha about 1e395
    ])
    def test_end_past_the_double_range_fails_at_once(self, direction, s0, noise, epsilon):
        # the end is the only answer, so no continuation runs after it
        ens = ChannelEnsemble.from_arrays([[[v]] for v in noise], [1.0, 0.3, 2.0][:len(noise)])
        with pytest.raises(NoConvergence) as info:
            solve_bound(direction, ens, isotropic_ball(1, s0, epsilon))
        assert str(info.value).startswith(f"{direction} bound at epsilon={epsilon!r}: the end "
                                          "of the interval leaves the double range (Sigma = ")
        assert info.value.iterations == 0


class TestPointBall:
    def test_zero_epsilon_collapses_to_reference(self, demo_ensemble):
        ball = isotropic_ball(3, 5.0, 0.0)
        for direction in ("lower", "upper"):
            res = solve_bound(direction, demo_ensemble, ball)
            assert res.alpha == 0.0
            assert res.kl_at_solution == 0.0
            assert res.bound_value == pytest.approx(
                lmmse_upper(5.0 * np.eye(3), demo_ensemble), rel=1e-14)
            np.testing.assert_array_equal(res.sigma_x, 5.0 * np.eye(3))


class TestPostconditions:
    @pytest.mark.parametrize("direction, sign", [("upper", 1.0), ("lower", -1.0)])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, HARD_EPS])
    def test_solution_certificates(self, demo_ensemble, direction, sign, epsilon):
        ball = isotropic_ball(3, HARD_VAR, epsilon)
        res = solve_bound(direction, demo_ensemble, ball)
        assert isinstance(res, BoundResult)
        # KL constraint active to the certificate's 1e-10
        assert abs(res.kl_at_solution - epsilon) <= 1e-10
        assert res.residuals[1] <= 1e-10
        # fixed-point residual within the certificate's 1e-11
        assert res.residuals[0] <= 1e-11
        # multiplier on the correct side
        assert sign * res.alpha > 0
        # independent optimality check via the additive form
        add = opt_covariance_residual(res.alpha, res.sigma_x, demo_ensemble,
                                      ball.reference)
        assert add <= 1e-8
        # reported KL recomputes from sigma_x
        assert kl_same_mean_gaussians(res.sigma_x, ball.reference.covariance) \
            == pytest.approx(res.kl_at_solution, abs=1e-12)

    def test_residual_off_the_domain_is_inf(self, demo_ensemble):
        # Sigma_0^-1 - alpha S(Sigma) is not positive definite: no G(Sigma),
        # so the certificate's residual cannot pass
        ctx = solver._Ctx(validate_problem(demo_ensemble, isotropic_ball(3, HARD_VAR, 0.2)))
        assert solver._residual(ctx, np.eye(3), 1e6, solver._s(ctx, np.eye(3))) == np.inf

    def test_fold_regression(self, demo_ensemble):
        ball = isotropic_ball(3, HARD_VAR, HARD_EPS)
        lo = solve_bound("lower", demo_ensemble, ball)
        up = solve_bound("upper", demo_ensemble, ball)
        assert lo.bound_value == pytest.approx(HARD_LOWER, rel=1e-8)
        assert up.bound_value == pytest.approx(HARD_UPPER, rel=1e-8)

    def test_epsilon_monotonicity(self, demo_ensemble):
        # growing the ball can only widen the bounds
        grid = [0.05, 0.2, HARD_EPS, 0.9]
        uppers = [solve_bound("upper", demo_ensemble,
                              isotropic_ball(3, HARD_VAR, e)).bound_value
                  for e in grid]
        lowers = [solve_bound("lower", demo_ensemble,
                              isotropic_ball(3, HARD_VAR, e)).bound_value
                  for e in grid]
        assert all(b >= a - 1e-10 for a, b in zip(uppers, uppers[1:]))
        assert all(b <= a + 1e-10 for a, b in zip(lowers, lowers[1:]))

    def test_deterministic(self, demo_ensemble):
        ball = isotropic_ball(3, HARD_VAR, 0.2)
        a = solve_bound("upper", demo_ensemble, ball)
        b = solve_bound("upper", demo_ensemble, ball)
        assert a.bound_value == b.bound_value
        assert a.alpha == b.alpha

    def test_accepts_validated_problem(self, demo_ensemble):
        ball = isotropic_ball(3, HARD_VAR, 0.2)
        prob = validate_problem(demo_ensemble, ball)
        a = solve_bound("upper", prob, ball)
        b = solve_bound("upper", demo_ensemble, ball)
        assert a.bound_value == pytest.approx(b.bound_value, rel=1e-12)

    def test_direction_spellings(self, demo_ensemble):
        ball = isotropic_ball(3, HARD_VAR, 0.1)
        assert solve_bound("upper", demo_ensemble, ball).direction == "upper"
        for bad in ("UPPER", "sideways"):
            with pytest.raises(ValueError, match=repr(bad)):
                solve_bound(bad, demo_ensemble, ball)
            with pytest.raises(ValueError, match=repr(bad)):
                local_bound(bad, demo_ensemble, 0, ball)


class TestOrdering:
    def test_local_bounds_bracket_joint(self, demo_ensemble):
        ball = isotropic_ball(3, HARD_VAR, 0.2)
        sx0 = HARD_VAR * np.eye(3)
        lo = solve_bound("lower", demo_ensemble, ball).bound_value
        up = solve_bound("upper", demo_ensemble, ball).bound_value
        loc_lo, _ = local_bounds_weighted("lower", demo_ensemble, ball)
        loc_up, _ = local_bounds_weighted("upper", demo_ensemble, ball)
        lm = lmmse_upper(sx0, demo_ensemble)
        slack = 1e-9
        assert loc_lo <= lo + slack
        assert lo <= lm + slack
        assert lm <= up + slack
        assert up <= loc_up + slack

    def test_local_bound_ignores_channel_weight(self, demo_ensemble):
        ball = isotropic_ball(3, HARD_VAR, 0.2)
        reweighted = ChannelEnsemble.from_arrays(
            list(demo_ensemble.noise_stack), [7.0, 7.0, 7.0, 7.0])
        for j in (0, 3):
            a = local_bound("upper", demo_ensemble, j, ball)
            b = local_bound("upper", reweighted, j, ball)
            assert a.bound_value == pytest.approx(b.bound_value, rel=1e-10)


def _rotated(rng, values):
    q, _ = np.linalg.qr(rng.normal(size=(len(values), len(values))))
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def _halves(noise):
    """One channel as two half-weight copies: J = 2 with the same f, which
    `solve_bound` solves by continuation on any reference."""
    return ChannelEnsemble.from_arrays([noise, noise], [0.5, 0.5])


def _separable_case(k, c, three, seed):
    """One channel with noise eigenvalues nu on the reference c I: all
    below c / 8 (three stationary branches each) or all above it (one)."""
    rng = np.random.default_rng(seed)
    nu = c * (rng.uniform(0.005, 0.1, k) if three else rng.uniform(0.2, 5.0, k))
    return ChannelEnsemble.from_arrays([_rotated(rng, nu)], [1.0]), nu


class TestSeparableLocal:
    """On an exactly isotropic reference c I, `solve_bound`, and so
    `local_bound`, solves a one-channel problem as K scalars in the noise's
    eigenbasis (K = 1 at the end of its interval). Some extremum commutes
    with Sigma_N (README "Solver notes"), so it must agree with
    continuation on the same f (K = 1: with the closed form) and with the
    exhaustive branch enumeration of `oracles.reduced_lower`."""

    @staticmethod
    def _check(res, direction, ens, ball):
        """The route was taken, passes the certificate, and agrees with
        continuation on the same f (the channel as two half-weight copies)
        or, for K = 1, which has no continuation, with the closed form."""
        sign = 1.0 if direction == "upper" else -1.0
        assert res.outer_iterations == 0 and res.inner_iterations > 0
        assert sign * res.alpha > 0.0
        assert res.residuals[0] <= 1e-11
        kl = kl_same_mean_gaussians(res.sigma_x, ball.reference.covariance)
        assert abs(kl - ball.epsilon) <= 1e-10
        assert opt_covariance_residual(res.alpha, res.sigma_x, ens, ball.reference) <= 1e-9
        if ens.dimension == 1:
            x = scalar_ratio(ball.epsilon, direction) * ball.reference.covariance[0, 0]
            n = ens.noise_stack[0, 0, 0]
            assert res.bound_value == pytest.approx(x * n / (x + n), rel=1e-12)
            return
        general = solve_bound(direction, _halves(ens.noise_stack[0]), ball)
        assert general.outer_iterations > 0
        assert res.bound_value == pytest.approx(general.bound_value, rel=1e-10)

    @pytest.mark.parametrize("three", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_matches_general_solver(self, direction, k, three):
        c, eps = 2.0, (0.05, 0.4, 1.5)[k % 3]
        ens, _ = _separable_case(k, c, three, seed=100 * k + three)
        ball = isotropic_ball(k, c, eps)
        self._check(local_bound(direction, ens, 0, ball), direction, ens, ball)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_demo_ensemble_at_p_051(self, demo_ensemble, direction):
        ball = isotropic_ball(3, HARD_VAR, HARD_EPS)
        for j in range(4):
            res = local_bound(direction, demo_ensemble, j, ball)
            self._check(res, direction, demo_ensemble.single(j), ball)
            if direction == "lower" and j in (1, 3):
                # the minimum puts one coordinate on the middle branch,
                # where a(s) = (s + nu)^2 (c - s) / (c nu^2 s) increases
                nu, q = np.linalg.eigh(demo_ensemble.noise_stack[j])
                s = np.einsum("ai,ab,bi->i", q, res.sigma_x, q)
                assert np.sum(2.0 * s * s - HARD_VAR * s + HARD_VAR * nu < 0.0) == 1

    def test_split_example(self):
        # README: the isotropic stationary point (0.288007) is a saddle here
        ens = ChannelEnsemble.from_arrays([0.1 * np.eye(3)], [1.0])
        ball = isotropic_ball(3, 10.0, 1.0)
        res = local_bound("lower", ens, 0, ball)
        self._check(res, "lower", ens, ball)
        assert res.bound_value == pytest.approx(0.281936931333, rel=1e-10)
        assert res.bound_value == pytest.approx(isotropic_bounds(10.0, 0.1, 3, 1.0)[0],
                                                rel=1e-10)

    @pytest.mark.parametrize("c, nu, eps", [
        # the minimum is on a middle-branch stretch whose ends both have kl
        # above eps, beside a local minimum 0.47% higher on the next stretch
        (6.302576410499546, [0.1653090650824608, 0.2620565923772146, 0.9018348504902981],
         4.939757617666037),
        (1.3, [0.02, 0.05, 0.4], 0.8),
    ])
    def test_exhaustive_enumeration(self, c, nu, eps):
        ens = ChannelEnsemble.from_arrays([_rotated(np.random.default_rng(7), nu)], [1.0])
        ball = isotropic_ball(len(nu), c, eps)
        res = local_bound("lower", ens, 0, ball)
        self._check(res, "lower", ens, ball)
        assert res.bound_value <= reduced_lower(c, nu, eps) * (1.0 + 1e-10)

    def test_rearrangement_inequalities(self):
        # for fixed spectra s and nu, tr((Sigma^-1 + Sigma_N^-1)^-1) lies
        # between the commuting arrangements: s against nu (least) and s
        # with nu (greatest), whatever the eigenvectors
        rng = np.random.default_rng(TEST_SEED)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            s, nu = np.exp(rng.uniform(-4.0, 4.0, (2, k)))
            f = np.trace(np.linalg.inv(np.linalg.inv(_rotated(rng, s))
                                       + np.linalg.inv(_rotated(rng, nu))))
            s, nu = np.sort(s), np.sort(nu)
            least = np.sum(s[::-1] * nu / (s[::-1] + nu))
            greatest = np.sum(s * nu / (s + nu))
            assert least * (1.0 - 1e-10) <= f <= greatest * (1.0 + 1e-10)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_other_references_take_the_general_path(self, demo_ensemble, direction):
        rng = np.random.default_rng(TEST_SEED)
        near = 2.0 * np.eye(3)
        near[1, 1] = np.nextafter(2.0, 3.0)  # not exactly isotropic
        for sigma0 in (random_spd(rng, 3, 2.0), near):
            ball = DivergenceBall(Gaussian(np.zeros(3), sigma0), 0.3)
            got = local_bound(direction, demo_ensemble, 2, ball)
            want = solve_bound(direction, demo_ensemble.single(2), ball)
            assert got.outer_iterations > 0
            assert (got.bound_value, got.alpha, got.kl_at_solution, got.inner_iterations,
                    got.residuals) == (want.bound_value, want.alpha, want.kl_at_solution,
                                       want.inner_iterations, want.residuals)
            np.testing.assert_array_equal(got.sigma_x, want.sigma_x)

    @pytest.mark.parametrize("isotropic", [True, False])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_local_bound_is_solve_bound_on_one_channel(self, demo_ensemble, direction,
                                                       isotropic):
        # one route per problem, whichever function is called
        sigma0 = (HARD_VAR * np.eye(3) if isotropic
                  else random_spd(np.random.default_rng(TEST_SEED), 3, HARD_VAR))
        ball = DivergenceBall(Gaussian(np.zeros(3), sigma0), HARD_EPS)
        for j in range(demo_ensemble.count):
            got = local_bound(direction, demo_ensemble, j, ball)
            want = solve_bound(direction, demo_ensemble.single(j), ball)
            assert (got.outer_iterations == 0) == isotropic
            for field in dataclasses.fields(BoundResult):
                if field.name == "sigma_x":
                    np.testing.assert_array_equal(got.sigma_x, want.sigma_x)
                else:
                    assert getattr(got, field.name) == getattr(want, field.name), field.name

    @pytest.mark.parametrize("candidates", [[], [([1.0] * 3, 1.0, 1)]])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_uncertified_route_falls_through(self, demo_ensemble, monkeypatch, direction,
                                             candidates):
        # no candidate, or only Sigma_0 itself (kl = 0): nothing passes the
        # certificate, so continuation answers
        monkeypatch.setattr(separable, "lower_candidates", lambda rho, eps: candidates)
        monkeypatch.setattr(separable, "upper_candidates", lambda rho, eps: candidates)
        ball = isotropic_ball(3, HARD_VAR, HARD_EPS)
        got = local_bound(direction, demo_ensemble, 1, ball)
        want = solve_bound(direction, demo_ensemble.single(1), ball)
        assert got.outer_iterations > 0
        assert (got.bound_value, got.alpha, got.kl_at_solution, got.inner_iterations,
                got.outer_iterations, got.residuals) == (
                    want.bound_value, want.alpha, want.kl_at_solution, want.inner_iterations,
                    want.outer_iterations, want.residuals)
        np.testing.assert_array_equal(got.sigma_x, want.sigma_x)


class TestOneInputPath:
    """solve_bound reads only the validated problem; a ball other than the
    problem's own is an error, not a second problem."""

    def test_other_reference_rejected(self, demo_ensemble):
        prob = validate_problem(demo_ensemble, isotropic_ball(3, HARD_VAR, 0.2))
        with pytest.raises(ValueError, match="different ball"):
            solve_bound("upper", prob, isotropic_ball(3, 5.0, 0.2))

    def test_negative_radius_beside_a_problem_rejected(self, demo_ensemble):
        prob = validate_problem(demo_ensemble, isotropic_ball(3, 1.0, 0.2))
        with pytest.raises(ValueError):
            solve_bound("lower", prob, DivergenceBall(prob.reference, -1.0))

    def test_every_reader_takes_a_problem(self, demo_ensemble):
        # the readers of channel data see only weights and noise_stack, so
        # a validated problem and its ensemble give the same numbers
        prob = validate_problem(demo_ensemble, isotropic_ball(3, HARD_VAR, HARD_EPS))
        res = solve_bound("upper", prob, prob.ball)
        spec = PriorSpec(GeneralizedGaussian(1.0), 3)
        for read in (lambda ens: cramer_rao_lower(0.7, ens),
                     lambda ens: mc_weighted_sum(spec, ens, 120, 150, seed=7),
                     lambda ens: opt_covariance_residual(res.alpha, res.sigma_x, ens,
                                                         prob.reference)):
            assert read(prob) == read(prob.ensemble)


class TestJacobian:
    """The bordered Jacobian `_jacobian` assembles from an evaluation
    against a central difference of `_evaluate`'s residual, along every
    packed whitened coordinate (Sigma moved by L0 X L0^T) and along alpha."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("j", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_central_difference(self, k, j, sign):
        rng = np.random.default_rng([k, j, sign > 0])
        ens = ChannelEnsemble.from_arrays([random_spd(rng, k, s) for s in rng.uniform(0.3, 3.0, j)],
                                          rng.uniform(0.2, 2.0, j))
        ball = DivergenceBall(Gaussian(np.zeros(k), random_spd(rng, k, 2.0)), 0.3)
        ctx = solver._Ctx(validate_problem(ens, ball))
        sigma, alpha, h = random_spd(rng, k, 1.5), sign * rng.uniform(0.1, 1.0), 1e-5

        def residual(s, a):
            return solver._evaluate(ctx, s, solver._chol(s), a, 0.3)[0]

        jac = solver._jacobian(ctx, alpha,
                               solver._evaluate(ctx, sigma, solver._chol(sigma), alpha, 0.3)[1])
        fd = np.empty_like(jac)
        for i, e in enumerate(np.eye(ctx.n)):
            d = ctx.unpack_sigma(h * e)
            fd[:, i] = (residual(sigma + d, alpha) - residual(sigma - d, alpha)) / (2 * h)
        fd[:, -1] = (residual(sigma, alpha + h) - residual(sigma, alpha - h)) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-7 * np.abs(jac).max())


class TestLapackHelpers:
    """The solver calls numpy.linalg's LAPACK gufuncs without numpy's
    wrapper. Each helper must give numpy.linalg's bits and keep the failure
    branch its call sites took with numpy, so a numpy that renames or
    changes the private gufuncs fails here."""

    @staticmethod
    def _same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bitwise_numpy_linalg(self, k):
        rng = np.random.default_rng([TEST_SEED, k])
        spd = random_spd(rng, k, 1.5)
        a = rng.normal(size=(k, k))
        sym, b = a + a.T, rng.normal(size=k)
        self._same(solver._cholesky(spd), np.linalg.cholesky(spd))
        self._same(solver._chol(spd), np.linalg.cholesky(spd))
        self._same(solver._inv(a), np.linalg.inv(a))
        self._same(solver._solve(a, b), np.linalg.solve(a, b))
        for m in (spd, sym):
            for got, want in zip(solver._eigh(m), np.linalg.eigh(m)):
                self._same(got, want)
            self._same(solver._eigvalsh(m), np.linalg.eigvalsh(m))
        for x in (b, a, np.zeros(k)):
            self._same(solver._norm(x), np.linalg.norm(x))

    @pytest.mark.parametrize("j", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_evaluation_stack(self, k, j):
        # the (J + 1, K, K) stack of chol(Sigma) and every Sigma + Sigma_N_j that
        # an evaluation and the certificate invert, and the certificate's solve
        rng = np.random.default_rng([TEST_SEED, k, j])
        ens = ChannelEnsemble.from_arrays([random_spd(rng, k, s) for s in rng.uniform(0.3, 3, j)],
                                          rng.uniform(0.2, 2.0, j))
        ball = DivergenceBall(Gaussian(np.zeros(k), random_spd(rng, k, 2.0)), 0.3)
        ctx = solver._Ctx(validate_problem(ens, ball))
        sigma = random_spd(rng, k, 1.5)
        chol = solver._chol(sigma)
        a = sigma + ctx.noise
        self._same(solver._inverses(ctx, sigma, chol),
                   np.linalg.inv(np.concatenate([chol[None], a])))
        self._same(solver._solve_stack(ctx.buf[1:], ctx.noise), np.linalg.solve(a, ctx.noise))
        self._same(ctx.l0i, np.linalg.inv(ctx.l0))
        # the negated packing keeps the transposed layout BLAS reads (a copy
        # in C order moved every K = 5 and K = 6 corpus answer)
        assert ctx.neg_basis_t.flags.f_contiguous
        assert ctx.neg_basis_t.flags.c_contiguous == (k == 1)

    def test_chol_fails_to_none(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with np.errstate(invalid="ignore"):  # as inside solve_bound
            assert solver._chol(indefinite) is None
            assert solver._chol(np.array([[-1.0]])) is None
        assert solver._chol(np.array([[np.inf, 0.0], [0.0, 1.0]])) is None

    @pytest.mark.parametrize("helper, numpy_call, args", [
        ("_solve", np.linalg.solve, (np.zeros((3, 3)), np.ones(3))),
        ("_eigh", np.linalg.eigh, (np.full((3, 3), np.nan),)),
        ("_eigvalsh", np.linalg.eigvalsh, (np.full((3, 3), np.nan),)),
    ])
    def test_lapack_failure_raises_where_numpy_raised(self, helper, numpy_call, args):
        with pytest.raises(np.linalg.LinAlgError):
            numpy_call(*args)
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            getattr(solver, helper)(*args)

    def test_nan_without_lapack_failure_is_returned(self):
        # numpy returns NaN here without raising, and so do the helpers
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        for got, want in zip(solver._eigh(m), np.linalg.eigh(m)):
            self._same(got, want)
        self._same(solver._eigvalsh(m), np.linalg.eigvalsh(m))
        self._same(solver._solve(m, np.ones(2)), np.linalg.solve(m, np.ones(2)))


class TestDirectKernels:
    """The solver calls numpy's einsum and reductions without their Python
    wrappers, and keeps per-solve scratch in `_Ctx`. Each kernel must give
    the bits of the call it replaces, and no array a call returns may be
    scratch: callers hold two at once (the Jacobian's central-difference
    test holds two residuals)."""

    _same = staticmethod(TestLapackHelpers._same)

    @pytest.mark.parametrize("j", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_einsum_bitwise(self, k, j):
        rng = np.random.default_rng([TEST_SEED, k, j])
        w, a, b = rng.normal(size=j), rng.normal(size=(j, k, k)), rng.normal(size=(j, k, k))
        for spec, ops, shape in (("j,jab->ab", (w, a), (k, k)),
                                 ("j,jab,jcd->acbd", (w, a, b), (k, k, k, k))):
            want = np.einsum(spec, *ops)
            self._same(solver._einsum(spec, *ops), want)
            out = np.empty(shape)
            assert solver._einsum(spec, *ops, out=out) is out
            self._same(out, want)

    @pytest.mark.parametrize("x", [
        np.arange(12.0).reshape(3, 4) - 5.5,
        np.array([[1.0, np.nan], [-2.0, 3.0]]),
        np.array([-0.0, 0.0]),
        np.array([0.0, -0.0]),
        np.array([-0.0]),
        np.array([np.inf, 1.0, -2.0]),
    ], ids=["finite", "nan", "neg-zero-first", "zero-first", "neg-zero", "inf"])
    def test_reductions_bitwise(self, x):
        self._same(solver._sum(x, None), x.sum())
        self._same(solver._max(x, None), x.max())
        self._same(solver._min(x, None), np.min(x))
        finite = np.isfinite(x)
        self._same(solver._all(finite, None), finite.all())

    @staticmethod
    def _ctx_and_point(k, j):
        rng = np.random.default_rng([TEST_SEED, k, j])
        ens = ChannelEnsemble.from_arrays([random_spd(rng, k, s) for s in rng.uniform(0.3, 3, j)],
                                          rng.uniform(0.2, 2.0, j))
        ball = DivergenceBall(Gaussian(np.zeros(k), random_spd(rng, k, 2.0)), 0.3)
        return solver._Ctx(validate_problem(ens, ball)), random_spd(rng, k, 1.5)

    @pytest.mark.parametrize("k, j", [(1, 1), (3, 4), (6, 5)])
    def test_returned_arrays_are_fresh(self, k, j):
        ctx, sigma = self._ctx_and_point(k, j)
        chol = solver._chol(sigma)
        res1, stack1 = solver._evaluate(ctx, sigma, chol, -0.5, 0.3)
        res2, stack2 = solver._evaluate(ctx, sigma, chol, 0.5, 0.3)
        jac1 = solver._jacobian(ctx, -0.5, stack1)
        jac2 = solver._jacobian(ctx, 0.5, stack2)
        returned = [res1, stack1, res2, stack2, jac1, jac2]
        scratch = [ctx.buf, ctx.coef, ctx.kron, ctx.proj]
        for i, a in enumerate(returned):
            for b in returned[i + 1:] + scratch:
                assert not np.shares_memory(a, b)

    def test_packing_constants_are_read_only(self):
        ctx, _ = self._ctx_and_point(3, 2)
        for a in (ctx.basis, ctx.basis_t, ctx.neg_basis_t, ctx.eye_k, ctx.eye_n):
            assert not a.flags.writeable


class TestFailureDiagnostics:
    """Every NoConvergence from solve_bound names the bound and epsilon, and
    carries the solve's Jacobian evaluations and the residual where one was
    measured."""

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_capped_solve(self, demo_ensemble, monkeypatch, direction):
        # a lower bound meets the cap in a start after its path, an upper
        # bound on its path; both messages name the bound and epsilon
        monkeypatch.setattr(solver, "_MAX_JACOBIANS", 2)
        with pytest.raises(NoConvergence) as info:
            solve_bound(direction, demo_ensemble, isotropic_ball(3, HARD_VAR, 0.2))
        assert str(info.value) == \
            f"{direction} bound at epsilon=0.2: Jacobian evaluation cap reached"
        assert info.value.iterations == 2

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_uncertified_solve(self, demo_ensemble, monkeypatch, direction):
        ball = isotropic_ball(3, HARD_VAR, 0.2)
        ok = solve_bound(direction, demo_ensemble, ball)
        calls, evaluate = [0], solver._evaluate

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(solver, "_evaluate", counted)
        monkeypatch.setattr(solver, "_INNER_TOL", -1.0)
        with pytest.raises(NoConvergence, match="none certified") as info:
            solve_bound(direction, demo_ensemble, ball)
        assert info.value.iterations == calls[0]
        if direction == "upper":
            assert calls[0] == ok.inner_iterations
        else:  # the one-step path's answer fails, so the start at the target runs too
            assert calls[0] > ok.inner_iterations
        assert 0.0 <= info.value.residual <= 1e-11

    @pytest.mark.parametrize("channels", ["all", "one"])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_kl_miss_is_uncertified(self, demo_ensemble, monkeypatch, direction, channels):
        # the certificate's epsilon reads 1 too far, so no answer passes: not
        # the path's, not a start's, not one of the K scalars of one channel on c I
        certify = solver._certify
        monkeypatch.setattr(solver, "_certify", lambda direction, ctx, eps, *rest:
                            certify(direction, ctx, eps + 1.0, *rest))
        ensemble = demo_ensemble if channels == "all" else demo_ensemble.single(1)
        with pytest.raises(NoConvergence, match="none certified"):
            solve_bound(direction, ensemble, isotropic_ball(3, HARD_VAR, 0.2))

    def test_upper_reraise_keeps_residual(self, demo_ensemble, monkeypatch):
        def stuck(ctx, sign, eps):
            ctx.jacobians = 7
            raise NoConvergence("stuck", residual=0.5)

        monkeypatch.setattr(solver, "_path", stuck)
        with pytest.raises(NoConvergence, match="upper bound at epsilon=0.2: stuck") as info:
            solve_bound("upper", demo_ensemble, isotropic_ball(3, HARD_VAR, 0.2))
        assert (info.value.residual, info.value.iterations) == (0.5, 7)

    @pytest.mark.parametrize("p", [0.01, 0.02, 0.03])
    def test_singular_descent_is_dropped(self, demo_ensemble, p):
        # the generalized Gaussian's moment-matched balls at these p: the
        # path stalls, and the descent from the centre meets a singular
        # Sigma + Sigma_N, which once escaped as numpy's LinAlgError
        ball = DivergenceBall(Gaussian(np.zeros(3), gen_gauss_covariance(p, 3)
                                                * np.eye(3)), gen_gauss_epsilon(p, 3))
        with pytest.raises(NoConvergence, match="none certified") as info:
            solve_bound("lower", demo_ensemble, ball)
        assert info.value.iterations > 0

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, SingularSum])
    def test_broken_down_starts_are_dropped(self, demo_ensemble, monkeypatch, error):
        def stuck(ctx, sign, eps):
            ctx.jacobians = 7
            raise NoConvergence("stuck")

        def breaks(*args):
            raise error("breakdown")

        monkeypatch.setattr(solver, "_path", stuck)
        monkeypatch.setattr(solver, "_descent", breaks)
        monkeypatch.setattr(solver, "_split_start", breaks)
        with pytest.raises(NoConvergence, match="0 local extrema found, none certified") as info:
            solve_bound("lower", demo_ensemble, isotropic_ball(3, HARD_VAR, 0.2))
        assert info.value.iterations == 7


class TestStart:
    """A given start is checked where it is given and shares the solve's
    one Jacobian budget with the solve from the centre it may give way to."""

    def test_start_of_another_shape(self, demo_ensemble):
        with pytest.raises(DimensionMismatch,
                           match=r"^start has shape \(2, 2\), expected \(3, 3\)$"):
            solve_bound("lower", demo_ensemble, isotropic_ball(3, 1.0, 0.1), start=np.eye(2))

    def test_fallback_spends_no_more_than_the_cap(self, demo_ensemble, monkeypatch):
        # the R = 112 lower bound of `sweep-ball --grid 1:1000:10`, started from
        # the R = 1 answer recoloured: the warm candidate fails the certificate
        # after 36 Jacobians and the solve from the centre takes 85 more
        balls = [DivergenceBall(uniform_ball_moments(r, 3), uniform_ball_epsilon(r, 3))
                 for r in (1.0, 112.0)]
        m = balls[1].reference_chol @ np.linalg.inv(balls[0].reference_chol)
        start = m @ solve_bound("lower", demo_ensemble, balls[0]).sigma_x @ m.T
        assert solve_bound("lower", demo_ensemble, balls[1], start=start).inner_iterations == 121
        monkeypatch.setattr(solver, "_MAX_JACOBIANS", 100)
        try:
            spent = solve_bound("lower", demo_ensemble, balls[1], start=start).inner_iterations
        except NoConvergence as exc:
            assert str(exc).startswith("lower bound at epsilon=")
            spent = exc.iterations
        assert spent <= 100


def _solve(direction, sigma0, noise, weights, epsilon):
    ens = ChannelEnsemble.from_arrays(noise, weights)
    sigma0 = np.asarray(sigma0, dtype=float)
    ball = DivergenceBall(Gaussian(np.zeros(len(sigma0)), sigma0), epsilon)
    return solve_bound(direction, ens, ball)


# Hard lower bounds, written out from the benchmark corpus (perfbench
# make_corpus(seed, batches)[batch][index]). Every value was confirmed by
# the multi-start search in oracles.py (60 starts for the K = 5 saddle
# case, 20 for the descent case); test_search_agrees repeats that for two
# of the K <= 3 ones.
SADDLE_CASE = dict(  # make_corpus(305, 6)[2][20]; a path alone ends on a saddle
    sigma0=[[3.803132636841565, -3.0110152921022473, -1.8263508687354326,
             0.15402226506420272, -2.6133471007138924],
            [-3.0110152921022473, 7.6303910677075475, 1.1353204845805993,
             -0.504927847519874, 0.08510875492385725],
            [-1.8263508687354326, 1.1353204845805993, 5.882780064214713,
             -0.49045830963182135, -0.4830429430932198],
            [0.15402226506420272, -0.504927847519874, -0.49045830963182135,
             5.476978543743051, -0.23506311955932468],
            [-2.6133471007138924, 0.08510875492385725, -0.4830429430932198,
             -0.23506311955932468, 4.355365453144643]],
    noise=[[[0.15774777838593945, -0.012838081907254228, -0.017493955633942168,
             -0.009023818953129703, 0.003489587243915594],
            [-0.012838081907254228, 0.1747750238753392, -0.011336236483262492,
             -0.0034033277589445785, 0.004204604496907843],
            [-0.017493955633942168, -0.011336236483262492, 0.1563874591730969,
             -0.0012159927858880013, 0.015620338713210166],
            [-0.009023818953129703, -0.0034033277589445785, -0.0012159927858880013,
             0.17986101319811515, -0.0024076889659358906],
            [0.003489587243915594, 0.004204604496907843, 0.015620338713210166,
             -0.0024076889659358906, 0.17264884643074493]]],
    weights=[7.800737653289715],
    epsilon=1.8941148073687148,
)
SADDLE_LOWER = 4.66181348718

TWO_MINIMA_CASE = dict(  # make_corpus(308, 6)[3][14]; the path alone ends at 833.900
    sigma0=[[1929.6683095383544, 802.2512870167961, -1983.5945704628507],
            [802.2512870167961, 386.10216559283606, -898.8134049489122],
            [-1983.5945704628507, -898.8134049489122, 2871.8297611675375]],
    noise=[[[18.61535862274783, 2.4333122967754246, -20.079982587237772],
            [2.4333122967754246, 1.1440599251826458, -1.710061302169354],
            [-20.079982587237772, -1.710061302169354, 25.982043705743525]],
           [[14053.560245166958, 22592.413743972957, 1122.0265414027156],
            [22592.413743972957, 36359.65067482596, 1813.56532514445],
            [1122.0265414027156, 1813.56532514445, 99.42196883430728]],
           [[59.42451220407962, -10.667289982369521, -96.95539355918483],
            [-10.667289982369521, 3.0372327303622173, 20.35899287428414],
            [-96.95539355918483, 20.35899287428414, 175.72291666012356]],
           [[626.9189293243147, 706.3871149584281, -529.9958275820208],
            [706.3871149584281, 912.5546196177065, -650.0983699159023],
            [-529.9958275820208, -650.0983699159023, 518.9085966959883]],
           [[36.03452227189631, 84.73187149811041, 33.55870436370344],
            [84.73187149811041, 204.89764133255875, 80.08196911102502],
            [33.55870436370344, 80.08196911102502, 32.20895526403721]]],
    weights=[9.516511840877222, 0.3280023555104484, 6.459615859855256,
             6.20035317105634, 6.403157336295727],
    epsilon=2.5080292754044633,
)
TWO_MINIMA_LOWER = 826.675931758

FOLD_CASE = dict(  # make_corpus(302, 10)[4][6]; alpha folds along the path
    sigma0=[[1982.2623052326553, -5465.780298501908],
            [-5465.780298501908, 15658.237944186581]],
    noise=[[[76337.590402755, -30213.092709491168],
            [-30213.092709491168, 12004.338262146233]],
           [[14.259807613977735, 17.032365399147842],
            [17.032365399147842, 21.57802683228201]]],
    weights=[0.10751302464074465, 0.4229853058968038],
)
FOLD_LOWER = {2.2: 7.556220098, 3.6: 4.923690356, 4.2: 2.968008048,
              4.633692788139616: 2.018183096}

ONE_STEP_CASE = dict(  # make_corpus(311, 6)[1][6]; the one-step path's answer is uncertified
    sigma0=[[22783.571085626398, 7216.600804102449],
            [7216.600804102449, 2289.877514950199]],
    noise=[[[0.19912080058829038, 0.11917537298169903],
            [0.11917537298169903, 0.48723891611959225]],
           [[25.017769506411188, -10.249570279938691],
            [-10.249570279938691, 4.548674740192456]]],
    weights=[0.18454787805897285, 0.4752275471968908],
    epsilon=1.46617255577089,
)
ONE_STEP_LOWER = 0.4712549519659837

DESCENT_CASE = dict(  # make_corpus(323, 6)[2][23]; the path stalls, the descent answers
    sigma0=[[39403.27481787432, 1305.871341233259, -8628.17783166404, 9893.004949883643,
             6720.816954902337],
            [1305.871341233259, 78.44583997706687, -291.8920312100883, 333.1401599426281,
             229.3462293990429],
            [-8628.17783166404, -291.8920312100883, 1904.7533640575352, -2193.8561770920924,
             -1495.3292650371786],
            [9893.004949883643, 333.1401599426281, -2193.8561770920924, 2579.5557668317697,
             1762.3353488677121],
            [6720.816954902337, 229.3462293990429, -1495.3292650371786, 1762.3353488677121,
             1217.4539076845476]],
    noise=[[[478.69898858625317, -262.32348329763215, 4.151287903025935, 216.7848169886704,
             64.92464337405947],
            [-262.32348329763215, 1503.4675586862215, -618.5181529492509,
             -1181.7993564488434, -705.5581299885691],
            [4.151287903025935, -618.5181529492509, 531.310202694922, 716.8419879817664,
             227.7741521803196],
            [216.7848169886704, -1181.7993564488434, 716.8419879817664, 1515.576910430618,
             725.0464389630372],
            [64.92464337405947, -705.5581299885691, 227.7741521803196, 725.0464389630372,
             531.7826421152562]],
           [[11.456591233349458, -20.393946736659544, -2.0826285106263134,
             2.098490377475266, -9.833688816826434],
            [-20.393946736659544, 63.75388577730603, 0.2314778081031108,
             -17.832044998157645, 13.136114139949985],
            [-2.0826285106263134, 0.2314778081031108, 11.42117482143018, 5.88845422279284,
             4.950106207861052],
            [2.098490377475266, -17.832044998157645, 5.88845422279284, 25.048005277286446,
             -3.1584120134956475],
            [-9.833688816826434, 13.136114139949985, 4.950106207861052,
             -3.1584120134956475, 14.783060903892528]],
           [[548.5509077122082, -821.9235733706848, 583.0359824105617, 447.3416091319548,
             24.473966352325018],
            [-821.9235733706848, 1938.2652954495632, -1444.624054089812, -996.27476851102,
             49.72085951805465],
            [583.0359824105617, -1444.624054089812, 1111.240239306834, 732.1045404231736,
             -60.31779341757013],
            [447.3416091319548, -996.27476851102, 732.1045404231736, 578.558002135343,
             21.696235346905723],
            [24.473966352325018, 49.72085951805465, -60.31779341757013, 21.696235346905723,
             47.10267140254]],
           [[0.5326859576256733, -0.03424417797372657, 0.0016461788678236277,
             0.0010264430944302671, 0.0005603821806683358],
            [-0.03424417797372657, 0.7284306873001745, -0.06592182584459527,
             -0.03125521704053756, -0.07372453793854877],
            [0.0016461788678236277, -0.06592182584459527, 0.6096750504229205,
             -0.05226274088254243, 0.03702263367576142],
            [0.0010264430944302671, -0.03125521704053756, -0.05226274088254243,
             0.5549039774221682, -0.03639109609470706],
            [0.0005603821806683358, -0.07372453793854877, 0.03702263367576142,
             -0.03639109609470706, 0.5448415324173905]]],
    weights=[0.7266819908424631, 0.48498063957271004, 0.44964116199798476,
             3.90098862771655],
    epsilon=2.6156583644612446,
)
DESCENT_LOWER = 207.000141316


class TestFrozenCases:
    def test_saddle_case(self):
        res = _solve("lower", **SADDLE_CASE)
        assert res.bound_value == pytest.approx(SADDLE_LOWER, rel=1e-8)

    def test_two_minima_case(self):
        # the path takes more than one step, so the start at the target runs
        # and finds the lower minimum
        res = _solve("lower", **TWO_MINIMA_CASE)
        assert res.bound_value == pytest.approx(TWO_MINIMA_LOWER, rel=1e-8)
        assert res.outer_iterations > 1

    def test_one_step_case(self):
        # the path reaches the target in one step, but only the start at the
        # target gives an answer that passes the certificate
        res = _solve("lower", **ONE_STEP_CASE)
        assert res.bound_value == pytest.approx(ONE_STEP_LOWER, rel=1e-8)
        assert res.outer_iterations == 1

    def test_one_step_path_is_the_start(self, demo_ensemble, monkeypatch):
        # a one-step path's predictor is the majorize-minimize step from the
        # centre onto the target sphere; with a certified answer no second
        # start at the target runs
        calls, mm_step = [], solver._mm_step

        def counted(*args):
            calls.append(args)
            return mm_step(*args)

        monkeypatch.setattr(solver, "_mm_step", counted)
        res = solve_bound("lower", demo_ensemble, isotropic_ball(3, HARD_VAR, 0.2))
        assert res.outer_iterations == 1
        (ctx, sigma, t2, sign), = calls  # its one step, from the centre onto kl = 0.2
        assert sigma is ctx.sigma0 and t2 == pytest.approx(0.2, rel=1e-15) and sign == -1.0

    def test_descent_case(self, monkeypatch):
        # the path stalls short of the sphere; only the descent from the
        # centre reaches a certified answer
        res = _solve("lower", **DESCENT_CASE)
        assert res.bound_value == pytest.approx(DESCENT_LOWER, rel=1e-8)
        assert res.alpha < 0

        def breaks(*args):
            raise np.linalg.LinAlgError("breakdown")

        monkeypatch.setattr(solver, "_descent", breaks)
        with pytest.raises(NoConvergence, match="0 local extrema found"):
            _solve("lower", **DESCENT_CASE)

    @pytest.mark.parametrize("epsilon", sorted(FOLD_LOWER))
    def test_fold_case(self, epsilon):
        res = _solve("lower", epsilon=epsilon, **FOLD_CASE)
        assert res.bound_value == pytest.approx(FOLD_LOWER[epsilon], rel=1e-8)
        assert res.alpha < 0

    @pytest.mark.parametrize("direction, expect", [("lower", 16.3051981401),
                                                   ("upper", 17.5965292806)])
    def test_scalar_high_snr(self, direction, expect):
        s0, sn, lam, epsilon = 1099.0, 9.80, 1.80, 0.663
        res = _solve(direction, [[s0]], [[[sn]]], [lam], epsilon)
        s = scalar_ratio(epsilon, direction) * s0
        assert lam * s * sn / (s + sn) == pytest.approx(expect, rel=1e-10)
        assert res.bound_value == pytest.approx(expect, rel=1e-8)

    def test_isotropic_saddle(self):
        # the isotropic stationary point, value 0.288007, is a saddle here
        res = _solve("lower", 10.0 * np.eye(3), [0.1 * np.eye(3)], [1.0], 1.0)
        assert res.bound_value == pytest.approx(0.281936931333, rel=1e-8)
        assert np.ptp(np.linalg.eigvalsh(res.sigma_x)) > 1.0

    @pytest.mark.parametrize("case, epsilon, expect", [
        (TWO_MINIMA_CASE, None, TWO_MINIMA_LOWER),
        (FOLD_CASE, 3.6, FOLD_LOWER[3.6]),
    ])
    def test_search_agrees(self, case, epsilon, expect):
        case = dict(case, **({} if epsilon is None else {"epsilon": epsilon}))
        best = multistart_lower(np.asarray(case["sigma0"]), np.asarray(case["noise"]),
                                case["weights"], case["epsilon"], starts=20)
        assert best == pytest.approx(expect, rel=1e-8)


# Lower bounds the solver does not certify (ROADMAP items 2 and 4), frozen
# from tests/test_solver_properties.py::test_certificates: (K, rng seed,
# (log10 smallest eigenvalue, log10 condition number) of Sigma_0 and then
# of each Sigma_N, weights, epsilon, the isotropic oracle's value or None),
# built with conftest.corpus_spd as the property's `problems` strategy
# builds them. Both raise the same NoConvergence on the commit before the
# one that froze them; a solver that certifies them turns the strict xfail
# into a failure, so the mark comes off with the fix.
UNCERTIFIED_LOWER = [
    pytest.param(3, 0, [(0.0, 4.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0)], [1.0, 1.0, 1.0],
                 4.869675251658631, None, id="K3-J3-cond1e4-jacobian-cap"),
    pytest.param(3, 0, [(2.0, 0.0), (0.0, 0.0), (0.0, 0.0)], [1.0, 1.0],
                 4.869675251658631, isotropic_bounds(100.0, 1.0, 3, 4.869675251658631, 2.0)[0],
                 id="K3-J2-isotropic-no-extremum"),
]


class TestUncertifiedPropertyExamples:
    @pytest.mark.xfail(raises=NoConvergence, strict=True,
                       reason="lower bound not certified: ROADMAP items 2 and 4")
    @pytest.mark.parametrize("k, seed, spectra, weights, epsilon, expect", UNCERTIFIED_LOWER)
    def test_lower_bound_is_certified(self, k, seed, spectra, weights, epsilon, expect):
        rng = np.random.default_rng(seed)
        sigma0, *noise = [corpus_spd(rng, k, *spectrum) for spectrum in spectra]
        res = _solve("lower", sigma0, noise, weights, epsilon)
        assert abs(kl_same_mean_gaussians(res.sigma_x, sigma0) - epsilon) <= 1e-10
        assert res.alpha < 0
        if expect is not None:
            assert res.bound_value == pytest.approx(expect, rel=1e-8)


class TestIsotropicOracle:
    @pytest.mark.parametrize("k, epsilon, expect", [(3, 3.0, 0.206232167218),
                                                    (3, 1.0, 0.281936931333),
                                                    (2, 2.0, 0.139407724934)])
    def test_two_level_split(self, k, epsilon, expect):
        lower, _ = isotropic_bounds(10.0, 0.1, k, epsilon)
        assert lower == pytest.approx(expect, rel=1e-10)
        # one channel (the K-scalar route) and two half-weight copies (continuation)
        for j in (1, 2):
            res = _solve("lower", 10.0 * np.eye(k), [0.1 * np.eye(k)] * j, [1.0 / j] * j,
                         epsilon)
            assert res.bound_value == pytest.approx(expect, rel=1e-8)

    def test_symmetric_at_small_radius(self):
        a, b, lam, epsilon = 2.0, 0.7, 1.3, 0.3
        s = scalar_ratio(epsilon / 3.0, "lower")
        lower, _ = isotropic_bounds(a, b, 3, epsilon, lam)
        assert lower == pytest.approx(lam * 3.0 * (s * a * b) / (s * a + b), rel=1e-12)


class TestSymmetryMechanisms:
    """Symmetric inputs on the joint route, where the continuation path
    from Sigma_0 never leaves the inputs' symmetry and other starts decide
    the answer."""

    def test_split_start(self):
        # the path keeps three equal eigenvalues; only the split start off
        # the isotropic subspace reaches the two-level minimum (one channel
        # as two half-weight copies, so that continuation solves it)
        expect = isotropic_bounds(10.0, 0.1, 3, 4.0)[0]
        assert expect == pytest.approx(0.1798265013358, rel=1e-10)
        res = _solve("lower", 10.0 * np.eye(3), [0.1 * np.eye(3)] * 2, [0.5, 0.5], 4.0)
        assert res.outer_iterations > 0
        assert res.bound_value == pytest.approx(expect, rel=1e-10)

    def test_saddle_escape(self):
        # every input is diagonal, so the path stays diagonal and ends on a
        # saddle; the escape along its most negative curvature leaves it
        sigma0, noise = 0.5 * np.eye(2), [np.diag([0.01, 0.03]), np.diag([0.03, 0.01])]
        res = _solve("lower", sigma0, noise, [1.0, 1.0], 1.0)
        assert res.bound_value == pytest.approx(0.0569394396620, rel=1e-10)
        assert abs(res.sigma_x[0, 1]) > 0.1
        best = multistart_lower(sigma0, np.array(noise), [1.0, 1.0], 1.0, starts=20)
        assert best == pytest.approx(0.0569394396620, rel=1e-8)
