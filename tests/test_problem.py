"""Validation and config round trips for the problem data layer."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmse_bounds import (
    ChannelEnsemble,
    ConfigError,
    DimensionMismatch,
    DivergenceBall,
    Gaussian,
    NegativeRadius,
    NonPositiveWeight,
    NonSymmetric,
    NotPositiveDefinite,
    Problem,
    PriorSpec,
    ProblemValidationError,
    cramer_rao_lower,
    lmmse_upper,
    load_config,
    local_bound,
    mc_weighted_sum,
    problem_from_config,
    save_config,
    validate_problem,
    weighted_mmse_sum,
)
from conftest import DEMO_NOISE, DEMO_WEIGHTS, isotropic_ball

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "examples" / "paper_fig1.json"


def small_ensemble():
    return ChannelEnsemble.from_arrays(
        [np.array([[2.0, 0.3], [0.3, 1.0]]), np.eye(2)], [0.5, 1.5])


class TestValidation:
    def test_valid_problem(self):
        prob = validate_problem(small_ensemble(), isotropic_ball(2, 1.0, 0.1))
        assert isinstance(prob, Problem)
        assert prob.dimension == 2
        assert prob.epsilon == 0.1
        assert prob.noise_stack.shape == (2, 2, 2)

    def test_idempotent(self):
        prob = validate_problem(small_ensemble(), isotropic_ball(2, 1.0, 0.1))
        assert validate_problem(prob) is prob
        assert validate_problem(prob, prob.ball) is prob
        assert validate_problem(prob, isotropic_ball(2, 1.0, 0.1)) is prob

    def test_raw_ensemble_needs_a_ball(self):
        # the ball=None default is for an already-validated Problem only
        with pytest.raises(TypeError, match="ChannelEnsemble needs a DivergenceBall"):
            validate_problem(small_ensemble())

    def test_revalidation_with_other_ball_rejected(self):
        prob = validate_problem(small_ensemble(), isotropic_ball(2, 1.0, 0.1))
        with pytest.raises(ValueError):
            validate_problem(prob, isotropic_ball(2, 1.0, 0.2))

    def test_symmetrizes_roundoff(self):
        sn = np.array([[2.0, 0.3 + 1e-15], [0.3, 1.0]])
        ens = ChannelEnsemble.from_arrays([sn], [1.0])
        prob = validate_problem(ens, isotropic_ball(2, 1.0, 0.0))
        got = prob.noise_stack[0]
        assert np.array_equal(got, got.T)

    def test_nonsymmetric_noise(self):
        sn = np.array([[2.0, 0.5], [0.3, 1.0]])
        with pytest.raises(NonSymmetric):
            ChannelEnsemble.from_arrays([sn], [1.0])

    def test_indefinite_noise(self):
        sn = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            ChannelEnsemble.from_arrays([sn], [1.0])

    def test_nonfinite_entries(self):
        sn = np.array([[1.0, 0.0], [0.0, np.inf]])
        with pytest.raises(NotPositiveDefinite):
            ChannelEnsemble.from_arrays([sn], [1.0])
        for mean in ([np.nan, 0.0], [0.0, -np.inf]):
            with pytest.raises(ProblemValidationError, match="reference mean"):
                ball = DivergenceBall(Gaussian(np.array(mean), np.eye(2)), 0.1)
                validate_problem(small_ensemble(), ball)

    def test_symmetrizing_near_the_double_maximum_cannot_overflow(self):
        big = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = ChannelEnsemble.from_arrays([big * np.eye(2)], [1.0])
            np.testing.assert_array_equal(ens.noise_stack[0], big * np.eye(2))
            with pytest.raises(NotPositiveDefinite,
                               match="^channel 0 noise covariance is not positive definite$"):
                ChannelEnsemble.from_arrays([big * np.ones((2, 2))], [1.0])

    def test_indefinite_reference(self):
        with pytest.raises(NotPositiveDefinite):
            ball = DivergenceBall(Gaussian(np.zeros(2), -np.eye(2)), 0.1)
            validate_problem(small_ensemble(), ball)

    def test_dimension_mismatch_channel(self):
        with pytest.raises(DimensionMismatch):
            ChannelEnsemble.from_arrays([np.eye(2), np.eye(3)], [1.0, 1.0])
        with pytest.raises(DimensionMismatch, match="reference is 2x2, the channels are 3x3"):
            validate_problem(ChannelEnsemble.from_arrays([np.eye(3)], [1.0]),
                             isotropic_ball(2, 1.0, 0.1))

    def test_dimension_mismatch_mean(self):
        with pytest.raises(DimensionMismatch):
            ball = DivergenceBall(Gaussian(np.zeros(3), np.eye(2)), 0.1)
            validate_problem(small_ensemble(), ball)

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros((2, 2)), np.eye(4)), (0.0, np.eye(1)),
    ], ids=["2x2", "scalar"])
    def test_mean_must_have_shape_k(self, mean, cov):
        # both were flattened and read as a length-K vector
        for build, name in ((lambda g: DivergenceBall(g, 0.3), "reference"),
                            (lambda g: PriorSpec(g, len(cov)), "Gaussian prior")):
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"{name} mean has shape {np.shape(mean)}, "
                                               f"expected ({len(cov)},)")):
                build(Gaussian(mean, cov))

    def test_nonsquare_matrix(self):
        with pytest.raises(DimensionMismatch):
            ChannelEnsemble.from_arrays([np.ones((2, 3))], [1.0])
        with pytest.raises(DimensionMismatch, match="channel 0 noise covariance must be a non"):
            ChannelEnsemble.from_arrays([np.eye(0)], [1.0])
        with pytest.raises(DimensionMismatch, match="reference covariance must be a nonempty"):
            validate_problem(small_ensemble(),
                             DivergenceBall(Gaussian(np.zeros(0), np.eye(0)), 0.1))

    def test_zero_weight(self):
        for weight in (0.0, np.inf):
            with pytest.raises(NonPositiveWeight, match=f"channel 1 weight {weight}") as exc:
                ChannelEnsemble.from_arrays([np.eye(2), np.eye(2)], [1.0, weight])
            assert exc.value.channel == 1

    def test_negative_radius(self):
        with pytest.raises(NegativeRadius):
            validate_problem(small_ensemble(), isotropic_ball(2, 1.0, -0.01))

    @pytest.mark.parametrize("epsilon", [-1.0, np.nan, np.inf, -np.inf])
    def test_radius_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(NegativeRadius, match="finite nonnegative"):
            validate_problem(small_ensemble(), isotropic_ball(2, 1.0, epsilon))

    def test_empty_ensemble(self):
        with pytest.raises(DimensionMismatch):
            validate_problem(ChannelEnsemble.from_arrays([], []), isotropic_ball(2, 1.0, 0.1))

    def test_covariance_count_must_match_weight_count(self):
        covs = [np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)]
        with pytest.raises(DimensionMismatch, match="3 noise covariances for 2 weights"):
            ChannelEnsemble.from_arrays(covs, [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="3 noise covariances for 2 weights"):
            validate_problem(ChannelEnsemble(tuple(covs), np.array([1.0, 2.0])),
                             isotropic_ball(2, 1.0, 0.1))

    def test_one_read_only_copy_of_the_channel_data(self, demo_ensemble):
        prob = validate_problem(demo_ensemble, isotropic_ball(3, 2.0, 0.3))
        assert prob.noise_stack is prob.ensemble.noise_stack
        assert prob.weights is prob.ensemble.weights
        for data in (prob.noise_stack, prob.weights, prob.single(1).noise_stack,
                     prob.single(1).weights):
            with pytest.raises(ValueError, match="read-only"):
                data[0] = 1.0

    def test_ball_holds_read_only_copies(self):
        # as the channel stack does: a later write to the caller's mean or
        # covariance reaches neither the ball nor a problem built on it
        mean, cov = np.array([1.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
        ball = DivergenceBall(Gaussian(mean, cov), 0.1)
        prob = validate_problem(small_ensemble(), ball)
        for data in (ball.reference.mean, ball.reference.covariance,
                     prob.reference.mean, prob.reference.covariance):
            with pytest.raises(ValueError, match="read-only"):
                data[0] = 0.0
        mean[0], cov[0, 0] = np.nan, -1.0
        for ref in (ball.reference, prob.reference):
            np.testing.assert_array_equal(ref.mean, [1.0, -1.0])
            np.testing.assert_array_equal(ref.covariance, [[2.0, 0.5], [0.5, 1.0]])

    def test_ball_and_problem_check_where_built(self):
        with pytest.raises(NegativeRadius, match="finite nonnegative"):
            isotropic_ball(2, 1.0, -1.0)
        with pytest.raises(DimensionMismatch, match="reference is 2x2, the channels are 3x3"):
            Problem(ChannelEnsemble.from_arrays([np.eye(3)], [1.0]), isotropic_ball(2, 1.0, 0.1))

    def test_error_carries_channel_index(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            ChannelEnsemble.from_arrays([np.eye(2), -np.eye(2)], [1.0, 1.0])
        assert exc.value.channel == 1


class TestEnsemble:
    @pytest.mark.parametrize("read", [
        lambda ens: weighted_mmse_sum(np.eye(2), ens),
        lambda ens: lmmse_upper(np.eye(2), ens),
        lambda ens: cramer_rao_lower(1.0, ens),
        lambda ens: mc_weighted_sum(PriorSpec(Gaussian(np.zeros(2), np.eye(2)), 2), ens,
                                    100, 100, 0),
    ], ids=["weighted_mmse_sum", "lmmse_upper", "cramer_rao_lower", "mc_weighted_sum"])
    def test_raw_shape_mismatch_names_the_channel(self, read):
        # a ragged ensemble is rejected where it is built, so no reader receives one
        match = "channel 2 noise covariance is 3x3, expected 2x2"
        with pytest.raises(DimensionMismatch, match=match) as exc:
            read(ChannelEnsemble.from_arrays([np.eye(2), 2.0 * np.eye(2), np.eye(3)], [1.0] * 3))
        assert exc.value.channel == 2

    @pytest.mark.parametrize("noise, weights, error, channel", [
        ([np.eye(2), -0.5 * np.eye(2)], [1.0, 1.0], NotPositiveDefinite, 1),
        ([np.eye(2)], [-3.0], NonPositiveWeight, 0),
        ([np.eye(2), 2.0 * np.eye(2), [[1.0, 0.5], [0.0, 1.0]]], [1.0] * 3, NonSymmetric, 2),
    ], ids=["indefinite", "negative_weight", "asymmetric"])
    def test_bad_channel_is_rejected_where_the_ensemble_is_built(self, noise, weights, error,
                                                                 channel):
        # so no reader (weighted_mmse_sum, lmmse_upper, cramer_rao_lower,
        # mc_weighted_sum, opt_covariance_residual) is handed it
        for build in (ChannelEnsemble.from_arrays,
                      lambda n, w: ChannelEnsemble(tuple(map(np.asarray, n)), np.asarray(w))):
            with pytest.raises(error, match=f"channel {channel} ") as exc:
                build(noise, weights)
            assert exc.value.channel == channel

    @pytest.mark.parametrize("weights, shape", [
        ([[1.0]], (1, 1)), ([[1.0, 2.0]], (1, 2)), (1.0, ()),
    ], ids=["column", "row", "scalar"])
    def test_weights_must_be_one_dimensional(self, weights, shape):
        # built, (1, 1) weights later failed in numpy inside the readers;
        # the others failed in the constructor with numpy's bare errors
        for build in (ChannelEnsemble.from_arrays, ChannelEnsemble):
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"weights must be one-dimensional, got shape "
                                               f"{shape}")):
                build((np.eye(2),), weights)

    def test_built_ensemble_is_one_read_only_stack(self):
        sn = [[2, 1], [1, 2]]  # integers
        for ens in (ChannelEnsemble.from_arrays([sn, np.eye(2)], [1, 2]),
                    ChannelEnsemble((np.array(sn), np.eye(2)), np.array([1, 2]))):
            for data, shape in ((ens.noise_stack, (2, 2, 2)), (ens.weights, (2,))):
                assert data.dtype == float and data.shape == shape
                with pytest.raises(ValueError, match="read-only"):
                    data[0] = 1.0
            assert not hasattr(ens, "noise_covariances")

    def test_raw_empty_ensemble_has_no_dimension(self):
        with pytest.raises(DimensionMismatch, match="ensemble has no channels"):
            ChannelEnsemble.from_arrays([], []).dimension

    def test_properties(self, demo_ensemble):
        assert demo_ensemble.count == 4
        assert demo_ensemble.dimension == 3
        assert demo_ensemble.noise_stack.shape == (4, 3, 3)
        np.testing.assert_allclose(demo_ensemble.weights,
                                   [0.3565, 0.0732, 0.5910, 0.9102])

    def test_single_channel_has_unit_weight(self, demo_ensemble):
        sub = demo_ensemble.single(2)
        assert sub.count == 1
        assert sub.weights[0] == 1.0
        np.testing.assert_array_equal(sub.noise_stack[0],
                                      demo_ensemble.noise_stack[2])

    def test_problem_single_matches_validating_the_channel(self, demo_ensemble):
        ball = isotropic_ball(3, 2.0, 0.3)
        sub = validate_problem(demo_ensemble, ball).single(2)
        again = validate_problem(demo_ensemble.single(2), ball)
        assert isinstance(sub, Problem)
        assert sub == again
        np.testing.assert_array_equal(sub.noise_stack, again.noise_stack)
        np.testing.assert_array_equal(sub.weights, again.weights)


    def test_single_indexes_like_the_ensemble(self, demo_ensemble):
        ball = isotropic_ball(3, 2.0, 0.3)
        prob = validate_problem(demo_ensemble, ball)
        last = prob.single(-1)
        assert last == validate_problem(demo_ensemble.single(-1), ball)
        np.testing.assert_array_equal(last.noise_stack, prob.noise_stack[3:])
        for direction in ("lower", "upper"):
            a = local_bound(direction, prob, -1, ball)
            b = local_bound(direction, demo_ensemble, -1, ball)
            assert a.bound_value == b.bound_value
            np.testing.assert_array_equal(a.sigma_x, b.sigma_x)
        for source in (demo_ensemble, prob):
            with pytest.raises(IndexError):
                source.single(4)
            with pytest.raises(IndexError):
                local_bound("upper", source, 4, ball)

    def test_single_reads_its_index_as_a_list_does(self, demo_ensemble):
        # numpy would read True as a mask: a (1, 1, 4, 3, 3) stack of
        # dimension 1, whose local bound was a DimensionMismatch
        ball = isotropic_ball(3, 2.0, 0.3)
        prob = validate_problem(demo_ensemble, ball)
        for source in (demo_ensemble, prob):
            for j, same in ((True, 1), (False, 0), (np.int64(2), 2)):
                one = source.single(j)
                assert one.dimension == 3
                np.testing.assert_array_equal(one.noise_stack, source.single(same).noise_stack)
            with pytest.raises(TypeError):
                source.single(1.0)
        a = local_bound("upper", prob, True, ball)
        assert a.bound_value == local_bound("upper", prob, 1, ball).bound_value


class TestConfig:
    def test_round_trip(self, tmp_path, demo_ensemble):
        ball = isotropic_ball(3, 2.5, 0.37)
        path = tmp_path / "cfg.json"
        save_config(path, demo_ensemble, ball)
        ens, ball2 = load_config(path)
        assert ball2.epsilon == 0.37
        np.testing.assert_array_equal(ball2.reference.covariance, 2.5 * np.eye(3))
        np.testing.assert_array_equal(ens.noise_stack, demo_ensemble.noise_stack)
        np.testing.assert_array_equal(ens.weights, demo_ensemble.weights)

    def test_bundled_example_config_validates(self):
        ens, ball = load_config(EXAMPLE_CONFIG)
        prob = validate_problem(ens, ball)
        assert prob.dimension == 3
        assert prob.ensemble.count == 4
        assert ball.epsilon > 0
        # the bundled config holds the conftest demo ensemble, which the
        # frozen reference curves of A1 are stated to use
        np.testing.assert_array_equal(ens.noise_stack, np.array(DEMO_NOISE))
        np.testing.assert_array_equal(ens.weights, DEMO_WEIGHTS)
        np.testing.assert_array_equal(ball.reference.mean, np.zeros(3))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def base_cfg(self):
        return {
            "dimension": 2,
            "mu0": [0.0, 0.0],
            "sigma0": [[1.0, 0.0], [0.0, 1.0]],
            "channels": [{"lambda": 1.0, "sigma_n": [[1.0, 0.0], [0.0, 1.0]]}],
            "epsilon": 0.1,
        }

    def test_from_config_ok(self):
        ens, ball = problem_from_config(self.base_cfg())
        assert ens.count == 1
        assert ball.epsilon == 0.1

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda c: c.update(extra=1), "unknown"),
        (lambda c: c.pop("epsilon"), "missing"),
        (lambda c: c.update(dimension=2.0), "dimension"),
        (lambda c: c.update(dimension=0), "dimension"),
        (lambda c: c.update(mu0=[0.0]), "mu0"),
        (lambda c: c.update(sigma0=[[1.0]]), "sigma0"),
        (lambda c: c.update(channels=[]), "channels"),
        (lambda c: c.update(channels="x"), "channels"),
        (lambda c: c.update(channels=[[1.0]]), "channel 0 must be an object"),
        (lambda c: c.update(channels=[{"lambda": 1.0}]), "channel 0"),
        (lambda c: c.update(channels=[{"lambda": 1.0, "sigma_n": [[1.0]],
                                       "tag": "a"}]), "channel 0"),
        (lambda c: c.update(channels=[{"lambda": 1.0, "sigma_n": [[1.0]]}]),
         "sigma_n"),
        (lambda c: c.update(epsilon="big"), "epsilon"),
        (lambda c: c.update(dimension=True), "dimension"),
        (lambda c: c.update(epsilon=True), "epsilon must be a number, got True"),
        *((lambda c, w=w: c["channels"][0].update({"lambda": w}), "channel 0 lambda")
          for w in (None, [1.0], "2", True)),
        (lambda c: c.update(epsilon=10**400), "epsilon is out of range"),
        (lambda c: c.update(mu0=[True, 0.0]), "mu0 entry must be a number, got True"),
        (lambda c: c.update(mu0=None), "mu0 entry must be a number, got None"),
        (lambda c: c.update(sigma0=[["2", 0.0], [0.0, 1.0]]),
         "sigma0 entry must be a number, got '2'"),
        (lambda c: c.update(sigma0=[[{}, 0.0], [0.0, 1.0]]),
         "sigma0 entry must be a number, got {}"),
        (lambda c: c["channels"][0].update(sigma_n=[[1.0, 0.0], [0.0, True]]),
         "channel 0 sigma_n entry must be a number, got True"),
        (lambda c: c["channels"][0].update(sigma_n=[[1.0], [0.0, 1.0]]),
         "channel 0 sigma_n entry must be a number, got [1.0]"),
    ])
    def test_schema_rejections(self, mutate, fragment):
        cfg = self.base_cfg()
        mutate(cfg)
        with pytest.raises(ConfigError) as exc:
            problem_from_config(cfg)
        assert fragment in str(exc.value)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            problem_from_config([1, 2])

    def test_saved_file_is_valid_json(self, tmp_path, demo_ensemble):
        path = tmp_path / "cfg.json"
        save_config(path, demo_ensemble, isotropic_ball(3, 1.0, 0.0))
        cfg = json.loads(path.read_text())
        assert set(cfg) == {"dimension", "mu0", "sigma0", "channels", "epsilon"}
