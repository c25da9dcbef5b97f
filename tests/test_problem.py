"""Validation and config round trips for the problem data layer."""

import json
from pathlib import Path

import numpy as np
import pytest

from mmse_bounds import (
    ChannelEnsemble,
    ConfigError,
    DimensionMismatch,
    DivergenceBall,
    GaussianReference,
    NegativeRadius,
    NonPositiveWeight,
    NonSymmetric,
    NotPositiveDefinite,
    Problem,
    ProblemValidationError,
    load_config,
    problem_from_config,
    save_config,
    validate_problem,
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
        ens = ChannelEnsemble.from_arrays([sn], [1.0])
        with pytest.raises(NonSymmetric):
            validate_problem(ens, isotropic_ball(2, 1.0, 0.1))

    def test_indefinite_noise(self):
        sn = np.array([[1.0, 2.0], [2.0, 1.0]])
        ens = ChannelEnsemble.from_arrays([sn], [1.0])
        with pytest.raises(NotPositiveDefinite):
            validate_problem(ens, isotropic_ball(2, 1.0, 0.1))

    def test_nonfinite_entries(self):
        sn = np.array([[1.0, 0.0], [0.0, np.inf]])
        ens = ChannelEnsemble.from_arrays([sn], [1.0])
        with pytest.raises(NotPositiveDefinite):
            validate_problem(ens, isotropic_ball(2, 1.0, 0.1))
        for mean in ([np.nan, 0.0], [0.0, -np.inf]):
            ball = DivergenceBall(GaussianReference(np.array(mean), np.eye(2)), 0.1)
            with pytest.raises(ProblemValidationError, match="reference mean"):
                validate_problem(small_ensemble(), ball)

    def test_indefinite_reference(self):
        ball = DivergenceBall(GaussianReference(np.zeros(2), -np.eye(2)), 0.1)
        with pytest.raises(NotPositiveDefinite):
            validate_problem(small_ensemble(), ball)

    def test_dimension_mismatch_channel(self):
        ens = ChannelEnsemble.from_arrays([np.eye(2), np.eye(3)], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            validate_problem(ens, isotropic_ball(2, 1.0, 0.1))

    def test_dimension_mismatch_mean(self):
        ball = DivergenceBall(GaussianReference(np.zeros(3), np.eye(2)), 0.1)
        with pytest.raises(DimensionMismatch):
            validate_problem(small_ensemble(), ball)

    def test_nonsquare_matrix(self):
        ens = ChannelEnsemble.from_arrays([np.ones((2, 3))], [1.0])
        with pytest.raises(DimensionMismatch):
            validate_problem(ens, isotropic_ball(2, 1.0, 0.1))
        empty = ChannelEnsemble.from_arrays([np.eye(0)], [1.0])
        with pytest.raises(DimensionMismatch, match="reference covariance must be a nonempty"):
            validate_problem(empty, DivergenceBall(GaussianReference(np.zeros(0), np.eye(0)),
                                                   0.1))

    def test_zero_weight(self):
        for weight in (0.0, np.inf):
            ens = ChannelEnsemble.from_arrays([np.eye(2), np.eye(2)], [1.0, weight])
            with pytest.raises(NonPositiveWeight, match=f"channel 1 weight {weight}") as exc:
                validate_problem(ens, isotropic_ball(2, 1.0, 0.1))
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
            validate_problem(ChannelEnsemble(()), isotropic_ball(2, 1.0, 0.1))

    def test_error_carries_channel_index(self):
        ens = ChannelEnsemble.from_arrays([np.eye(2), -np.eye(2)], [1.0, 1.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_problem(ens, isotropic_ball(2, 1.0, 0.1))
        assert exc.value.channel == 1


class TestEnsemble:
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
