"""Public surface: `__all__` is exactly PUBLIC, every exported name
resolves, and the names the benchmark under perfbench/ reads still exist.
A change to the public API is an edit to PUBLIC.

The benchmark's tracer skips a module attribute it cannot find instead of
failing, so a removal there would only show as a layer that reads 0.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmse_bounds

PUBLIC = [
    "BoundResult", "BracketFailure", "ChannelEnsemble", "ConfigError", "DegenerateWeights",
    "DimensionMismatch", "DivergenceBall", "FisherUndefined", "Gaussian",
    "GaussianReference", "GeneralizedGaussian", "McEstimate", "MmseSummary",
    "NegativeRadius", "NoConvergence", "NoiseLost", "NonPositiveWeight", "NonSymmetric",
    "NotPositiveDefinite", "PriorSpec", "Problem",
    "ProblemValidationError", "SingularReference", "SingularSum", "UniformBall",
    "cramer_rao_lower", "gaussian_log_density", "gen_gauss_covariance",
    "gen_gauss_epsilon", "gen_gauss_fisher", "kl_same_mean_gaussians",
    "linear_estimator_mse", "lmmse_upper", "load_config", "local_bound",
    "local_bounds_weighted", "log_density", "mc_kl", "mc_weighted_sum", "mmse_matrix",
    "mmse_trace", "opt_covariance_residual", "prior_moments", "problem_from_config",
    "save_config", "solve_bound", "uniform_ball_epsilon", "uniform_ball_moments",
    "validate_problem", "weight_matrix", "weighted_mmse_sum",
]

# removed on purpose: unused by the bounds, the CLI and the benchmark
REMOVED = ["LinearEstimator", "linear_estimate", "mc_mmse", "sample_prior",
           "moment_match", "DegenerateSample", "Direction", "PriorMoments"]

# names perfbench/workloads.py reads from the package
BENCHMARK_NAMES = [
    "ChannelEnsemble", "DivergenceBall", "GaussianReference",
    "validate_problem", "solve_bound", "load_config",
    "BracketFailure", "NoConvergence",
    "kl_same_mean_gaussians", "opt_covariance_residual", "weighted_mmse_sum",
]

# (module, attribute) pairs perfbench/tracing.py wraps
TRACED = [
    ("cli", "solve_bound"), ("cli", "local_bounds_weighted"),
    ("solver", "solve_bound"), ("solver", "validate_problem"),
    ("cli", "mc_weighted_sum"), ("mc", "gaussian_log_density"),
    ("mc", "log_density"), ("mc", "prior_moments"),
    ("cli", "gen_gauss_covariance"), ("cli", "gen_gauss_epsilon"),
    ("cli", "gen_gauss_fisher"), ("cli", "uniform_ball_epsilon"),
    ("cli", "uniform_ball_moments"), ("cli", "lmmse_upper"),
    ("cli", "cramer_rao_lower"), ("cli", "load_config"),
    ("cli", "validate_problem"),
]

# traced, but reached only through mc_kl, which no subcommand calls
UNREACHED = [("mc", "gaussian_log_density"), ("mc", "log_density")]

DEMO_CONFIG = str(Path(__file__).resolve().parents[1] / "examples" / "paper_fig1.json")


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 51
    assert mmse_bounds.__all__ == PUBLIC


def test_one_gaussian_type():
    # the reference, the moment match and the Gaussian prior are one class
    assert mmse_bounds.GaussianReference is mmse_bounds.Gaussian
    spec = mmse_bounds.PriorSpec(mmse_bounds.UniformBall(2.0), 2)
    ball = mmse_bounds.DivergenceBall(mmse_bounds.prior_moments(spec), 0.1)
    ensemble = mmse_bounds.ChannelEnsemble.from_arrays([np.eye(2)], [1.0])
    prob = mmse_bounds.validate_problem(ensemble, ball)
    assert prob.reference == ball.reference


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(mmse_bounds, name)


def test_all_names_resolve():
    assert len(set(mmse_bounds.__all__)) == len(mmse_bounds.__all__)
    assert [n for n in mmse_bounds.__all__ if not hasattr(mmse_bounds, n)] == []


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_name_is_exported(name):
    assert name in mmse_bounds.__all__
    assert getattr(mmse_bounds, name) is not None


def test_cli_main_is_reachable():
    importlib.import_module("mmse_bounds.cli")  # as the benchmark loads it
    assert callable(mmse_bounds.cli.main)


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    src = os.path.dirname(os.path.dirname(mmse_bounds.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, mmse_bounds.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"mmse_bounds.{module}"), attr))


def test_traced_names_are_reached(monkeypatch, capsys):
    # a traced name that the program stops calling through its module
    # global (a function object kept in a table, say) loses its spans
    # without any error; every pair must still see a call
    calls = dict.fromkeys(TRACED, 0)
    for module, attr in TRACED:
        mod = importlib.import_module(f"mmse_bounds.{module}")

        def counted(*args, _real=getattr(mod, attr), _key=(module, attr), **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    for argv in (["sweep-p", "--grid", "1.5"], ["sweep-ball", "--grid", "1"],
                 ["verify", "--prior", "gen-gauss:1", "--n-outer", "100", "--n-inner", "100"]):
        assert mmse_bounds.cli.main([argv[0], "--config", DEMO_CONFIG, *argv[1:]]) == 0
    capsys.readouterr()
    assert [pair for pair, n in calls.items() if n == 0 and pair not in UNREACHED] == []
