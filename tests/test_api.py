"""Public surface: every exported name resolves, and the names the
benchmark under perfbench/ reads still exist.

The benchmark's tracer skips a module attribute it cannot find instead of
failing, so a removal there would only show as a layer that reads 0.
"""

import importlib

import pytest

import mmse_bounds

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


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"mmse_bounds.{module}"), attr))
