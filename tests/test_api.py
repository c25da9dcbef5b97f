"""Public surface: `__all__` is exactly PUBLIC, every exported name
resolves, and the names the benchmark under perfbench/ reads still exist.
A change to the public API is an edit to PUBLIC. numpy's private API is
named by `_kernels.py` alone, and the solver and the closed forms that
check it (`gaussian.py`) import nothing from each other.

The benchmark's tracer skips a module attribute it cannot find instead of
failing, so a removal there would only show as a layer that reads 0.
"""

import ast
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
    "ProblemValidationError", "UniformBall",
    "cramer_rao_lower", "gen_gauss_covariance",
    "gen_gauss_epsilon", "gen_gauss_fisher", "kl_same_mean_gaussians",
    "linear_estimator_mse", "lmmse_upper", "load_config", "local_bound",
    "local_bounds_weighted", "log_density", "mc_weighted_sum", "mmse_matrix",
    "opt_covariance_residual", "prior_moments", "problem_from_config",
    "save_config", "solve_bound", "uniform_ball_epsilon", "uniform_ball_moments",
    "validate_problem", "weight_matrix", "weighted_mmse_sum",
]

# removed on purpose: unused by the bounds, the CLI and the benchmark
REMOVED = ["LinearEstimator", "linear_estimate", "mc_mmse", "sample_prior",
           "moment_match", "DegenerateSample", "Direction", "PriorMoments",
           "mc_kl", "gaussian_log_density", "SingularSum", "SingularReference",
           "mmse_trace"]

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
    ("cli", "mc_weighted_sum"), ("mc", "prior_moments"),
    ("cli", "gen_gauss_covariance"), ("cli", "gen_gauss_epsilon"),
    ("cli", "gen_gauss_fisher"), ("cli", "uniform_ball_epsilon"),
    ("cli", "uniform_ball_moments"), ("cli", "lmmse_upper"),
    ("cli", "cramer_rao_lower"), ("cli", "load_config"),
    ("cli", "validate_problem"),
]

DEMO_CONFIG = str(Path(__file__).resolve().parents[1] / "examples" / "paper_fig1.json")


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 46
    assert mmse_bounds.__all__ == PUBLIC


def test_one_gaussian_type():
    # the reference, the moment match and the Gaussian prior are one class
    assert mmse_bounds.GaussianReference is mmse_bounds.Gaussian
    spec = mmse_bounds.PriorSpec(mmse_bounds.UniformBall(2.0), 2)
    ball = mmse_bounds.DivergenceBall(mmse_bounds.prior_moments(spec), 0.1)
    ensemble = mmse_bounds.ChannelEnsemble.from_arrays([np.eye(2)], [1.0])
    prob = mmse_bounds.validate_problem(ensemble, ball)
    assert prob.reference == ball.reference


@pytest.mark.parametrize("value", [
    mmse_bounds.Gaussian(np.zeros(2), np.eye(2)),
    mmse_bounds.ChannelEnsemble.from_arrays([np.eye(2)], [1.0]),
], ids=["Gaussian", "ChannelEnsemble"])
def test_equality_with_another_type(value):
    assert type(value).__eq__(value, object()) is NotImplemented
    assert value != object()


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


PRIVATE_NUMPY = {"_core", "_umath_linalg", "c_einsum"}


def _private_numpy_names(path):
    """The names of numpy's private API that the module at `path` imports or
    reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [name for name in names if PRIVATE_NUMPY & set(name.split("."))]
    return found


def test_only_kernels_names_private_numpy():
    package = Path(mmse_bounds.__file__).parent
    names = {path.name: _private_numpy_names(path) for path in sorted(package.glob("*.py"))}
    assert names.pop("_kernels.py")  # the scan sees the one module that names them
    assert {module: found for module, found in names.items() if found} == {}


def _package_imports(path):
    """The modules the module at `path` imports from, the package's by bare
    name (`from . import gaussian` and `from .gaussian import f` alike)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found |= ({alias.name for alias in node.names}
                      if node.module in (None, "mmse_bounds") else {node.module})
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
    return {name.removeprefix("mmse_bounds.") for name in found}


def test_solver_shares_no_arithmetic_with_its_checks():
    # the closed forms that certify a solve in tests and in the benchmark
    # (`weighted_mmse_sum`, `opt_covariance_residual`) live in gaussian.py,
    # which imports none of the solver's code; the solver imports none of
    # theirs and computes f itself (`solver._value`)
    package = Path(mmse_bounds.__file__).parent
    assert "gaussian" not in _package_imports(package / "solver.py")
    assert _package_imports(package / "gaussian.py") & {"solver", "_kernels", "separable"} == set()
    assert mmse_bounds.opt_covariance_residual.__module__ == "mmse_bounds.gaussian"


def _covariance_decisions(node):
    """The Cholesky calls and the raises of NonSymmetric and NotPositiveDefinite
    under `node`, by name."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and ast.unparse(n.func).rpartition(".")[2] == "cholesky":
            found.append("cholesky")
        elif isinstance(n, ast.Raise) and n.exc is not None:
            exc = ast.unparse(n.exc.func if isinstance(n.exc, ast.Call) else n.exc)
            if exc in {"NonSymmetric", "NotPositiveDefinite"}:
                found.append(exc)
    return sorted(found)


def test_one_covariance_check():
    # gaussian.py decides what a covariance is in `_read` alone: it holds
    # the module's one Cholesky factorization and every raise of the two
    # errors that say a matrix is not a covariance
    path = Path(mmse_bounds.__file__).parent / "gaussian.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert {"_as_matrix", "_check_spd", "_check_symmetric", "_cholesky"} & set(functions) == set()
    assert _covariance_decisions(tree) == _covariance_decisions(functions["_read"]) == [
        "NonSymmetric", "NotPositiveDefinite", "NotPositiveDefinite", "cholesky"]


def _calls_of(name):
    """The functions of the package that call `name` (a method as
    `Class.method`), and those calls."""
    package = Path(mmse_bounds.__file__).parent
    callers, calls = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for parent in ast.walk(tree):
            for fn in ast.iter_child_nodes(parent):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                prefix = f"{parent.name}." if isinstance(parent, ast.ClassDef) else ""
                found = [n for n in ast.walk(fn)
                         if isinstance(n, ast.Call) and ast.unparse(n.func) == name]
                if found:
                    callers.add(prefix + fn.name)
                    calls += found
    return callers, calls


def test_covariances_are_checked_where_they_enter():
    # `_read` is called by a Gaussian's check (`_checked`), by the ensemble
    # for each channel and by the public closed forms, and nowhere else in
    # the package; each call reads a covariance as it was given (a name or
    # an attribute), never a matrix computed from checked ones such as
    # `sigma_x + sigma_n`
    callers, calls = _calls_of("_read")
    assert callers == {"_checked", "ChannelEnsemble.__post_init__", "weight_matrix",
                       "mmse_matrix", "opt_covariance_residual", "kl_same_mean_gaussians",
                       "linear_estimator_mse"}
    assert [ast.unparse(c.args[0]) for c in calls
            if not isinstance(c.args[0], (ast.Name, ast.Attribute))] == []


def test_scalars_are_read_where_they_enter():
    # a scalar argument is compared with a bound in `gaussian._real` (a
    # finite number, positive or nonnegative) and `gaussian._integer` (an
    # integer in a range) alone, called where the argument enters: the
    # entries below and nothing else. The per-module checks they replaced
    # are gone
    assert _calls_of("_real")[0] == {
        "GeneralizedGaussian.__post_init__", "UniformBall.__post_init__",
        "gen_gauss_covariance", "gen_gauss_fisher", "gen_gauss_epsilon", "_ball_variance",
        "ChannelEnsemble.__post_init__", "DivergenceBall.__post_init__",
        "opt_covariance_residual", "cramer_rao_lower", "noise_from_distances"}
    assert _calls_of("_integer")[0] == {
        "PriorSpec.__post_init__", "gen_gauss_covariance", "gen_gauss_fisher",
        "gen_gauss_epsilon", "_ball_variance", "ChannelEnsemble.single", "problem_from_config",
        "mc_weighted_sum", "parse_grid", "cmd_verify", "cmd_scenario"}
    assert _calls_of("_number")[0] == {"_real", "_numbers", "problem_from_config"}
    from mmse_bounds import priors
    assert not hasattr(priors, "_check_parameter")


def test_no_scalar_bound_outside_the_readers():
    # no public function or method, nor a `__post_init__`, compares one of
    # its parameters, or an attribute of one (`self.epsilon`, `args.seed`),
    # with <, <=, > or >=: each hands it to a reader. The sensor model's
    # exponent range compares what `_real` returns. separable.py is skipped:
    # the solver alone calls it, with checked data
    package = Path(mmse_bounds.__file__).parent
    found = []
    for path in sorted(set(package.glob("*.py")) - {package / "separable.py"}):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("_") and fn.name != "__post_init__"):
                continue
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Compare) or not all(
                        isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                    continue
                for side in (node.left, *node.comparators):
                    base = side.value if isinstance(side, ast.Attribute) else side
                    if isinstance(base, ast.Name) and base.id in params:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


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
    assert [pair for pair, n in calls.items() if n == 0] == []
