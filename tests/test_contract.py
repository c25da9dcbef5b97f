"""The entry contract, as one property over every name of `__all__`.

Each case replaces one array or number argument of one public entry by a
malformed or extreme value, with every other argument good, and calls the
entry. The contract: the entry returns a finite answer, or +-inf only
where the exact value lies beyond the double range (`BEYOND_DOUBLES`), or
raises a package exception whose message names the argument. NaN is
never an answer. A channel index is read as a list index is, so a
non-integer one may raise the TypeError a list raises. A solve that
accepts its input may still fail to certify (NoConvergence), and the
Monte Carlo oracle may refuse its draws (DegenerateWeights, NoiseLost);
those are the package's own failures on accepted input, not breaks.

The bad values are the fixed lists `BAD_ARRAYS` and `BAD_NUMBERS`, and
the property draws its cases with `sampled_from` alone, so the numeric
literals Hypothesis draws from loaded modules cannot change what it
draws; the test checks that the examples visit every case. A case that
breaks the contract for a reason an open ROADMAP item names is not in
the property: it is a strict xfail in `test_known_break`, which names
the item, so it shows when it starts to pass.

Beside the property, `test_drift_case` pins one message per scalar check
that the package spelled apart from its readers before they were
`gaussian._real` and `gaussian._integer`.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mmse_bounds as mb
from mmse_bounds import (
    ChannelEnsemble,
    DegenerateWeights,
    DivergenceBall,
    Gaussian,
    GeneralizedGaussian,
    NoConvergence,
    NoiseLost,
    PriorSpec,
    UniformBall,
)
from mmse_bounds.cli import noise_from_distances

I2 = np.eye(2)
NOISE = [I2, np.array([[2.0, 0.3], [0.3, 1.0]])]
WEIGHTS = [1.0, 0.5]
ENS = ChannelEnsemble.from_arrays(NOISE, WEIGHTS)
REF = Gaussian(np.zeros(2), I2)
BALL = DivergenceBall(REF, 0.1)
PROB = mb.validate_problem(ENS, BALL)

BAD_ARRAYS = {  # each in place of a (2, 2) matrix, or of any other array argument
    "None": None,
    "a string": "abc",
    "ragged": [[1.0], [1.0, 2.0]],
    "0-d": np.array(1.0),
    "complex": np.array([[2.0, 1j], [-1j, 2.0]]),
    "object": np.eye(2, dtype=object),
    "bool": np.eye(2, dtype=bool),
    "3-D": np.ones((2, 2, 2)),
    "empty": np.zeros((0, 0)),
    "not square": np.ones((2, 3)),
    "NaN": np.full((2, 2), np.nan),
    "inf": np.full((2, 2), np.inf),
    "-I": -I2,
    "0": np.zeros((2, 2)),
    "asymmetric": np.array([[1.0, 5.0], [0.0, 1.0]]),
    "1e308 I": 1e308 * I2,
    "1e-320 I": 1e-320 * I2,
    "3x3 I": np.eye(3),
}
BAD_NUMBERS = {  # each in place of a number or an integer
    "None": None,
    "a string": "abc",
    "NaN": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0": 0,
    "-1": -1,
    "1e308": 1e308,
    "1e-320": 1e-320,
    "an array": np.array([1.0, 2.0]),
    "a list": [1.0],
    "a bool": True,
    "10**400": 10**400,
}


def _config(**changes):
    cfg = {"dimension": 2, "mu0": [0.0, 0.0], "sigma0": I2.tolist(), "epsilon": 0.1,
           "channels": [{"lambda": w, "sigma_n": n.tolist()} for n, w in zip(NOISE, WEIGHTS)]}
    channel = changes.pop("channel", {})
    cfg["channels"][0].update(channel)
    cfg.update(changes)
    return cfg


def _solve(direction, noise=NOISE[0], weight=WEIGHTS[0], epsilon=0.1):
    ens = ChannelEnsemble.from_arrays([noise, NOISE[1]], [weight, WEIGHTS[1]])
    return mb.solve_bound(direction, ens, DivergenceBall(REF, epsilon))


# entry -> [(argument, kind, the fragments one of which its error names, call)]
ENTRIES = {
    "ChannelEnsemble": [
        ("from_arrays noise_covariances", "array", ("noise covariance",),
         lambda v: ChannelEnsemble.from_arrays([v, NOISE[1]], WEIGHTS)),
        ("from_arrays weights", "number", ("weight",),
         lambda v: ChannelEnsemble.from_arrays(NOISE, [v, WEIGHTS[1]])),
        ("noise_stack", "array", ("noise covariance",), lambda v: ChannelEnsemble(v, WEIGHTS)),
        ("weights", "number", ("weight",), lambda v: ChannelEnsemble(tuple(NOISE), v)),
    ],
    "DivergenceBall": [
        ("reference covariance", "array", ("reference",),  # a 3x3 one: the mean's K is wrong
         lambda v: DivergenceBall(Gaussian(np.zeros(2), v), 0.1)),
        ("reference mean", "array", ("reference mean",),
         lambda v: DivergenceBall(Gaussian(v, I2), 0.1)),
        ("epsilon", "number", ("epsilon",), lambda v: DivergenceBall(REF, v)),
    ],
    "Gaussian": [  # checked where it enters: a ball, or a prior
        ("covariance", "array", ("Gaussian prior",),
         lambda v: PriorSpec(Gaussian(np.zeros(2), v), 2)),
        ("mean", "array", ("Gaussian prior mean",), lambda v: PriorSpec(Gaussian(v, I2), 2)),
    ],
    "GeneralizedGaussian": [("p", "number", ("exponent p",), GeneralizedGaussian)],
    "UniformBall": [("radius", "number", ("radius",), UniformBall)],
    "PriorSpec": [("dimension", "number", ("dimension",),
                   lambda v: PriorSpec(UniformBall(1.0), v))],
    "Problem": [("reference covariance", "array", ("reference",),
                 lambda v: mb.Problem(ENS, DivergenceBall(Gaussian(np.zeros(2), v), 0.1)))],
    "validate_problem": [("epsilon", "number", ("epsilon",),
                          lambda v: mb.validate_problem(ENS, DivergenceBall(REF, v)))],
    "problem_from_config": [
        ("dimension", "number", ("dimension",), lambda v: mb.problem_from_config(
            _config(dimension=v))),
        ("epsilon", "number", ("epsilon",), lambda v: mb.problem_from_config(_config(epsilon=v))),
        ("lambda", "number", ("channel 0 lambda", "channel 0 weight"),
         lambda v: mb.problem_from_config(_config(channel={"lambda": v}))),
        ("mu0", "array", ("mu0",), lambda v: mb.problem_from_config(_config(mu0=v))),
        ("sigma0", "array", ("sigma0", "reference covariance"),
         lambda v: mb.problem_from_config(_config(sigma0=v))),
        ("sigma_n", "array", ("channel 0 sigma_n", "channel 0 noise covariance"),
         lambda v: mb.problem_from_config(_config(channel={"sigma_n": v}))),
    ],
    **{name: [("sigma_x", "array", ("sigma_x",), lambda v, f=getattr(mb, name): f(v, ENS))]
       for name in ("weighted_mmse_sum", "lmmse_upper", "mmse_matrix", "weight_matrix")},
    "opt_covariance_residual": [
        ("alpha", "number", ("alpha",), lambda v: mb.opt_covariance_residual(v, I2, ENS, REF)),
        ("sigma_x", "array", ("sigma_x",),
         lambda v: mb.opt_covariance_residual(0.1, v, ENS, REF)),
        ("reference covariance", "array", ("sigma_0",),
         lambda v: mb.opt_covariance_residual(0.1, I2, ENS, Gaussian(np.zeros(2), v))),
    ],
    "kl_same_mean_gaussians": [
        ("sigma_x", "array", ("sigma_x", "sigma_0"), lambda v: mb.kl_same_mean_gaussians(v, I2)),
        ("sigma_0", "array", ("sigma_0",), lambda v: mb.kl_same_mean_gaussians(I2, v)),
    ],
    "linear_estimator_mse": [
        ("gains", "array", ("gains",),
         lambda v: mb.linear_estimator_mse(v, I2, ENS)),
        ("prior_cov", "array", ("prior_cov",),
         lambda v: mb.linear_estimator_mse(mb.weight_matrix(I2, ENS), v, ENS)),
    ],
    "cramer_rao_lower": [("fisher", "number", ("fisher",),
                          lambda v: mb.cramer_rao_lower(v, ENS))],
    **{name: [("p", "number", ("exponent p", "p="), lambda v, f=getattr(mb, name): f(v, 2)),
              ("k", "number", ("dimension",), lambda v, f=getattr(mb, name): f(1.0, v))]
       for name in ("gen_gauss_covariance", "gen_gauss_fisher", "gen_gauss_epsilon")},
    **{name: [("radius", "number", ("radius",), lambda v, f=getattr(mb, name): f(v, 2)),
              ("k", "number", ("dimension",), lambda v, f=getattr(mb, name): f(1.0, v))]
       for name in ("uniform_ball_epsilon", "uniform_ball_moments")},
    "prior_moments": [("p", "number", ("exponent p",),
                       lambda v: mb.prior_moments(PriorSpec(GeneralizedGaussian(v), 2)))],
    "log_density": [("points", "array", ("points",),
                     lambda v: mb.log_density(PriorSpec(GeneralizedGaussian(1.0), 2), v))],
    "mc_weighted_sum": [
        (name, "number", (name,), lambda v, name=name: mb.mc_weighted_sum(
            PriorSpec(GeneralizedGaussian(1.0), 2), ENS,
            **{"n_outer": 100, "n_inner": 100, "seed": 0, name: v}))
        for name in ("n_outer", "n_inner", "seed")],
    "solve_bound": [
        *((f"{d} start", "array", ("start",), lambda v, d=d: mb.solve_bound(d, PROB, BALL, v))
          for d in ("lower", "upper")),
        *((f"{d} epsilon", "number", ("epsilon",), lambda v, d=d: _solve(d, epsilon=v))
          for d in ("lower", "upper")),
        *((f"{d} noise covariance", "array", ("noise covariance",),
           lambda v, d=d: _solve(d, noise=v)) for d in ("lower", "upper")),
        *((f"{d} weight", "number", ("weight",), lambda v, d=d: _solve(d, weight=v))
          for d in ("lower", "upper")),
    ],
    "local_bound": [("channel_index", "number", ("channel_index",),
                     lambda v: mb.local_bound("upper", PROB, v, BALL))],
    "local_bounds_weighted": [("weight", "number", ("weight",), lambda v: mb.local_bounds_weighted(
        "upper", ChannelEnsemble.from_arrays(NOISE, [v, WEIGHTS[1]]), BALL))],
}

# public names that take no array or number of their own, and why
NOT_ENTRIES = {
    **dict.fromkeys(["BracketFailure", "ConfigError", "DegenerateWeights", "DimensionMismatch",
                     "FisherUndefined", "NegativeRadius", "NoConvergence", "NoiseLost",
                     "NonPositiveWeight", "NonSymmetric", "NotPositiveDefinite",
                     "ProblemValidationError"], "an exception class"),
    **dict.fromkeys(["BoundResult", "McEstimate", "MmseSummary"],
                    "a result, built by the package from checked values"),
    "GaussianReference": "the same class as Gaussian",
    "load_config": "a path; the config it parses is problem_from_config's",
    "save_config": "a path and checked objects",
}

# the cases whose exact value lies beyond the double range; numpy's
# overflow warning is the expected one there
BEYOND_DOUBLES = {
    ("kl_same_mean_gaussians", "sigma_x", "1e308 I"),  # (2e308 - 2 - 2 log 1e308) / 2
    ("kl_same_mean_gaussians", "sigma_0", "1e-320 I"),  # tr(Sigma_0^-1) / 2 = 1e320
    ("gen_gauss_fisher", "p", "1e308"),  # p^(2 - 2/p) / Gamma(2/p) = 2e308 at K = 2
}

# (entry, argument, bad value) -> why the answer breaks the contract, and
# the ROADMAP item whose fix mends it: a norm or a quadratic form of
# entries near the ends of the double range over- or underflows, where a
# scaling by a power of two would not
KNOWN_BREAKS = {
    ("opt_covariance_residual", "alpha", "1e308"):
        "inf where the exact residual is about 4.3e307 (item 36)",
    ("opt_covariance_residual", "sigma_x", "1e308 I"): "NaN (item 36)",
    ("opt_covariance_residual", "sigma_x", "1e-320 I"): "NaN (item 36)",
    ("opt_covariance_residual", "reference covariance", "1e308 I"):
        "inf, through numpy's overflow warning (item 36)",
    ("log_density", "points", "1e308 I"):
        "-inf where the exact log density is about -1e308 (item 36)",
}

CASES = [(entry, i, label) for entry, slots in ENTRIES.items()
         for i, (_, kind, _, _) in enumerate(slots)
         for label in (BAD_ARRAYS if kind == "array" else BAD_NUMBERS)]
CASES = [c for c in CASES if (c[0], ENTRIES[c[0]][c[1]][0], c[2]) not in KNOWN_BREAKS]


def _answer_floats(value):
    """Every float the answer holds: its own, its arrays', its fields'."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value)
                for x in _answer_floats(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _answer_floats(v)]
    if isinstance(value, (float, np.floating, np.ndarray)):
        return np.asarray(value, dtype=float).ravel().tolist()
    return []


def breach(entry, index, label):
    """None if the call of `entry` with argument `index` set to the bad value
    `label` keeps the contract, and otherwise what it did instead."""
    argument, kind, fragments, call = ENTRIES[entry][index]
    value = (BAD_ARRAYS if kind == "array" else BAD_NUMBERS)[label]
    try:
        with np.errstate(over="ignore" if (entry, argument, label) in BEYOND_DOUBLES else "warn"):
            answer = call(value)
    except (NoConvergence, DegenerateWeights, NoiseLost):
        return None
    except (ValueError, IndexError, TypeError) as exc:
        if any(f in str(exc) for f in fragments) or (
                argument == "channel_index" and type(exc) is TypeError):
            return None
        return f"{type(exc).__name__}: {exc}"
    floats = _answer_floats(answer)
    if any(math.isnan(x) for x in floats):
        return f"NaN in {answer!r}"
    if (entry, argument, label) not in BEYOND_DOUBLES and any(math.isinf(x) for x in floats):
        return f"inf in {answer!r}"
    return None


def test_every_public_name_is_classified():
    assert set(ENTRIES).isdisjoint(NOT_ENTRIES)
    assert sorted({*ENTRIES, *NOT_ENTRIES}) == sorted(mb.__all__)


@pytest.mark.filterwarnings("error")
def test_every_entry_keeps_the_contract():
    seen = set()

    @settings(max_examples=2 * len(CASES), derandomize=True, database=None,
              phases=[Phase.generate], deadline=None)
    @given(st.sampled_from(CASES))
    def keeps_the_contract(case):
        seen.add(case)
        assert breach(*case) is None, case

    keeps_the_contract()
    assert sorted(set(CASES) - seen) == []


@pytest.mark.parametrize("entry, argument, label", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=why))
    for case, why in KNOWN_BREAKS.items()])
def test_known_break(entry, argument, label):
    index = [slot[0] for slot in ENTRIES[entry]].index(argument)
    assert breach(entry, index, label) is None


COMPLEX = np.array([[2.0, 1j], [-1j, 2.0]])  # Hermitian; its real part is 2 I


DRIFT_CASES = [  # (call, error, message)
    (lambda: mb.gen_gauss_covariance(1.0, 2.5), ValueError,
     "dimension must be an integer >= 1, got 2.5"),
    (lambda: mb.gen_gauss_epsilon(1.0, math.nan), ValueError,
     "dimension must be an integer >= 1, got nan"),
    (lambda: mb.gen_gauss_covariance(1e-320, 2), ValueError,
     "exponent p=1e-320, K=2 overflows double precision"),
    (lambda: DivergenceBall(REF, "a"), mb.NegativeRadius,
     "radius epsilon=a must be a finite nonnegative number"),
    (lambda: GeneralizedGaussian("a"), ValueError, "exponent p must be a number, got 'a'"),
    (lambda: UniformBall(math.nan), ValueError,
     "radius must be a finite positive number, got nan"),
    (lambda: noise_from_distances((1.0,), "a", 2.0, 1.0, 2), ValueError,
     "decay must be a number, got 'a'"),
    (lambda: noise_from_distances((1.0,), 1.0, 2.0, -1.0, 2), ValueError,
     "base noise must be a finite positive number, got -1.0"),
    (lambda: mb.mc_weighted_sum(PriorSpec(REF, 2), ENS, 100, 100, -1), ValueError,
     "seed must be >= 0, got -1"),
    (lambda: mb.mc_weighted_sum(PriorSpec(REF, 2), ENS, 100.0, 100, 0), ValueError,
     "n_outer must be an integer >= 100, got 100.0"),
    (lambda: mb.mc_weighted_sum(PriorSpec(REF, 2), ENS, 100, 10**400, 0), ValueError,
     f"n_inner must be <= {np.iinfo(np.intp).max}, got 1000"),
    (lambda: mb.cramer_rao_lower(I2, ENS), mb.FisherUndefined, "fisher must be a number, got "),
    (lambda: mb.local_bound("upper", ENS, 5, BALL), IndexError,
     "channel_index of 2 channels must be <= 1, got 5"),
    (lambda: mb.opt_covariance_residual(math.nan, I2, ENS, REF), ValueError,
     "alpha must be a finite number, got nan"),
    (lambda: mb.log_density(PriorSpec(REF, 2), np.zeros((2, 2, 2))), mb.DimensionMismatch,
     "points must be a point or an (n, K) array, got shape (2, 2, 2)"),
    (lambda: mb.log_density(PriorSpec(REF, 2), [math.inf, 0.0]), mb.ProblemValidationError,
     "points have non-finite entries"),
    (lambda: ChannelEnsemble((I2, I2), [[1.0], [1.0, 2.0]]), mb.DimensionMismatch,
     "weights is not an array of real numbers"),
    (lambda: ChannelEnsemble(np.float64(1.0), [1.0]), mb.DimensionMismatch,
     "0 noise covariances for 1 weights"),
    (lambda: mb.problem_from_config(_config(dimension=0)), mb.ConfigError,
     "dimension must be >= 1, got 0"),
]


@pytest.mark.parametrize("case", DRIFT_CASES, ids=lambda case: case[2])
def test_drift_case(case):
    # each raised numpy's or Python's own error, or returned a value, where
    # another entry refused the same argument by name
    call, error, message = case
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


@pytest.mark.parametrize("name, call", [
    ("channel 0 noise covariance", lambda v: ChannelEnsemble.from_arrays([v], [1.0])),
    ("weights", lambda v: ChannelEnsemble.from_arrays([I2], [1.0 + 0j])),
    ("sigma_x", lambda v: mb.weighted_mmse_sum(v, ENS)),
    ("sigma_0", lambda v: mb.kl_same_mean_gaussians(I2, v)),
    ("reference mean", lambda v: DivergenceBall(Gaussian(np.array([1j, 0.0]), I2), 0.1)),
    ("start", lambda v: mb.solve_bound("upper", ENS, BALL, start=v)),
    ("gains", lambda v: mb.linear_estimator_mse(np.stack([v, v]), I2, ENS)),
    ("points", lambda v: mb.log_density(PriorSpec(REF, 2), v[0])),
], ids=lambda x: x if isinstance(x, str) else "")
def test_complex_input_is_refused_by_name(name, call):
    # numpy read each as its real part, with only a ComplexWarning
    with pytest.raises(mb.DimensionMismatch,
                       match=f"^{name} is not an array of real numbers$") as info:
        call(COMPLEX)
    assert info.value.channel == (0 if name.startswith("channel") else None)
