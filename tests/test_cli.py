"""Command-line interface: grids, scenario generation, CSV contract, exit codes."""

import json

import numpy as np
import pytest

from mmse_bounds import (
    ChannelEnsemble,
    ConfigError,
    DegenerateWeights,
    DivergenceBall,
    FisherUndefined,
    Gaussian,
    McEstimate,
    NoConvergence,
    Problem,
    cramer_rao_lower,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    gen_gauss_fisher,
    lmmse_upper,
    load_config,
    local_bounds_weighted,
    save_config,
    solve_bound,
    uniform_ball_epsilon,
    uniform_ball_moments,
    validate_problem,
)
from mmse_bounds import cli, solver
from mmse_bounds.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    noise_from_distances,
    ordering_violation,
    parse_grid,
)
from conftest import isotropic_ball
from test_solver import FLAGGED_CASE, FLAGGED_UPPER


@pytest.fixture()
def scalar_config(tmp_path):
    """One-channel K=1 config with sigma_0 = sigma_n = 1, epsilon = 0.1."""
    path = tmp_path / "scalar.json"
    ens = ChannelEnsemble.from_arrays([[[1.0]]], [1.0])
    save_config(path, ens, isotropic_ball(1, 1.0, 0.1))
    return str(path)


@pytest.fixture()
def demo_config(tmp_path, demo_ensemble):
    path = tmp_path / "demo.json"
    save_config(path, demo_ensemble, isotropic_ball(3, 1.0, 0.1))
    return str(path)


class TestParseGrid:
    def test_colon_form(self):
        np.testing.assert_allclose(parse_grid("1:3:3"), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(parse_grid("2:2:1"), [2.0])

    def test_list_form(self):
        np.testing.assert_allclose(parse_grid("0.5,1,2"), [0.5, 1.0, 2.0])
        np.testing.assert_allclose(parse_grid("0.51"), [0.51])

    @pytest.mark.parametrize("bad", [
        "1:2", "1:2:3:4", "1:2:x", "1:2:0", "a,b", "", ",",
        "0,1,2",      # nonpositive value
        "2,1",        # not increasing
        "1,1",        # not strictly increasing
        "-1:2:3",
        "nan", "1,inf", "0.5:inf:3",  # non-finite values
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)

    def test_unallocatable_grid_is_config_error(self, demo_config, capsys, monkeypatch):
        # as numpy fails on 1:2:1000000000000; nothing here allocates that much
        def no_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(np, "linspace", no_memory)
        rc = cli.main(["sweep-p", "--config", demo_config, "--grid", "1:2:1000000000000"])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err == "error: grid '1:2:1000000000000' has too many points to allocate\n"
        assert captured.out == ""


class TestSweepRecord:
    # a sweep row is a dict keyed by CSV column; a missing column is a hole
    def test_ok_with_holes(self):
        assert ordering_violation({"p": 1.0, "epsilon": 0.1, "upper": 2.0, "lmmse": 1.5},
                                  "p") is None
        assert ordering_violation({"p": 1.0, "epsilon": 0.1, "lower": 1.0, "upper": 2.0},
                                  "p") is None

    def test_violation_raises(self):
        row = {"p": 1.0, "epsilon": 0.1, "lower": 2.0, "upper": 1.0}
        assert ordering_violation(row, "p") == (
            "ordering violation at abscissa 1.0: lower > upper (2.0 > 1.0)")
        row = {"R": 1.0, "epsilon": 0.1, "lower": 1.0, "upper": 2.0, "local_lower": 1.5}
        assert ordering_violation(row, "R") == (
            "ordering violation at abscissa 1.0: local_lower > lower (1.5 > 1.0)")

    def test_slack_tolerates_roundoff(self):
        row = {"p": 1.0, "epsilon": 0.1, "lower": 1.0 + 1e-10, "upper": 1.0}
        assert ordering_violation(row, "p") is None


class TestSensorField:
    def test_noise_oracle(self):
        # sigma_n^2 = sigma_0^2 (1 + gamma d^m): d=3, gamma=1, m=2 -> 10 I
        ens = noise_from_distances((3.0,), 1.0, 2.0, 1.0, 3)
        np.testing.assert_allclose(ens.noise_stack[0], 10.0 * np.eye(3), rtol=1e-15)

    def test_zero_distance_sensor_sees_base_noise(self):
        ens = noise_from_distances((0.0, 2.0), 0.5, 2.5, 0.3, 2)
        np.testing.assert_allclose(ens.noise_stack[0], 0.3 * np.eye(2), rtol=1e-15)

    def test_noise_grows_with_distance(self):
        ens = noise_from_distances((1.0, 2.0, 5.0), 0.8, 2.0, 0.5, 3)
        traces = [np.trace(sn) for sn in ens.noise_stack]
        assert traces == sorted(traces)
        assert traces[0] < traces[-1]

    def test_weights_default_and_override(self):
        field = ((1.0, 2.0), 1.0, 2.0, 1.0, 2)
        np.testing.assert_array_equal(noise_from_distances(*field).weights, [1.0, 1.0])
        ens = noise_from_distances(*field, weights=[0.3, 0.7])
        np.testing.assert_array_equal(ens.weights, [0.3, 0.7])
        with pytest.raises(ValueError):
            noise_from_distances(*field, weights=[1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(distances=()),
        dict(distances=(-1.0,)),
        dict(decay=-0.1),
        dict(base_noise=0.0),
        dict(exponent=1.9),
        dict(exponent=3.1),
        dict(distances=(1.0, float("nan"))),
        dict(distances=(float("inf"),)),
        dict(decay=float("nan")),
        dict(decay=float("inf")),
        dict(base_noise=float("nan")),
        dict(base_noise=float("inf")),
    ])
    def test_field_validation(self, kwargs):
        base = dict(distances=(1.0,), decay=1.0, exponent=2.0, base_noise=1.0, dimension=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            noise_from_distances(**base)


class TestScenarioCommand:
    def test_writes_loadable_config(self, tmp_path, capsys):
        out = tmp_path / "field.json"
        rc = cli.main([
            "scenario", "--distances", "0,1.5,4",
            "--gamma", "0.5", "--m", "2.5", "--sigma0", "0.8",
            "--out", str(out), "--epsilon", "0.25",
        ])
        assert rc == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        ens, ball = load_config(out)
        assert ens.count == 3
        assert ens.dimension == 3  # default
        assert ball.epsilon == 0.25
        np.testing.assert_allclose(ens.noise_stack[0], 0.8 * np.eye(3), rtol=1e-15)
        expect = 0.8 * (1.0 + 0.5 * 4.0**2.5)
        np.testing.assert_allclose(ens.noise_stack[2], expect * np.eye(3),
                                   rtol=1e-15)

    def test_dimension_and_weights(self, tmp_path):
        out = tmp_path / "field.json"
        rc = cli.main([
            "scenario", "--distances", "1,2", "--gamma", "1",
            "--m", "2", "--sigma0", "1", "--out", str(out),
            "--dimension", "2", "--weights", "0.2,0.8",
        ])
        assert rc == EXIT_OK
        ens, _ = load_config(out)
        assert ens.dimension == 2
        np.testing.assert_array_equal(ens.weights, [0.2, 0.8])

    def test_bad_exponent_is_config_error(self, tmp_path, capsys):
        rc = cli.main([
            "scenario", "--distances", "1", "--gamma", "1",
            "--m", "3.5", "--sigma0", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, fragment", [
        ("--gamma", "nan", "decay"),
        ("--dimension", "0", "--dimension must be >= 1, got 0"),
        ("--dimension", "-1", "--dimension must be >= 1, got -1"),
    ])
    def test_invalid_field_is_config_error(self, tmp_path, capsys, flag, value, fragment):
        args = {"--distances": "1", "--gamma": "1", "--m": "2",
                "--sigma0": "1", "--out": str(tmp_path / "x.json"), flag: value}
        rc = cli.main(["scenario", *(tok for item in args.items() for tok in item)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {fragment}")
        assert not (tmp_path / "x.json").exists()

    def test_unallocatable_dimension_is_config_error(self, tmp_path, capsys, monkeypatch):
        # as numpy fails on np.eye(100000); nothing here allocates that much
        def no_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(np, "eye", no_memory)
        out = tmp_path / "x.json"
        rc = cli.main(["scenario", "--distances", "1", "--gamma", "1", "--m", "2",
                       "--sigma0", "1", "--out", str(out), "--dimension", "100000"])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err == "error: --dimension 100000 is too large to allocate\n"
        assert captured.out == ""
        assert not out.exists()


class TestBoundCommand:
    def test_runs_and_reports(self, scalar_config, capsys):
        rc = cli.main(["bound", "--config", scalar_config])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "lower bound:" in out
        assert "upper bound:" in out
        assert "epsilon=0.1" in out

    def test_epsilon_override_changes_bounds(self, scalar_config, capsys):
        cli.main(["bound", "--config", scalar_config])
        base = capsys.readouterr().out
        cli.main(["bound", "--config", scalar_config, "--epsilon", "0.3"])
        wider = capsys.readouterr().out
        assert base != wider

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epsilon, failed", [("1000", ["lower"]),
                                                 ("1e5", ["lower", "upper"]),
                                                 ("1e300", ["lower", "upper"])],
                             ids=["1000", "1e5", "1e300"])
    def test_huge_radius_is_one_solver_error(self, demo_config, capsys, epsilon, failed):
        # the lower bound's trial points overflow at these radii; the search
        # passes over them, the certificate rejects what is left, and no
        # numpy warning reaches the user. Each failed bound is one solver
        # error line, and a certified upper bound is still printed
        rc = cli.main(["bound", "--config", demo_config, "--epsilon", epsilon])
        out, err = capsys.readouterr()
        assert rc == EXIT_SOLVER
        lines = err.splitlines()
        assert len(lines) == len(failed)
        for line, direction in zip(lines, failed):
            assert line.startswith(f"solver error: {direction} bound at epsilon=")
        assert ("upper bound: " in out) == ("upper" not in failed)
        assert "lower bound: " not in out

    def test_lower_end_past_the_double_range_keeps_the_upper_bound(self, tmp_path, capsys):
        config = tmp_path / "field.json"
        assert cli.main(["scenario", "--distances", "0,1.5,4", "--gamma", "0.5", "--m", "2.5",
                         "--sigma0", "0.8", "--dimension", "1", "--weights", "0.2,0.3,0.5",
                         "--out", str(config)]) == EXIT_OK
        capsys.readouterr()
        rc = cli.main(["bound", "--config", str(config), "--epsilon", "1000"])
        out, err = capsys.readouterr()
        assert rc == EXIT_SOLVER
        assert err.splitlines() == [
            "solver error: lower bound at epsilon=1000.0: the end of the interval leaves "
            "the double range (Sigma = 0.0, alpha = -inf)"]
        ensemble, ball = load_config(config)
        upper = solve_bound("upper", ensemble, DivergenceBall(ball.reference, 1000.0))
        assert f"upper bound: {upper.bound_value:.12g}  " in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flagged_lower_bound_is_one_solver_error(self, tmp_path, capsys):
        # the lower bound's search divides by zero at this radius; the flag
        # stays inside the solve, and the failure is one solver error line
        config = tmp_path / "case.json"
        save_config(config, ChannelEnsemble.from_arrays(FLAGGED_CASE["noise"],
                                                        FLAGGED_CASE["weights"]),
                    DivergenceBall(Gaussian(np.zeros(2), np.array(FLAGGED_CASE["sigma0"])), 1.0))
        rc = cli.main(["bound", "--config", str(config), "--epsilon", "1000"])
        out, err = capsys.readouterr()
        assert rc == EXIT_SOLVER
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("solver error: lower bound at epsilon=1000.0: 0 local extrema")
        assert f"upper bound: {FLAGGED_UPPER:.12g}  " in out
        assert "lower bound: " not in out

    def test_missing_config(self, capsys):
        rc = cli.main(["bound", "--config", "/nonexistent/c.json"])
        assert rc == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli.main(["bound", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path, scalar_config):
        cfg = json.loads(open(scalar_config).read())
        cfg["surprise"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["bound", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_radius_rejected_before_output(self, scalar_config, capsys, epsilon):
        rc = cli.main(["bound", "--config", scalar_config, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert "must be a finite nonnegative number" in captured.err

    @pytest.mark.parametrize("command, field, text, fragment", [
        (["bound"], '"lambda": 1.0', '"lambda": 1e400', "channel 0 weight inf"),
        (["verify", "--prior", "gaussian"], '"mu0": [0.0]', '"mu0": [NaN]', "reference mean"),
    ])
    def test_non_finite_data_is_config_error(self, tmp_path, scalar_config, capsys, command,
                                             field, text, fragment):
        raw = json.dumps(json.loads(open(scalar_config).read()))
        assert field in raw
        path = tmp_path / "bad.json"
        path.write_text(raw.replace(field, text))
        rc = cli.main([*command, "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fragment}")

    @pytest.mark.parametrize("command, fragment", [
        (["bound", "--config", "{dir}"], "[Errno 21] Is a directory"),
        (["sweep-ball", "--config", "{cfg}", "--grid", "1", "--out", "{dir}"],
         "[Errno 21] Is a directory"),
        (["bound", "--config", "{null}"], "channel 0 lambda must be a number, got None"),
        (["bound", "--config", "{true}"], "mu0 entry must be a number, got True"),
        (["bound", "--config", "{string}"], "sigma0 entry must be a number, got '2'"),
        (["bound", "--config", "{object}"], "sigma0 entry must be a number, got {}"),
    ])
    def test_unreadable_input_is_config_error(self, tmp_path, scalar_config, capsys, command,
                                              fragment):
        raw = json.dumps(json.loads(open(scalar_config).read()))
        paths = {}
        for name, field, text in (("null", '"lambda": 1.0', '"lambda": null'),
                                  ("true", '"mu0": [0.0]', '"mu0": [true]'),
                                  ("string", '"sigma0": [[1.0]]', '"sigma0": [["2"]]'),
                                  ("object", '"sigma0": [[1.0]]', '"sigma0": [[{}]]')):
            assert field in raw
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(raw.replace(field, text))
        argv = [a.format(dir=tmp_path, cfg=scalar_config, **paths) for a in command]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fragment}")
        assert captured.err.count("\n") == 1

    def test_reference_asymmetric_within_tolerance(self, tmp_path, demo_ensemble, capsys):
        # the solves read the validated (symmetrized) reference, not the raw one
        sigma0 = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
        skewed = sigma0.copy()
        skewed[0, 1] += 1e-15
        outputs = []
        for name, s0 in (("skewed", skewed), ("symmetric", 0.5 * (skewed + skewed.T))):
            path = tmp_path / f"{name}.json"
            save_config(path, demo_ensemble, DivergenceBall(Gaussian(np.zeros(3), s0),
                                                            0.2))
            assert cli.main(["bound", "--config", str(path)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert not np.array_equal(skewed, skewed.T)
        assert outputs[0] == outputs[1]

    def test_solver_failure_exit_code(self, scalar_config, monkeypatch, capsys):
        def boom(*a, **k):
            raise NoConvergence("no answer passed the checks")
        monkeypatch.setattr(cli, "solve_bound", boom)
        rc = cli.main(["bound", "--config", scalar_config])
        assert rc == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err


class TestSweepP:
    HEADER = "p,epsilon,lower,upper,local_lower,local_upper,lmmse,cramer_rao"

    def test_csv_contract(self, scalar_config, capsys):
        rc = cli.main(["sweep-p", "--config", scalar_config, "--grid", "1,2,3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == self.HEADER
        assert len(lines) == 4
        # every row fully populated for K=1 at p >= 1
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 8
            assert all(c != "" for c in cells)

    def test_p2_row_collapses(self, scalar_config, capsys):
        cli.main(["sweep-p", "--config", scalar_config, "--grid", "2:2:1"])
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        p, eps, lower, upper = float(row[0]), float(row[1]), float(row[2]), float(row[3])
        lmmse = float(row[6])
        assert p == 2.0
        assert eps == 0.0
        assert lower == pytest.approx(lmmse, rel=1e-12)
        assert upper == pytest.approx(lmmse, rel=1e-12)

    def test_byte_stable_and_out_file(self, scalar_config, tmp_path, capsys):
        args = ["sweep-p", "--config", scalar_config, "--grid", "1:3:3"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second
        out = tmp_path / "curves.csv"
        cli.main(args + ["--out", str(out)])
        assert capsys.readouterr().out == ""
        assert out.read_bytes().decode("utf-8") == first

    def test_fisher_hole_leaves_empty_cell(self, scalar_config, capsys):
        # K = 1, p < 1/2: no Fisher information, so cramer_rao is empty
        cli.main(["sweep-p", "--config", scalar_config, "--grid", "0.45,2"])
        lines = capsys.readouterr().out.strip().split("\n")
        first = lines[1].split(",")
        assert first[-1] == ""
        assert lines[2].split(",")[-1] != ""

    def test_no_convergence_names_the_row(self, scalar_config, monkeypatch, capsys):
        real = cli.solve_bound

        def lower_fails(direction, ensemble, ball):
            if str(getattr(direction, "value", direction)) == "lower":
                raise NoConvergence("no answer passed the checks")
            return real(direction, ensemble, ball)

        monkeypatch.setattr(cli, "solve_bound", lower_fails)
        rc = cli.main(["sweep-p", "--config", scalar_config, "--grid", "0.51"])
        err = capsys.readouterr().err
        assert rc == EXIT_SOLVER
        assert "solver error: p=0.51 lower: no answer passed the checks" in err

    @pytest.mark.parametrize("sigma0", ["0.01", "0.05", "0.2", "1"])
    def test_scenario_config_sweeps(self, tmp_path, capsys, sigma0):
        # isotropic sensor fields; at p = 0.51 their lower bounds need the
        # solver to leave the symmetric stationary point
        path = str(tmp_path / "field.json")
        assert cli.main(["scenario", "--distances", "1,2,4", "--gamma", "1",
                         "--m", "2", "--sigma0", sigma0,
                         "--out", path]) == EXIT_OK
        capsys.readouterr()
        rc = cli.main(["sweep-p", "--config", path, "--grid", "0.51:10:5"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.err
        lines = captured.out.strip().split("\n")
        assert lines[0] == self.HEADER and len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert all(c != "" for c in cells[2:6])  # the four bound columns
            lower, upper, lmmse = float(cells[2]), float(cells[3]), float(cells[6])
            assert lower <= lmmse <= upper

    def test_ordering_violation_aborts(self, scalar_config, monkeypatch, capsys):
        real = cli.solve_bound

        def swapped(direction, ensemble, ball):
            name = str(getattr(direction, "value", direction))
            return real("upper" if name == "lower" else "lower", ensemble, ball)

        monkeypatch.setattr(cli, "solve_bound", swapped)
        rc = cli.main(["sweep-p", "--config", scalar_config, "--grid", "1:1:1"])
        assert rc == EXIT_SOLVER
        assert "ordering violation" in capsys.readouterr().err

    def test_local_bounds_reuse_the_validated_problem(self, demo_config, demo_ensemble,
                                                      monkeypatch, capsys):
        # each subcommand validates its config and each row its ball once;
        # the local bounds of a row reuse the row's validated problem. A
        # call given a Problem returns it unchecked, so it is not counted
        calls = []

        def counted(*args, **kwargs):
            if not isinstance(args[0], Problem):
                calls.append(args)
            return validate_problem(*args, **kwargs)

        for module in (cli, solver):
            monkeypatch.setattr(module, "validate_problem", counted)
        assert cli.main(["sweep-p", "--config", demo_config, "--grid", "0.51:10:5"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(calls) == 6
        assert cli.main(["sweep-ball", "--config", demo_config, "--grid", "0.1:40:5"]) == EXIT_OK
        assert len(calls) == 12
        monkeypatch.undo()
        # the local columns equal the solves that validate every channel
        for p, row in zip(parse_grid("0.51:10:5"), rows):
            ball = DivergenceBall(Gaussian(np.zeros(3),
                                                    gen_gauss_covariance(p, 3) * np.eye(3)),
                                  gen_gauss_epsilon(p, 3))
            for col, direction in ((4, "lower"), (5, "upper")):
                value = local_bounds_weighted(direction, demo_ensemble, ball)
                assert row[col] == "%.15g" % value


def _recoloured(sigma, l0_prev, l0):
    """M Sigma M^T with M = L0 L0_prev^-1: an answer on the previous row's
    reference carried to this row's, as a sweep's warm start."""
    m = l0 @ np.linalg.inv(l0_prev)
    return m @ sigma @ m.T


def _sweep_solves(monkeypatch, argv):
    """Run a sweep and return its joint solves in call order, each as
    (direction, problem, whether it was given a start, its BoundResult)."""
    calls, real = [], cli.solve_bound

    def recorded(direction, prob, ball, **kwargs):
        res = real(direction, prob, ball, **kwargs)
        calls.append((direction, prob, "start" in kwargs, res))
        return res

    monkeypatch.setattr(cli, "solve_bound", recorded)
    assert cli.main(argv) == EXIT_OK
    monkeypatch.undo()
    return calls


class TestSweepDriver:
    @pytest.mark.parametrize("command, grid", [("sweep-p", "0.51:10:3"),
                                               ("sweep-ball", "0.1:40:3")])
    def test_cells_equal_the_library_calls(self, command, grid, demo_config,
                                           demo_ensemble, capsys):
        # every cell is %.15g of the library call at the row's (Sigma_0, eps),
        # the joint bounds from the second row on started from the row
        # before's answer; those are also the cold solves to 1e-12
        assert cli.main([command, "--config", demo_config, "--grid", grid]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        ens, both, previous = demo_ensemble, ("lower", "upper"), {}
        for x, line in zip(parse_grid(grid), lines[1:], strict=True):
            if command == "sweep-p":
                sigma0, eps = gen_gauss_covariance(x, 3) * np.eye(3), gen_gauss_epsilon(x, 3)
            else:
                sigma0, eps = uniform_ball_moments(x, 3).covariance, uniform_ball_epsilon(x, 3)
            ball = DivergenceBall(Gaussian(np.zeros(3), sigma0), eps)
            expect = [x, eps]
            for d in both:
                start = {}
                if d in previous:
                    start["start"] = _recoloured(*previous[d], ball.reference_chol)
                res = solve_bound(d, ens, ball, **start)
                cold = solve_bound(d, ens, ball).bound_value
                assert res.bound_value == pytest.approx(cold, rel=1e-12, abs=0.0)
                previous[d] = res.sigma_x, ball.reference_chol
                expect.append(res.bound_value)
            if command == "sweep-p":
                expect += [local_bounds_weighted(d, ens, ball) for d in both]
            expect.append(lmmse_upper(sigma0, ens))
            if command == "sweep-p":
                try:
                    expect.append(cramer_rao_lower(gen_gauss_fisher(x, 3), ens))
                except FisherUndefined:
                    expect.append(None)
            assert line.split(",") == ["" if v is None else "%.15g" % v for v in expect]

    @pytest.mark.parametrize("sigma0", ["0.01", "1"])
    def test_warm_rows_on_an_isotropic_field_equal_the_cold_solves(self, tmp_path, capsys,
                                                                   monkeypatch, sigma0):
        # on an isotropic field the warm lower bound follows the symmetric
        # branch; only the split at a repeated eigenvalue leaves it, as the
        # cold solve does (without it the warm cells sit up to 1e-4 above)
        path = str(tmp_path / "field.json")
        assert cli.main(["scenario", "--distances", "1,2,4", "--gamma", "1", "--m", "2",
                         "--sigma0", sigma0, "--out", path]) == EXIT_OK
        calls = _sweep_solves(monkeypatch,
                              ["sweep-ball", "--config", path, "--grid", "0.1:40:25"])
        capsys.readouterr()
        assert len(calls) == 50 and sum(warm for _, _, warm, _ in calls) == 48
        for direction, prob, _, res in calls:
            cold = solve_bound(direction, prob, prob.ball)
            assert res.bound_value == pytest.approx(cold.bound_value, rel=1e-12, abs=0.0)

    def test_uncertified_warm_row_is_solved_cold(self, demo_config, capsys, monkeypatch):
        # on this grid one warm candidate fails the certificate; its row is
        # then the cold solve, bitwise, and counts the Jacobians of both
        calls = _sweep_solves(monkeypatch,
                              ["sweep-ball", "--config", demo_config, "--grid", "1:1000:10"])
        capsys.readouterr()
        fallen_back = 0
        for direction, prob, warm, res in calls:
            cold = solve_bound(direction, prob, prob.ball)
            assert res.bound_value == pytest.approx(cold.bound_value, rel=1e-12, abs=0.0)
            if warm and res.outer_iterations > 0:  # a certified warm answer takes no step
                fallen_back += 1
                assert res.bound_value == cold.bound_value
                np.testing.assert_array_equal(res.sigma_x, cold.sigma_x)
                assert res.outer_iterations == cold.outer_iterations
                assert res.inner_iterations > cold.inner_iterations
        assert fallen_back == 1


class TestExtremeExponent:
    @pytest.mark.parametrize("command", [["sweep-p", "--grid", "0.003"],
                                         ["verify", "--prior", "gen-gauss:0.003"]])
    def test_overflowing_variance_is_config_error(self, demo_config, capsys, command):
        # below p of about 0.0039 the K = 3 variance overflows double precision
        rc = cli.main([command[0], "--config", demo_config, *command[1:]])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err.startswith("error: generalized Gaussian variance at exponent "
                                       "p=0.003, K=3 overflows")
        assert captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, err", [
        (["sweep-p", "--grid", "0.02"], "solver error: p=0.02 lower: "),
        (["verify", "--prior", "gen-gauss:0.02", "--n-outer", "150", "--n-inner", "150"],
         "solver error: lower bound at epsilon="),
        (["sweep-p", "--grid", "0.0039"], "solver error: p=0.0039 lower: "),
    ])
    def test_uncertified_row_is_solver_error(self, demo_config, capsys, command, err):
        # the lower bound's path stalls and its descent meets a singular
        # matrix; no numpy warning reaches the user on the way
        rc = cli.main([command[0], "--config", demo_config, *command[1:]])
        captured = capsys.readouterr()
        assert rc == EXIT_SOLVER
        assert err in captured.err
        assert captured.out == ""


class TestExtremeRadius:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, radius", [
        (["verify", "--prior", "uniform-ball:1e200"], "1e+200"),
        (["sweep-ball", "--grid", "1e200"], "1e+200"),
        (["sweep-ball", "--grid", "1e154"], "1e+154"),  # 2 pi R^2 overflows
        (["sweep-ball", "--grid", "1e-160"], "1e-160"),  # R^2 is subnormal
        (["sweep-ball", "--grid", "1e-200"], "1e-200"),  # R^2 underflows to 0
    ])
    def test_radius_outside_double_range_is_config_error(self, demo_config, capsys, command,
                                                        radius):
        rc = cli.main([command[0], "--config", demo_config, *command[1:]])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err == (f"error: uniform ball at radius R={radius}, K=3: R^2/(K+2) "
                                f"or 2 pi R^2 leaves the normal double range\n")
        assert captured.out == ""


class TestSweepBall:
    def test_csv_contract(self, scalar_config, capsys):
        rc = cli.main(["sweep-ball", "--config", scalar_config,
                       "--grid", "0.5,1,2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "R,epsilon,lower,upper,lmmse"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]
        # epsilon is radius-invariant, so the column is constant
        eps = {r[1] for r in rows}
        assert len(eps) == 1
        for r in rows:
            lo, up, lm = float(r[2]), float(r[3]), float(r[4])
            assert lo <= lm <= up

    def test_bounds_grow_with_radius(self, scalar_config, capsys):
        cli.main(["sweep-ball", "--config", scalar_config, "--grid", "0.5,1,2"])
        rows = [line.split(",") for line
                in capsys.readouterr().out.strip().split("\n")[1:]]
        uppers = [float(r[3]) for r in rows]
        assert uppers == sorted(uppers)


class TestVerifyCommand:
    def test_gaussian_prior_passes(self, scalar_config, capsys):
        rc = cli.main(["verify", "--config", scalar_config, "--prior", "gaussian",
                       "--n-outer", "150", "--n-inner", "150", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "PASS" in out

    def test_gaussian_prior_has_full_inner_ess(self, scalar_config, capsys):
        # the proposal is the exact posterior, so every inner weight is equal
        rc = cli.main(["verify", "--config", scalar_config, "--prior", "gaussian",
                       "--n-outer", "150", "--n-inner", "150", "--seed", "1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "inner effective sample size: min=150, median=150," in out

    def test_gen_gauss_prior_passes(self, scalar_config, capsys):
        rc = cli.main(["verify", "--config", scalar_config, "--prior",
                       "gen-gauss:1", "--n-outer", "200", "--n-inner", "200",
                       "--seed", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("PASS")
        assert lines[-2].startswith("inner effective sample size: min=")

    def test_failure_exit_code(self, scalar_config, monkeypatch, capsys):
        def liar(spec, ensemble, n_outer, n_inner, seed):
            return McEstimate(1e9, 1e-12, n_outer, n_inner, seed, n_inner, n_inner, 0.0)
        monkeypatch.setattr(cli, "mc_weighted_sum", liar)
        rc = cli.main(["verify", "--config", scalar_config, "--prior", "gaussian",
                       "--n-outer", "150", "--n-inner", "150", "--seed", "1"])
        assert rc == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_degenerate_weights_exit_code(self, scalar_config, monkeypatch, capsys):
        def collapse(spec, ensemble, n_outer, n_inner, seed):
            raise DegenerateWeights("weights collapsed", bad_fraction=0.5)
        monkeypatch.setattr(cli, "mc_weighted_sum", collapse)
        rc = cli.main(["verify", "--config", scalar_config, "--prior", "gaussian",
                       "--n-outer", "150", "--n-inner", "150", "--seed", "1"])
        assert rc == EXIT_VERIFY
        assert "verification error: weights collapsed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanished_weights_are_one_error_line(self, demo_config, capsys):
        # At R = 1e-20 every inner point falls off the ball: one
        # verification error line, and no numpy warning before it
        rc = cli.main(["verify", "--config", demo_config, "--prior", "uniform-ball:1e-20",
                       "--n-outer", "100", "--n-inner", "100"])
        captured = capsys.readouterr()
        assert rc == EXIT_VERIFY
        assert captured.err == ("verification error: every inner importance weight vanished "
                                "on 400/400 outer draws; the moment-matched proposal is a bad "
                                "fit for this prior/noise pair\n")
        assert captured.out == ""

    @pytest.mark.parametrize("prior, message", [("uniform-ball:inf", "radius must be"),
                                                ("gen-gauss:inf", "exponent p must be")])
    def test_infinite_prior_parameter_rejected(self, scalar_config, capsys, recwarn, prior,
                                               message):
        rc = cli.main(["verify", "--config", scalar_config, "--prior", prior,
                       "--n-outer", "150", "--n-inner", "150"])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert f"error: {message} a finite positive number, got inf" in captured.err
        assert captured.out == ""
        assert not recwarn.list

    @pytest.mark.parametrize("flag, value", [("--n-outer", "99"), ("--n-inner", "50"),
                                             ("--seed", "-1")])
    def test_sampling_flags_checked_before_solving(self, scalar_config, monkeypatch, capsys,
                                                   flag, value):
        def never(*args, **kwargs):
            raise AssertionError("no solve or estimate may run on bad sampling flags")
        monkeypatch.setattr(cli, "solve_bound", never)
        monkeypatch.setattr(cli, "mc_weighted_sum", never)
        argv = {"--n-outer": "150", "--n-inner": "150", "--seed": "1"}
        argv[flag] = value
        rc = cli.main(["verify", "--config", scalar_config, "--prior", "gen-gauss:1",
                       *[tok for item in argv.items() for tok in item]])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        floor = 0 if flag == "--seed" else 100
        assert captured.err == f"error: {flag} must be >= {floor}, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("prior", ["exotic:1", "gen-gauss:abc", "gen-gauss:-1"])
    def test_bad_prior_is_config_error(self, scalar_config, capsys, prior):
        rc = cli.main(["verify", "--config", scalar_config, "--prior", prior,
                       "--n-outer", "150", "--n-inner", "150"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == {
            "exotic:1": "error: unknown prior 'exotic:1'; expected gen-gauss:p, "
                        "uniform-ball:R, or gaussian\n",
            "gen-gauss:abc": "error: prior 'gen-gauss:abc' needs a numeric parameter\n",
            "gen-gauss:-1": "error: exponent p must be a finite positive number, got -1.0\n",
        }[prior]

    @pytest.mark.parametrize("prior, sweep, grid", [("gen-gauss:1", "sweep-p", "1"),
                                                    ("uniform-ball:2", "sweep-ball", "2")])
    def test_shares_the_sweep_ball(self, demo_config, capsys, prior, sweep, grid):
        # verify solves at the same moment-matched ball as the sweep row
        assert cli.main([sweep, "--config", demo_config, "--grid", grid]) == EXIT_OK
        eps, lower, upper = capsys.readouterr().out.split("\n")[1].split(",")[1:4]
        cli.main(["verify", "--config", demo_config, "--prior", prior,
                  "--n-outer", "150", "--n-inner", "150"])
        out = capsys.readouterr().out
        assert f"prior {prior}: epsilon={float(eps):.12g}\n" in out
        assert f"solver bounds: lower={float(lower):.12g}, upper={float(upper):.12g}\n" in out


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
