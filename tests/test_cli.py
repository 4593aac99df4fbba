"""Tests for the command-line interface."""

import json

import pytest

from riemann_bounds import cli, euler, tables
from riemann_bounds.fuzz import FuzzReport, FuzzViolation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_euler_example(self, capsys):
        code, out, _ = run(capsys, "exact", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,0.1")
        assert code == 0
        assert "p_* = 0.5219" in out
        assert "u_* = 0.5248" in out
        assert "pattern = RS" in out

    def test_swe_example(self, capsys):
        code, out, _ = run(capsys, "exact", "--system", "swe",
                           "--left", "1,-5", "--right", "1,5")
        assert code == 0
        assert "h_* = 0.0406" in out
        assert "u_* = 0.0000" in out

    def test_identical_states(self, capsys):
        code, out, _ = run(capsys, "exact", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,1")
        assert code == 0
        assert "p_* = 1.0000" in out
        assert "u_* = 0.0000" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "exact", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,0.1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["system"] == "euler"
        assert payload["problem"]["left"] == [1.0, 0.0, 1.0]
        assert payload["problem"]["params"]["gamma"] == 1.4
        (result,) = payload["results"]
        assert result["estimator"] == "exact"
        assert result["pattern"] == "RS"

    def test_param_override(self, capsys):
        code, out, _ = run(capsys, "exact", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,0.1",
                           "--gamma", "1.6", "--format", "json")
        assert code == 0
        assert json.loads(out)["problem"]["params"]["gamma"] == 1.6

    def test_physical_error_exit_code(self, capsys):
        code, _, err = run(capsys, "exact", "--system", "swe",
                           "--left", "1,-50", "--right", "1,50")
        assert code == 2
        assert "dry" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "exact", "--system", "euler",
                           "--left", "1,0", "--right", "1,0,0.1")
        assert code == 1
        assert err

    def test_non_numeric_state(self, capsys):
        code, _, err = run(capsys, "exact", "--system", "swe",
                           "--left", "1,zero", "--right", "1,0")
        assert code == 1
        assert "non-numeric" in err

    @pytest.mark.parametrize("state", ["1,inf,1", "1,nan,1", "inf,0,1", "1,0,-inf"])
    def test_non_finite_state_exit_code(self, capsys, state):
        code, _, err = run(capsys, "exact", "--system", "euler",
                           "--left", state, "--right", "1,0,1")
        assert code == cli.EXIT_PHYSICAL
        assert "finite" in err

    @pytest.mark.parametrize("command, left, right, cause", [
        # gamma near 1: the solve stops without a root
        ("exact", "8.319408137833142e-06,-173.92641653883788,9.268240455140981e-08",
         "74.21221382399398,139.84099873740388,1.0556042681071893", "NoConvergence"),
        # gamma near 1: the two-rarefaction pressure leaves the float range
        ("bounds", "0.00015136449718168365,281.1340646027413,1.4127480054273994e-05",
         "381203.3349056888,-70.06590530817707,2.2137232894201813e-08",
         "ClosedFormOverflow"),
    ])
    def test_solver_error_exit_code(self, capsys, command, left, right, cause):
        code, out, err = run(capsys, command, "--system", "euler", "--gamma", "1.001",
                             "--left", left, "--right", right)
        assert code == cli.EXIT_SOLVER
        assert err.startswith("error: ") and cause in err
        assert out == ""


    @pytest.mark.parametrize("command", ["exact", "bounds"])
    @pytest.mark.parametrize("system, left, right", [
        ("bfe", "1,1e34", "1,-1e34"),   # f(x_rr) overflows to inf
        ("bfe", "1,1e60", "1,-1e60"),   # A**1.5 raises OverflowError
        ("swe", "1,1e160", "1,-1e160"),  # x_rr overflows to inf
    ])
    def test_non_finite_wave_data_exit_code(self, capsys, command, system, left, right):
        code, out, err = run(capsys, command, "--system", system,
                             "--left", left, "--right", right)
        assert code == cli.EXIT_SOLVER
        assert err.startswith("error: ClosedFormOverflow: ")
        assert out == ""

    def test_json_solves_once(self, capsys, monkeypatch):
        solves = []
        solve = euler.solve_exact
        monkeypatch.setattr(euler, "solve_exact",
                            lambda problem: solves.append(problem) or solve(problem))
        code, out, _ = run(capsys, "exact", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,0.1",
                           "--format", "json")
        assert code == 0
        assert len(solves) == 1
        assert json.loads(out)["results"][0]["s_right"] == solve(solves[0]).s_right


class TestConstantFlags:
    @pytest.mark.parametrize("command", ["exact", "bounds"])
    @pytest.mark.parametrize("system, state, flag", [
        ("swe", "1,0", "--gamma"),
        ("euler", "1,0,1", "--gravity"),
        ("bfe", "1,0", "--gamma"),
        ("euler", "1,0,1", "--rho-blood"),
        ("swe", "1,0", "--beta"),
    ])
    def test_flag_of_another_system_is_usage_error(self, capsys, command, system, state, flag):
        code, out, err = run(capsys, command, "--system", system, "--left", state,
                             "--right", state, flag, "3")
        assert code == cli.EXIT_USAGE
        assert flag in err and system in err
        assert out == ""

    @pytest.mark.parametrize("system, state, flag, field", [
        ("euler", "1,0,1", "--gamma", "gamma"),
        ("swe", "1,0", "--gravity", "g"),
        ("bfe", "1,0", "--beta", "beta"),
        ("bfe", "1,0", "--rho-blood", "rho"),
    ])
    def test_flag_of_the_system_sets_its_constant(self, capsys, system, state, flag, field):
        code, out, _ = run(capsys, "exact", "--system", system, "--left", state,
                           "--right", state, flag, "1.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["problem"]["params"][field] == 1.5

    def test_system_choices_are_the_registry(self, capsys):
        code, _, err = run(capsys, "exact", "--system", "mhd",
                           "--left", "1,0", "--right", "1,0")
        assert code == cli.EXIT_USAGE
        assert all(repr(system) in err for system in tables.SYSTEMS)


class TestBounds:
    def test_euler_test1_tms_b_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,0.1")
        assert code == 0
        assert "| tms_b | -1.1832 | 0.8080 |" in out

    def test_bfe_tms_d(self, capsys):
        left = f"{3.141592653589793},-10"
        right = f"{3.141592653589793},20"
        code, out, _ = run(capsys, "bounds", "--system", "bfe",
                           "--left", left, "--right", right,
                           "--estimator", "tms_d", "--format", "csv")
        assert code == 0
        assert "tms_d,-596.7498,606.7498" in out

    def test_identical_states_rows_match_eigenvalues(self, capsys):
        code, out, _ = run(capsys, "bounds", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,1",
                           "--format", "json")
        assert code == 0
        c = 1.1832  # sqrt(gamma p / rho) at 4 decimals
        for result in json.loads(out)["results"]:
            assert result["s_left"] == pytest.approx(-c, abs=1e-4)
            assert result["s_right"] == pytest.approx(c, abs=1e-4)

    def test_unknown_estimator(self, capsys):
        code, _, err = run(capsys, "bounds", "--system", "euler",
                           "--left", "1,0,1", "--right", "1,0,0.1",
                           "--estimator", "roe")
        assert code == 1
        assert "unknown estimator" in err

    def test_estimator_wrong_system(self, capsys):
        code, _, err = run(capsys, "bounds", "--system", "swe",
                           "--left", "1,0", "--right", "0.7,0",
                           "--estimator", "einfeldt")
        assert code == 1
        assert err

    def test_deterministic_output(self, capsys):
        args = ("bounds", "--system", "euler", "--left", "1,0,1",
                "--right", "1,0,0.1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestReproduce:
    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    @pytest.mark.parametrize("table", ("ic", "s_left", "s_right"))
    def test_all_tables_pass(self, capsys, system, table):
        code, out, _ = run(capsys, "reproduce", "--system", system,
                           "--table", table)
        assert code == 0
        assert "(pass)" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--system", "euler",
                           "--table", "s_right", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_deviation"] <= 1e-3

    def test_skipped_cells_annotated(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--system", "euler",
                           "--table", "s_left", "--format", "csv")
        assert code == 0
        assert "skipped" in out

    def test_tolerance_exceeded_exit_code(self, capsys, monkeypatch):
        report = tables.reproduce("euler", "s_right")
        broken = tables.TableReport(report.system, report.table,
                                    report.cells, 1.0, False)
        monkeypatch.setattr(tables, "reproduce", lambda *a: broken)
        code, out, _ = run(capsys, "reproduce", "--system", "euler",
                           "--table", "s_right")
        assert code == 3
        assert "FAIL" in out


class TestFuzz:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--system", "euler",
                           "--count", "50", "--seed", "42")
        assert code == 0
        assert "violations = 0" in out

    def test_zero_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fuzz", "--system", "euler",
                           "--count", "0")
        assert code == 1
        assert "count" in err

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--system", "bfe",
                           "--count", "25", "--seed", "7",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"system": "bfe", "trials": 25, "seed": 7,
                           "violations": []}


    @pytest.mark.parametrize("fmt", ("md", "json"))
    def test_violations_exit_code(self, capsys, monkeypatch, fmt):
        violation = FuzzViolation(3, "tms_b", "s_left", -0.5, -1.0,
                                  (1.0, 0.0, 1.0), (1.0, 0.0, 0.1))
        report = FuzzReport("euler", 10, 42, (violation,))
        monkeypatch.setattr(cli, "run_fuzz", lambda *args: report)
        code, out, _ = run(capsys, "fuzz", "--system", "euler",
                           "--count", "10", "--seed", "42", "--format", fmt)
        assert code == cli.EXIT_VIOLATIONS == 4
        assert "tms_b" in out


class TestUsage:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err

    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "exact", "--system", "mhd",
                           "--left", "1,0", "--right", "1,0")
        assert code == 1
        assert err
