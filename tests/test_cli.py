"""Tests for the command-line interface."""

import csv
import json
import subprocess
import sys

import pytest

import riemann_bounds
from riemann_bounds import cli, core, euler, fuzz, tables
from riemann_bounds.core import asdict, fields
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


#: (system, state, flag): each flag of the CLI's table with each system it
#: does not apply to.
FLAGS_OF_OTHER_SYSTEMS = [
    ("swe", "1,0", "--gamma"),
    ("euler", "1,0,1", "--gravity"),
    ("bfe", "1,0", "--gamma"),
    ("euler", "1,0,1", "--rho-blood"),
    ("swe", "1,0", "--beta"),
    ("bfe", "1,0", "--gravity"),
    ("euler", "1,0,1", "--beta"),
    ("swe", "1,0", "--rho-blood"),
]
#: (system, state, flag, field): each flag of the CLI's table with its
#: system and the params field it sets.
FLAGS_OF_THE_SYSTEM = [
    ("euler", "1,0,1", "--gamma", "gamma"),
    ("swe", "1,0", "--gravity", "g"),
    ("bfe", "1,0", "--beta", "beta"),
    ("bfe", "1,0", "--rho-blood", "rho"),
]


class TestConstantFlags:
    def test_every_flag_names_a_field_of_its_params_type(self):
        assert tuple(cli._CONSTANT_FLAGS) == core.SYSTEMS
        for system, flags in cli._CONSTANT_FLAGS.items():
            params = set(fields(core.system_record(system).params_type))
            assert set(flags.values()) <= params, system

    def test_the_cases_below_cover_the_flag_table(self):
        table = cli._CONSTANT_FLAGS
        assert {(s, flag, field) for s, _, flag, field in FLAGS_OF_THE_SYSTEM} == {
            (s, flag, field) for s, flags in table.items() for flag, field in flags.items()}
        every_flag = {flag for flags in table.values() for flag in flags}
        assert {(s, flag) for s, _, flag in FLAGS_OF_OTHER_SYSTEMS} == {
            (s, flag) for s in table for flag in every_flag - set(table[s])}

    @pytest.mark.parametrize("command", ["exact", "bounds"])
    @pytest.mark.parametrize("system, state, flag", FLAGS_OF_OTHER_SYSTEMS)
    def test_flag_of_another_system_is_usage_error(self, capsys, command, system, state, flag):
        code, out, err = run(capsys, command, "--system", system, "--left", state,
                             "--right", state, flag, "3")
        assert code == cli.EXIT_USAGE
        assert err == f"error: {flag} does not apply to the {system} system\n"
        assert out == ""

    @pytest.mark.parametrize("system, state, flag, field", FLAGS_OF_THE_SYSTEM)
    def test_flag_of_the_system_sets_its_constant(self, capsys, system, state, flag, field):
        code, out, _ = run(capsys, "exact", "--system", system, "--left", state,
                           "--right", state, flag, "1.5", "--format", "json")
        assert code == 0
        defaults = asdict(core.system_record(system).params_type())
        assert json.loads(out)["problem"]["params"] == {**defaults, field: 1.5}

    def test_system_choices_are_the_registry(self, capsys):
        code, _, err = run(capsys, "exact", "--system", "mhd",
                           "--left", "1,0", "--right", "1,0")
        assert code == cli.EXIT_USAGE
        assert all(repr(system) in err for system in core.SYSTEMS)


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

    def test_infinite_einfeldt_speeds_exit_code(self, capsys):
        # du**2 overflows in Einfeldt's d**2: the pair was (-inf, +inf),
        # printed as -Infinity, which is not JSON, with exit code 0; then
        # a ClosedFormOverflow.  The Roe speed, a `math.hypot` of unsquared
        # terms, gives the finite pair, as valid JSON; an estimator that
        # needs the star pressure, which overflows, still exits EXIT_SOLVER.
        data = ("--system", "euler", "--left", "1,1e200,1", "--right", "1,-1e200,1")
        code, out, err = run(capsys, "bounds", *data, "--estimator", "einfeldt",
                             "--format", "json")
        assert code == 0 and err == ""
        result = json.loads(out)["results"][0]
        assert result["s_left"] == -result["s_right"] == pytest.approx(-7.0710678118654752e199)
        code, out, err = run(capsys, "bounds", *data, "--estimator", "toro", "--format", "json")
        assert code == cli.EXIT_SOLVER
        assert err.startswith("error: ClosedFormOverflow: ")
        assert out == ""

    def test_infinite_celerity_exit_code(self, capsys):
        # g h_L overflows in the left celerity: Davis b printed -inf | inf
        # with exit code 0.
        code, out, err = run(capsys, "bounds", "--system", "swe", "--left", "8.6e307,0",
                             "--right", "1,0", "--estimator", "davis_b")
        assert code == cli.EXIT_SOLVER
        assert err.startswith("error: ClosedFormOverflow: celerity overflows")
        assert out == ""

    def test_deterministic_output(self, capsys):
        args = ("bounds", "--system", "euler", "--left", "1,0,1",
                "--right", "1,0,0.1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_sod_exact_pair_inside_tms_b_and_patterns_on_exact_and_tms_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--system", "euler", "--left", "1,0,1",
                           "--right", "0.125,0,0.1", "--format", "json")
        assert code == 0
        rows = {r["estimator"]: r for r in json.loads(out)["results"]}
        exact, tms_b = rows["exact"], rows["tms_b"]
        assert tms_b["s_left"] <= exact["s_left"] and exact["s_right"] <= tms_b["s_right"]
        assert {k for k, r in rows.items() if r["pattern"] is not None} == {
            k for k in rows if k == "exact" or k.startswith("tms_")}

    @pytest.mark.parametrize("system, left, right, estimators", [
        # S/R with A*/A_L - 1 near 1e-8: a shock weak enough to cancel in
        # (y^1.5 - 1)/(y - 1).
        ("bfe", "0.3857900568839984,-124.41788759076593",
         "1.110419021897587,-13.885933579728686",
         ("toro", "tms_a", "tms_b", "tms_c", "tms_d")),
        # S/R with rho_R near 1e257, where A_K/(p + B_K) underflows.
        ("euler", "3.35140239615322e+229,9614.871707839637,3.939094590922741e+230",
         "1.6194710822460035e+257,-8366.027878089182,2.2309770306664407e+259",
         ("toro", "tms_a", "tms_b", "tms_c")),
    ], ids=["bfe-weak-shock", "euler-dense-side"])
    def test_reproducer_exact_pair_inside_every_bound(self, capsys, system, left, right,
                                                      estimators):
        code, out, _ = run(capsys, "bounds", "--system", system, "--left", left,
                           "--right", right, "--format", "json")
        assert code == 0
        rows = {r["estimator"]: r for r in json.loads(out)["results"]}
        exact = rows["exact"]
        outside = [k for k in estimators if not (rows[k]["s_left"] <= exact["s_left"]
                                                 and exact["s_right"] <= rows[k]["s_right"])]
        assert not outside, (exact, {k: rows[k] for k in outside})


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

    def test_ic_json_cells_carry_the_cell_check_keys(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--system", "euler", "--table", "ic",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        keys = {"test_id", "column", "expected", "computed", "deviation", "status", "note"}
        assert payload["passed"] is True and payload["cells"]
        assert [c for c in payload["cells"] if set(c) != keys] == []

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

    def test_json_report_of_a_default_seed_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--system", "euler", "--count", "100",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["trials"], payload["violations"]) == (100, [])


    @pytest.mark.parametrize("fmt", ("md", "json", "csv"))
    def test_violations_exit_code(self, capsys, monkeypatch, fmt):
        violation = FuzzViolation(3, "tms_b", "s_left", -0.5, -1.0,
                                  (1.0, 0.0, 1.0), (1.0, 0.0, 0.1))
        report = FuzzReport("euler", 10, 42, (violation,))
        monkeypatch.setattr(fuzz, "run_fuzz", lambda *args: report)
        code, out, _ = run(capsys, "fuzz", "--system", "euler",
                           "--count", "10", "--seed", "42", "--format", fmt)
        assert code == cli.EXIT_VIOLATIONS == 4
        assert "tms_b" in out
        if fmt == "csv":
            header, row = csv.reader(out.splitlines())
            assert header == list(fields(FuzzViolation))
            assert row[:3] == ["3", "tms_b", "s_left"]
            assert row[3:] == ["-0.5", "-1.0", "(1.0, 0.0, 1.0)", "(1.0, 0.0, 0.1)"]


class TestFormats:
    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize("argv", [
        ("exact", "--system", "swe", "--left", "1,-5", "--right", "1,5"),
        ("bounds", "--system", "bfe", "--left", "3.14,-10", "--right", "3.14,20"),
        ("reproduce", "--system", "euler", "--table", "ic"),
        ("fuzz", "--system", "swe", "--count", "20", "--seed", "1"),
    ], ids=lambda argv: argv[0])
    def test_output_parses(self, capsys, argv, fmt):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert isinstance(json.loads(out), dict)
        else:
            header, *rows = csv.reader(out.splitlines())
            assert all(len(row) == len(header) for row in rows)


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


class TestModuleEntry:
    """`python -m riemann_bounds.cli`, the form of a cold call: the module's
    `__main__` guard exits with `main`'s code."""

    def entry(self, *argv):
        return subprocess.run([sys.executable, "-m", "riemann_bounds.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": str(riemann_bounds.__path__[0] + "/..")})

    def test_exact_sod_json(self):
        done = self.entry("exact", "--system", "euler", "--left", "1,0,1",
                          "--right", "0.125,0,0.1", "--format", "json")
        assert done.returncode == 0, done.stderr
        (result,) = json.loads(done.stdout)["results"]
        assert result["star"]["p_star"] == pytest.approx(0.30313, abs=5e-6)
        assert result["star"]["u_star"] == pytest.approx(0.92745, abs=5e-6)

    def test_vacuum_data_exit_code(self):
        done = self.entry("exact", "--system", "euler", "--left", "1,-20,1",
                          "--right", "1,20,1", "--format", "json")
        assert done.returncode == cli.EXIT_PHYSICAL == 2
        assert "vacuum" in done.stderr and done.stdout == ""


#: One cold `cli.main(argv)`, argv from the command line; its last output
#: line is the exit code and the modules it left loaded, of the package
#: and of those a call should import only when it needs them, or never.
COLD_CALL = """\
import sys
from riemann_bounds import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "riemann_bounds"
                    or m in ("csv", "json", "importlib.resources", "numpy", "dataclasses", "inspect")))
"""
COLD_BASE = {"riemann_bounds", "riemann_bounds.core", "riemann_bounds.cli"}
SYSTEM_MODULE = {"euler": "riemann_bounds.euler", "swe": "riemann_bounds.shallow",
                 "bfe": "riemann_bounds.bloodflow"}
STATES = {"euler": ("1,0,1", "1,0,0.1"), "swe": ("1,-5", "1,5"), "bfe": ("3.14,-10", "3.14,20")}


def cold_modules(*argv):
    """The modules a cold `riemann-bounds` call loads, in a fresh interpreter
    under -S, where no `.pth` file of site-packages preloads any."""
    done = subprocess.run([sys.executable, "-S", "-c", COLD_CALL, *argv],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(riemann_bounds.__path__[0] + "/..")})
    code, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    return set(modules)


class TestColdImports:
    """A call imports the system it names and the code of its subcommand,
    and no other system module; only `reproduce` imports the golden-table
    module, and only `--format json` the `json` module."""

    @pytest.mark.parametrize("command", ["exact", "bounds"])
    @pytest.mark.parametrize("system", core.SYSTEMS)
    def test_a_call_with_states_imports_its_system_alone(self, command, system):
        left, right = STATES[system]
        assert cold_modules(command, "--system", system, "--left", left,
                            "--right", right) == COLD_BASE | {SYSTEM_MODULE[system]}

    def test_only_reproduce_reads_the_embedded_tables(self):
        # The embedded tables are json files, whatever the --format.
        assert cold_modules("reproduce", "--system", "bfe", "--table", "s_left") == (
            COLD_BASE | {"riemann_bounds.bloodflow", "riemann_bounds.tables", "json",
                         "importlib.resources"})

    def test_a_short_fuzz_imports_neither_the_lane_kernel_nor_numpy(self):
        assert cold_modules("fuzz", "--system", "euler", "--count", "5") == (
            COLD_BASE | {"riemann_bounds.euler", "riemann_bounds.fuzz"})

    @pytest.mark.parametrize("format_", ["csv", "json"])
    def test_a_csv_or_json_call_imports_its_format_module_alone(self, format_):
        assert cold_modules("exact", "--system", "euler", "--left", "1,0,1",
                            "--right", "0.125,0,0.1", "--format", format_) == (
            COLD_BASE | {"riemann_bounds.euler", format_})

    def test_run_fuzz_imports_no_golden_tables(self):
        # `fuzz` reaches the system registry in `core`, not in `tables`.
        code = """if True:
            import sys
            from riemann_bounds import fuzz
            fuzz.run_fuzz("euler", 5, 0)
            print("riemann_bounds.tables" in sys.modules)
        """
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True,
                              env={"PYTHONPATH": str(riemann_bounds.__path__[0] + "/..")})
        assert done.stdout.strip() == "False", done.stdout

    def test_json_calls_import_no_dataclass_machinery(self):
        # The records are built without `dataclasses` (and the `inspect`,
        # `ast` and `tokenize` it imports), and annotations need no
        # `typing`: a stray import of any of them, or of numpy, would undo
        # most of what a cold call saves.  (`reproduce` imports `typing`
        # through `importlib.resources`.)
        # Modules loaded by importlib.import_module, as the system modules
        # are, do not show in `-X importtime`; sys.modules lists them.
        code = """if True:
            import contextlib, io, sys
            from riemann_bounds import cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["exact", "--system", "euler", "--left", "1,0,1",
                                 "--right", "0.125,0,0.1", "--format", "json"]) == 0
                assert cli.main(["fuzz", "--system", "euler", "--count", "100",
                                 "--format", "json"]) == 0
            print(*sorted({"dataclasses", "inspect", "numpy", "typing"} & set(sys.modules)))
        """
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True,
                              env={"PYTHONPATH": str(riemann_bounds.__path__[0] + "/..")})
        assert done.stdout.strip() == "", done.stdout
