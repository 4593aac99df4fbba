"""Tests for golden-table loading, reproduction and violation tagging."""

import collections
import copy
import math

import pytest

from riemann_bounds import core, tables
from riemann_bounds.core import EstimatorId


ALL_COMBOS = [(s, t) for s in core.SYSTEMS for t in core.TABLES]


class TestLoadReference:
    def test_all_systems_load(self):
        for system in core.SYSTEMS:
            ref = tables.load_reference(system)
            assert ref["system"] == system
            assert ref["tests"]

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            tables.load_reference("mhd")

    def test_parsed_once(self):
        assert tables.load_reference("swe") is tables.load_reference("swe")

    def test_bfe_areas_are_pi_multiples(self):
        ref = tables.load_reference("bfe")
        first = ref["tests"][0]
        assert first["left"][0] == pytest.approx(math.pi, rel=1e-15)
        assert first["right"][0] == pytest.approx(0.9 * math.pi, rel=1e-15)


class TestReproduce:
    @pytest.mark.parametrize("system, table", ALL_COMBOS)
    def test_tables_reproduce(self, system, table):
        report = tables.reproduce(system, table)
        assert report.passed, [c for c in report.cells if c.status == "fail"]

    @pytest.mark.parametrize("system", core.SYSTEMS)
    @pytest.mark.parametrize("side", ("s_left", "s_right", "ic"))
    def test_speed_cells_are_the_sides_of_estimate(self, system, side):
        # reproduce reads the registry's speed pairs; the public estimate
        # must give the same bits, EXACT included.  The ic table's star
        # cells are the star values of `solve_exact`, bit for bit.
        module = core.system_module(system)
        tests = {test["id"]: test for test in tables.load_reference(system)["tests"]}
        computed = [c for c in tables.reproduce(system, side).cells if c.computed is not None]
        if side == "ic":
            assert {c.column for c in computed} == {module.SYSTEM.star_field, "u_star"}
        else:
            assert {c.column for c in computed} >= {"exact", "toro", "tms_a"}
        for cell in computed:
            test = tests[cell.test_id]
            problem = core.make_problem(system, test["left"], test["right"])
            if side == "ic":
                star = core.star_values(system, module.solve_exact(problem))
                assert repr(cell.computed) == repr(star[cell.column]), cell
                continue
            bounds = module.estimate(problem, EstimatorId(cell.column))
            assert cell.computed == getattr(bounds, side), cell

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            tables.reproduce("euler", "fluxes")

    def test_speed_tolerance(self):
        report = tables.reproduce("euler", "s_right")
        assert report.max_deviation <= tables.CELL_TOL_ABS

    def test_gp_column_skipped_with_reason(self):
        report = tables.reproduce("euler", "s_left")
        gp_cells = [c for c in report.cells if c.column == "gp"]
        assert gp_cells and all(c.status == "skipped" for c in gp_cells)
        assert all(c.note for c in gp_cells)

    def test_euler_test6_star_skipped_with_reason(self):
        report = tables.reproduce("euler", "ic")
        cells = [c for c in report.cells
                 if c.test_id == 6 and c.column in ("p_star", "u_star")]
        assert cells and all(c.status == "skipped" for c in cells)
        assert all(c.note for c in cells)

    def test_euler_test4_lower_cell_skipped(self):
        report = tables.reproduce("euler", "s_left")
        cell = next(c for c in report.cells
                    if c.test_id == 4 and c.column == "tms_b")
        assert cell.status == "skipped"
        assert "bounds" in cell.note

    def test_patterns_reproduced(self):
        for system in core.SYSTEMS:
            report = tables.reproduce(system, "ic")
            patterns = [c for c in report.cells if c.column == "pattern"]
            assert patterns and all(c.status == "ok" for c in patterns)


class TestKeptProblems:
    """Each row's problem is built once per process and shared by the three
    tables; the reference, the published values and the root solves are
    read or run on every call."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counters of `core.wave_data` builds per problem and of the root
        solves of each system module."""
        builds, solves = collections.Counter(), collections.Counter()
        wave_data = core.wave_data

        def counted_wave_data(problem):
            builds[id(problem)] += 1
            return wave_data(problem)

        monkeypatch.setattr(core, "wave_data", counted_wave_data)
        for system in core.SYSTEMS:
            module = core.system_module(system)

            def counted_find_root(*args, system=system, find_root=module.find_root):
                solves[system] += 1
                return find_root(*args)

            monkeypatch.setattr(module, "find_root", counted_find_root)
        return builds, solves

    @pytest.mark.parametrize("system", core.SYSTEMS)
    def test_two_passes_build_each_row_once(self, system, counted):
        builds, solves = counted
        tables._row_problems.cache_clear()
        rows = len(tables.load_reference(system)["tests"])
        passes = []
        for order in (core.TABLES, tuple(reversed(core.TABLES))):
            reports = {}
            for table in order:
                solves.clear()
                reports[table] = tables.reproduce(system, table)
                assert solves[system] == rows, table  # one root solve per row
            passes.append(reports)
        problems = tables._row_problems(system)
        assert len(problems) == rows
        assert builds == {id(problem): 1 for problem in problems}
        first, second = passes
        for table in core.TABLES:
            assert second[table].cells == first[table].cells
            assert repr(second[table]) == repr(first[table])  # bit for bit, NaN included

    def test_published_values_are_read_per_call(self, counted, monkeypatch):
        builds, _ = counted
        tables.reproduce("euler", "s_left")
        kept = tables._row_problems("euler")
        builds.clear()
        ref = copy.deepcopy(tables.load_reference("euler"))
        moved = ref["tests"][1]
        moved["s_left"]["toro"] += 1.0
        monkeypatch.setattr(tables, "load_reference", lambda system: ref)
        report = tables.reproduce("euler", "s_left")
        failed = [c for c in report.cells if c.status == "fail"]
        assert [(c.test_id, c.column) for c in failed] == [(moved["id"], "toro")]
        assert not report.passed
        assert report.max_deviation == pytest.approx(1.0, abs=tables.CELL_TOL_ABS)
        assert tables._row_problems("euler") is kept and not builds


class TestBoundViolations:
    def test_matches_published_flags(self):
        for system in core.SYSTEMS:
            ref = tables.load_reference(system)
            for test in ref["tests"]:
                for side in ("s_left", "s_right"):
                    got = set(tables.bound_violations(test, side))
                    want = set(test["red_flags"][side])
                    assert got == want, (system, test["id"], side)

    def test_known_failures(self):
        euler_ref = tables.load_reference("euler")
        test2 = next(t for t in euler_ref["tests"] if t["id"] == 2)
        assert "davis_b" in tables.bound_violations(test2, "s_right")

        swe_ref = tables.load_reference("swe")
        test4 = next(t for t in swe_ref["tests"] if t["id"] == 4)
        assert "davis_a" in tables.bound_violations(test4, "s_left")


class TestGlue:
    def test_make_problem_overrides(self):
        prob = core.make_problem("euler", (1.0, 0.0, 1.0), (1.0, 0.0, 0.1),
                                   {"gamma": 1.6})
        assert prob.params.gamma == 1.6

    def test_star_values_keys(self):
        prob = core.make_problem("swe", (1.0, 0.0), (0.7, 0.0))
        solution = core.system_module("swe").solve_exact(prob)
        star = core.star_values("swe", solution)
        assert set(star) == {"h_star", "u_star"}

    @pytest.mark.parametrize("name", ["system_record", "system_module", "make_problem",
                                      "star_values", "SYSTEMS", "TABLES"])
    def test_the_registry_names_of_tables_are_those_of_core(self, name):
        # The registry lives in `core`; callers that reach it as `tables.*`
        # (the benchmark's workloads) get the same objects.
        assert getattr(tables, name) is getattr(core, name)
