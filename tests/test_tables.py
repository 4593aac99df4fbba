"""Tests for golden-table loading, reproduction and violation tagging."""

import math

import pytest

from riemann_bounds import tables


ALL_COMBOS = [(s, t) for s in tables.SYSTEMS for t in tables.TABLES]


class TestLoadReference:
    def test_all_systems_load(self):
        for system in tables.SYSTEMS:
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
        for system in tables.SYSTEMS:
            report = tables.reproduce(system, "ic")
            patterns = [c for c in report.cells if c.column == "pattern"]
            assert patterns and all(c.status == "ok" for c in patterns)


class TestBoundViolations:
    def test_matches_published_flags(self):
        for system in tables.SYSTEMS:
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
        prob = tables.make_problem("euler", (1.0, 0.0, 1.0), (1.0, 0.0, 0.1),
                                   {"gamma": 1.6})
        assert prob.params.gamma == 1.6

    def test_star_values_keys(self):
        prob = tables.make_problem("swe", (1.0, 0.0), (0.7, 0.0))
        solution = tables.system_module("swe").solve_exact(prob)
        star = tables.star_values("swe", solution)
        assert set(star) == {"h_star", "u_star"}
