"""Tests for the shallow-water exact solver and speed estimators."""

import random

import pytest

from riemann_bounds.core import (
    DryBed,
    EstimatorId,
    UnsupportedEstimator,
    WavePattern,
)
from riemann_bounds import shallow
from riemann_bounds.shallow import (
    SYSTEM,
    SweParams,
    SweProblem,
    SweState,
    classify,
    depth_function,
    estimate,
    is_wet,
    q_factor,
    solve_exact,
    two_rarefaction_depth,
)


def problem(left, right):
    return SweProblem(SweState(*left), SweState(*right))


TEST_1 = problem((1.0, 0.0), (0.7, 0.0))
TEST_2 = problem((0.001, 0.0), (1.0, 0.0))
TEST_4 = problem((1.0, 100.0), (0.5, 0.0))
TEST_5 = problem((1.0, -5.0), (1.0, 5.0))


def random_problems(count, seed=0):
    rng = random.Random(seed)
    problems = []
    while len(problems) < count:
        candidate = problem(
            (10.0 ** rng.uniform(-3, 2), rng.uniform(-20, 20)),
            (10.0 ** rng.uniform(-3, 2), rng.uniform(-20, 20)),
        )
        if is_wet(candidate):
            problems.append(candidate)
    return problems


class TestState:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweState(0.0, 1.0)
        with pytest.raises(ValueError):
            SweParams(g=-9.8)


class TestSolveExact:
    def test_depth_drop(self):
        solution = solve_exact(TEST_1)
        assert solution.h_star == pytest.approx(0.8430, abs=1.05e-4)
        assert solution.u_star == pytest.approx(0.5121, abs=1.05e-4)
        assert solution.pattern is WavePattern.RS

    def test_strong_shocks(self):
        solution = solve_exact(TEST_4)
        assert solution.h_star == pytest.approx(19.0839, abs=1.05e-4)
        assert solution.u_star == pytest.approx(58.9340, abs=1.05e-4)
        assert solution.pattern is WavePattern.SS
        assert solution.s_left == pytest.approx(56.6632, abs=1e-4)
        assert solution.s_right == pytest.approx(60.5197, abs=1e-4)

    def test_double_rarefaction(self):
        solution = solve_exact(TEST_5)
        assert solution.h_star == pytest.approx(0.0406, abs=1.05e-4)
        assert solution.u_star == pytest.approx(0.0, abs=1e-12)
        assert solution.pattern is WavePattern.RR

    def test_identical_states(self):
        sol = solve_exact(problem((2.0, 1.0), (2.0, 1.0)))
        assert sol.h_star == pytest.approx(2.0)
        assert sol.u_star == pytest.approx(1.0)

    def test_dry_bed_raises(self):
        with pytest.raises(DryBed):
            solve_exact(problem((0.01, -10.0), (0.01, 10.0)))

    def test_residual_is_zero(self):
        for prob in (TEST_1, TEST_2, TEST_4, TEST_5):
            solution = solve_exact(prob)
            du = abs(prob.right.u - prob.left.u) + 1.0
            assert abs(depth_function(solution.h_star, prob)) <= 1e-9 * du


class TestClassification:
    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ((1.0, 0.0), (0.7, 0.0), WavePattern.RS),
            ((0.001, 0.0), (1.0, 0.0), WavePattern.SR),
            ((1.0, 3.0), (0.5, 0.0), WavePattern.SS),
            ((1.0, 100.0), (0.5, 0.0), WavePattern.SS),
            ((1.0, -5.0), (1.0, 5.0), WavePattern.RR),
            ((0.01, -10.0), (0.01, 10.0), WavePattern.VACUUM),
        ],
    )
    def test_patterns(self, left, right, expected):
        assert classify(problem(left, right)) is expected


class TestTwoRarefaction:
    def test_dominates_star_depth(self):
        for prob in random_problems(500, seed=1):
            h_rr = two_rarefaction_depth(prob)
            h_star = solve_exact(prob).h_star
            assert h_rr >= h_star - 1e-9 * max(1.0, h_star)

    def test_dry_bed_raises(self):
        with pytest.raises(DryBed):
            two_rarefaction_depth(problem((0.01, -10.0), (0.01, 10.0)))


class TestQFactor:
    def test_unit_ratio(self):
        assert q_factor(0.37, SYSTEM.side(SweState(0.37, 0.0), SweParams())) == 1.0

    def test_increasing_in_depth(self):
        state = SweState(1.0, 0.0)
        params = SweParams()
        values = [q_factor(h, SYSTEM.side(state, params)) for h in (1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values)


class TestEstimators:
    def test_published_cells(self):
        bounds = estimate(TEST_4, EstimatorId.TORO)
        assert bounds.s_left == pytest.approx(-74.0668, abs=1e-4)
        assert bounds.s_right == pytest.approx(245.3887, abs=1e-4)

        bounds = estimate(TEST_2, EstimatorId.TMS_C)
        assert bounds.s_left == pytest.approx(-70.0350, abs=1e-4)
        assert bounds.s_right == pytest.approx(3.1305, abs=1e-4)

        bounds = estimate(TEST_1, EstimatorId.TMS_D)
        assert bounds.s_left == pytest.approx(-5.2383, abs=1e-4)
        assert bounds.s_right == pytest.approx(6.2610, abs=1e-4)

    def test_euler_only_estimators_unsupported(self):
        with pytest.raises(UnsupportedEstimator):
            estimate(TEST_1, EstimatorId.EINFELDT)
        with pytest.raises(UnsupportedEstimator):
            estimate(TEST_1, EstimatorId.BATTEN)

    def test_bound_property(self):
        certified = (EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                     EstimatorId.TMS_C, EstimatorId.TMS_D)
        for prob in random_problems(300, seed=11):
            exact = solve_exact(prob)
            slack = 1e-9 * max(1.0, abs(exact.s_left), abs(exact.s_right))
            for estimator in certified:
                bounds = estimate(prob, estimator)
                assert bounds.s_left <= exact.s_left + slack
                assert bounds.s_right >= exact.s_right - slack

    def test_tms_d_contains_eigenvalue_interval(self):
        # The crude estimate widens each side of the data eigenvalue
        # interval by construction.
        for prob in random_problems(300, seed=19):
            crude = estimate(prob, EstimatorId.TMS_D)
            eigen = estimate(prob, EstimatorId.DAVIS_A)
            assert crude.s_left <= eigen.s_left
            assert crude.s_right >= eigen.s_right


def mirror(prob):
    left, right = prob.left, prob.right
    return SweProblem(
        SweState(right.h, -right.u),
        SweState(left.h, -left.u),
        prob.params,
    )


class TestSwapSymmetry:
    def test_estimators_mirror(self):
        estimators = (EstimatorId.EXACT, *shallow.ESTIMATORS)
        for prob in random_problems(300, seed=17):
            mirrored = mirror(prob)
            for estimator in estimators:
                fwd = estimate(prob, estimator)
                rev = estimate(mirrored, estimator)
                scale = max(1.0, abs(fwd.s_left), abs(fwd.s_right))
                assert abs(rev.s_left + fwd.s_right) <= 1e-12 * scale
                assert abs(rev.s_right + fwd.s_left) <= 1e-12 * scale


class TestConcavity:
    def test_depth_function_concave_down(self):
        rng = random.Random(23)
        for prob in random_problems(100, seed=29):
            for _ in range(5):
                h = 10.0 ** rng.uniform(-3, 3)
                step = 1e-3 * h
                f = lambda x: depth_function(x, prob)
                bend = f(h + step) + f(h - step) - 2.0 * f(h)
                assert bend <= 1e-12 * max(1.0, abs(f(h + step)), abs(f(h - step)))
