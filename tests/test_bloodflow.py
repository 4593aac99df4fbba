"""Tests for the arterial blood-flow exact solver and speed estimators."""

import math
import random

import pytest

from riemann_bounds.core import (
    CollapseData,
    EstimatorId,
    UnsupportedEstimator,
    WavePattern,
)
from riemann_bounds import bloodflow
from riemann_bounds.bloodflow import (
    BfeParams,
    BfeProblem,
    BfeState,
    area_function,
    classify,
    estimate,
    is_open,
    q_factor,
    solve_exact,
    two_rarefaction_area,
)


def problem(left, right):
    return BfeProblem(BfeState(*left), BfeState(*right))


PI = math.pi
TEST_2 = problem((PI, 0.0), (0.2 * PI, 0.0))
TEST_3 = problem((0.001 * PI, 0.0), (PI, 0.0))
TEST_5 = problem((PI, 100.0), (0.8 * PI, -200.0))
TEST_6 = problem((PI, -10.0), (PI, 20.0))


def random_problems(count, seed=0):
    rng = random.Random(seed)
    problems = []
    while len(problems) < count:
        candidate = problem(
            (10.0 ** rng.uniform(-2, 1), rng.uniform(-300, 300)),
            (10.0 ** rng.uniform(-2, 1), rng.uniform(-300, 300)),
        )
        if is_open(candidate):
            problems.append(candidate)
    return problems


class TestState:
    def test_validation(self):
        with pytest.raises(ValueError):
            BfeState(0.0, 1.0)
        with pytest.raises(ValueError):
            BfeParams(beta=-1.0)
        with pytest.raises(ValueError):
            BfeParams(rho=0.0)

    def test_default_wall_constants(self):
        side = problem((PI, 0.0), (PI, 0.0))._sides[0]
        assert side.zeta == pytest.approx(math.sqrt(28209.4792 / 2.1))
        assert side.gamma_tube == pytest.approx(28209.4792 / 3.15)


class TestSolveExact:
    def test_area_drop(self):
        solution = solve_exact(TEST_2)
        assert solution.a_star == pytest.approx(1.4936, abs=1.05e-4)
        assert solution.u_star == pytest.approx(104.69, abs=1.05e-2)
        assert solution.pattern is WavePattern.RS

    def test_strong_shocks(self):
        solution = solve_exact(TEST_5)
        assert solution.a_star == pytest.approx(6.6064, abs=1.05e-4)
        assert solution.u_star == pytest.approx(-30.618, abs=1.05e-3)
        assert solution.pattern is WavePattern.SS
        assert solution.s_left == pytest.approx(-149.0520, abs=1e-4)
        assert solution.s_right == pytest.approx(73.3884, abs=1e-4)

    def test_double_rarefaction(self):
        solution = solve_exact(TEST_6)
        assert solution.a_star == pytest.approx(2.8471, abs=1.05e-4)
        assert solution.u_star == pytest.approx(5.0, abs=1e-9)
        assert solution.pattern is WavePattern.RR

    def test_identical_states(self):
        sol = solve_exact(problem((2.0, 30.0), (2.0, 30.0)))
        assert sol.a_star == pytest.approx(2.0)
        assert sol.u_star == pytest.approx(30.0)

    def test_collapse_raises(self):
        with pytest.raises(CollapseData):
            solve_exact(problem((0.01, -400.0), (0.01, 400.0)))

    def test_residual_is_zero(self):
        for prob in (TEST_2, TEST_3, TEST_5, TEST_6):
            solution = solve_exact(prob)
            du = abs(prob.right.u - prob.left.u) + 1.0
            assert abs(area_function(solution.a_star, prob)) <= 1e-9 * du


class TestClassification:
    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ((PI, 0.0), (0.9 * PI, 0.0), WavePattern.RS),
            ((0.001 * PI, 0.0), (PI, 0.0), WavePattern.SR),
            ((PI, 10.0), (PI, -20.0), WavePattern.SS),
            ((PI, -10.0), (PI, 20.0), WavePattern.RR),
            ((0.01, -400.0), (0.01, 400.0), WavePattern.VACUUM),
        ],
    )
    def test_patterns(self, left, right, expected):
        assert classify(problem(left, right)) is expected


class TestTwoRarefaction:
    def test_dominates_star_area(self):
        for prob in random_problems(500, seed=1):
            a_rr = two_rarefaction_area(prob)
            a_star = solve_exact(prob).a_star
            assert a_rr >= a_star - 1e-9 * max(1.0, a_star)

    def test_collapse_raises(self):
        with pytest.raises(CollapseData):
            two_rarefaction_area(problem((0.01, -400.0), (0.01, 400.0)))


class TestQFactor:
    def test_unit_ratio_limit(self):
        # The closed form is 0/0 at unit ratio; the limit is 1.
        params = BfeParams()
        state = BfeState(2.0, 0.0)
        assert q_factor(2.0, state, params) == 1.0
        assert q_factor(2.0 * (1.0 + 1e-6), state, params) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_increasing_in_area(self):
        state = BfeState(1.0, 0.0)
        params = BfeParams()
        values = [q_factor(a, state, params) for a in (1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values)


class TestEstimators:
    def test_published_cells(self):
        bounds = estimate(TEST_3, EstimatorId.TMS_C)
        assert bounds.s_left == pytest.approx(-3986.0259, abs=1e-3)
        assert bounds.s_right == pytest.approx(154.3033, abs=1e-4)

        bounds = estimate(TEST_5, EstimatorId.TMS_B)
        assert bounds.s_left == pytest.approx(-150.4213, abs=1e-4)
        assert bounds.s_right == pytest.approx(74.9150, abs=1e-4)

        bounds = estimate(TEST_6, EstimatorId.TMS_D)
        assert bounds.s_left == pytest.approx(-596.7498, abs=1e-4)
        assert bounds.s_right == pytest.approx(606.7498, abs=1e-4)

    def test_euler_only_estimators_unsupported(self):
        with pytest.raises(UnsupportedEstimator):
            estimate(TEST_2, EstimatorId.EINFELDT)
        with pytest.raises(UnsupportedEstimator):
            estimate(TEST_2, EstimatorId.BATTEN)

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


def mirror(prob):
    left, right = prob.left, prob.right
    return BfeProblem(
        BfeState(right.a, -right.u),
        BfeState(left.a, -left.u),
        prob.params,
    )


class TestSwapSymmetry:
    def test_estimators_mirror(self):
        estimators = (EstimatorId.EXACT, *bloodflow.ESTIMATORS)
        for prob in random_problems(300, seed=17):
            mirrored = mirror(prob)
            for estimator in estimators:
                fwd = estimate(prob, estimator)
                rev = estimate(mirrored, estimator)
                scale = max(1.0, abs(fwd.s_left), abs(fwd.s_right))
                assert abs(rev.s_left + fwd.s_right) <= 1e-12 * scale
                assert abs(rev.s_right + fwd.s_left) <= 1e-12 * scale


class TestConcavity:
    def test_area_function_concave_down(self):
        rng = random.Random(23)
        for prob in random_problems(100, seed=29):
            for _ in range(5):
                a = 10.0 ** rng.uniform(-2, 2)
                step = 1e-3 * a
                f = lambda x: area_function(x, prob)
                bend = f(a + step) + f(a - step) - 2.0 * f(a)
                assert bend <= 1e-12 * max(1.0, abs(f(a + step)), abs(f(a - step)))
