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
from riemann_bounds import bloodflow, core
from test_contracts import mp_solution
from riemann_bounds.bloodflow import (
    SYSTEM,
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
        side = core.sides(problem((PI, 0.0), (PI, 0.0)))[0]
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


#: Blood-flow S/R problem with A*/A_L - 1 near 1e-8.  With the shock factor
#: written as (y^1.5 - 1)/(y - 1), which cancels there, its exact S_L is
#: 1.0e-9 of the speed scale off and TMS_b's S_L is no lower bound.
WEAK_LEFT_SHOCK = problem((0.3857900568839984, -124.41788759076593),
                          (1.110419021897587, -13.885933579728686))


class TestQFactor:
    def test_unit_ratio_limit(self):
        # The written form has no 0/0 at unit ratio; its value there is the
        # limit 1, and next to it about 1 + 0.625 (y - 1).
        params = BfeParams()
        state = BfeState(2.0, 0.0)
        assert q_factor(2.0, SYSTEM.side(state, params)) == 1.0
        assert q_factor(2.0 * (1.0 + 1e-6), SYSTEM.side(state, params)) == pytest.approx(
            1.0 + 0.625e-6, rel=1e-12
        )

    def test_increasing_in_area(self):
        state = BfeState(1.0, 0.0)
        params = BfeParams()
        values = [q_factor(a, SYSTEM.side(state, params)) for a in (1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values)

    def test_past_the_float_range_is_inf(self):
        params = BfeParams()
        assert q_factor(1e300, SYSTEM.side(BfeState(1e-3, 0.0), params)) == math.inf  # y finite
        assert q_factor(1e300, SYSTEM.side(BfeState(1e-10, 0.0), params)) == math.inf  # y = inf

    def test_factor_and_slope_match_mpmath_from_weak_to_strong(self):
        # Against 40-digit values of the cancelling textbook forms, on the
        # float arguments themselves: q_K(y) and the shock-branch slope
        # d/dA sqrt(gamma_t (A - A_K)(A^1.5 - A_K^1.5) / (A A_K)).
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(21)
        params = BfeParams()
        worst_q = worst_slope = 0.0
        with mpmath.workdps(40):
            for _ in range(2000):
                y = 1.0 + 10.0 ** rng.uniform(-15.0, 1.0)  # y - 1 log-uniform
                m = mpmath.mpf(y)
                true_q = mpmath.sqrt(mpmath.mpf(2) / 3 * m * (m**1.5 - 1) / (m - 1))
                worst_q = max(worst_q, abs(q_factor(y, SYSTEM.side(BfeState(1.0, 0.0), params))
                                           - true_q) / true_q)

                side = bloodflow._Side(BfeState(10.0 ** rng.uniform(-2.0, 1.0), 0.0), params)
                a = side.x * y
                g, x, k = mpmath.mpf(side.gamma_tube), mpmath.mpf(a), mpmath.mpf(side.x)
                n = (x - k) * (x**1.5 - k**1.5)
                dn = (x**1.5 - k**1.5) + mpmath.mpf(1.5) * (x - k) * mpmath.sqrt(x)
                true_slope = (g * (dn / (x * k) - n / (x * x * k))
                              / (2 * mpmath.sqrt(g * n / (x * k))))
                worst_slope = max(worst_slope, abs(bloodflow._shock_slope(a, side) - true_slope)
                                  / true_slope)
        print(f"largest relative errors: q_factor {float(worst_q):.1e}, "
              f"_shock_slope {float(worst_slope):.1e}")
        assert worst_q <= 1e-15
        assert worst_slope <= 1e-15

    def test_weak_shock_speed_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        exact = solve_exact(WEAK_LEFT_SHOCK)
        assert exact.pattern is WavePattern.SR
        assert 0.0 < exact.a_star / WEAK_LEFT_SHOCK.left.a - 1.0 < 1e-7
        with mpmath.workdps(40):
            _, s_left, s_right = mp_solution(WEAK_LEFT_SHOCK, mpmath)
            scale = max(1, abs(s_left), abs(s_right))
            assert abs(exact.s_left - s_left) <= 1e-12 * scale
            assert abs(exact.s_right - s_right) <= 1e-12 * scale
            # Bounds, up to round-off of the speed scale.
            for estimator in (EstimatorId.TORO, EstimatorId.TMS_B):
                bounds = estimate(WEAK_LEFT_SHOCK, estimator)
                assert bounds.s_left <= s_left + 1e-15 * scale, estimator


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
