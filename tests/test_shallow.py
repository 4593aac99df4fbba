"""Tests for the shallow-water exact solver and speed estimators:
validation, the star depth, the dry bed, the q factor, and the bound,
dominance, mirror and concavity checks on shallow water's own draws.  The
rows that the three systems share one for one are in `test_systems.py`."""

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

    def test_dry_bed_raises(self):
        with pytest.raises(DryBed):
            solve_exact(problem((0.01, -10.0), (0.01, 10.0)))


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
