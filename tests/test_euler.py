"""Tests for the Euler-system exact solver and speed estimators."""

import math
import os
import random
import subprocess
import sys

import pytest

import riemann_bounds
from riemann_bounds.core import (
    ClosedFormOverflow,
    EstimatorId,
    UnsupportedEstimator,
    VacuumData,
    WavePattern,
)
from riemann_bounds import euler, fuzz
from riemann_bounds.euler import (
    EulerParams,
    EulerProblem,
    EulerState,
    check_positivity,
    classify,
    estimate,
    pressure_function,
    q_factor,
    solve_exact,
    sound_speed,
    two_rarefaction_pressure,
)


def problem(left, right):
    return EulerProblem(EulerState(*left), EulerState(*right))


TEST_1 = problem((1.0, 0.0, 1.0), (1.0, 0.0, 0.1))
TEST_4 = problem((1.0, 0.0, 0.01), (1.0, 0.0, 1000.0))
TEST_5 = problem((6.0, 8.0, 460.0), (6.0, -6.0, 46.0))
TEST_7 = problem((1.0, -2.0, 0.4), (1.0, 2.0, 0.4))


def random_state(rng):
    return EulerState(
        10.0 ** rng.uniform(-3, 3), rng.uniform(-100, 100), 10.0 ** rng.uniform(-3, 3)
    )


def random_problems(count, seed=0):
    rng = random.Random(seed)
    problems = []
    while len(problems) < count:
        candidate = EulerProblem(random_state(rng), random_state(rng))
        if check_positivity(candidate):
            problems.append(candidate)
    return problems


class TestState:
    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            EulerState(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            EulerState(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            EulerParams(gamma=1.0)

    def test_sound_speed(self):
        state = EulerState(1.0, 0.0, 1.0)
        assert sound_speed(state, EulerParams()) == pytest.approx(math.sqrt(1.4))


class TestSolveExact:
    def test_star_values(self):
        solution = solve_exact(TEST_1)
        assert solution.p_star == pytest.approx(0.5219, abs=1e-4)
        assert solution.u_star == pytest.approx(0.5248, abs=1e-4)
        assert solution.pattern is WavePattern.RS

    def test_strong_shock_star(self):
        solution = solve_exact(TEST_5)
        assert solution.p_star == pytest.approx(790.2928, abs=1e-3)
        assert solution.u_star == pytest.approx(3.8194, abs=1e-4)
        assert solution.pattern is WavePattern.SS

    def test_double_rarefaction(self):
        solution = solve_exact(TEST_7)
        assert solution.p_star == pytest.approx(0.0019, abs=1e-4)
        assert solution.u_star == pytest.approx(0.0, abs=1e-12)
        assert solution.pattern is WavePattern.RR

    def test_identical_states(self):
        sol = solve_exact(problem((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)))
        assert sol.p_star == pytest.approx(1.0)
        assert sol.u_star == pytest.approx(0.0)
        c = math.sqrt(1.4)
        assert sol.s_left == pytest.approx(-c)
        assert sol.s_right == pytest.approx(c)

    def test_vacuum_raises(self):
        with pytest.raises(VacuumData):
            solve_exact(problem((1.0, -50.0, 0.01), (1.0, 50.0, 0.01)))

    def test_residual_is_zero(self):
        for prob in (TEST_1, TEST_4, TEST_5, TEST_7):
            solution = solve_exact(prob)
            du = abs(prob.right.u - prob.left.u) + 1.0
            assert abs(pressure_function(solution.p_star, prob)) <= 1e-9 * du

    def test_matches_log_space_bisection(self):
        # An independent float wave curve, bisected in log p down to the
        # last bit, on the first problems of the seed-42 acceptance ensemble.
        def side(p, rho, pk, g):
            if p > pk:
                return (p - pk) * math.sqrt(2.0 / ((g + 1.0) * rho) / (p + (g - 1.0) / (g + 1.0) * pk))
            c = math.sqrt(g * pk / rho)
            return 2.0 * c / (g - 1.0) * ((p / pk) ** ((g - 1.0) / (2.0 * g)) - 1.0)

        def bisect(prob):
            g, l, r = prob.params.gamma, prob.left, prob.right
            lo, hi = -700.0, 700.0
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                p = math.exp(mid)
                if side(p, l.rho, l.p, g) + side(p, r.rho, r.p, g) + r.u - l.u < 0.0:
                    lo = mid
                else:
                    hi = mid
            return math.exp(0.5 * (lo + hi))

        rng = random.Random(42)
        problems = [fuzz.sample_problem("euler", rng) for _ in range(500)]
        # S/S with gamma near 1: p_rr is far above p*, and so is f(p_rr).
        problems += [
            EulerProblem(EulerState(3.2653944412788496, 224.16133681551423, 0.006410281123590723),
                         EulerState(226866.715332922, -273.827887634019, 55264.10524050066),
                         EulerParams(1.01)),
            EulerProblem(EulerState(0.005181614249557227, 106.63838883941355, 3.0331489752402375e-05),
                         EulerState(1.6848733404941143, -250.49693689690136, 48.8825382906358),
                         EulerParams(1.001)),
            # R/S next to a near-vacuum state, where f(p_rr) is far above f(p*).
            EulerProblem(EulerState(4.8e5, 1247.0, 5.7e4), EulerState(2.9e-4, -6035.0, 3.8e-10)),
        ]
        for i, prob in enumerate(problems):
            want = bisect(prob)
            got = solve_exact(prob).p_star
            assert abs(got - want) <= 1e-11 * want, (i, got, want)

    def test_gamma_near_one_terminates(self):
        # For gamma near 1 the two-rarefaction pressure underflows to 0;
        # the solve must return a root or raise, not loop.
        code = """
from riemann_bounds.core import RiemannBoundsError
from riemann_bounds.euler import EulerParams, EulerProblem, EulerState, pressure_function, solve_exact
cases = [
    ((8.319408137833142e-06, -173.92641653883788, 9.268240455140981e-08),
     (74.21221382399398, 139.84099873740388, 1.0556042681071893)),
    ((666.4296166189765, -254.41115263737265, 0.35320957542169235),
     (1234.3473299275995, -110.93493126953695, 9.511868748437648)),
]
for left, right in cases:
    prob = EulerProblem(EulerState(*left), EulerState(*right), EulerParams(1.001))
    try:
        p = solve_exact(prob).p_star
    except RiemannBoundsError as exc:
        print(type(exc).__name__)
    else:
        assert p > 0.0 and abs(pressure_function(p, prob)) <= 1e-9, p
        print("root")
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(riemann_bounds.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.split()) == 2

    def test_infinite_slope_near_zero(self):
        # RR with gamma near 1 and p* far below both data pressures:
        # (p/p_K)**(-(gamma+1)/(2 gamma)) leaves the float range, so the
        # slope is infinite there, not an OverflowError.
        prob = EulerProblem(
            EulerState(7161.399641034175, -188.07624418868846, 36078.10689062148),
            EulerState(656968.9367820944, 250.55109268950116, 0.015453662390909735),
            EulerParams(1.01),
        )
        assert euler.pressure_function_deriv(1e-310, prob) == math.inf
        solution = solve_exact(prob)
        assert solution.pattern is WavePattern.RR
        assert 0.0 < solution.p_star and abs(pressure_function(solution.p_star, prob)) <= 1e-9
        prob = EulerProblem(
            EulerState(417374.64569131803, -191.92516856619073, 0.7606976394137228),
            EulerState(0.004109112726123057, 133.94401460249242, 0.0011493725773445537),
            EulerParams(1.001),
        )
        with pytest.raises(riemann_bounds.RiemannBoundsError):
            solve_exact(prob)


class TestClassification:
    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ((1.0, 0.0, 1.0), (1.0, 0.0, 0.1), WavePattern.RS),
            ((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), WavePattern.RS),
            ((1.0, 0.0, 0.01), (1.0, 0.0, 1000.0), WavePattern.SR),
            ((6.0, 8.0, 460.0), (6.0, -6.0, 46.0), WavePattern.SS),
            ((600.0, 80.0, 4600.0), (6.0, -6.0, 46.0), WavePattern.SS),
            ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4), WavePattern.RR),
            ((1.0, -50.0, 0.01), (1.0, 50.0, 0.01), WavePattern.VACUUM),
        ],
    )
    def test_patterns(self, left, right, expected):
        assert classify(problem(left, right)) is expected

    def test_agrees_with_star_pressure(self):
        for prob in random_problems(500, seed=3):
            pattern = classify(prob)
            solution = solve_exact(prob)
            left_shock = solution.p_star > prob.left.p
            right_shock = solution.p_star > prob.right.p
            expected = {
                (False, False): WavePattern.RR,
                (False, True): WavePattern.RS,
                (True, False): WavePattern.SR,
                (True, True): WavePattern.SS,
            }[(left_shock, right_shock)]
            assert pattern is expected


class TestTwoRarefaction:
    def test_dominates_star_pressure(self):
        for prob in random_problems(500, seed=1):
            p_rr = two_rarefaction_pressure(prob)
            p_star = solve_exact(prob).p_star
            assert p_rr >= p_star - 1e-9 * max(1.0, p_star)

    def test_exact_for_double_rarefaction(self):
        assert two_rarefaction_pressure(TEST_7) == pytest.approx(
            solve_exact(TEST_7).p_star, rel=1e-10
        )

    def test_vacuum_raises(self):
        with pytest.raises(VacuumData):
            two_rarefaction_pressure(problem((1.0, -50.0, 0.01), (1.0, 50.0, 0.01)))

    @pytest.mark.parametrize("call", [
        two_rarefaction_pressure,
        classify,
        solve_exact,
        lambda prob: estimate(prob, EstimatorId.TORO),
        lambda prob: estimate(prob, EstimatorId.TMS_B),
    ])
    def test_overflow_raises_named_error(self, call):
        # gamma near 1: (num/den)**(1/z) with 1/z = 2002 leaves the float range.
        prob = EulerProblem(
            EulerState(0.00015136449718168365, 281.1340646027413, 1.4127480054273994e-05),
            EulerState(381203.3349056888, -70.06590530817707, 2.2137232894201813e-08),
            EulerParams(1.001),
        )
        with pytest.raises(ClosedFormOverflow, match="overflows"):
            call(prob)


class TestQFactor:
    def test_unit_ratio(self):
        state = EulerState(1.0, 0.0, 3.7)
        assert q_factor(3.7, state, EulerParams()) == 1.0

    def test_increasing_in_pressure(self):
        state = EulerState(1.0, 0.0, 1.0)
        params = EulerParams()
        values = [q_factor(p, state, params) for p in (1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values)


class TestEstimators:
    def test_published_cells(self):
        bounds = estimate(TEST_1, EstimatorId.TMS_B)
        assert bounds.s_left == pytest.approx(-1.1832, abs=1e-4)
        assert bounds.s_right == pytest.approx(0.8080, abs=1e-4)

        bounds = estimate(TEST_5, EstimatorId.BATTEN)
        assert bounds.s_left == pytest.approx(-7.2966, abs=1e-4)
        assert bounds.s_right == pytest.approx(9.2966, abs=1e-4)

        bounds = estimate(TEST_4, EstimatorId.EINFELDT)
        assert bounds.s_left == pytest.approx(-26.4576, abs=1e-4)
        assert bounds.s_right == pytest.approx(26.4576, abs=1e-4)

    def test_tms_d_unsupported(self):
        with pytest.raises(UnsupportedEstimator):
            estimate(TEST_1, EstimatorId.TMS_D)

    def test_speed_ordering(self):
        # davis_a is excluded: its two one-sided formulas can cross for
        # strongly convergent data (the published strong-shock rows show
        # exactly that), so the pair ordering is not an invariant there.
        ordered = tuple(e for e in euler.ESTIMATORS if e is not EstimatorId.DAVIS_A)
        for prob in random_problems(200, seed=5):
            for estimator in (EstimatorId.EXACT, *ordered):
                bounds = estimate(prob, estimator)
                assert bounds.s_left <= bounds.s_right

    def test_bound_property(self):
        certified = (EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                     EstimatorId.TMS_C)
        for prob in random_problems(300, seed=11):
            exact = solve_exact(prob)
            slack = 1e-9 * max(1.0, abs(exact.s_left), abs(exact.s_right))
            for estimator in certified:
                bounds = estimate(prob, estimator)
                assert bounds.s_left <= exact.s_left + slack
                assert bounds.s_right >= exact.s_right - slack


def mirror(prob):
    left, right = prob.left, prob.right
    return EulerProblem(
        EulerState(right.rho, -right.u, right.p),
        EulerState(left.rho, -left.u, left.p),
        prob.params,
    )


class TestSwapSymmetry:
    def test_estimators_mirror(self):
        estimators = (EstimatorId.EXACT, *euler.ESTIMATORS)
        for prob in random_problems(300, seed=17):
            mirrored = mirror(prob)
            for estimator in estimators:
                fwd = estimate(prob, estimator)
                rev = estimate(mirrored, estimator)
                scale = max(1.0, abs(fwd.s_left), abs(fwd.s_right))
                assert abs(rev.s_left + fwd.s_right) <= 1e-12 * scale
                assert abs(rev.s_right + fwd.s_left) <= 1e-12 * scale


class TestConcavity:
    def test_pressure_function_concave_down(self):
        # Chord midpoint never exceeds the function value.
        rng = random.Random(23)
        for prob in random_problems(100, seed=29):
            for _ in range(5):
                p = 10.0 ** rng.uniform(-3, 4)
                h = 1e-3 * p
                f = lambda x: pressure_function(x, prob)
                bend = f(p + h) + f(p - h) - 2.0 * f(p)
                assert bend <= 1e-12 * max(1.0, abs(f(p + h)), abs(f(p - h)))
