"""Tests for the randomized bound-property fuzzer."""

import random

import pytest

from riemann_bounds import bloodflow, euler, shallow, tables
from riemann_bounds.core import EstimatorId, UnsupportedEstimator
from riemann_bounds.fuzz import (
    BOUND_ESTIMATORS,
    REL_SLACK,
    FuzzReport,
    FuzzViolation,
    run_fuzz,
    sample_problem,
)


class TestSampleProblem:
    def test_euler_ensemble_ranges(self):
        rng = random.Random(0)
        for _ in range(200):
            prob = sample_problem("euler", rng)
            for state in (prob.left, prob.right):
                assert 1e-3 <= state.rho <= 1e3
                assert 1e-3 <= state.p <= 1e3
                assert -100.0 <= state.u <= 100.0
            assert euler.check_positivity(prob)

    def test_swe_ensemble_wet(self):
        rng = random.Random(1)
        for _ in range(200):
            prob = sample_problem("swe", rng)
            assert shallow.is_wet(prob)
            assert 1e-3 <= prob.left.h <= 1e2

    def test_bfe_ensemble_open(self):
        rng = random.Random(2)
        for _ in range(200):
            prob = sample_problem("bfe", rng)
            assert bloodflow.is_open(prob)
            assert 1e-2 <= prob.left.a <= 10.0

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            sample_problem("mhd", random.Random(0))

    @pytest.mark.parametrize("system, uniform", [
        ("euler", lambda rng: (10.0 ** rng.uniform(-3, 3), rng.uniform(-100, 100),
                               10.0 ** rng.uniform(-3, 3))),
        ("swe", lambda rng: (10.0 ** rng.uniform(-3, 2), rng.uniform(-20, 20))),
        ("bfe", lambda rng: (10.0 ** rng.uniform(-2, 1), rng.uniform(-300, 300))),
    ])
    def test_draws_are_those_of_rng_uniform(self, system, uniform):
        # The ensemble is defined by these rng.uniform draws; a draw written
        # differently must give the same bits, or every fixed-seed report moves.
        draw = tables.system_record(system).draw
        mine, theirs = random.Random(2024), random.Random(2024)
        for _ in range(10_000):
            assert draw(mine) == uniform(theirs)


class TestRunFuzz:
    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_no_violations(self, system):
        report = run_fuzz(system, 2000, seed=123)
        assert report.trials == 2000
        assert report.violations == ()

    def test_deterministic(self):
        first = run_fuzz("euler", 100, seed=9)
        second = run_fuzz("euler", 100, seed=9)
        assert first == second

    def test_count_validation(self):
        with pytest.raises(ValueError):
            run_fuzz("euler", 0, seed=1)

    def test_estimator_sets(self):
        names = {s: {e.value for e in ests} for s, ests in BOUND_ESTIMATORS.items()}
        assert names["euler"] == {"toro", "tms_a", "tms_b", "tms_c"}
        assert names["swe"] == {"toro", "tms_a", "tms_b", "tms_c", "tms_d"}
        assert names["bfe"] == names["swe"]

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_estimator_sets_come_from_the_system_records(self, system):
        record = tables.system_record(system)
        assert BOUND_ESTIMATORS[system] is record.bound_estimators
        assert set(record.bound_estimators) <= set(record.speeds)

    def test_detects_planted_violation(self):
        # A deliberately wrong "estimator" must be reported.
        from riemann_bounds.core import EstimatorId

        report = run_fuzz("swe", 50, seed=4,
                          estimators=(EstimatorId.DAVIS_A,))
        # davis_a is not a certified bound; over 50 random problems it is
        # extremely unlikely to bound every exact speed pair.
        assert report.violations
        violation = report.violations[0]
        assert violation.estimator == "davis_a"
        assert violation.side in ("s_left", "s_right")


def public_fuzz(system, count, seed, estimators):
    """run_fuzz written with the public sample_problem, solve_exact and
    estimate: one SpeedBounds record per estimator and trial."""
    record = tables.system_record(system)
    module, star_field = record.module, record.star_field
    two_rarefaction = getattr(module, record.two_rarefaction)
    rng = random.Random(seed)
    violations = []

    def violation(trial, name, side, value, exact, problem):
        return FuzzViolation(trial, name, side, value, exact,
                             tuple(vars(problem.left).values()),
                             tuple(vars(problem.right).values()))

    for trial in range(count):
        problem = sample_problem(system, rng)
        exact = module.solve_exact(problem)
        slack = REL_SLACK * max(1.0, abs(exact.s_left), abs(exact.s_right))
        for estimator in estimators:
            bounds = module.estimate(problem, estimator)
            if bounds.s_left > exact.s_left + slack:
                violations.append(violation(trial, estimator.value, "s_left",
                                            bounds.s_left, exact.s_left, problem))
            if bounds.s_right < exact.s_right - slack:
                violations.append(violation(trial, estimator.value, "s_right",
                                            bounds.s_right, exact.s_right, problem))
        star = getattr(exact, star_field)
        star_rr = two_rarefaction(problem)
        if star_rr < star - REL_SLACK * max(1.0, star):
            violations.append(violation(trial, "two_rarefaction", "star", star_rr, star, problem))
    return FuzzReport(system, count, seed, tuple(violations))


#: Estimators without a proven bound property, per system: their reports
#: hold violations, which must match field for field.
NON_BOUND = {
    "euler": (EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.EINFELDT,
              EstimatorId.BATTEN),
    "swe": (EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.TMS_D),
    "bfe": (EstimatorId.DAVIS_A, EstimatorId.DAVIS_B),
}


class TestRunFuzzMatchesThePublicLoop:
    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    @pytest.mark.parametrize("seed", (3, 71))
    @pytest.mark.parametrize("kind", ("bound", "non_bound", "exact"))
    def test_same_report(self, system, seed, kind):
        estimators = {
            "bound": BOUND_ESTIMATORS[system],
            "non_bound": NON_BOUND[system],
            "exact": (EstimatorId.EXACT, EstimatorId.DAVIS_A),
        }[kind]
        report = run_fuzz(system, 300, seed, estimators)
        assert report == public_fuzz(system, 300, seed, estimators)
        if kind != "bound":
            assert report.violations  # the comparison covers violation records

    def test_unsupported_estimator_raises_as_estimate_does(self):
        problem = sample_problem("swe", random.Random(0))
        with pytest.raises(UnsupportedEstimator) as from_estimate:
            shallow.estimate(problem, EstimatorId.EINFELDT)
        with pytest.raises(UnsupportedEstimator) as from_fuzz:
            run_fuzz("swe", 10, seed=1, estimators=(EstimatorId.EINFELDT,))
        assert str(from_fuzz.value) == str(from_estimate.value)
