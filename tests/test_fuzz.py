"""Tests for the randomized bound-property fuzzer."""

import pytest

from riemann_bounds import bloodflow, euler, shallow, tables
from riemann_bounds.fuzz import BOUND_ESTIMATORS, run_fuzz, sample_problem
import random


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
