"""Tests for the randomized bound-property fuzzer."""

import math
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

import riemann_bounds
from riemann_bounds import bloodflow, core, euler, fuzz, shallow
from riemann_bounds.core import (
    EstimatorId,
    UnsupportedEstimator,
    WavePattern,
    fields,
    replace,
    speed_function,
)
from riemann_bounds.fuzz import (
    KERNEL_CHUNK,
    KERNEL_MIN_COUNT,
    FuzzReport,
    FuzzViolation,
    run_fuzz,
    sample_problem,
)


#: The raw draws of `tools/output_digest.py`: pairs of the fuzz draw
#: without the positivity filter.
RAW_SEED, RAW_PAIRS = 5, 3000
#: Per system, the public positivity test, which reads the side records.
PUBLIC_POSITIVITY = {"euler": euler.check_positivity, "swe": shallow.is_wet,
                     "bfe": bloodflow.is_open}


def values(state):
    """A state's field values in field order, as `System.draw` gives them."""
    return tuple(core.asdict(state).values())


def positive_from_states(record, problem):
    """The positivity test of `sample_problem`: the shared inequality over
    the celerities of the states' values."""
    left, right, params = problem.left, problem.right, problem.params
    return core.positivity(record.celerity(values(left), params),
                           record.celerity(values(right), params), right.u - left.u, params)


def with_bound_estimators(monkeypatch, system, estimators):
    """Put a copy of the system's record whose `bound_estimators` are
    `estimators` in the registry, so that `run_fuzz` checks those."""
    record = replace(core.system_record(system), bound_estimators=estimators)
    monkeypatch.setitem(core._REGISTRY, system, record)


def sample_by_building(system, rng):
    """`sample_problem` in the order of its first form: each candidate pair
    built into a problem, then tested by the public positivity test."""
    record = core.system_record(system)
    while True:
        problem = core.make_problem(system, record.draw(rng), record.draw(rng))
        if PUBLIC_POSITIVITY[system](problem):
            return problem


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

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_problems_come_without_side_records(self, system):
        # The records are built when a solve or an estimate first reads them.
        rng = random.Random(3)
        for _ in range(500):
            problem = sample_problem(system, rng)
            # A read of a slot is a plain read, which builds nothing.
            for name in ("_sides", "_wave_data"):
                assert getattr(problem, name) is None
        assert core.sides(problem)[0].c == core.system_record(system).celerity(
            values(problem.left), problem.params)

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_positivity_from_states_is_that_of_the_sides(self, system):
        # On every raw draw the two tests agree, the celerity of the drawn
        # values is the side record's `c` to the bit, and `sample_problem`
        # accepts the draws that the public test accepts, in order.
        record = core.system_record(system)
        rng = random.Random(RAW_SEED)
        accepted, verdicts = [], set()
        for _ in range(RAW_PAIRS):
            draws = record.draw(rng), record.draw(rng)
            problem = core.make_problem(system, *draws)
            for draw, side in zip(draws, core.sides(problem)):
                assert record.celerity(draw, problem.params).hex() == side.c.hex(), draw
            verdict = PUBLIC_POSITIVITY[system](problem)
            assert positive_from_states(record, problem) is verdict, problem
            verdicts.add(verdict)
            if verdict:
                accepted.append((problem.left, problem.right))
        assert verdicts == {True, False}
        rng = random.Random(RAW_SEED)
        for left, right in accepted:
            problem = sample_problem(system, rng)
            assert (problem.left, problem.right) == (left, right)

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_accepted_pairs_and_rng_state_are_those_of_building_first(self, system):
        # Testing the drawn values before building a problem must accept the
        # same pairs, and leave the rng where building every candidate did.
        mine, theirs = random.Random(17), random.Random(17)
        for _ in range(5000):
            problem = sample_problem(system, mine)
            reference = sample_by_building(system, theirs)
            assert (problem.left, problem.right) == (reference.left, reference.right)
            assert problem.params is reference.params
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("system, left, right", [
        ("euler", (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)),
        ("swe", (1.0, 0.0), (0.1, 0.0)),
        ("bfe", (3.0, 0.0), (0.5, 0.0)),
    ])
    def test_positivity_at_its_threshold(self, monkeypatch, system, left, right):
        # u_R - u_L equal to the left-hand side of the positivity condition
        # leaves no positive star value; one ulp below it, a positive one.
        # Both tests must say so, and `sample_problem` must reject the first.
        record = core.system_record(system)
        module, params = record.module, record.params_type()
        c_left, c_right = (record.side(record.state_type(*state), params).c
                           for state in (left, right))
        if system == "euler":
            g = params.gamma
            lhs = 2.0 * c_left / (g - 1.0) + 2.0 * c_right / (g - 1.0)
        else:
            k = 2.0 if system == "swe" else 4.0
            lhs = k * c_left + k * c_right

        def states(du):
            """left and right with u_L = -du/2 and u_R = du/2, so that
            u_R - u_L is du exactly."""
            return left[:1] + (-0.5 * du,) + left[2:], right[:1] + (0.5 * du,) + right[2:]

        below = math.nextafter(lhs, 0.0)
        for du, verdict in ((lhs, False), (below, True)):
            problem = core.make_problem(system, *states(du))
            assert problem.right.u - problem.left.u == du
            assert PUBLIC_POSITIVITY[system](problem) is verdict
            assert positive_from_states(record, problem) is verdict
        problem = core.make_problem(system, *states(lhs))
        assert module.classify(problem) is WavePattern.VACUUM
        with pytest.raises(record.no_star):
            getattr(module, record.two_rarefaction)(problem)

        draws = iter(states(lhs) + states(below))
        monkeypatch.setitem(core._REGISTRY, system,
                            replace(record, draw=lambda rng: next(draws)))
        problem = sample_problem(system, random.Random(0))
        assert problem == core.make_problem(system, *states(below))
        assert next(draws, None) is None

    @pytest.mark.parametrize("system, uniform", [
        ("euler", lambda rng: (10.0 ** rng.uniform(-3, 3), rng.uniform(-100, 100),
                               10.0 ** rng.uniform(-3, 3))),
        ("swe", lambda rng: (10.0 ** rng.uniform(-3, 2), rng.uniform(-20, 20))),
        ("bfe", lambda rng: (10.0 ** rng.uniform(-2, 1), rng.uniform(-300, 300))),
    ])
    def test_draws_are_those_of_rng_uniform(self, system, uniform):
        # The ensemble is defined by these rng.uniform draws; a draw written
        # differently must give the same bits, or every fixed-seed report moves.
        draw = core.system_record(system).draw
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
        names = {s: {e.value for e in core.system_record(s).bound_estimators}
                 for s in core.SYSTEMS}
        assert names["euler"] == {"toro", "tms_a", "tms_b", "tms_c"}
        assert names["swe"] == {"toro", "tms_a", "tms_b", "tms_c", "tms_d"}
        assert names["bfe"] == names["swe"]

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_estimator_sets_come_from_the_system_records(self, system):
        record = core.system_record(system)
        assert set(record.bound_estimators) <= set(record.speeds)

    def test_detects_planted_violation(self, monkeypatch):
        # A deliberately wrong "estimator" must be reported.
        with_bound_estimators(monkeypatch, "swe", (EstimatorId.DAVIS_A,))
        report = run_fuzz("swe", 50, seed=4)
        # davis_a is not a certified bound; over 50 random problems it is
        # extremely unlikely to bound every exact speed pair.
        assert report.violations
        violation = report.violations[0]
        assert violation.estimator == "davis_a"
        assert violation.side in ("s_left", "s_right")


def public_check(system, trial, problem, estimators):
    """The violations of one trial, by the public solve_exact, estimate and
    two-rarefaction function: one SpeedBounds record per estimator.  It
    reads `fuzz.REL_SLACK` when it runs, as `run_fuzz` does."""
    rel_slack = fuzz.REL_SLACK
    record = core.system_record(system)
    module = record.module
    violations = []

    def violation(name, side, value, exact):
        return FuzzViolation(trial, name, side, value, exact,
                             values(problem.left), values(problem.right))

    exact = module.solve_exact(problem)
    slack = rel_slack * max(1.0, abs(exact.s_left), abs(exact.s_right))
    for estimator in estimators:
        bounds = module.estimate(problem, estimator)
        if bounds.s_left > exact.s_left + slack:
            violations.append(violation(estimator.value, "s_left", bounds.s_left, exact.s_left))
        if bounds.s_right < exact.s_right - slack:
            violations.append(violation(estimator.value, "s_right", bounds.s_right,
                                        exact.s_right))
    star = getattr(exact, record.star_field)
    star_rr = getattr(module, record.two_rarefaction)(problem)
    if star_rr < star - rel_slack * max(1.0, star):
        violations.append(violation("two_rarefaction", "star", star_rr, star))
    return violations


def public_fuzz(system, count, seed, estimators):
    """run_fuzz written with the public sample_problem and `public_check`."""
    rng = random.Random(seed)
    violations = []
    for trial in range(count):
        violations += public_check(system, trial, sample_problem(system, rng), estimators)
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
    def test_same_report(self, monkeypatch, system, seed, kind):
        estimators = {
            "bound": core.system_record(system).bound_estimators,
            "non_bound": NON_BOUND[system],
            "exact": (EstimatorId.EXACT, EstimatorId.DAVIS_A),
        }[kind]
        with_bound_estimators(monkeypatch, system, estimators)
        report = run_fuzz(system, 300, seed)
        assert report == public_fuzz(system, 300, seed, estimators)
        if kind != "bound":
            assert report.violations  # the comparison covers violation records

    def test_unsupported_estimator_raises_as_estimate_does(self, monkeypatch):
        problem = sample_problem("swe", random.Random(0))
        with pytest.raises(UnsupportedEstimator) as from_estimate:
            shallow.estimate(problem, EstimatorId.EINFELDT)
        with_bound_estimators(monkeypatch, "swe", (EstimatorId.EINFELDT,))
        with pytest.raises(UnsupportedEstimator) as from_fuzz:
            run_fuzz("swe", 10, seed=1)
        assert str(from_fuzz.value) == str(from_estimate.value)


#: Per system, the seed of its acceptance ensemble (`tests/test_acceptance.py`).
ACCEPTANCE_SEEDS = {"euler": 42, "swe": 7, "bfe": 13}
#: Trials of the kernel comparisons: two full chunks and a short tail.
KERNEL_COUNT = 2 * KERNEL_CHUNK + 37


def outcome(call, *args):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return call(*args)
    except Exception as error:
        return type(error), str(error)


#: The estimators whose `SpeedBounds` carries the wave pattern.
WITH_PATTERN = {EstimatorId.EXACT, EstimatorId.TMS_A, EstimatorId.TMS_B, EstimatorId.TMS_C,
                EstimatorId.TMS_D}


@pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
def test_speed_functions_give_the_pairs_of_estimate(system):
    # run_fuzz and reproduce read the pair of `speed_function`, estimate
    # wraps its own: on the first 200 acceptance problems and 200 raw draws
    # (no positivity filter, so no-star data are among them) both give the
    # same bits, or the same error.  EXACT's pair and pattern are those of
    # `solve_exact`, or its error type.  Each call gets a fresh problem, so
    # that neither reads what the other cached.
    record = core.system_record(system)
    module = record.module
    acceptance, raw = random.Random(ACCEPTANCE_SEEDS[system]), random.Random(RAW_SEED)
    data = [(values(p.left), values(p.right))
            for p in (sample_problem(system, acceptance) for _ in range(200))]
    data += [(record.draw(raw), record.draw(raw)) for _ in range(200)]
    errors = 0
    for estimator in EstimatorId:
        if estimator is not EstimatorId.EXACT and estimator not in module.ESTIMATORS:
            problem = core.make_problem(system, *data[0])
            assert (outcome(speed_function, record, estimator)
                    == outcome(module.estimate, problem, estimator))
            continue
        speeds = speed_function(record, estimator)
        for left, right in data:
            pair = outcome(speeds, core.make_problem(system, left, right))
            problem = core.make_problem(system, left, right)
            bounds = outcome(module.estimate, problem, estimator)
            if estimator is EstimatorId.EXACT:
                solution = outcome(module.solve_exact, core.make_problem(system, left, right))
                if isinstance(pair[0], type):
                    assert isinstance(solution, tuple) and solution[0] is pair[0], (left, right)
                else:
                    assert (repr((solution.s_left, solution.s_right)) == repr(pair)
                            and solution.pattern is bounds.pattern), (left, right)
            if isinstance(pair[0], type):
                assert bounds == pair, (estimator, left, right)
                errors += 1
                continue
            assert repr(pair) == repr((bounds.s_left, bounds.s_right)), (estimator, left, right)
            expected = module.classify(problem) if estimator in WITH_PATTERN else None
            assert bounds.pattern is expected, (estimator, left, right)
            assert bounds.estimator is estimator, (estimator, left, right)
    assert errors  # the error paths are covered too


@pytest.fixture(scope="module")
def public_reports():
    """public_fuzz on the bound estimators, KERNEL_COUNT trials, computed once
    per (system, seed, slack)."""
    cache = {}

    def report(system, seed):
        key = (system, seed, fuzz.REL_SLACK)
        if key not in cache:
            cache[key] = public_fuzz(system, KERNEL_COUNT, seed,
                                     core.system_record(system).bound_estimators)
        return cache[key]
    return report


def kernel_calls(monkeypatch):
    """Chunk sizes `run_fuzz` hands the lane kernel, recorded per call."""
    kernel = fuzz._lane_kernel()
    sizes, scalar_lanes = [], kernel.scalar_lanes

    def spy(system, problems, rel_slack):
        sizes.append(len(problems))
        return scalar_lanes(system, problems, rel_slack)
    monkeypatch.setattr(kernel, "scalar_lanes", spy)
    return sizes


@pytest.mark.parametrize("path", ("kernel", "scalar"))
@pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
def test_run_fuzz_samples_each_trial_through_the_module(monkeypatch, path, system):
    # One `fuzz.sample_problem` call per trial, looked up on the module when
    # it runs: the benchmark's traced run wraps it there and counts on it.
    # Only the accepted draw becomes a problem: one `fuzz.make_problem`
    # call per trial, which the traced run counts per sample.
    if path == "kernel" and fuzz._lane_kernel() is None:
        pytest.skip("numpy does not import")
    count = KERNEL_COUNT if path == "kernel" else KERNEL_MIN_COUNT - 1
    calls, built, sample, make_problem = [], [], fuzz.sample_problem, fuzz.make_problem

    def counting(system, rng):
        calls.append(system)
        return sample(system, rng)

    def counting_builds(system, left, right):
        built.append(system)
        return make_problem(system, left, right)
    monkeypatch.setattr(fuzz, "sample_problem", counting)
    monkeypatch.setattr(fuzz, "make_problem", counting_builds)
    sizes = kernel_calls(monkeypatch) if path == "kernel" else []
    assert run_fuzz(system, count, 8).trials == count
    assert calls == [system] * count
    assert built == [system] * count
    assert sizes == ([KERNEL_CHUNK, KERNEL_CHUNK, 37] if path == "kernel" else [])


@pytest.mark.skipif(fuzz._lane_kernel() is None, reason="numpy does not import")
class TestLaneKernel:
    """`run_fuzz` at or above KERNEL_MIN_COUNT runs the numpy lane kernel; its
    reports must be those of the scalar loop, which is the oracle."""

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    @pytest.mark.parametrize("seed", (5, 29))
    def test_same_report_as_the_public_loop(self, monkeypatch, public_reports, system, seed):
        assert KERNEL_COUNT >= KERNEL_MIN_COUNT
        sizes = kernel_calls(monkeypatch)
        assert run_fuzz(system, KERNEL_COUNT, seed) == public_reports(system, seed)
        assert sizes == [KERNEL_CHUNK, KERNEL_CHUNK, 37]

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_violations_pass_through_the_kernel(self, monkeypatch, public_reports, system):
        # A negative slack makes every estimate that equals an exact speed
        # (an eigenvalue, a rarefaction side) and every R/R star value a
        # violation: the kernel must hand each such lane to the scalar check.
        monkeypatch.setattr(fuzz, "REL_SLACK", -1e-7)
        sizes = kernel_calls(monkeypatch)
        report = run_fuzz(system, KERNEL_COUNT, 5)
        assert len(report.violations) > 100
        assert {v.side for v in report.violations} >= {"s_left", "s_right", "star"}
        assert report == public_reports(system, 5)
        assert len(sizes) == 3

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_star_violations_pass_through_the_kernel(self, monkeypatch, system):
        # The same with no bound estimator, so that only the dominance check
        # can hand a lane to the scalar check.
        with_bound_estimators(monkeypatch, system, ())
        monkeypatch.setattr(fuzz, "REL_SLACK", -1e-7)
        sizes = kernel_calls(monkeypatch)
        report = run_fuzz(system, KERNEL_COUNT, 5)
        assert len(report.violations) > 100
        assert {v.side for v in report.violations} == {"star"}
        assert report == public_fuzz(system, KERNEL_COUNT, 5, ())
        assert len(sizes) == 3

    def test_short_runs_and_other_estimator_sets_stay_scalar(self, monkeypatch):
        # The kernel evaluates TORO and TMS_a-d only; one estimator outside
        # them, EXACT included, keeps the whole run on the scalar path.
        sizes = kernel_calls(monkeypatch)
        run_fuzz("euler", KERNEL_MIN_COUNT - 1, 3)
        with_bound_estimators(monkeypatch, "swe", (EstimatorId.TORO, EstimatorId.EXACT))
        run_fuzz("swe", KERNEL_MIN_COUNT, 3)
        assert sizes == []

    def test_a_chunk_shares_one_params_object(self):
        # `sample_problem` gives every problem the class-default params; the
        # kernel reads one params object per chunk and refuses a second one.
        rng = random.Random(3)
        chunk = [sample_problem("swe", rng) for _ in range(3)]
        chunk[1] = core.make_problem("swe", values(chunk[1].left), values(chunk[1].right),
                                       {"g": 9.0})
        with pytest.raises(ValueError, match="one params object"):
            fuzz._lane_kernel().scalar_lanes(core.system_record("swe"), chunk, fuzz.REL_SLACK)

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_lanes_match_the_scalar_path(self, kernel_outcomes, system):
        # The kernel's bound estimates against the registry functions on the
        # first 20 000 acceptance problems: within BAND / 100 on every lane
        # it passes.  It hands back 0 (Euler, SWE) and 5 (blood flow) lanes.
        outcome = kernel_outcomes(system, "acceptance")
        assert max(outcome.worst.values()) <= fuzz._lane_kernel().BAND / 100
        assert outcome.doubted <= 10

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    @pytest.mark.parametrize("ensemble", ("acceptance", "weak"))
    def test_passed_lanes_pass_the_scalar_check(self, kernel_outcomes, system, ensemble):
        # The certificate: the scalar check finds no violation on any lane
        # that the kernel passes, and raises on none.
        assert kernel_outcomes(system, ensemble).unsound == []

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_weak_shocks(self, monkeypatch, kernel_outcomes, system):
        # Weak waves, where a shock factor written with (y^1.5 - 1)/(y - 1)
        # cancels: the report is that of the scalar loop, and the estimates
        # on every lane the kernel passes are within BAND / 10 of the
        # registry's.
        outcome = kernel_outcomes(system, "weak")
        assert max(outcome.worst.values()) <= fuzz._lane_kernel().BAND / 10
        # S/S lanes whose f(x_rr) rounds below 0 still go to the scalar
        # check, whose bracket then doubles; the weak shocks themselves do not.
        assert outcome.doubted <= WEAK_DOUBTED[system]

        monkeypatch.setattr(fuzz, "sample_problem", weak_shock_problem)
        sizes = kernel_calls(monkeypatch)
        with_kernel = run_fuzz(system, KERNEL_COUNT, 3)
        assert sizes == [KERNEL_CHUNK, KERNEL_CHUNK, 37]
        monkeypatch.setattr(fuzz, "_lane_kernel", lambda: None)
        assert run_fuzz(system, KERNEL_COUNT, 3) == with_kernel

    @pytest.mark.parametrize("system", ("euler", "swe", "bfe"))
    def test_a_planted_star_fault_reaches_the_report(self, monkeypatch, system):
        # A closed form 1e-6 below x_rr no longer dominates the star value
        # under R/R, where x_rr is the star value: the kernel, which reads
        # the same faulty record, must hand those lanes back, so that the
        # report is the scalar loop's, star violations included.
        record = core.system_record(system)
        rr_closed_form = record.rr_closed_form
        faulty = replace(record, rr_closed_form=lambda left, right, params:
                         (1.0 - 1e-6) * rr_closed_form(left, right, params))
        monkeypatch.setitem(core._REGISTRY, system, faulty)
        monkeypatch.setattr(record.problem_type, "_system", faulty)
        sizes = kernel_calls(monkeypatch)
        with_kernel = run_fuzz(system, KERNEL_COUNT, 5)
        assert sizes == [KERNEL_CHUNK, KERNEL_CHUNK, 37]
        assert "star" in {v.side for v in with_kernel.violations}
        monkeypatch.setattr(fuzz, "_lane_kernel", lambda: None)
        assert run_fuzz(system, KERNEL_COUNT, 5) == with_kernel


#: Per system, the most weak-wave lanes the kernel may hand back, of 2000:
#: it hands back 509 (Euler), 478 (SWE) and 388 (blood flow).
WEAK_DOUBTED = {"euler": 600, "swe": 575, "bfe": 475}


def weak_shock_problem(system, rng):
    """Converging data with weak waves: the left state a draw of the
    system's ensemble, the right one its copy with u lowered by c_L times
    10^U(-12, -1) and, in half the draws, the data value of the star
    variable (p, h or A) raised by a factor 1 + 10^U(-12, -2)."""
    record = core.system_record(system)
    left = record.draw(rng)
    right = list(left)
    c_left = record.celerity(left, record.params)
    right[1] -= c_left * 10.0 ** rng.uniform(-12.0, -1.0)
    if rng.random() < 0.5:
        k = fields(record.state_type).index(record.star)
        right[k] *= 1.0 + 10.0 ** rng.uniform(-12.0, -2.0)
    return core.make_problem(system, left, tuple(right))


#: The ensembles of the lane comparisons: their problem source and size.
#: Each system draws them from its acceptance seed.
ENSEMBLES = {"acceptance": (sample_problem, 20000), "weak": (weak_shock_problem, 2000)}


def kernel_outcome(system, ensemble):
    """What the lane kernel makes of an ensemble of `ENSEMBLES`, in chunks
    of 1000: `doubted`, the number of lanes it hands back to the scalar
    check; `unsound`, what the scalar check (`public_check`) finds on the
    lanes it passes, violations or errors; and `worst`, per bound
    estimator, the largest difference of its estimates from the registry
    functions over the lanes it passes, relative to the check's scale
    max(1, |S_L|, |S_R|), or to the estimate's own size where that is
    larger."""
    kernel = fuzz._lane_kernel()
    record = core.system_record(system)
    estimators = record.bound_estimators
    make, count = ENSEMBLES[ensemble]
    rng = random.Random(ACCEPTANCE_SEEDS[system])
    problems = [make(system, rng) for _ in range(count)]
    worst, doubted, unsound = dict.fromkeys((e.value for e in estimators), 0.0), 0, []
    for start in range(0, count, 1000):
        chunk = problems[start:start + 1000]
        handed_back = kernel.scalar_lanes(record, chunk, fuzz.REL_SLACK)
        doubted += len(handed_back)
        lanes = kernel._Lanes(record, chunk)
        with kernel.np.errstate(all="ignore"):
            lanes.wave_data()
            estimates = {e: lanes.estimate(e) for e in estimators}
        for i in sorted(set(range(len(chunk))) - set(handed_back)):
            problem = chunk[i]
            found = outcome(public_check, system, start + i, problem, estimators)
            if found != []:
                unsound.append((values(problem.left), values(problem.right), found))
                continue
            exact = record.module.solve_exact(problem)
            scale = max(1.0, abs(exact.s_left), abs(exact.s_right))
            for estimator in estimators:
                pair = speed_function(record, estimator)(problem)
                worst[estimator.value] = max(worst[estimator.value], *(
                    abs(mine[i] - theirs) / max(scale, abs(theirs))
                    for mine, theirs in zip(estimates[estimator], pair)))
    print(f"{system} {ensemble}: {doubted} of {count} lanes handed back; largest differences "
          + ", ".join(f"{name} {error:.1e}" for name, error in worst.items()))
    return SimpleNamespace(worst=worst, doubted=doubted, unsound=unsound)


@pytest.fixture(scope="module")
def kernel_outcomes():
    """`kernel_outcome` per (system, ensemble), computed once."""
    cache = {}

    def get(system, ensemble):
        if (system, ensemble) not in cache:
            cache[system, ensemble] = kernel_outcome(system, ensemble)
        return cache[system, ensemble]
    return get


def test_same_report_without_numpy(monkeypatch, public_reports):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "riemann_bounds._kernel", raising=False)
    monkeypatch.delattr(riemann_bounds, "_kernel", raising=False)
    assert fuzz._lane_kernel() is None
    for system in ("euler", "swe", "bfe"):
        assert run_fuzz(system, KERNEL_COUNT, 29) == public_reports(system, 29)
    assert "riemann_bounds._kernel" not in sys.modules


def test_importing_the_cli_does_not_import_numpy():
    # numpy's import adds about 0.1 s to a cold process; only a run_fuzz
    # long enough for the kernel may pay it.
    code = ("import sys, riemann_bounds.cli, riemann_bounds.fuzz; "
            "print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(riemann_bounds.__path__[0] + "/..")},
                          check=True)
    assert done.stdout.strip() == "False"
