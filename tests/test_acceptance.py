"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line."""

import random
import time

import pytest

from riemann_bounds import bloodflow, core, euler, shallow, tables
from riemann_bounds.core import EstimatorId
from riemann_bounds.euler import pressure_function
from riemann_bounds.fuzz import run_fuzz

FUZZ_TRIALS = 100_000
FUZZ_SEEDS = {"euler": 42, "swe": 7, "bfe": 13}


def _verdict(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: criterion {number} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def fuzz_reports():
    reports = {}
    for system, seed in FUZZ_SEEDS.items():
        start = time.perf_counter()
        reports[system] = (run_fuzz(system, FUZZ_TRIALS, seed),
                           time.perf_counter() - start)
    return reports


def test_criterion_1_euler_speed_tables():
    start = time.perf_counter()
    reports = [tables.reproduce("euler", side) for side in ("s_left", "s_right")]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 1.0
    max_dev = max(r.max_deviation for r in reports)
    _verdict(1, "Euler speed tables reproduced within tolerance", ok,
             f"max |dev| {max_dev:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_euler_exact_stars():
    report = tables.reproduce("euler", "ic")
    star_cells = [c for c in report.cells if c.column in ("p_star", "u_star")]
    regular = [c for c in star_cells if c.test_id != 6]
    ok = all(c.status == "ok" for c in regular)
    ok = ok and all(c.status == "skipped" for c in star_cells if c.test_id == 6)

    # Test 6 is validated through its exact extreme speeds and a
    # zero-residual check instead of the published star row.
    ref = tables.load_reference("euler")
    test6 = next(t for t in ref["tests"] if t["id"] == 6)
    problem = core.make_problem("euler", test6["left"], test6["right"])
    solution = euler.solve_exact(problem)
    ok = ok and abs(solution.s_left - 70.4335) <= 1e-3
    ok = ok and abs(solution.s_right - 88.8686) <= 1e-3
    du = abs(problem.right.u - problem.left.u) + 1.0
    ok = ok and abs(pressure_function(solution.p_star, problem)) <= 1e-9 * du
    _verdict(2, "Euler star values match (Test 6 via speeds and residual)", ok)


def test_criterion_3_swe_tables():
    reports = [tables.reproduce("swe", table) for table in core.TABLES]
    toro_cell = next(
        c for c in tables.reproduce("swe", "s_right").cells
        if c.test_id == 4 and c.column == "toro"
    )
    ok = all(r.passed for r in reports)
    ok = ok and abs(toro_cell.computed - 245.3887) <= 1e-3
    _verdict(3, "shallow-water tables and star values reproduced", ok)


def test_criterion_4_bfe_tables():
    reports = [tables.reproduce("bfe", table) for table in core.TABLES]
    largest = next(
        c for c in tables.reproduce("bfe", "s_left").cells
        if c.test_id == 3 and c.column == "tms_c"
    )
    ok = all(r.passed for r in reports)
    ok = ok and abs(largest.computed - (-3986.0259)) <= 1e-3
    _verdict(4, "blood-flow tables and star values reproduced", ok)


def test_criterion_5_bound_property_suite(fuzz_reports):
    ok = True
    details = []
    for system, (report, elapsed) in fuzz_reports.items():
        speed_violations = [v for v in report.violations if v.side != "star"]
        ok = ok and not speed_violations and elapsed < 60.0
        details.append(f"{system}: {len(speed_violations)} violations, "
                       f"{elapsed:.0f}s")
    _verdict(5, f"{FUZZ_TRIALS} random problems per system bound the exact "
             "speeds", ok, "; ".join(details))


def test_criterion_6_two_rarefaction_dominance(fuzz_reports):
    star_violations = [
        v for report, _ in fuzz_reports.values()
        for v in report.violations if v.side == "star"
    ]
    _verdict(6, "two-rarefaction star value dominates the exact star value",
             not star_violations)


def test_criterion_7_analytic_properties():
    ok = True

    # q-factor is exactly 1 at unit ratio (limit value for blood flow).
    ok = ok and euler.q_factor(2.0, euler.SYSTEM.side(euler.EulerState(1.0, 0.0, 2.0),
                                                      euler.EulerParams())) == 1.0
    ok = ok and shallow.q_factor(2.0, shallow.SYSTEM.side(shallow.SweState(2.0, 0.0),
                                                          shallow.SweParams())) == 1.0
    ok = ok and bloodflow.q_factor(2.0, bloodflow.SYSTEM.side(bloodflow.BfeState(2.0, 0.0),
                                                              bloodflow.BfeParams())) == 1.0

    # Wave-curve functions bend downward (chord-midpoint test).
    rng = random.Random(101)
    chord_fns = {
        "euler": (euler.pressure_function, (-3, 4)),
        "swe": (shallow.depth_function, (-3, 3)),
        "bfe": (bloodflow.area_function, (-2, 2)),
    }
    for system, (function, exponents) in chord_fns.items():
        for _ in range(500):
            seed = rng.randrange(1 << 30)
            problem = _sample(system, random.Random(seed))
            x = 10.0 ** rng.uniform(*exponents)
            h = 1e-3 * x
            values = [function(x + d, problem) for d in (-h, 0.0, h)]
            bend = values[0] + values[2] - 2.0 * values[1]
            if bend > 1e-12 * max(1.0, abs(values[0]), abs(values[2])):
                ok = False

    # Swap symmetry on 10^4 mirrored pairs per system.
    for system in core.SYSTEMS:
        module = core.system_module(system)
        rng = random.Random(202)
        for _ in range(10_000):
            problem = _sample(system, rng)
            mirrored = _mirror(problem)
            for estimator in (EstimatorId.EXACT, *module.ESTIMATORS):
                fwd = module.estimate(problem, estimator)
                rev = module.estimate(mirrored, estimator)
                scale = max(1.0, abs(fwd.s_left), abs(fwd.s_right))
                if (abs(rev.s_left + fwd.s_right) > 1e-12 * scale
                        or abs(rev.s_right + fwd.s_left) > 1e-12 * scale):
                    ok = False

    _verdict(7, "unit q-factor, concave wave curves, swap symmetry", ok)


def test_criterion_8_known_failures_classified():
    ok = True
    for system in core.SYSTEMS:
        ref = tables.load_reference(system)
        for test in ref["tests"]:
            for side in ("s_left", "s_right"):
                got = set(tables.bound_violations(test, side))
                if got != set(test["red_flags"][side]):
                    ok = False

    euler_ref = tables.load_reference("euler")
    test2 = next(t for t in euler_ref["tests"] if t["id"] == 2)
    ok = ok and "davis_b" in tables.bound_violations(test2, "s_right")

    swe_ref = tables.load_reference("swe")
    test4 = next(t for t in swe_ref["tests"] if t["id"] == 4)
    ok = ok and "davis_a" in tables.bound_violations(test4, "s_left")
    _verdict(8, "red-flagged cells reproduced and classified as violations", ok)


def _sample(system, rng):
    from riemann_bounds.fuzz import sample_problem

    return sample_problem(system, rng)


def _mirror(problem):
    """The problem seen from the other side: the states swapped and u, the
    second field of every state type, negated."""
    def flipped(state):
        values = list(core.asdict(state).values())
        values[1] = -values[1]
        return type(state)(*values)
    return type(problem)(flipped(problem.right), flipped(problem.left), problem.params)
