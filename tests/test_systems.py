"""The contract that the Euler, shallow-water and blood-flow systems share,
on each system's own data: one row per system or per published value, and
the same assertions for all three.  The randomized bound, dominance, swap
symmetry and concavity checks are release criteria 5-7 of
`test_acceptance.py`."""

import math
import random

import pytest

from riemann_bounds import core, tables
from riemann_bounds.core import EstimatorId, WavePattern
from riemann_bounds.fuzz import sample_problem

PI = math.pi


def golden(system, row):
    """The published row `row` of a system's tables and its problem."""
    test = next(test for test in tables.load_reference(system)["tests"] if test["id"] == row)
    return test, core.make_problem(system, test["left"], test["right"])


def star_value(problem, solution):
    return getattr(solution, problem._system.star_field)


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_residual_is_zero_at_the_golden_rows(system):
    module = core.system_module(system)
    curve = getattr(module, module.SYSTEM.curve)
    for test in tables.load_reference(system)["tests"]:
        problem = core.make_problem(system, test["left"], test["right"])
        star = star_value(problem, module.solve_exact(problem))
        du = abs(problem.right.u - problem.left.u) + 1.0
        assert abs(curve(star, problem)) <= 1e-9 * du, test["id"]


@pytest.mark.parametrize("system, state, celerity", [
    ("euler", (1.0, 0.0, 1.0), math.sqrt(1.4)),
    ("swe", (2.0, 1.0), None),
    ("bfe", (2.0, 30.0), None),
], ids=core.SYSTEMS)
def test_identical_states_give_the_data_star_state(system, state, celerity):
    problem = core.make_problem(system, state, state)
    solution = core.system_module(system).solve_exact(problem)
    data_value = getattr(problem.left, problem._system.star)
    assert star_value(problem, solution) == pytest.approx(data_value)
    assert solution.u_star == pytest.approx(problem.left.u)
    if celerity is not None:
        assert solution.s_left == pytest.approx(-celerity)
        assert solution.s_right == pytest.approx(celerity)


@pytest.mark.parametrize("system, row, tol", [("euler", 7, 1e-12), ("swe", 5, 1e-12),
                                              ("bfe", 6, 1e-9)])
def test_symmetric_double_rarefaction_has_the_mean_velocity(system, row, tol):
    # Equal data values and velocities symmetric about their mean.
    _, problem = golden(system, row)
    solution = core.system_module(system).solve_exact(problem)
    assert solution.pattern is WavePattern.RR
    assert solution.u_star == pytest.approx(0.5 * (problem.left.u + problem.right.u), abs=tol)


#: Data (left, right) and the wave pattern that `classify` gives them.
PATTERNS = [
    ("euler", (1.0, 0.0, 1.0), (1.0, 0.0, 0.1), WavePattern.RS),
    ("euler", (1.0, 0.0, 1.0), (0.125, 0.0, 0.1), WavePattern.RS),
    ("euler", (1.0, 0.0, 0.01), (1.0, 0.0, 1000.0), WavePattern.SR),
    ("euler", (6.0, 8.0, 460.0), (6.0, -6.0, 46.0), WavePattern.SS),
    ("euler", (600.0, 80.0, 4600.0), (6.0, -6.0, 46.0), WavePattern.SS),
    ("euler", (1.0, -2.0, 0.4), (1.0, 2.0, 0.4), WavePattern.RR),
    ("euler", (1.0, -50.0, 0.01), (1.0, 50.0, 0.01), WavePattern.VACUUM),
    ("swe", (1.0, 0.0), (0.7, 0.0), WavePattern.RS),
    ("swe", (0.001, 0.0), (1.0, 0.0), WavePattern.SR),
    ("swe", (1.0, 3.0), (0.5, 0.0), WavePattern.SS),
    ("swe", (1.0, 100.0), (0.5, 0.0), WavePattern.SS),
    ("swe", (1.0, -5.0), (1.0, 5.0), WavePattern.RR),
    ("swe", (0.01, -10.0), (0.01, 10.0), WavePattern.VACUUM),
    ("bfe", (PI, 0.0), (0.9 * PI, 0.0), WavePattern.RS),
    ("bfe", (0.001 * PI, 0.0), (PI, 0.0), WavePattern.SR),
    ("bfe", (PI, 10.0), (PI, -20.0), WavePattern.SS),
    ("bfe", (PI, -10.0), (PI, 20.0), WavePattern.RR),
    ("bfe", (0.01, -400.0), (0.01, 400.0), WavePattern.VACUUM),
]


@pytest.mark.parametrize("system, left, right, pattern", PATTERNS)
def test_patterns(system, left, right, pattern):
    assert core.system_module(system).classify(core.make_problem(system, left, right)) is pattern


#: The pattern of each pair (left shock, right shock).
SHOCKS = {(False, False): WavePattern.RR, (False, True): WavePattern.RS,
          (True, False): WavePattern.SR, (True, True): WavePattern.SS}


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_pattern_agrees_with_the_star_value(system):
    # A side is a shock exactly when the star value exceeds its data value.
    module, rng = core.system_module(system), random.Random(3)
    for _ in range(500):
        problem = sample_problem(system, rng)
        pattern = module.classify(problem)
        star = star_value(problem, module.solve_exact(problem))
        shocks = tuple(star > getattr(state, problem._system.star)
                       for state in (problem.left, problem.right))
        assert pattern is SHOCKS[shocks], problem


@pytest.mark.parametrize("system, state", [("euler", (1.0, 0.0, 3.7)), ("swe", (0.37, 0.0)),
                                           ("bfe", (1.0, 0.0))])
def test_q_factor_is_one_at_the_data_value_and_increases(system, state):
    record = core.system_record(system)
    side = record.side(record.state_type(*state), record.params_type())
    values = [record.module.q_factor(side.x * m, side) for m in (1.0, 2.0, 5.0, 50.0)]
    assert values[0] == 1.0
    assert values == sorted(values)


@pytest.mark.parametrize("system", [s for s in core.SYSTEMS
                                    if EstimatorId.TMS_D in core.system_record(s).speeds])
def test_tms_d_contains_the_eigenvalue_interval(system):
    # The crude estimate widens each side of the data eigenvalue interval
    # by construction.
    module, rng = core.system_module(system), random.Random(19)
    for _ in range(300):
        problem = sample_problem(system, rng)
        crude = module.estimate(problem, EstimatorId.TMS_D)
        eigen = module.estimate(problem, EstimatorId.DAVIS_A)
        assert crude.s_left <= eigen.s_left and crude.s_right >= eigen.s_right, problem


#: Published cells, (system, row, column), checked to 1e-4 where the table
#: check allows 1e-3.
PUBLISHED = [("euler", 1, "tms_b"), ("euler", 5, "batten"), ("euler", 4, "einfeldt"),
             ("swe", 4, "exact"), ("swe", 4, "toro"), ("swe", 2, "tms_c"), ("swe", 1, "tms_d"),
             ("bfe", 5, "exact"), ("bfe", 3, "tms_c"), ("bfe", 5, "tms_b"), ("bfe", 6, "tms_d")]


@pytest.mark.parametrize("system, row, column", PUBLISHED)
def test_published_cells(system, row, column):
    test, problem = golden(system, row)
    bounds = core.system_module(system).estimate(problem, EstimatorId(column))
    assert bounds.s_left == pytest.approx(test["s_left"][column], abs=1e-4)
    assert bounds.s_right == pytest.approx(test["s_right"][column], abs=1e-4)
