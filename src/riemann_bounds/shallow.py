"""Shallow-water system (horizontal bed): depth function, exact Riemann
star state and extreme wave speeds, and estimators Davis a/b, Toro-analog
and TMS_a-d."""

from __future__ import annotations

import math
import sys

from . import core
from .core import (
    DryBed,
    EstimatorId,
    Finite,
    Positive,
    Problem,
    System,
    WavePattern,
    classify,
    find_root,  # read as a module attribute by core.solve_star
    interpolate_root,  # read as a module attribute by core.tms
    record,
    solve_star,
    speed_registry,
    star_speeds,
)


@record
class SweState:
    """Depth and velocity (SI units)."""

    h: Positive
    u: Finite


@record
class SweParams:
    g: Positive = 9.8
    #: Exponent of the pressure law P = g/2 h^gamma, which `core.positivity`
    #: and `core.tms_d` read; a class attribute, not a field.
    gamma = 2.0


@record
class SweProblem(Problem):
    left: SweState
    right: SweState
    params: SweParams = SweParams()


def _celerity(values, params: SweParams, sqrt=math.sqrt) -> float:
    """Celerity c_K = sqrt(g h_K) of a state's values (h_K, u_K)."""
    return sqrt(params.g * values[0])


class _Side:
    """Wave-curve constants of one side K of a problem: the data depth
    x = h_K, the velocity u_K, the celerity c_K and g.  The vacuum front of
    TMS_d runs into a dry bed: its floor celerity `c_floor` is 0."""

    __slots__ = ("x", "u", "c", "g")
    c_floor = 0.0

    def __init__(self, state: SweState, params: SweParams, sqrt=math.sqrt):
        self.x, self.u = values = state.h, state.u
        self.g = params.g
        self.c = _celerity(values, params, sqrt)


@record
class SweExactSolution:
    h_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


# Side K's term f_K(h) of f(h) = f_L(h) + f_R(h) + u_R - u_L and its slope
# on the shock (h > h_K) and rarefaction (h <= h_K) branch;
# `core.wave_curves` composes them.


def _shock(h: float, s: _Side, sqrt=math.sqrt) -> float:
    return (h - s.x) * sqrt(0.5 * s.g * (h + s.x) / (h * s.x))


def _rarefaction(h: float, s: _Side, sqrt=math.sqrt) -> float:
    return 2.0 * (sqrt(s.g * h) - s.c)


def _shock_slope(h: float, s: _Side, sqrt=math.sqrt) -> float:
    root = sqrt(0.5 * s.g * (1.0 / h + 1.0 / s.x))
    return root - 0.25 * s.g * (h - s.x) / (h * h * root)


def _rarefaction_slope(h: float, s: _Side, sqrt=math.sqrt) -> float:
    return sqrt(s.g / h)


def _two_rarefaction(left: _Side, right: _Side, params: SweParams) -> float:
    """Closed-form star depth assuming both waves are rarefactions;
    an upper bound for the true star depth."""
    b = 0.5 * (left.c + right.c) + 0.25 * (left.u - right.u)
    return b * b / params.g


def q_factor(h: float, s: _Side, sqrt=math.sqrt) -> float:
    """Shock-speed multiplier of side `s`: S = u_K -/+ c_K * q_K(h)."""
    y = h / s.x
    return sqrt(0.5 * (y * y + y))


def solve_exact(problem: SweProblem) -> SweExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.solve_star`), from x_rr under R/R and otherwise from
    `core.chord_start`.  The record is the `solution_type` of the problem's own system, so that a
    problem of another system gets that system's solution.
    """
    pattern = classify(problem)
    left, right = problem._sides or core.sides(problem)
    h_star = solve_star(problem)
    u_star = 0.5 * (left.u + right.u) + 0.5 * core.side_difference(problem, h_star)
    s_left, s_right = star_speeds(problem, h_star)  # positional: no argument tuple is built
    solution = problem._system.solution_type
    return solution.__new__(solution, h_star, u_star, pattern, s_left, s_right)


SYSTEM = System(
    name="swe",
    title="shallow-water",
    module=sys.modules[__name__],
    state_type=SweState,
    params_type=SweParams,
    params=SweProblem.__new__.__defaults__[-1],
    problem_type=SweProblem,
    build_problem=core.problem_builder(SweState, SweProblem, SweParams),
    solution_type=SweExactSolution,
    side=_Side,
    star="h",
    star_label="h_*",
    no_star=DryBed,
    no_star_message="data dry the bed; no positive star depth",
    curve="depth_function",
    two_rarefaction="two_rarefaction_depth",
    rr_closed_form=_two_rarefaction,
    celerity=_celerity,
    # a + (b - a) * rng.random() is rng.uniform(a, b), without its call.
    draw=lambda rng: (10.0 ** (-3.0 + 5.0 * rng.random()), -20.0 + 40.0 * rng.random()),
    speeds=speed_registry({EstimatorId.TMS_D: core.tms_d}),
    shock=_shock,
    rarefaction=_rarefaction,
    shock_slope=_shock_slope,
    rarefaction_slope=_rarefaction_slope,
    q_factor=q_factor,
    sqrt_chord=False,
    ss_shock_extension=True,
    ss_tms_c_eigen=True,
    bound_estimators=(EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                      EstimatorId.TMS_C, EstimatorId.TMS_D),
)

depth_function, depth_function_deriv = core.wave_curves(SYSTEM)
is_wet = core.positive
two_rarefaction_depth = core.two_rarefaction
estimate = core.estimate
SweProblem._system = SYSTEM
ESTIMATORS = tuple(SYSTEM.speeds)
