"""One-dimensional arterial blood-flow system: area function, exact
Riemann star state and extreme wave speeds, and estimators Davis a/b,
Toro-analog and TMS_a-d.  Units are CGS (cm, g, dyne) throughout."""

from __future__ import annotations

import math
import sys

from . import core
from .core import (
    CollapseData,
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

_VACUUM_FLOOR_AREA = 1e-12  # cm^2; near-empty vessel used by the crude bound
_FLOOR_C = _VACUUM_FLOOR_AREA**0.25  # its wave speed over zeta


@record
class BfeState:
    """Cross-sectional area (cm^2) and velocity (cm/s)."""

    a: Positive
    u: Finite


@record
class BfeParams:
    """Wall stiffness beta (dyne/cm^3) and blood density rho (g/cm^3)."""

    beta: Positive = 28209.4792
    rho: Positive = 1.05
    #: Exponent of the pressure law P = beta/(3 rho) A^gamma, which
    #: `core.positivity` and `core.tms_d` read; a class attribute, not a field.
    gamma = 1.5


@record
class BfeProblem(Problem):
    left: BfeState
    right: BfeState
    params: BfeParams = BfeParams()


def _celerity(values, params: BfeParams, sqrt=math.sqrt) -> float:
    """Wave speed c_K = zeta A_K^(1/4), zeta = sqrt(beta / (2 rho)), of a
    state's values (A_K, u_K)."""
    return sqrt(params.beta / (2.0 * params.rho)) * values[0]**0.25


class _Side:
    """Wave-curve constants of one side K of a problem: the data area
    x = A_K, the velocity u_K, A_K^(1/4), A_K^(3/2), the wave speed c_K,
    zeta, 4 zeta, gamma_tube and `c_floor`, the wave speed at the floor
    area `_VACUUM_FLOOR_AREA` that TMS_d's vacuum front runs into.  c_K is
    zeta * A_K^(1/4), the product `_celerity` computes, from the factors
    kept here.  `core.sides` raises `ClosedFormOverflow` when A_K^(3/2)
    exceeds the float range."""

    __slots__ = ("x", "u", "c", "a14", "a32", "zeta", "zeta4", "gamma_tube", "c_floor")

    def __init__(self, state: BfeState, params: BfeParams, sqrt=math.sqrt):
        self.x, self.u = state.a, state.u
        self.a14 = a14 = state.a**0.25
        self.a32 = state.a**1.5
        self.zeta = zeta = sqrt(params.beta / (2.0 * params.rho))
        self.zeta4 = 4.0 * zeta
        self.gamma_tube = params.beta / (3.0 * params.rho)
        self.c = zeta * a14
        self.c_floor = zeta * _FLOOR_C


@record
class BfeExactSolution:
    a_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


# Side K's term f_K(A) of f(A) = f_L(A) + f_R(A) + u_R - u_L and its slope
# on the shock (A > A_K) and rarefaction (A <= A_K) branch, which agree at
# A = A_K (+0.0, and the same slope up to rounding); `core.wave_curves`
# composes them.


def _shock(a: float, s: _Side, sqrt=math.sqrt) -> float:
    return sqrt(s.gamma_tube * (a - s.x) * (a**1.5 - s.a32) / (a * s.x))


def _rarefaction(a: float, s: _Side, sqrt=math.sqrt) -> float:
    return s.zeta4 * (a**0.25 - s.a14)


def _shock_slope(a: float, s: _Side, sqrt=math.sqrt) -> float:
    # The shock branch is (A - A_K) sqrt(gamma_t (A + sqrt(A A_K) + A_K)
    # / ((sqrt(A) + sqrt(A_K)) A A_K)), the same value without the 0/0 of
    # (A^1.5 - A_K^1.5) / (A - A_K).  With t = sqrt(A_K / A) its slope is a
    # sum of positive terms, which loses no digits as A approaches A_K.
    t = sqrt(s.x / a)
    return (sqrt(s.gamma_tube / ((1.0 + t) * (1.0 + t + t * t) * sqrt(a) * s.x))
            * (3.0 + t * (3.0 + t * (2.0 + t * (2.0 + 2.0 * t)))) * 0.25)


def _rarefaction_slope(a: float, s: _Side, sqrt=math.sqrt) -> float:
    return s.zeta * a**-0.75


def _two_rarefaction(left: _Side, right: _Side, params: BfeParams) -> float:
    """Closed-form star area assuming both waves are rarefactions;
    an upper bound for the true star area.  rho/beta is formed first: the
    product 2 rho b^2 underflows for rho near the smallest double."""
    b = 0.5 * (left.c + right.c) - 0.125 * (right.u - left.u)
    return (2.0 * (params.rho / params.beta) * b * b) ** 2


def q_factor(a: float, s: _Side, sqrt=math.sqrt) -> float:
    """Shock-speed multiplier of side `s`: S = u_K -/+ c_K * q_K(A), with
    y = A / A_K, q_K = sqrt(2/3 y (y^1.5 - 1) / (y - 1)).  The quotient is
    written (y + sqrt(y) + 1) / (sqrt(y) + 1) = sqrt(y) + 1 / (sqrt(y) + 1):
    no 0/0 at y = 1, no cancellation near it, floats and arrays alike.
    Past the float range it is inf, and so is the speed."""
    y = a / s.x
    r = sqrt(y)
    return sqrt(2.0 / 3.0 * y * (r + 1.0 / (r + 1.0)))


def solve_exact(problem: BfeProblem) -> BfeExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.solve_star`), from x_rr under R/R and otherwise from
    `core.chord_start`.  The record is the `solution_type` of the problem's own system, so that a
    problem of another system gets that system's solution.
    """
    pattern = classify(problem)
    left, right = problem._sides or core.sides(problem)
    a_star = solve_star(problem)
    u_star = 0.5 * (left.u + right.u) + 0.5 * core.side_difference(problem, a_star)
    s_left, s_right = star_speeds(problem, a_star)  # positional: no argument tuple is built
    solution = problem._system.solution_type
    return solution.__new__(solution, a_star, u_star, pattern, s_left, s_right)


SYSTEM = System(
    name="bfe",
    title="blood-flow",
    module=sys.modules[__name__],
    state_type=BfeState,
    params_type=BfeParams,
    params=BfeProblem.__new__.__defaults__[-1],
    problem_type=BfeProblem,
    build_problem=core.problem_builder(BfeState, BfeProblem, BfeParams),
    solution_type=BfeExactSolution,
    side=_Side,
    star="a",
    star_label="A_*",
    no_star=CollapseData,
    no_star_message="data collapse the vessel; no positive star area",
    curve="area_function",
    two_rarefaction="two_rarefaction_area",
    rr_closed_form=_two_rarefaction,
    celerity=_celerity,
    # a + (b - a) * rng.random() is rng.uniform(a, b), without its call.
    draw=lambda rng: (10.0 ** (-2.0 + 3.0 * rng.random()), -300.0 + 600.0 * rng.random()),
    speeds=speed_registry({EstimatorId.TMS_D: core.tms_d}),
    shock=_shock,
    rarefaction=_rarefaction,
    shock_slope=_shock_slope,
    rarefaction_slope=_rarefaction_slope,
    q_factor=q_factor,
    sqrt_chord=True,
    ss_shock_extension=False,  # Test 5 moves by 1.6e-3 with the shock extension
    ss_tms_c_eigen=True,
    bound_estimators=(EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                      EstimatorId.TMS_C, EstimatorId.TMS_D),
)

area_function, area_function_deriv = core.wave_curves(SYSTEM)
is_open = core.positive
two_rarefaction_area = core.two_rarefaction
estimate = core.estimate
BfeProblem._system = SYSTEM
ESTIMATORS = tuple(SYSTEM.speeds)
