"""Ideal-gas Euler system: wave-curve (pressure) function, exact Riemann
star state and extreme wave speeds, and the nine wave-speed estimators."""

from __future__ import annotations

import math
import sys

from . import core
from .core import (
    ClosedFormOverflow,
    EstimatorId,
    Finite,
    Positive,
    Problem,
    System,
    VacuumData,
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
class EulerState:
    """Primitive gas state (SI units)."""

    rho: Positive
    u: Finite
    p: Positive


@record
class EulerParams:
    gamma: float = 1.4

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")


@record
class EulerProblem(Problem):
    left: EulerState
    right: EulerState
    params: EulerParams = EulerParams()


def _celerity(values, params: EulerParams, sqrt=math.sqrt) -> float:
    """Sound speed c_K = sqrt(gamma p_K / rho_K) of a state's values
    (rho_K, u_K, p_K)."""
    return sqrt(params.gamma * values[2] / values[0])


class _Side:
    """Wave-curve constants of one side K of a problem, as in Toro's PREFUN
    (Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd ed.,
    2009, Sec. 4.9): the data pressure x = p_K and velocity u_K, the sound
    speed c_K, sa = sqrt(A_K) = sqrt(2/(gamma+1)) / sqrt(rho_K) of the
    shock constant A_K = 2/((gamma+1) rho_K), B_K = (gamma-1)/(gamma+1) p_K,
    the rarefaction factor 2 c_K/(gamma-1), the impedance rho_K c_K, and
    the exponents z = (gamma-1)/(2 gamma) and -(gamma+1)/(2 gamma).  Each
    is computed with its formula's own expression and order of operations.
    The shock branch reads sqrt(A_K/(p + B_K)) as sa / sqrt(p + B_K):
    A_K overflows for rho_K near the smallest double, and the quotient
    underflows for a dense side at a high pressure, while this form is
    finite wherever the branch's value is.  The exponent zd is also the
    negated shock factor constant (gamma+1)/(2 gamma) of `q_factor`."""

    __slots__ = ("x", "u", "c", "sa", "b", "rar", "imp", "z", "zd")

    def __init__(self, state: EulerState, params: EulerParams, sqrt=math.sqrt):
        g = params.gamma
        rho, u, p = values = state.rho, state.u, state.p
        self.x, self.u = p, u
        self.sa = sqrt(2.0 / (g + 1.0)) / sqrt(rho)
        self.b = (g - 1.0) / (g + 1.0) * p
        self.c = c = _celerity(values, params, sqrt)
        self.rar = 2.0 * c / (g - 1.0)
        self.imp = rho * c
        self.z = (g - 1.0) / (2.0 * g)
        self.zd = -(g + 1.0) / (2.0 * g)


@record
class EulerExactSolution:
    p_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


# Side K's term f_K(p) of f(p) = f_L(p) + f_R(p) + u_R - u_L and its slope
# on the shock (p > p_K) and rarefaction (p <= p_K) branch, Toro (2009),
# eqs. (4.6)-(4.7) and (4.37); `core.wave_curves` composes them.


def _shock(p: float, s: _Side, sqrt=math.sqrt) -> float:
    return (p - s.x) / sqrt(p + s.b) * s.sa


def _rarefaction(p: float, s: _Side, sqrt=math.sqrt) -> float:
    return s.rar * ((p / s.x) ** s.z - 1.0)


def _shock_slope(p: float, s: _Side, sqrt=math.sqrt) -> float:
    b = p + s.b
    return s.sa / sqrt(b) * (1.0 - 0.5 * (p - s.x) / b)


def _rarefaction_slope(p: float, s: _Side, sqrt=math.sqrt) -> float:
    try:
        return (p / s.x) ** s.zd / s.imp
    except ArithmeticError:  # (p/p_K)**zd overflows, or p/p_K underflowed to 0
        return math.inf


def _two_rarefaction(left: _Side, right: _Side, params: EulerParams) -> float:
    """Closed-form star pressure assuming both waves are rarefactions.

    An upper bound for the true star pressure for 1 < gamma <= 5/3
    (Guermond & Popov, J. Comput. Phys. 321, 2016); above 5/3 it can fall
    below it.  It overflows for gamma near 1.
    """
    z = left.z
    num = left.c + right.c - 0.5 * (params.gamma - 1.0) * (right.u - left.u)
    den = left.c / left.x**z + right.c / right.x**z
    return (num / den) ** (1.0 / z)


def q_factor(p: float, s: _Side, sqrt=math.sqrt) -> float:
    """Shock-speed multiplier of side `s`: S = u_K -/+ c_K * q_K(p); (gamma+1)/(2 gamma) is -zd."""
    return sqrt(1.0 - s.zd * (p / s.x - 1.0))


def solve_exact(problem: EulerProblem) -> EulerExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.solve_star`), from x_rr under R/R and otherwise from
    `core.chord_start`.  The record is the `solution_type` of the problem's own system, so that a
    problem of another system gets that system's solution.
    """
    pattern = classify(problem)
    left, right = problem._sides or core.sides(problem)
    p_star = solve_star(problem)
    u_star = 0.5 * (left.u + right.u) + 0.5 * core.side_difference(problem, p_star)
    s_left, s_right = star_speeds(problem, p_star)  # positional: no argument tuple is built
    solution = problem._system.solution_type
    return solution.__new__(solution, p_star, u_star, pattern, s_left, s_right)


def _roe(problem: EulerProblem, eta: float, name: str):
    """Pair (u~ - d, u~ + d) of Einfeldt's family (SIAM J. Numer. Anal. 25,
    1988): with the Roe weights o_K = w_K/(w_L + w_R), w_K = sqrt(rho_K),
    the Roe velocity u~ = o_L u_L + o_R u_R and d^2 = o_L c_L^2 + o_R c_R^2
    + eta o_L o_R (u_R - u_L)^2.  With eta = (gamma - 1)/2, d^2 is Roe's
    (gamma - 1)(H~ - u~^2/2) in exact arithmetic, written without the
    enthalpies H~, whose difference cancels.  d is the `math.hypot` of
    sqrt(o_L) c_L, sqrt(o_R) c_R and 2 sqrt(eta o_L o_R) (u_R/2 - u_L/2),
    which scales its arguments before it squares them, so that d neither
    overflows nor underflows where the pair fits; u_R - u_L itself may
    overflow.  Raises
    `ClosedFormOverflow` naming `name` for a pair that is not finite."""
    left, right = problem.left, problem.right
    side_l, side_r = problem._sides or core.sides(problem)
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    ol, or_ = wl / (wl + wr), wr / (wl + wr)
    u_roe = ol * left.u + or_ * right.u
    d = math.hypot(math.sqrt(ol) * side_l.c, math.sqrt(or_) * side_r.c,
                   2.0 * math.sqrt(eta * ol * or_) * (right.u / 2.0 - left.u / 2.0))
    s_left, s_right = u_roe - d, u_roe + d
    if not -math.inf < s_left < math.inf > s_right > -math.inf:  # NaN fails every comparison
        raise ClosedFormOverflow(f"{name} are not finite: {s_left}, {s_right}")
    return s_left, s_right


def _einfeldt(problem: EulerProblem):
    return _roe(problem, 0.5, "Einfeldt's speeds")


def _batten(problem: EulerProblem):
    side_l, side_r = problem._sides or core.sides(problem)
    s_left, s_right = _roe(problem, 0.5 * (problem.params.gamma - 1.0), "Batten's Roe speeds")
    # min and max as in core.davis_b: the first argument unless the second
    # is strictly smaller (larger)
    a, b = side_l.u - side_l.c, side_r.u + side_r.c
    return s_left if s_left < a else a, s_right if s_right > b else b


SYSTEM = System(
    name="euler",
    title="Euler",
    module=sys.modules[__name__],
    state_type=EulerState,
    params_type=EulerParams,
    params=EulerProblem.__new__.__defaults__[-1],
    problem_type=EulerProblem,
    build_problem=core.problem_builder(EulerState, EulerProblem, EulerParams),
    solution_type=EulerExactSolution,
    side=_Side,
    star="p",
    star_label="p_*",
    no_star=VacuumData,
    no_star_message="data generate vacuum; no positive star pressure",
    curve="pressure_function",
    two_rarefaction="two_rarefaction_pressure",
    rr_closed_form=_two_rarefaction,
    celerity=_celerity,
    # a + (b - a) * rng.random() is rng.uniform(a, b), without its call.
    draw=lambda rng: (10.0 ** (-3.0 + 6.0 * rng.random()), -100.0 + 200.0 * rng.random(),
                      10.0 ** (-3.0 + 6.0 * rng.random())),
    speeds=speed_registry({EstimatorId.EINFELDT: _einfeldt, EstimatorId.BATTEN: _batten}),
    shock=_shock,
    rarefaction=_rarefaction,
    shock_slope=_shock_slope,
    rarefaction_slope=_rarefaction_slope,
    q_factor=q_factor,
    sqrt_chord=True,
    ss_shock_extension=True,
    ss_tms_c_eigen=False,
    bound_estimators=(EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                      EstimatorId.TMS_C),
)

pressure_function, pressure_function_deriv = core.wave_curves(SYSTEM)
check_positivity = core.positive
two_rarefaction_pressure = core.two_rarefaction
estimate = core.estimate
EulerProblem._system = SYSTEM
ESTIMATORS = tuple(SYSTEM.speeds)
