"""Ideal-gas Euler system: wave-curve (pressure) function, exact Riemann
star state and extreme wave speeds, and the nine wave-speed estimators."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import core
from .core import (
    ClosedFormOverflow,
    EstimatorId,
    SpeedBounds,
    System,
    VacuumData,
    WaveData,
    WavePattern,
    cached_attribute,
    find_root,  # read as a module attribute by core.solve_star
    interpolate_root,  # read as a module attribute by core.tms
    solve_star,
    speed_registry,
    star_speeds,
    wave_data,
)


@dataclass(frozen=True)
class EulerState:
    """Primitive gas state (SI units)."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")
        if not 0.0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")


@dataclass(frozen=True)
class EulerParams:
    gamma: float = 1.4

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")


@dataclass(frozen=True)
class EulerProblem:
    left: EulerState
    right: EulerState
    params: EulerParams = EulerParams()

    @cached_attribute
    def _sides(self) -> "_Sides":
        """Per-side wave-curve constants, computed on first use."""
        return _Sides(self)

    @cached_attribute
    def _wave_data(self) -> WaveData:
        """Sound speeds, f at the data pressures, p_rr and the pattern,
        computed on first use and kept for every later call."""
        return wave_data(SYSTEM, self)


class _Sides:
    """Wave-curve constants of both sides of one problem, as in Toro's
    PREFUN (Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd
    ed., 2009, Sec. 4.9).  Per side K: the data pressure p_K, the shock
    constants A_K = 2/((gamma+1) rho_K) and B_K = (gamma-1)/(gamma+1) p_K,
    the sound speed c_K, the rarefaction factor 2 c_K/(gamma-1) and the
    impedance rho_K c_K; the exponents z = (gamma-1)/(2 gamma) and
    -(gamma+1)/(2 gamma); and du = u_R - u_L.  x_l, x_r repeat p_L, p_R
    under the names the shared code reads.  Each is computed with the
    formula's own expression and order of operations, so the curve values
    are the same bits as with the formulas written out in full."""

    __slots__ = ("p_l", "a_l", "b_l", "c_l", "rar_l", "imp_l", "x_l", "x_r",
                 "p_r", "a_r", "b_r", "c_r", "rar_r", "imp_r", "z", "zd", "du")

    def __init__(self, problem: EulerProblem):
        left, right, params = problem.left, problem.right, problem.params
        g = params.gamma
        self.p_l, self.p_r = self.x_l, self.x_r = left.p, right.p
        self.a_l = 2.0 / ((g + 1.0) * left.rho)
        self.a_r = 2.0 / ((g + 1.0) * right.rho)
        self.b_l = (g - 1.0) / (g + 1.0) * left.p
        self.b_r = (g - 1.0) / (g + 1.0) * right.p
        self.c_l = cl = sound_speed(left, params)
        self.c_r = cr = sound_speed(right, params)
        self.rar_l = 2.0 * cl / (g - 1.0)
        self.rar_r = 2.0 * cr / (g - 1.0)
        self.imp_l = left.rho * cl
        self.imp_r = right.rho * cr
        self.z = (g - 1.0) / (2.0 * g)
        self.zd = -(g + 1.0) / (2.0 * g)
        self.du = right.u - left.u


@dataclass(frozen=True)
class EulerExactSolution:
    p_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


def sound_speed(state: EulerState, params: EulerParams) -> float:
    return math.sqrt(params.gamma * state.p / state.rho)


def specific_enthalpy(state: EulerState, params: EulerParams) -> float:
    # H = (E + p) / rho with E = rho (u^2/2 + e), e = p / (rho (gamma - 1))
    g = params.gamma
    return 0.5 * state.u * state.u + g / (g - 1.0) * state.p / state.rho


def pressure_function(p: float, problem: EulerProblem) -> float:
    """f(p) = f_L(p) + f_R(p) + u_R - u_L: shock branch above the side's
    data pressure, rarefaction branch at or below it."""
    k = problem._sides
    f_l, f_r = _side_curves(p, k)
    return f_l + f_r + k.du


def pressure_function_deriv(p: float, problem: EulerProblem) -> float:
    k = problem._sides
    try:
        if p > k.p_l:
            b = p + k.b_l
            d_l = math.sqrt(k.a_l / b) * (1.0 - 0.5 * (p - k.p_l) / b)
        else:
            d_l = (p / k.p_l) ** k.zd / k.imp_l
        if p > k.p_r:
            b = p + k.b_r
            d_r = math.sqrt(k.a_r / b) * (1.0 - 0.5 * (p - k.p_r) / b)
        else:
            d_r = (p / k.p_r) ** k.zd / k.imp_r
    except OverflowError:  # (p/p_K)**zd as p -> 0: the slope is past the float range
        return math.inf
    return d_l + d_r


def _side_curves(p: float, k: _Sides):
    """(f_L(p), f_R(p)), the two terms of `pressure_function`."""
    if p > k.p_l:
        f_l = (p - k.p_l) * math.sqrt(k.a_l / (p + k.b_l))
    else:
        f_l = k.rar_l * ((p / k.p_l) ** k.z - 1.0)
    if p > k.p_r:
        f_r = (p - k.p_r) * math.sqrt(k.a_r / (p + k.b_r))
    else:
        f_r = k.rar_r * ((p / k.p_r) ** k.z - 1.0)
    return f_l, f_r


def check_positivity(problem: EulerProblem) -> bool:
    """Pressure positivity: the data do not generate vacuum."""
    k = problem._sides
    return k.rar_l + k.rar_r > k.du


def two_rarefaction_pressure(problem: EulerProblem) -> float:
    """Closed-form star pressure assuming both waves are rarefactions.

    An upper bound for the true star pressure for 1 < gamma <= 5/3
    (Guermond & Popov, J. Comput. Phys. 321, 2016); above 5/3 it can fall
    below it.  Raises `ClosedFormOverflow` when the value exceeds the
    float range (gamma near 1).
    """
    if not check_positivity(problem):
        raise SYSTEM.no_star_error()
    k = problem._sides
    num = k.c_l + k.c_r - 0.5 * (problem.params.gamma - 1.0) * k.du
    den = k.c_l / k.p_l**k.z + k.c_r / k.p_r**k.z
    try:
        return (num / den) ** (1.0 / k.z)
    except OverflowError:
        raise ClosedFormOverflow(
            f"two-rarefaction pressure ({num / den})**{1.0 / k.z} overflows"
        ) from None


def q_factor(p: float, side_state: EulerState, params: EulerParams) -> float:
    """Shock-speed multiplier: S = u_K -/+ c_K * q_K(p)."""
    g = params.gamma
    return math.sqrt(1.0 + (g + 1.0) / (2.0 * g) * (p / side_state.p - 1.0))


def classify(problem: EulerProblem) -> WavePattern:
    """Wave pattern from the signs of f at the data pressures, without
    solving for the star state."""
    return problem._wave_data.pattern


def _two_shock_pressure(problem: EulerProblem, p0: float) -> float:
    """Toro's two-shock approximation of p*, linearized about p0
    (Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics,
    3rd ed., 2009, Sec. 4.3.2)."""
    k = problem._sides
    gl = math.sqrt(k.a_l / (p0 + k.b_l))
    gr = math.sqrt(k.a_r / (p0 + k.b_r))
    return (gl * k.p_l + gr * k.p_r - k.du) / (gl + gr)


def solve_exact(problem: EulerProblem, rel_tol: float = 1e-12) -> EulerExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.solve_star`), from the start `core.star_start` picks; under
    SS that is refined by Toro's two-shock approximation.
    """
    pattern = classify(problem)
    if pattern is WavePattern.VACUUM:
        raise SYSTEM.no_star_error()
    left, right, k = problem.left, problem.right, problem._sides
    f_zero = -k.rar_l - k.rar_r + k.du
    p_star = solve_star(SYSTEM, problem, f_zero, lambda x: _two_shock_pressure(problem, x), rel_tol)

    f_l, f_r = _side_curves(p_star, k)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    return EulerExactSolution(p_star, u_star, pattern, *star_speeds(SYSTEM, problem, p_star))


def _roe_velocity(problem: EulerProblem) -> float:
    left, right = problem.left, problem.right
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    return (wl * left.u + wr * right.u) / (wl + wr)


def _einfeldt(system: System, problem: EulerProblem):
    left, right = problem.left, problem.right
    k = problem._sides
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    cl, cr, du = k.c_l, k.c_r, k.du
    u_roe = _roe_velocity(problem)
    d2 = (wl * cl * cl + wr * cr * cr) / (wl + wr) + 0.5 * wl * wr / (wl + wr) ** 2 * du * du
    d = math.sqrt(d2)
    return u_roe - d, u_roe + d


def _batten(system: System, problem: EulerProblem):
    left, right, params = problem.left, problem.right, problem.params
    k = problem._sides
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    cl, cr = k.c_l, k.c_r
    u_roe = _roe_velocity(problem)
    h_roe = (wl * specific_enthalpy(left, params) + wr * specific_enthalpy(right, params)) / (
        wl + wr
    )
    c_roe = math.sqrt((params.gamma - 1.0) * (h_roe - 0.5 * u_roe * u_roe))
    return min(left.u - cl, u_roe - c_roe), max(right.u + cr, u_roe + c_roe)


def _shock_curve(p: float, problem: EulerProblem) -> float:
    """f(p) with both sides on their shock branch, below their data pressures too."""
    k = problem._sides
    return (
        (p - k.p_l) * math.sqrt(k.a_l / (p + k.b_l))
        + (p - k.p_r) * math.sqrt(k.a_r / (p + k.b_r))
        + k.du
    )


def estimate(problem: EulerProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    return core.estimate(SYSTEM, problem, estimator)


SYSTEM = System(
    name="euler",
    title="Euler",
    module=sys.modules[__name__],
    state_type=EulerState,
    params_type=EulerParams,
    problem_type=EulerProblem,
    star="p",
    star_label="p_*",
    no_star=VacuumData,
    no_star_message="data generate vacuum; no positive star pressure",
    curve="pressure_function",
    two_rarefaction="two_rarefaction_pressure",
    positive=check_positivity,
    flags={"--gamma": "gamma"},
    draw=lambda rng: (10.0 ** rng.uniform(-3, 3), rng.uniform(-100, 100),
                      10.0 ** rng.uniform(-3, 3)),
    speeds=speed_registry({
        EstimatorId.EINFELDT: (_einfeldt, False),
        EstimatorId.BATTEN: (_batten, False),
    }),
    ss_shock_curve=_shock_curve,
    ss_tms_c_eigen=False,
)

ESTIMATORS = tuple(SYSTEM.speeds)
