"""Ideal-gas Euler system: wave-curve (pressure) function, exact Riemann
star state and extreme wave speeds, and the nine wave-speed estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    EstimatorId,
    SpeedBounds,
    UnsupportedEstimator,
    VacuumData,
    WaveData,
    WavePattern,
    find_root,
    interpolate_root,
    star_bracket,
    star_start,
    wave_data,
)


@dataclass(frozen=True)
class EulerState:
    """Primitive gas state (SI units)."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.p > 0.0:
            raise ValueError(f"p must be positive, got {self.p}")


@dataclass(frozen=True)
class EulerParams:
    gamma: float = 1.4

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")


@dataclass(frozen=True)
class EulerProblem:
    left: EulerState
    right: EulerState
    params: EulerParams = EulerParams()

    @cached_property
    def _wave_data(self) -> WaveData:
        """Sound speeds, f at the data pressures, p_rr and the pattern,
        computed on first use and kept for every later call."""
        return wave_data(
            lambda p: pressure_function(p, self),
            self.left.p,
            self.right.p,
            sound_speed(self.left, self.params),
            sound_speed(self.right, self.params),
            (lambda: two_rarefaction_pressure(self)) if check_positivity(self) else None,
        )


@dataclass(frozen=True)
class EulerExactSolution:
    p_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


ESTIMATORS = (
    EstimatorId.DAVIS_A,
    EstimatorId.DAVIS_B,
    EstimatorId.EINFELDT,
    EstimatorId.BATTEN,
    EstimatorId.TORO,
    EstimatorId.TMS_A,
    EstimatorId.TMS_B,
    EstimatorId.TMS_C,
)


def sound_speed(state: EulerState, params: EulerParams) -> float:
    return math.sqrt(params.gamma * state.p / state.rho)


def specific_enthalpy(state: EulerState, params: EulerParams) -> float:
    # H = (E + p) / rho with E = rho (u^2/2 + e), e = p / (rho (gamma - 1))
    g = params.gamma
    return 0.5 * state.u * state.u + g / (g - 1.0) * state.p / state.rho


def _shock_branch(p: float, side_state: EulerState, params: EulerParams) -> float:
    """Shock-branch expression of the wave curve.

    Also meaningful below the data pressure, where it extends the shock
    curve smoothly; used when the realized wave is known to be a shock.
    """
    g = params.gamma
    ak = 2.0 / ((g + 1.0) * side_state.rho)
    bk = (g - 1.0) / (g + 1.0) * side_state.p
    return (p - side_state.p) * math.sqrt(ak / (p + bk))


def f_side(p: float, side_state: EulerState, params: EulerParams) -> float:
    """Wave-curve branch connecting the star region to one data state."""
    g = params.gamma
    pk = side_state.p
    if p > pk:
        return _shock_branch(p, side_state, params)
    ck = sound_speed(side_state, params)
    return 2.0 * ck / (g - 1.0) * ((p / pk) ** ((g - 1.0) / (2.0 * g)) - 1.0)


def f_side_deriv(p: float, side_state: EulerState, params: EulerParams) -> float:
    g = params.gamma
    pk, rhok = side_state.p, side_state.rho
    if p > pk:
        ak = 2.0 / ((g + 1.0) * rhok)
        bk = (g - 1.0) / (g + 1.0) * pk
        return math.sqrt(ak / (p + bk)) * (1.0 - 0.5 * (p - pk) / (p + bk))
    ck = sound_speed(side_state, params)
    return (p / pk) ** (-(g + 1.0) / (2.0 * g)) / (rhok * ck)


def pressure_function(p: float, problem: EulerProblem) -> float:
    return (
        f_side(p, problem.left, problem.params)
        + f_side(p, problem.right, problem.params)
        + (problem.right.u - problem.left.u)
    )


def pressure_function_deriv(p: float, problem: EulerProblem) -> float:
    return f_side_deriv(p, problem.left, problem.params) + f_side_deriv(
        p, problem.right, problem.params
    )


def check_positivity(problem: EulerProblem) -> bool:
    """Pressure positivity: the data do not generate vacuum."""
    g = problem.params.gamma
    cl = sound_speed(problem.left, problem.params)
    cr = sound_speed(problem.right, problem.params)
    du = problem.right.u - problem.left.u
    return 2.0 * cl / (g - 1.0) + 2.0 * cr / (g - 1.0) > du


def two_rarefaction_pressure(problem: EulerProblem) -> float:
    """Closed-form star pressure assuming both waves are rarefactions.

    Always an upper bound for the true star pressure.
    """
    if not check_positivity(problem):
        raise VacuumData("data generate vacuum; no positive star pressure")
    g = problem.params.gamma
    left, right = problem.left, problem.right
    cl = sound_speed(left, problem.params)
    cr = sound_speed(right, problem.params)
    z = (g - 1.0) / (2.0 * g)
    num = cl + cr - 0.5 * (g - 1.0) * (right.u - left.u)
    den = cl / left.p**z + cr / right.p**z
    return (num / den) ** (1.0 / z)


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
    left, right = problem.left, problem.right
    g = problem.params.gamma
    gl = math.sqrt(2.0 / ((g + 1.0) * left.rho) / (p0 + (g - 1.0) / (g + 1.0) * left.p))
    gr = math.sqrt(2.0 / ((g + 1.0) * right.rho) / (p0 + (g - 1.0) / (g + 1.0) * right.p))
    return (gl * left.p + gr * right.p - (right.u - left.u)) / (gl + gr)


def solve_exact(problem: EulerProblem, rel_tol: float = 1e-12) -> EulerExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.star_bracket`), from the start `core.star_start` picks; under
    SS that is refined by Toro's two-shock approximation.
    """
    pattern = classify(problem)
    if pattern is WavePattern.VACUUM:
        raise VacuumData("data generate vacuum")
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right

    curve = lambda p: pressure_function(p, problem)  # noqa: E731
    bracket = star_bracket(wave, curve)
    p_star = find_root(
        curve,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda p: pressure_function_deriv(p, problem),
        x0=star_start(wave, bracket, lambda x: _two_shock_pressure(problem, x)),
    )

    u_star = 0.5 * (left.u + right.u) + 0.5 * (
        f_side(p_star, right, params) - f_side(p_star, left, params)
    )
    s_left = left.u - cl if p_star <= left.p else left.u - cl * q_factor(p_star, left, params)
    s_right = right.u + cr if p_star <= right.p else right.u + cr * q_factor(p_star, right, params)
    return EulerExactSolution(p_star, u_star, pattern, s_left, s_right)


def _roe_velocity(problem: EulerProblem) -> float:
    left, right = problem.left, problem.right
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    return (wl * left.u + wr * right.u) / (wl + wr)


def _davis_a(problem: EulerProblem):
    cl = sound_speed(problem.left, problem.params)
    cr = sound_speed(problem.right, problem.params)
    return problem.left.u - cl, problem.right.u + cr


def _davis_b(problem: EulerProblem):
    cl = sound_speed(problem.left, problem.params)
    cr = sound_speed(problem.right, problem.params)
    return (
        min(problem.left.u - cl, problem.right.u - cr),
        max(problem.left.u + cl, problem.right.u + cr),
    )


def _einfeldt(problem: EulerProblem):
    left, right = problem.left, problem.right
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    cl = sound_speed(left, problem.params)
    cr = sound_speed(right, problem.params)
    u_roe = _roe_velocity(problem)
    du = right.u - left.u
    d2 = (wl * cl * cl + wr * cr * cr) / (wl + wr) + 0.5 * wl * wr / (wl + wr) ** 2 * du * du
    d = math.sqrt(d2)
    return u_roe - d, u_roe + d


def _batten(problem: EulerProblem):
    left, right, params = problem.left, problem.right, problem.params
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    cl = sound_speed(left, params)
    cr = sound_speed(right, params)
    u_roe = _roe_velocity(problem)
    h_roe = (wl * specific_enthalpy(left, params) + wr * specific_enthalpy(right, params)) / (
        wl + wr
    )
    c_roe = math.sqrt((params.gamma - 1.0) * (h_roe - 0.5 * u_roe * u_roe))
    return min(left.u - cl, u_roe - c_roe), max(right.u + cr, u_roe + c_roe)


def _toro(problem: EulerProblem):
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    if wave.pattern is WavePattern.VACUUM:
        raise VacuumData("data generate vacuum; no positive star pressure")
    cl, cr, p_rr = wave.c_left, wave.c_right, wave.x_rr
    ql = q_factor(p_rr, left, params) if p_rr > left.p else 1.0
    qr = q_factor(p_rr, right, params) if p_rr > right.p else 1.0
    return left.u - cl * ql, right.u + cr * qr


def _tms(problem: EulerProblem, variant: EstimatorId):
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right
    if wave.pattern is WavePattern.RR:  # eigenvalue speeds are exact
        return left.u - cl, right.u + cr
    p_min, p_max, p_rr = wave.x_min, wave.x_max, wave.x_rr
    f_min, f_max, f_rr = wave.f_min, wave.f_max, wave.f_rr

    if wave.pattern is not WavePattern.SS:  # the shock sits on the low-pressure side
        if variant is EstimatorId.TMS_A:
            p_hat = interpolate_root((p_min, f_min), (p_max, f_max))
        elif variant is EstimatorId.TMS_B:
            p_hat = interpolate_root((p_min, f_min), (p_rr, f_rr))
        else:  # TMS_C: data pressure of the opposite side
            p_hat = p_max
        if wave.pattern is WavePattern.RS:
            return left.u - cl, right.u + cr * q_factor(p_hat, right, params)
        return left.u - cl * q_factor(p_hat, left, params), right.u + cr

    # S/S: both waves are shocks, so the interpolation nodes evaluate the
    # wave curves with their shock expressions on both sides; at p_min the
    # high-pressure side extends its shock branch below its data value.
    # p_rr > p_max, so f_rr is on the shock branch of both sides.
    if variant is EstimatorId.TMS_A:
        p_hat = interpolate_root((p_max, f_max), (p_rr, f_rr))
    elif variant is EstimatorId.TMS_B:
        f_min_ss = (
            _shock_branch(p_min, left, params)
            + _shock_branch(p_min, right, params)
            + (right.u - left.u)
        )
        p_hat = interpolate_root((p_min, f_min_ss), (p_rr, f_rr))
    else:
        p_hat = p_rr
    return (
        left.u - cl * q_factor(p_hat, left, params),
        right.u + cr * q_factor(p_hat, right, params),
    )


def estimate(problem: EulerProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    pattern: Optional[WavePattern] = None
    if estimator is EstimatorId.EXACT:
        sol = solve_exact(problem)
        return SpeedBounds(sol.s_left, sol.s_right, estimator, sol.pattern)
    if estimator is EstimatorId.DAVIS_A:
        sl, sr = _davis_a(problem)
    elif estimator is EstimatorId.DAVIS_B:
        sl, sr = _davis_b(problem)
    elif estimator is EstimatorId.EINFELDT:
        sl, sr = _einfeldt(problem)
    elif estimator is EstimatorId.BATTEN:
        sl, sr = _batten(problem)
    elif estimator is EstimatorId.TORO:
        sl, sr = _toro(problem)
    elif estimator in (EstimatorId.TMS_A, EstimatorId.TMS_B, EstimatorId.TMS_C):
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise VacuumData("data generate vacuum")
        sl, sr = _tms(problem, estimator)
    else:
        raise UnsupportedEstimator(f"{estimator.value} is not defined for the Euler system")
    return SpeedBounds(sl, sr, estimator, pattern)
