"""One-dimensional arterial blood-flow system: area function, exact
Riemann star state and extreme wave speeds, and estimators Davis a/b,
Toro-analog and TMS_a-d.  Units are CGS (cm, g, dyne) throughout."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    CollapseData,
    EstimatorId,
    SpeedBounds,
    UnsupportedEstimator,
    WaveData,
    WavePattern,
    find_root,
    interpolate_root,
    star_bracket,
    star_start,
    wave_data,
)

_SONIC_EPS = 1e-8  # q_factor is 0/0 at unit area ratio; return the limit 1
_VACUUM_FLOOR_AREA = 1e-12  # cm^2; near-empty vessel used by the crude bound


@dataclass(frozen=True)
class BfeState:
    """Cross-sectional area (cm^2) and velocity (cm/s)."""

    a: float
    u: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError(f"a must be positive, got {self.a}")


@dataclass(frozen=True)
class BfeParams:
    """Wall stiffness beta (dyne/cm^3) and blood density rho (g/cm^3)."""

    beta: float = 28209.4792
    rho: float = 1.05

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    @property
    def gamma_tube(self) -> float:
        return self.beta / (3.0 * self.rho)

    @property
    def zeta(self) -> float:
        return math.sqrt(self.beta / (2.0 * self.rho))


@dataclass(frozen=True)
class BfeProblem:
    left: BfeState
    right: BfeState
    params: BfeParams = BfeParams()

    @cached_property
    def _wave_data(self) -> WaveData:
        """Wave speeds, f at the data areas, A_rr and the pattern,
        computed on first use and kept for every later call."""
        return wave_data(
            lambda a: area_function(a, self),
            self.left.a,
            self.right.a,
            wave_speed(self.left, self.params),
            wave_speed(self.right, self.params),
            (lambda: two_rarefaction_area(self)) if is_open(self) else None,
        )


@dataclass(frozen=True)
class BfeExactSolution:
    a_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


ESTIMATORS = (
    EstimatorId.DAVIS_A,
    EstimatorId.DAVIS_B,
    EstimatorId.TORO,
    EstimatorId.TMS_A,
    EstimatorId.TMS_B,
    EstimatorId.TMS_C,
    EstimatorId.TMS_D,
)


def wave_speed(state: BfeState, params: BfeParams) -> float:
    """Elastic-wall wave speed c = zeta * A^(1/4)."""
    return params.zeta * state.a**0.25


def f_side(a: float, side_state: BfeState, params: BfeParams) -> float:
    """Wave-curve branch connecting the star region to one data state."""
    ak = side_state.a
    if a < ak:
        return 4.0 * params.zeta * (a**0.25 - ak**0.25)
    return math.sqrt(params.gamma_tube * (a - ak) * (a**1.5 - ak**1.5) / (a * ak))


def f_side_deriv(a: float, side_state: BfeState, params: BfeParams) -> float:
    ak = side_state.a
    if a < ak:
        return params.zeta * a**-0.75
    g = params.gamma_tube
    n = (a - ak) * (a**1.5 - ak**1.5)
    if n == 0.0:  # sonic point: rarefaction-branch slope is the limit
        return params.zeta * a**-0.75
    dn = (a**1.5 - ak**1.5) + 1.5 * (a - ak) * a**0.5
    s = g * n / (a * ak)
    ds = g * (dn / (a * ak) - n / (a * a * ak))
    return 0.5 * ds / math.sqrt(s)


def area_function(a: float, problem: BfeProblem) -> float:
    return (
        f_side(a, problem.left, problem.params)
        + f_side(a, problem.right, problem.params)
        + (problem.right.u - problem.left.u)
    )


def area_function_deriv(a: float, problem: BfeProblem) -> float:
    return f_side_deriv(a, problem.left, problem.params) + f_side_deriv(
        a, problem.right, problem.params
    )


def is_open(problem: BfeProblem) -> bool:
    """True when the data do not collapse the vessel (positive star area)."""
    cl = wave_speed(problem.left, problem.params)
    cr = wave_speed(problem.right, problem.params)
    return 4.0 * cl + 4.0 * cr > problem.right.u - problem.left.u


def two_rarefaction_area(problem: BfeProblem) -> float:
    """Closed-form star area assuming both waves are rarefactions;
    an upper bound for the true star area."""
    if not is_open(problem):
        raise CollapseData("data collapse the vessel; no positive star area")
    params = problem.params
    cl = wave_speed(problem.left, params)
    cr = wave_speed(problem.right, params)
    b = 0.5 * (cl + cr) - 0.125 * (problem.right.u - problem.left.u)
    return (2.0 * params.rho * b * b / params.beta) ** 2


def q_factor(a: float, side_state: BfeState, params: BfeParams) -> float:
    """Shock-speed multiplier: S = u_K -/+ c_K * q_K(A)."""
    y = a / side_state.a
    if abs(y - 1.0) < _SONIC_EPS:
        return 1.0
    return math.sqrt(2.0 / 3.0 * (y**1.5 - 1.0) * y / (y - 1.0))


def classify(problem: BfeProblem) -> WavePattern:
    return problem._wave_data.pattern


def solve_exact(problem: BfeProblem, rel_tol: float = 1e-12) -> BfeExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.star_bracket`), from the start `core.star_start` picks.
    """
    pattern = classify(problem)
    if pattern is WavePattern.VACUUM:
        raise CollapseData("data collapse the vessel")
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right

    curve = lambda a: area_function(a, problem)  # noqa: E731
    bracket = star_bracket(wave, curve)
    a_star = find_root(
        curve,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda a: area_function_deriv(a, problem),
        x0=star_start(wave, bracket),
    )

    u_star = 0.5 * (left.u + right.u) + 0.5 * (
        f_side(a_star, right, params) - f_side(a_star, left, params)
    )
    s_left = left.u - cl if a_star <= left.a else left.u - cl * q_factor(a_star, left, params)
    s_right = right.u + cr if a_star <= right.a else right.u + cr * q_factor(a_star, right, params)
    return BfeExactSolution(a_star, u_star, pattern, s_left, s_right)


def _davis_a(problem: BfeProblem):
    cl = wave_speed(problem.left, problem.params)
    cr = wave_speed(problem.right, problem.params)
    return problem.left.u - cl, problem.right.u + cr


def _davis_b(problem: BfeProblem):
    cl = wave_speed(problem.left, problem.params)
    cr = wave_speed(problem.right, problem.params)
    return (
        min(problem.left.u - cl, problem.right.u - cr),
        max(problem.left.u + cl, problem.right.u + cr),
    )


def _toro(problem: BfeProblem):
    # Two-rarefaction analog of the Euler estimator: q factors at A_*rr.
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    if wave.pattern is WavePattern.VACUUM:
        raise CollapseData("data collapse the vessel; no positive star area")
    cl, cr, a_rr = wave.c_left, wave.c_right, wave.x_rr
    ql = q_factor(a_rr, left, params) if a_rr > left.a else 1.0
    qr = q_factor(a_rr, right, params) if a_rr > right.a else 1.0
    return left.u - cl * ql, right.u + cr * qr


def _tms_d(problem: BfeProblem):
    # The crude opposite-side term is the front speed of a rarefaction
    # expanding into a near-empty vessel with floor area 1e-12 cm^2,
    # u -/+ 4(c - c_floor), rather than the full-vacuum limit u -/+ 4c.
    left, right, params = problem.left, problem.right, problem.params
    cl = wave_speed(left, params)
    cr = wave_speed(right, params)
    c_floor = params.zeta * _VACUUM_FLOOR_AREA**0.25
    return (
        min(left.u - cl, right.u - 4.0 * (cr - c_floor)),
        max(right.u + cr, left.u + 4.0 * (cl - c_floor)),
    )


def _tms(problem: BfeProblem, variant: EstimatorId):
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right
    if wave.pattern is WavePattern.RR:  # eigenvalue speeds are exact
        return left.u - cl, right.u + cr
    a_min, a_max, a_rr = wave.x_min, wave.x_max, wave.x_rr
    f_min, f_max, f_rr = wave.f_min, wave.f_max, wave.f_rr

    if wave.pattern is not WavePattern.SS:  # the shock sits on the low-area side
        if variant is EstimatorId.TMS_A:
            a_hat = interpolate_root((a_min, f_min), (a_max, f_max))
        elif variant is EstimatorId.TMS_B:
            a_hat = interpolate_root((a_min, f_min), (a_rr, f_rr))
        else:  # TMS_C: data area of the opposite side
            a_hat = a_max
        if wave.pattern is WavePattern.RS:
            return left.u - cl, right.u + cr * q_factor(a_hat, right, params)
        return left.u - cl * q_factor(a_hat, left, params), right.u + cr

    # S/S: both waves are shocks
    if variant is EstimatorId.TMS_C:
        return right.u - cr, left.u + cl
    if variant is EstimatorId.TMS_A:
        a_hat = interpolate_root((a_max, f_max), (a_rr, f_rr))
    else:
        a_hat = interpolate_root((a_min, f_min), (a_rr, f_rr))
    return (
        left.u - cl * q_factor(a_hat, left, params),
        right.u + cr * q_factor(a_hat, right, params),
    )


def estimate(problem: BfeProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    pattern: Optional[WavePattern] = None
    if estimator is EstimatorId.EXACT:
        sol = solve_exact(problem)
        return SpeedBounds(sol.s_left, sol.s_right, estimator, sol.pattern)
    if estimator is EstimatorId.DAVIS_A:
        sl, sr = _davis_a(problem)
    elif estimator is EstimatorId.DAVIS_B:
        sl, sr = _davis_b(problem)
    elif estimator is EstimatorId.TORO:
        sl, sr = _toro(problem)
    elif estimator is EstimatorId.TMS_D:
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise CollapseData("data collapse the vessel")
        sl, sr = _tms_d(problem)
    elif estimator in (EstimatorId.TMS_A, EstimatorId.TMS_B, EstimatorId.TMS_C):
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise CollapseData("data collapse the vessel")
        sl, sr = _tms(problem, estimator)
    else:
        raise UnsupportedEstimator(
            f"{estimator.value} is not defined for the blood-flow system"
        )
    return SpeedBounds(sl, sr, estimator, pattern)
