"""Shallow-water system (horizontal bed): depth function, exact Riemann
star state and extreme wave speeds, and estimators Davis a/b, Toro-analog
and TMS_a-d."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    DryBed,
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


@dataclass(frozen=True)
class SweState:
    """Depth and velocity (SI units)."""

    h: float
    u: float

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")


@dataclass(frozen=True)
class SweParams:
    g: float = 9.8

    def __post_init__(self):
        if not self.g > 0.0:
            raise ValueError(f"g must be positive, got {self.g}")


@dataclass(frozen=True)
class SweProblem:
    left: SweState
    right: SweState
    params: SweParams = SweParams()

    @cached_property
    def _wave_data(self) -> WaveData:
        """Celerities, f at the data depths, h_rr and the pattern,
        computed on first use and kept for every later call."""
        return wave_data(
            lambda h: depth_function(h, self),
            self.left.h,
            self.right.h,
            celerity(self.left, self.params),
            celerity(self.right, self.params),
            (lambda: two_rarefaction_depth(self)) if is_wet(self) else None,
        )


@dataclass(frozen=True)
class SweExactSolution:
    h_star: float
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


def celerity(state: SweState, params: SweParams) -> float:
    return math.sqrt(params.g * state.h)


def _shock_branch(h: float, side_state: SweState, params: SweParams) -> float:
    """Shock-branch expression of the wave curve.

    Also meaningful below the data depth, where it extends the shock curve
    smoothly; used when the realized wave is known to be a shock.
    """
    g, hk = params.g, side_state.h
    return (h - hk) * math.sqrt(0.5 * g * (h + hk) / (h * hk))


def f_side(h: float, side_state: SweState, params: SweParams) -> float:
    """Wave-curve branch connecting the star region to one data state."""
    g, hk = params.g, side_state.h
    if h > hk:
        return _shock_branch(h, side_state, params)
    return 2.0 * (math.sqrt(g * h) - math.sqrt(g * hk))


def f_side_deriv(h: float, side_state: SweState, params: SweParams) -> float:
    g, hk = params.g, side_state.h
    if h > hk:
        s = math.sqrt(0.5 * g * (1.0 / h + 1.0 / hk))
        return s - 0.25 * g * (h - hk) / (h * h * s)
    return math.sqrt(g / h)


def depth_function(h: float, problem: SweProblem) -> float:
    return (
        f_side(h, problem.left, problem.params)
        + f_side(h, problem.right, problem.params)
        + (problem.right.u - problem.left.u)
    )


def depth_function_deriv(h: float, problem: SweProblem) -> float:
    return f_side_deriv(h, problem.left, problem.params) + f_side_deriv(
        h, problem.right, problem.params
    )


def is_wet(problem: SweProblem) -> bool:
    """True when the data do not dry the bed (positive star depth)."""
    cl = celerity(problem.left, problem.params)
    cr = celerity(problem.right, problem.params)
    return 2.0 * cl + 2.0 * cr > problem.right.u - problem.left.u


def two_rarefaction_depth(problem: SweProblem) -> float:
    """Closed-form star depth assuming both waves are rarefactions;
    an upper bound for the true star depth."""
    if not is_wet(problem):
        raise DryBed("data dry the bed; no positive star depth")
    cl = celerity(problem.left, problem.params)
    cr = celerity(problem.right, problem.params)
    b = 0.5 * (cl + cr) + 0.25 * (problem.left.u - problem.right.u)
    return b * b / problem.params.g


def q_factor(h: float, side_state: SweState, params: SweParams) -> float:
    """Shock-speed multiplier: S = u_K -/+ c_K * q_K(h)."""
    y = h / side_state.h
    return math.sqrt(0.5 * (y * y + y))


def classify(problem: SweProblem) -> WavePattern:
    return problem._wave_data.pattern


def _two_shock_depth(problem: SweProblem, h0: float) -> float:
    """Two-shock approximation of h*, linearized about h0 (Toro,
    Shock-Capturing Methods for Free-Surface Shallow Flows, 2001)."""
    left, right, g = problem.left, problem.right, problem.params.g
    gl = math.sqrt(0.5 * g * (h0 + left.h) / (h0 * left.h))
    gr = math.sqrt(0.5 * g * (h0 + right.h) / (h0 * right.h))
    return (gl * left.h + gr * right.h - (right.u - left.u)) / (gl + gr)


def solve_exact(problem: SweProblem, rel_tol: float = 1e-12) -> SweExactSolution:
    """Exact star state and extreme wave speeds.

    Newton runs inside the bracket that the wave pattern gives
    (`core.star_bracket`), from the start `core.star_start` picks; under
    SS that is refined by the two-shock approximation.
    """
    pattern = classify(problem)
    if pattern is WavePattern.VACUUM:
        raise DryBed("data dry the bed")
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right

    curve = lambda h: depth_function(h, problem)  # noqa: E731
    bracket = star_bracket(wave, curve)
    h_star = find_root(
        curve,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda h: depth_function_deriv(h, problem),
        x0=star_start(wave, bracket, lambda x: _two_shock_depth(problem, x)),
    )

    u_star = 0.5 * (left.u + right.u) + 0.5 * (
        f_side(h_star, right, params) - f_side(h_star, left, params)
    )
    s_left = left.u - cl if h_star <= left.h else left.u - cl * q_factor(h_star, left, params)
    s_right = right.u + cr if h_star <= right.h else right.u + cr * q_factor(h_star, right, params)
    return SweExactSolution(h_star, u_star, pattern, s_left, s_right)


def _davis_a(problem: SweProblem):
    cl = celerity(problem.left, problem.params)
    cr = celerity(problem.right, problem.params)
    return problem.left.u - cl, problem.right.u + cr


def _davis_b(problem: SweProblem):
    cl = celerity(problem.left, problem.params)
    cr = celerity(problem.right, problem.params)
    return (
        min(problem.left.u - cl, problem.right.u - cr),
        max(problem.left.u + cl, problem.right.u + cr),
    )


def _toro(problem: SweProblem):
    # Two-rarefaction analog of the Euler estimator: q factors at h_*rr.
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    if wave.pattern is WavePattern.VACUUM:
        raise DryBed("data dry the bed; no positive star depth")
    cl, cr, h_rr = wave.c_left, wave.c_right, wave.x_rr
    ql = q_factor(h_rr, left, params) if h_rr > left.h else 1.0
    qr = q_factor(h_rr, right, params) if h_rr > right.h else 1.0
    return left.u - cl * ql, right.u + cr * qr


def _tms_d(problem: SweProblem):
    left, right = problem.left, problem.right
    cl = celerity(left, problem.params)
    cr = celerity(right, problem.params)
    return min(left.u - cl, right.u - 2.0 * cr), max(right.u + cr, left.u + 2.0 * cl)


def _tms(problem: SweProblem, variant: EstimatorId):
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right
    if wave.pattern is WavePattern.RR:  # eigenvalue speeds are exact
        return left.u - cl, right.u + cr
    h_min, h_max, h_rr = wave.x_min, wave.x_max, wave.x_rr
    f_min, f_max, f_rr = wave.f_min, wave.f_max, wave.f_rr

    if wave.pattern is not WavePattern.SS:  # the shock sits on the low-depth side
        if variant is EstimatorId.TMS_A:
            h_hat = interpolate_root((h_min, f_min), (h_max, f_max))
        elif variant is EstimatorId.TMS_B:
            h_hat = interpolate_root((h_min, f_min), (h_rr, f_rr))
        else:  # TMS_C: data depth of the opposite side
            h_hat = h_max
        if wave.pattern is WavePattern.RS:
            return left.u - cl, right.u + cr * q_factor(h_hat, right, params)
        return left.u - cl * q_factor(h_hat, left, params), right.u + cr

    # S/S: both waves are shocks, so the interpolation nodes evaluate the
    # wave curves with their shock expressions on both sides; at h_min the
    # deep side extends its shock branch below its data value.
    # h_rr > h_max, so f_rr is on the shock branch of both sides.
    if variant is EstimatorId.TMS_C:
        return right.u - cr, left.u + cl
    if variant is EstimatorId.TMS_A:
        h_hat = interpolate_root((h_max, f_max), (h_rr, f_rr))
    else:
        f_min_ss = (
            _shock_branch(h_min, left, params)
            + _shock_branch(h_min, right, params)
            + (right.u - left.u)
        )
        h_hat = interpolate_root((h_min, f_min_ss), (h_rr, f_rr))
    return (
        left.u - cl * q_factor(h_hat, left, params),
        right.u + cr * q_factor(h_hat, right, params),
    )


def estimate(problem: SweProblem, estimator: EstimatorId) -> SpeedBounds:
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
            raise DryBed("data dry the bed")
        sl, sr = _tms_d(problem)
    elif estimator in (EstimatorId.TMS_A, EstimatorId.TMS_B, EstimatorId.TMS_C):
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise DryBed("data dry the bed")
        sl, sr = _tms(problem, estimator)
    else:
        raise UnsupportedEstimator(
            f"{estimator.value} is not defined for the shallow-water system"
        )
    return SpeedBounds(sl, sr, estimator, pattern)
