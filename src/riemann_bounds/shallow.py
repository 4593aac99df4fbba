"""Shallow-water system (horizontal bed): depth function, exact Riemann
star state and extreme wave speeds, and estimators Davis a/b, Toro-analog
and TMS_a-d."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .core import (
    DryBed,
    EstimatorId,
    SpeedBounds,
    UnsupportedEstimator,
    WaveData,
    WavePattern,
    cached_attribute,
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
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")


@dataclass(frozen=True)
class SweParams:
    g: float = 9.8

    def __post_init__(self):
        if not 0.0 < self.g < math.inf:
            raise ValueError(f"g must be positive and finite, got {self.g}")


@dataclass(frozen=True)
class SweProblem:
    left: SweState
    right: SweState
    params: SweParams = SweParams()

    @cached_attribute
    def _sides(self) -> "_Sides":
        """Per-side wave-curve constants, computed on first use."""
        return _Sides(self)

    @cached_attribute
    def _wave_data(self) -> WaveData:
        """Celerities, f at the data depths, h_rr and the pattern,
        computed on first use and kept for every later call."""
        k = self._sides
        return wave_data(
            lambda h: depth_function(h, self),
            k.h_l,
            k.h_r,
            k.c_l,
            k.c_r,
            (lambda: two_rarefaction_depth(self)) if is_wet(self) else None,
        )


class _Sides:
    """Wave-curve constants of both sides of one problem: per side K the
    data depth h_K and the celerity c_K = sqrt(g h_K); g; and
    du = u_R - u_L."""

    __slots__ = ("h_l", "c_l", "h_r", "c_r", "g", "du")

    def __init__(self, problem: SweProblem):
        left, right, params = problem.left, problem.right, problem.params
        self.h_l, self.h_r, self.g = left.h, right.h, params.g
        self.c_l = celerity(left, params)
        self.c_r = celerity(right, params)
        self.du = right.u - left.u


@dataclass(frozen=True)
class SweExactSolution:
    h_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


def celerity(state: SweState, params: SweParams) -> float:
    return math.sqrt(params.g * state.h)


def depth_function(h: float, problem: SweProblem) -> float:
    """f(h) = f_L(h) + f_R(h) + u_R - u_L: shock branch above the side's
    data depth, rarefaction branch at or below it."""
    k = problem._sides
    g = k.g
    if h > k.h_l:
        f_l = (h - k.h_l) * math.sqrt(0.5 * g * (h + k.h_l) / (h * k.h_l))
    else:
        f_l = 2.0 * (math.sqrt(g * h) - k.c_l)
    if h > k.h_r:
        f_r = (h - k.h_r) * math.sqrt(0.5 * g * (h + k.h_r) / (h * k.h_r))
    else:
        f_r = 2.0 * (math.sqrt(g * h) - k.c_r)
    return f_l + f_r + k.du


def depth_function_deriv(h: float, problem: SweProblem) -> float:
    k = problem._sides
    g = k.g
    if h > k.h_l:
        s = math.sqrt(0.5 * g * (1.0 / h + 1.0 / k.h_l))
        d_l = s - 0.25 * g * (h - k.h_l) / (h * h * s)
    else:
        d_l = math.sqrt(g / h)
    if h > k.h_r:
        s = math.sqrt(0.5 * g * (1.0 / h + 1.0 / k.h_r))
        d_r = s - 0.25 * g * (h - k.h_r) / (h * h * s)
    else:
        d_r = math.sqrt(g / h)
    return d_l + d_r


def _side_curves(h: float, k: _Sides):
    """(f_L(h), f_R(h)), the two terms of `depth_function`."""
    g = k.g
    if h > k.h_l:
        f_l = (h - k.h_l) * math.sqrt(0.5 * g * (h + k.h_l) / (h * k.h_l))
    else:
        f_l = 2.0 * (math.sqrt(g * h) - k.c_l)
    if h > k.h_r:
        f_r = (h - k.h_r) * math.sqrt(0.5 * g * (h + k.h_r) / (h * k.h_r))
    else:
        f_r = 2.0 * (math.sqrt(g * h) - k.c_r)
    return f_l, f_r


def is_wet(problem: SweProblem) -> bool:
    """True when the data do not dry the bed (positive star depth)."""
    k = problem._sides
    return 2.0 * k.c_l + 2.0 * k.c_r > k.du


def two_rarefaction_depth(problem: SweProblem) -> float:
    """Closed-form star depth assuming both waves are rarefactions;
    an upper bound for the true star depth."""
    if not is_wet(problem):
        raise DryBed("data dry the bed; no positive star depth")
    k = problem._sides
    b = 0.5 * (k.c_l + k.c_r) + 0.25 * (problem.left.u - problem.right.u)
    return b * b / k.g


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
    wave, k = problem._wave_data, problem._sides
    cl, cr = k.c_l, k.c_r

    curve = lambda h: depth_function(h, problem)  # noqa: E731
    bracket = star_bracket(wave, curve, 2.0 * (0.0 - cl) + 2.0 * (0.0 - cr) + k.du)
    h_star = find_root(
        curve,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda h: depth_function_deriv(h, problem),
        x0=star_start(wave, bracket, lambda x: _two_shock_depth(problem, x)),
    )

    f_l, f_r = _side_curves(h_star, k)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    s_left = left.u - cl if h_star <= left.h else left.u - cl * q_factor(h_star, left, params)
    s_right = right.u + cr if h_star <= right.h else right.u + cr * q_factor(h_star, right, params)
    return SweExactSolution(h_star, u_star, pattern, s_left, s_right)


def _davis_a(problem: SweProblem):
    k = problem._sides
    return problem.left.u - k.c_l, problem.right.u + k.c_r


def _davis_b(problem: SweProblem):
    k = problem._sides
    cl, cr = k.c_l, k.c_r
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
    left, right, k = problem.left, problem.right, problem._sides
    cl, cr = k.c_l, k.c_r
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
        k = problem._sides
        g = k.g
        f_min_ss = (
            (h_min - k.h_l) * math.sqrt(0.5 * g * (h_min + k.h_l) / (h_min * k.h_l))
            + (h_min - k.h_r) * math.sqrt(0.5 * g * (h_min + k.h_r) / (h_min * k.h_r))
            + k.du
        )
        h_hat = interpolate_root((h_min, f_min_ss), (h_rr, f_rr))
    return (
        left.u - cl * q_factor(h_hat, left, params),
        right.u + cr * q_factor(h_hat, right, params),
    )


#: Per estimator: its speed pair, and whether `estimate` reports the wave
#: pattern (raising `DryBed` for data that dry the bed).
_SPEEDS = {
    EstimatorId.DAVIS_A: (_davis_a, False),
    EstimatorId.DAVIS_B: (_davis_b, False),
    EstimatorId.TORO: (_toro, False),
    EstimatorId.TMS_A: (partial(_tms, variant=EstimatorId.TMS_A), True),
    EstimatorId.TMS_B: (partial(_tms, variant=EstimatorId.TMS_B), True),
    EstimatorId.TMS_C: (partial(_tms, variant=EstimatorId.TMS_C), True),
    EstimatorId.TMS_D: (_tms_d, True),
}

ESTIMATORS = tuple(_SPEEDS)


def estimate(problem: SweProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    if estimator is EstimatorId.EXACT:
        sol = solve_exact(problem)
        return SpeedBounds(sol.s_left, sol.s_right, estimator, sol.pattern)
    entry = _SPEEDS.get(estimator)
    if entry is None:
        raise UnsupportedEstimator(
            f"{estimator.value} is not defined for the shallow-water system"
        )
    speeds, with_pattern = entry
    pattern = None
    if with_pattern:
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise DryBed("data dry the bed")
    sl, sr = speeds(problem)
    return SpeedBounds(sl, sr, estimator, pattern)
