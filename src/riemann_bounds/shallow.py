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
    SpeedBounds,
    System,
    WaveData,
    WavePattern,
    _VACUUM,  # WavePattern.VACUUM, bound once
    cached_attribute,
    find_root,  # read as a module attribute by core.solve_star
    interpolate_root,  # read as a module attribute by core.tms
    record,
    solve_star,
    speed_registry,
    star_speeds,
    wave_data,
)


@record
class SweState:
    """Depth and velocity (SI units)."""

    h: float
    u: float

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")


@record
class SweParams:
    g: float = 9.8

    def __post_init__(self):
        if not 0.0 < self.g < math.inf:
            raise ValueError(f"g must be positive and finite, got {self.g}")


@record
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
        return wave_data(SYSTEM, self)


class _Sides:
    """Wave-curve constants of both sides of one problem: per side K the
    data depth h_K (also as x_K, the name the shared code reads) and the
    celerity c_K = sqrt(g h_K); g; and du = u_R - u_L."""

    __slots__ = ("h_l", "c_l", "h_r", "c_r", "x_l", "x_r", "g", "du")

    def __init__(self, problem: SweProblem):
        left, right, params = problem.left, problem.right, problem.params
        self.h_l, self.h_r = self.x_l, self.x_r = left.h, right.h
        self.g = params.g
        self.c_l = celerity(left, params)
        self.c_r = celerity(right, params)
        self.du = right.u - left.u


@record
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
    g = k.g  # the branches of _side_curves, written out as in pressure_function
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
    """(f_L(h), f_R(h)), the two terms of `depth_function`, for u*."""
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
        raise SYSTEM.no_star_error()
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
    (`core.solve_star`), from the start `core.star_start` picks; under
    SS that is refined by the two-shock approximation.
    """
    pattern = classify(problem)
    if pattern is _VACUUM:
        raise SYSTEM.no_star_error()
    left, right, k = problem.left, problem.right, problem._sides
    f_zero = 2.0 * (0.0 - k.c_l) + 2.0 * (0.0 - k.c_r) + k.du
    h_star = solve_star(SYSTEM, problem, f_zero, lambda x: _two_shock_depth(problem, x), rel_tol)

    f_l, f_r = _side_curves(h_star, k)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    return SweExactSolution(h_star, u_star, pattern, *star_speeds(SYSTEM, problem, h_star))


def _tms_d(system: System, problem: SweProblem):
    left, right, k = problem.left, problem.right, problem._sides
    cl, cr = k.c_l, k.c_r
    return min(left.u - cl, right.u - 2.0 * cr), max(right.u + cr, left.u + 2.0 * cl)


def _shock_curve(h: float, problem: SweProblem) -> float:
    """f(h) with both sides on their shock branch, below their data depths too."""
    k = problem._sides
    g = k.g
    return (
        (h - k.h_l) * math.sqrt(0.5 * g * (h + k.h_l) / (h * k.h_l))
        + (h - k.h_r) * math.sqrt(0.5 * g * (h + k.h_r) / (h * k.h_r))
        + k.du
    )


def estimate(problem: SweProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    return core.estimate(SYSTEM, problem, estimator)


SYSTEM = System(
    name="swe",
    title="shallow-water",
    module=sys.modules[__name__],
    state_type=SweState,
    params_type=SweParams,
    problem_type=SweProblem,
    star="h",
    star_label="h_*",
    no_star=DryBed,
    no_star_message="data dry the bed; no positive star depth",
    curve="depth_function",
    two_rarefaction="two_rarefaction_depth",
    positive=is_wet,
    flags={"--gravity": "g"},
    # a + (b - a) * rng.random() is rng.uniform(a, b), without its call.
    draw=lambda rng: (10.0 ** (-3.0 + 5.0 * rng.random()), -20.0 + 40.0 * rng.random()),
    speeds=speed_registry({EstimatorId.TMS_D: (_tms_d, True)}),
    ss_shock_curve=_shock_curve,
    ss_tms_c_eigen=True,
    bound_estimators=(EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                      EstimatorId.TMS_C, EstimatorId.TMS_D),
)

ESTIMATORS = tuple(SYSTEM.speeds)
