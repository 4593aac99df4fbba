"""One-dimensional arterial blood-flow system: area function, exact
Riemann star state and extreme wave speeds, and estimators Davis a/b,
Toro-analog and TMS_a-d.  Units are CGS (cm, g, dyne) throughout."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .core import (
    ClosedFormOverflow,
    CollapseData,
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

_SONIC_EPS = 1e-8  # q_factor is 0/0 at unit area ratio; return the limit 1
_VACUUM_FLOOR_AREA = 1e-12  # cm^2; near-empty vessel used by the crude bound


@dataclass(frozen=True)
class BfeState:
    """Cross-sectional area (cm^2) and velocity (cm/s)."""

    a: float
    u: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")


@dataclass(frozen=True)
class BfeParams:
    """Wall stiffness beta (dyne/cm^3) and blood density rho (g/cm^3)."""

    beta: float = 28209.4792
    rho: float = 1.05

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

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

    @cached_attribute
    def _sides(self) -> "_Sides":
        """Per-side wave-curve constants, computed on first use."""
        return _Sides(self)

    @cached_attribute
    def _wave_data(self) -> WaveData:
        """Wave speeds, f at the data areas, A_rr and the pattern,
        computed on first use and kept for every later call."""
        k = self._sides
        return wave_data(
            lambda a: area_function(a, self),
            k.a_l,
            k.a_r,
            k.c_l,
            k.c_r,
            (lambda: two_rarefaction_area(self)) if is_open(self) else None,
        )


class _Sides:
    """Wave-curve constants of both sides of one problem: per side K the
    data area A_K, A_K^(1/4), A_K^(3/2) and the wave speed c_K; zeta,
    4 zeta and gamma_tube; and du = u_R - u_L."""

    __slots__ = ("a_l", "a14_l", "a32_l", "c_l", "a_r", "a14_r", "a32_r", "c_r",
                 "zeta", "zeta4", "gamma_tube", "du")

    def __init__(self, problem: BfeProblem):
        left, right, params = problem.left, problem.right, problem.params
        self.a_l, self.a_r = left.a, right.a
        self.a14_l, self.a14_r = left.a**0.25, right.a**0.25
        self.a32_l, self.a32_r = left.a**1.5, right.a**1.5
        self.zeta = zeta = params.zeta
        self.zeta4 = 4.0 * zeta
        self.gamma_tube = params.gamma_tube
        self.c_l = zeta * self.a14_l  # wave_speed(left, params)
        self.c_r = zeta * self.a14_r
        self.du = right.u - left.u


@dataclass(frozen=True)
class BfeExactSolution:
    a_star: float
    u_star: float
    pattern: WavePattern
    s_left: float
    s_right: float


def wave_speed(state: BfeState, params: BfeParams) -> float:
    """Elastic-wall wave speed c = zeta * A^(1/4)."""
    return params.zeta * state.a**0.25


def area_function(a: float, problem: BfeProblem) -> float:
    """f(A) = f_L(A) + f_R(A) + u_R - u_L: rarefaction branch below the
    side's data area, shock branch at or above it."""
    k = problem._sides
    if a < k.a_l:
        f_l = k.zeta4 * (a**0.25 - k.a14_l)
    else:
        f_l = math.sqrt(k.gamma_tube * (a - k.a_l) * (a**1.5 - k.a32_l) / (a * k.a_l))
    if a < k.a_r:
        f_r = k.zeta4 * (a**0.25 - k.a14_r)
    else:
        f_r = math.sqrt(k.gamma_tube * (a - k.a_r) * (a**1.5 - k.a32_r) / (a * k.a_r))
    return f_l + f_r + k.du


def area_function_deriv(a: float, problem: BfeProblem) -> float:
    k = problem._sides
    g = k.gamma_tube
    if a < k.a_l:
        d_l = k.zeta * a**-0.75
    else:
        n = (a - k.a_l) * (a**1.5 - k.a32_l)
        if n == 0.0:  # sonic point: rarefaction-branch slope is the limit
            d_l = k.zeta * a**-0.75
        else:
            dn = (a**1.5 - k.a32_l) + 1.5 * (a - k.a_l) * a**0.5
            s = g * n / (a * k.a_l)
            ds = g * (dn / (a * k.a_l) - n / (a * a * k.a_l))
            d_l = 0.5 * ds / math.sqrt(s)
    if a < k.a_r:
        d_r = k.zeta * a**-0.75
    else:
        n = (a - k.a_r) * (a**1.5 - k.a32_r)
        if n == 0.0:
            d_r = k.zeta * a**-0.75
        else:
            dn = (a**1.5 - k.a32_r) + 1.5 * (a - k.a_r) * a**0.5
            s = g * n / (a * k.a_r)
            ds = g * (dn / (a * k.a_r) - n / (a * a * k.a_r))
            d_r = 0.5 * ds / math.sqrt(s)
    return d_l + d_r


def _side_curves(a: float, k: _Sides):
    """(f_L(A), f_R(A)), the two terms of `area_function`."""
    if a < k.a_l:
        f_l = k.zeta4 * (a**0.25 - k.a14_l)
    else:
        f_l = math.sqrt(k.gamma_tube * (a - k.a_l) * (a**1.5 - k.a32_l) / (a * k.a_l))
    if a < k.a_r:
        f_r = k.zeta4 * (a**0.25 - k.a14_r)
    else:
        f_r = math.sqrt(k.gamma_tube * (a - k.a_r) * (a**1.5 - k.a32_r) / (a * k.a_r))
    return f_l, f_r


def is_open(problem: BfeProblem) -> bool:
    """True when the data do not collapse the vessel (positive star area)."""
    k = problem._sides
    return 4.0 * k.c_l + 4.0 * k.c_r > k.du


def two_rarefaction_area(problem: BfeProblem) -> float:
    """Closed-form star area assuming both waves are rarefactions;
    an upper bound for the true star area.  Raises `ClosedFormOverflow`
    when the value exceeds the float range."""
    if not is_open(problem):
        raise CollapseData("data collapse the vessel; no positive star area")
    params, k = problem.params, problem._sides
    b = 0.5 * (k.c_l + k.c_r) - 0.125 * k.du
    try:
        return (2.0 * params.rho * b * b / params.beta) ** 2
    except OverflowError:
        raise ClosedFormOverflow("two-rarefaction area overflows") from None


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
    wave, k = problem._wave_data, problem._sides
    cl, cr = k.c_l, k.c_r

    curve = lambda a: area_function(a, problem)  # noqa: E731
    f_zero = k.zeta4 * (0.0 - k.a14_l) + k.zeta4 * (0.0 - k.a14_r) + k.du
    bracket = star_bracket(wave, curve, f_zero)
    a_star = find_root(
        curve,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda a: area_function_deriv(a, problem),
        x0=star_start(wave, bracket),
    )

    f_l, f_r = _side_curves(a_star, k)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    s_left = left.u - cl if a_star <= left.a else left.u - cl * q_factor(a_star, left, params)
    s_right = right.u + cr if a_star <= right.a else right.u + cr * q_factor(a_star, right, params)
    return BfeExactSolution(a_star, u_star, pattern, s_left, s_right)


def _davis_a(problem: BfeProblem):
    k = problem._sides
    return problem.left.u - k.c_l, problem.right.u + k.c_r


def _davis_b(problem: BfeProblem):
    k = problem._sides
    cl, cr = k.c_l, k.c_r
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
    left, right, k = problem.left, problem.right, problem._sides
    cl, cr = k.c_l, k.c_r
    c_floor = k.zeta * _VACUUM_FLOOR_AREA**0.25
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


#: Per estimator: its speed pair, and whether `estimate` reports the wave
#: pattern (raising `CollapseData` for data that collapse the vessel).
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


def estimate(problem: BfeProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    if estimator is EstimatorId.EXACT:
        sol = solve_exact(problem)
        return SpeedBounds(sol.s_left, sol.s_right, estimator, sol.pattern)
    entry = _SPEEDS.get(estimator)
    if entry is None:
        raise UnsupportedEstimator(
            f"{estimator.value} is not defined for the blood-flow system"
        )
    speeds, with_pattern = entry
    pattern = None
    if with_pattern:
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise CollapseData("data collapse the vessel")
    sl, sr = speeds(problem)
    return SpeedBounds(sl, sr, estimator, pattern)
