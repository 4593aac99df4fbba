"""Ideal-gas Euler system: wave-curve (pressure) function, exact Riemann
star state and extreme wave speeds, and the nine wave-speed estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .core import (
    ClosedFormOverflow,
    EstimatorId,
    SpeedBounds,
    UnsupportedEstimator,
    VacuumData,
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
        k = self._sides
        return wave_data(
            lambda p: pressure_function(p, self),
            k.p_l,
            k.p_r,
            k.c_l,
            k.c_r,
            (lambda: two_rarefaction_pressure(self)) if check_positivity(self) else None,
        )


class _Sides:
    """Wave-curve constants of both sides of one problem, as in Toro's
    PREFUN (Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd
    ed., 2009, Sec. 4.9).  Per side K: the data pressure p_K, the shock
    constants A_K = 2/((gamma+1) rho_K) and B_K = (gamma-1)/(gamma+1) p_K,
    the sound speed c_K, the rarefaction factor 2 c_K/(gamma-1) and the
    impedance rho_K c_K; the exponents z = (gamma-1)/(2 gamma) and
    -(gamma+1)/(2 gamma); and du = u_R - u_L.  Each is computed with the
    formula's own expression and order of operations, so the curve values
    are the same bits as with the formulas written out in full."""

    __slots__ = ("p_l", "a_l", "b_l", "c_l", "rar_l", "imp_l",
                 "p_r", "a_r", "b_r", "c_r", "rar_r", "imp_r", "z", "zd", "du")

    def __init__(self, problem: EulerProblem):
        left, right, params = problem.left, problem.right, problem.params
        g = params.gamma
        self.p_l, self.p_r = left.p, right.p
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
    if p > k.p_l:
        f_l = (p - k.p_l) * math.sqrt(k.a_l / (p + k.b_l))
    else:
        f_l = k.rar_l * ((p / k.p_l) ** k.z - 1.0)
    if p > k.p_r:
        f_r = (p - k.p_r) * math.sqrt(k.a_r / (p + k.b_r))
    else:
        f_r = k.rar_r * ((p / k.p_r) ** k.z - 1.0)
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
        raise VacuumData("data generate vacuum; no positive star pressure")
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
    (`core.star_bracket`), from the start `core.star_start` picks; under
    SS that is refined by Toro's two-shock approximation.
    """
    pattern = classify(problem)
    if pattern is WavePattern.VACUUM:
        raise VacuumData("data generate vacuum")
    left, right, params = problem.left, problem.right, problem.params
    wave, k = problem._wave_data, problem._sides
    cl, cr = k.c_l, k.c_r

    curve = lambda p: pressure_function(p, problem)  # noqa: E731
    bracket = star_bracket(wave, curve, -k.rar_l - k.rar_r + k.du)
    p_star = find_root(
        curve,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda p: pressure_function_deriv(p, problem),
        x0=star_start(wave, bracket, lambda x: _two_shock_pressure(problem, x)),
    )

    f_l, f_r = _side_curves(p_star, k)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    s_left = left.u - cl if p_star <= left.p else left.u - cl * q_factor(p_star, left, params)
    s_right = right.u + cr if p_star <= right.p else right.u + cr * q_factor(p_star, right, params)
    return EulerExactSolution(p_star, u_star, pattern, s_left, s_right)


def _roe_velocity(problem: EulerProblem) -> float:
    left, right = problem.left, problem.right
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    return (wl * left.u + wr * right.u) / (wl + wr)


def _davis_a(problem: EulerProblem):
    k = problem._sides
    return problem.left.u - k.c_l, problem.right.u + k.c_r


def _davis_b(problem: EulerProblem):
    k = problem._sides
    cl, cr = k.c_l, k.c_r
    return (
        min(problem.left.u - cl, problem.right.u - cr),
        max(problem.left.u + cl, problem.right.u + cr),
    )


def _einfeldt(problem: EulerProblem):
    left, right = problem.left, problem.right
    k = problem._sides
    wl, wr = math.sqrt(left.rho), math.sqrt(right.rho)
    cl, cr, du = k.c_l, k.c_r, k.du
    u_roe = _roe_velocity(problem)
    d2 = (wl * cl * cl + wr * cr * cr) / (wl + wr) + 0.5 * wl * wr / (wl + wr) ** 2 * du * du
    d = math.sqrt(d2)
    return u_roe - d, u_roe + d


def _batten(problem: EulerProblem):
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
        k = problem._sides
        f_min_ss = (
            (p_min - k.p_l) * math.sqrt(k.a_l / (p_min + k.b_l))
            + (p_min - k.p_r) * math.sqrt(k.a_r / (p_min + k.b_r))
            + k.du
        )
        p_hat = interpolate_root((p_min, f_min_ss), (p_rr, f_rr))
    else:
        p_hat = p_rr
    return (
        left.u - cl * q_factor(p_hat, left, params),
        right.u + cr * q_factor(p_hat, right, params),
    )


#: Per estimator: its speed pair, and whether `estimate` reports the wave
#: pattern (raising `VacuumData` for vacuum data).
_SPEEDS = {
    EstimatorId.DAVIS_A: (_davis_a, False),
    EstimatorId.DAVIS_B: (_davis_b, False),
    EstimatorId.EINFELDT: (_einfeldt, False),
    EstimatorId.BATTEN: (_batten, False),
    EstimatorId.TORO: (_toro, False),
    EstimatorId.TMS_A: (partial(_tms, variant=EstimatorId.TMS_A), True),
    EstimatorId.TMS_B: (partial(_tms, variant=EstimatorId.TMS_B), True),
    EstimatorId.TMS_C: (partial(_tms, variant=EstimatorId.TMS_C), True),
}

ESTIMATORS = tuple(_SPEEDS)


def estimate(problem: EulerProblem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) for the requested estimator."""
    if estimator is EstimatorId.EXACT:
        sol = solve_exact(problem)
        return SpeedBounds(sol.s_left, sol.s_right, estimator, sol.pattern)
    entry = _SPEEDS.get(estimator)
    if entry is None:
        raise UnsupportedEstimator(f"{estimator.value} is not defined for the Euler system")
    speeds, with_pattern = entry
    pattern = None
    if with_pattern:
        pattern = classify(problem)
        if pattern is WavePattern.VACUUM:
            raise VacuumData("data generate vacuum")
    sl, sr = speeds(problem)
    return SpeedBounds(sl, sr, estimator, pattern)
