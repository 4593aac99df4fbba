"""System-agnostic scaffolding: wave patterns, estimator ids, root finding,
linear interpolation of wave-curve functions and the Courant time step."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple


class RiemannBoundsError(Exception):
    """Base class for all library errors."""


class InvalidBracket(RiemannBoundsError):
    """The supplied interval does not bracket a sign change."""


class NoConvergence(RiemannBoundsError):
    """Root iteration exceeded the iteration budget."""


class DegeneratePoints(RiemannBoundsError):
    """Secant interpolation requested through degenerate points."""


class ZeroMaxSpeed(RiemannBoundsError):
    """All wave speeds are zero; the Courant step is unbounded."""


class VacuumData(RiemannBoundsError):
    """Euler data violating the pressure positivity condition."""


class DryBed(RiemannBoundsError):
    """Shallow-water data strong enough to dry the bed."""


class CollapseData(RiemannBoundsError):
    """Blood-flow data strong enough to collapse the vessel."""


class UnsupportedEstimator(RiemannBoundsError):
    """Estimator not defined for the requested system."""


class ClosedFormOverflow(RiemannBoundsError):
    """A closed-form star value (the two-rarefaction one) exceeds the
    floating-point range."""


class cached_attribute:
    """`functools.cached_property` without a lock: the value is computed on
    first access and stored in the instance dict, which later lookups find
    first.  Python 3.11's cached_property takes an RLock on every first
    access; two threads racing here both compute the value, which is
    harmless for a pure function of frozen fields."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class WavePattern(enum.Enum):
    """Outer-wave configuration of the Riemann solution."""

    RR = "RR"
    RS = "RS"
    SR = "SR"
    SS = "SS"
    VACUUM = "Vacuum"


class EstimatorId(enum.Enum):
    """Registry of wave-speed estimators.

    Einfeldt and Batten are Euler-only; TMS_d exists only for the
    shallow-water and blood-flow systems.
    """

    DAVIS_A = "davis_a"
    DAVIS_B = "davis_b"
    EINFELDT = "einfeldt"
    BATTEN = "batten"
    TORO = "toro"
    TMS_A = "tms_a"
    TMS_B = "tms_b"
    TMS_C = "tms_c"
    TMS_D = "tms_d"
    EXACT = "exact"


@dataclass(frozen=True)
class SpeedBounds:
    """Estimated (or exact) pair of minimal/maximal wave speeds."""

    s_left: float
    s_right: float
    estimator: EstimatorId
    pattern: Optional[WavePattern] = None


@dataclass(frozen=True)
class RootBracket:
    """Interval with a sign change (or an exact root at an endpoint)."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidBracket(f"lo={self.lo} must be < hi={self.hi}")
        if self.f_lo * self.f_hi > 0.0:
            raise InvalidBracket(
                f"f has the same sign at both endpoints: "
                f"f({self.lo})={self.f_lo}, f({self.hi})={self.f_hi}"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "RootBracket":
        return cls(lo, hi, f(lo), f(hi))


@dataclass(frozen=True)
class WaveData:
    """Wave-curve data of one Riemann problem, computed once per problem.

    `x_min <= x_max` are the ordered data values of the star variable
    (ties resolve to (x_R, x_L)), `f_min`, `f_max` the wave-curve function
    there, `x_rr` the two-rarefaction closed form and `f_rr = f(x_rr)`.
    Values the pattern does not need are NaN and were never computed:
    everything but the celerities under VACUUM, `f_max` and `f_rr` under RR.
    """

    c_left: float
    c_right: float
    x_min: float
    x_max: float
    f_min: float
    f_max: float
    x_rr: float
    f_rr: float
    pattern: WavePattern


def wave_data(
    curve: Callable[[float], float],
    x_left: float,
    x_right: float,
    c_left: float,
    c_right: float,
    two_rarefaction: Optional[Callable[[], float]],
) -> WaveData:
    """Wave data from the signs of the wave-curve function `curve` at the
    data values, without solving for the star state.

    `two_rarefaction` returns the two-rarefaction closed form; it is None
    when the data leave no positive star value.
    """
    right_min = x_right <= x_left
    x_min, x_max = (x_right, x_left) if right_min else (x_left, x_right)
    nan = math.nan
    if two_rarefaction is None:
        return WaveData(c_left, c_right, x_min, x_max, nan, nan, nan, nan, WavePattern.VACUUM)
    x_rr = two_rarefaction()
    f_min = curve(x_min)
    if f_min >= 0.0:
        return WaveData(c_left, c_right, x_min, x_max, f_min, nan, x_rr, nan, WavePattern.RR)
    f_max = curve(x_max)
    if f_max < 0.0:
        pattern = WavePattern.SS
    else:
        pattern = WavePattern.RS if right_min else WavePattern.SR
    return WaveData(c_left, c_right, x_min, x_max, f_min, f_max, x_rr, curve(x_rr), pattern)


def star_bracket(
    wave: WaveData, curve: Callable[[float], float], f_zero: float
) -> RootBracket:
    """Bracket of the star value that the wave pattern gives.

    RR: (0, x_min], with f(0) given as `f_zero`, the system's closed form
    of the curve at zero, so that no evaluation is needed.  RS/SR:
    [x_min, x_max], cut down to [x_min, x_rr] when f(x_rr) >= 0 there.  SS: [x_max, hi], where hi starts at x_rr and
    doubles, from a positive value, while f(hi) < 0 (rounding, or a closed
    form that underflowed or is no upper bound).
    """
    if wave.pattern is WavePattern.RR:
        return RootBracket(0.0, wave.x_min, f_zero, wave.f_min)
    if wave.pattern is not WavePattern.SS:
        if wave.x_min < wave.x_rr < wave.x_max and wave.f_rr >= 0.0:
            return RootBracket(wave.x_min, wave.x_rr, wave.f_min, wave.f_rr)
        return RootBracket(wave.x_min, wave.x_max, wave.f_min, wave.f_max)
    hi, f_hi = wave.x_rr, wave.f_rr
    if not hi > wave.x_max:
        hi, f_hi = wave.x_max, wave.f_max
    while f_hi < 0.0 and hi < math.inf:
        hi *= 2.0
        f_hi = curve(hi)
    if not f_hi >= 0.0:
        raise NoConvergence(f"no upper bracket for the star value above {wave.x_max}")
    return RootBracket(wave.x_max, hi, wave.f_max, f_hi)


def star_start(
    wave: WaveData,
    bracket: RootBracket,
    two_shock: Optional[Callable[[float], float]] = None,
) -> float:
    """Newton start for the star value, strictly inside `bracket`.

    Under RR it is x_rr, which is then the root.  Otherwise it is the root
    of the chord through the bracket's end points drawn over sqrt(x), where
    the wave curves of strong shocks are nearly straight; under SS it is
    refined by the system's two-shock approximation linearized about that
    value, `two_shock(x0)`, when the system has one.  A value outside the
    bracket falls back to the bracket's midpoint.
    """
    if wave.pattern is WavePattern.RR:
        x = wave.x_rr
    else:
        # f_lo < f_hi in every bracket of star_bracket; sqrt(lo) may equal
        # sqrt(hi) when the data values are one ulp apart.
        q_lo, q_hi = math.sqrt(bracket.lo), math.sqrt(bracket.hi)
        q = q_lo - (q_hi - q_lo) / (bracket.f_hi - bracket.f_lo) * bracket.f_lo
        x = q * q
        if wave.pattern is WavePattern.SS and two_shock is not None:
            x = two_shock(x)
    if bracket.lo < x < bracket.hi:
        return x
    return 0.5 * (bracket.lo + bracket.hi)


def interpolate_root(p1: Tuple[float, float], p2: Tuple[float, float]) -> float:
    """Root of the chord through two points of a function.

    For a concave-down function whose root lies between the points the
    chord root lies at or above the true root, which is what makes the
    interpolated star values usable as bound surrogates.
    """
    x1, f1 = p1
    x2, f2 = p2
    if f1 == 0.0:
        return x1
    if f2 == 0.0:
        return x2
    if x1 == x2 or f1 == f2:
        raise DegeneratePoints(f"cannot interpolate through {p1} and {p2}")
    return x1 - (x2 - x1) / (f2 - f1) * f1


def find_root(
    f: Callable[[float], float],
    bracket: RootBracket,
    rel_tol: float = 1e-12,
    max_iter: int = 100,
    fprime: Optional[Callable[[float], float]] = None,
    x0: Optional[float] = None,
) -> float:
    """Root of a monotone continuous function inside a bracket.

    With `fprime` this is a Newton iteration started from `x0` (default:
    the endpoint with the smaller |f|) that falls back to bisection
    whenever an iterate leaves the current bracket.  Once |f| passes the
    residual test it returns the pending Newton correction, when that lies
    inside the bracket and is below sqrt(rel_tol) * |x| or is the third
    one past the test.  Without `fprime` it is an Illinois-damped
    false-position iteration.  Either way each function evaluation shrinks
    the bracket, so convergence is guaranteed for monotone f.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # Orient so f(lo) < 0 < f(hi).
    if f_lo > 0.0:
        lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo
    f_scale = max(abs(f_lo), abs(f_hi))

    if x0 is not None and min(lo, hi) <= x0 <= max(lo, hi):
        x = x0
    else:
        x = lo if abs(f_lo) <= abs(f_hi) else hi
    fx = f(x)

    side = 0  # Illinois bookkeeping for the derivative-free path
    corrections = 3  # Newton steps allowed past the residual test
    for _ in range(max_iter):
        if abs(fx) <= rel_tol * f_scale:
            if fprime is None:
                return x
            # f_scale can be far above f near the root (a distant bracket
            # end), so the test can pass early.  The correction costs no
            # evaluation of f, and once it is small, Newton's quadratic
            # convergence makes the corrected value exact to rel_tol.
            dfx = fprime(x)
            cand = x - fx / dfx if dfx != 0.0 and math.isfinite(dfx) else x
            if not min(lo, hi) < cand < max(lo, hi):
                return x
            corrections -= 1
            if corrections == 0 or abs(cand - x) <= math.sqrt(rel_tol) * abs(x):
                return cand
        if fx < 0.0:
            if side == -1 and fprime is None:
                f_hi *= 0.5  # Illinois: damp the stagnant endpoint
            lo, f_lo = x, fx
            side = -1
        else:
            if side == 1 and fprime is None:
                f_lo *= 0.5
            hi, f_hi = x, fx
            side = 1
        if abs(hi - lo) <= rel_tol * max(abs(x), 1e-300):
            return x

        x_new = None
        if fprime is not None:
            dfx = fprime(x)
            if dfx != 0.0 and math.isfinite(dfx):
                cand = x - fx / dfx
                if min(lo, hi) < cand < max(lo, hi):
                    x_new = cand
        elif f_hi != f_lo:
            cand = lo - (hi - lo) / (f_hi - f_lo) * f_lo
            if min(lo, hi) < cand < max(lo, hi):
                x_new = cand
        if x_new is None:
            x_new = 0.5 * (lo + hi)

        if x_new == x:
            return x
        x = x_new
        fx = f(x)
        if abs(x - lo) <= rel_tol * max(abs(x), 1e-300) and fx * f_lo > 0:
            return x
        if abs(hi - x) <= rel_tol * max(abs(x), 1e-300) and fx * f_hi > 0:
            return x

    raise NoConvergence(f"no root to rel_tol={rel_tol} within {max_iter} iterations")


def courant_dt(speeds: Sequence[SpeedBounds], dx: float, c_cfl: float) -> float:
    """Stable explicit time step dt = C_cfl * dx / S_max."""
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    if not 0.0 < c_cfl <= 1.0:
        raise ValueError("c_cfl must lie in (0, 1]")
    if not speeds:
        raise ValueError("speeds must be non-empty")
    s_max = max(max(abs(s.s_left), abs(s.s_right)) for s in speeds)
    if s_max == 0.0:
        raise ZeroMaxSpeed("all wave speeds are zero")
    return c_cfl * dx / s_max
