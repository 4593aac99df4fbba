"""System-agnostic scaffolding: wave patterns, estimator ids, the `System`
record that describes one system, the estimators shared by all systems,
root finding, linear interpolation of wave-curve functions and the
Courant time step."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple


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
    """A closed-form star value (the two-rarefaction one), or the wave-curve
    function at a node of the wave data, exceeds the floating-point range."""


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


@dataclass(frozen=True)
class System:
    """One hyperbolic system, described once for the shared code below, the
    registry in `tables`, the fuzzer and the CLI.

    Shared code reaches `classify`, `q_factor`, `interpolate_root`,
    `find_root`, `solve_exact` and the functions named by `curve` and
    `two_rarefaction` as attributes of `module` when it runs, so that
    replacing them on the module (to count or time calls) takes effect.
    It reads the data values x_l, x_r and celerities c_l, c_r of a problem
    from its `_sides`.
    """

    name: str  # registry key and CLI --system value
    title: str  # in messages: "the <title> system"
    module: Any
    state_type: type
    params_type: type
    problem_type: type
    star: str  # state field of the star variable; the solution's is star + "_star"
    star_label: str  # CLI label of the star value
    no_star: type  # error raised for data that leave no positive star value
    no_star_message: str
    positive: Callable[[Any], bool]  # the data leave a positive star value
    curve: str  # wave-curve function f(x, problem); its slope is <curve>_deriv
    two_rarefaction: str  # closed-form star value of both waves rarefactions
    flags: Mapping[str, str]  # CLI constant flag -> params field
    draw: Callable[[Any], Tuple[float, ...]]  # one state of the fuzz ensemble from an rng
    #: From `speed_registry`; its key order is the module's `ESTIMATORS`.
    speeds: Mapping[EstimatorId, Tuple[Callable[[Any, Any], Tuple[float, float]], bool]]
    #: S/S node of TMS_b at x_min: f with both sides on their shock branch,
    #: or None to use f(x_min) itself (blood flow, pinned by its Test 5).
    ss_shock_curve: Optional[Callable[[float, Any], float]]
    #: S/S TMS_c is the eigenvalue pair instead of the q factors at x_rr.
    ss_tms_c_eigen: bool

    @property
    def star_field(self) -> str:
        return self.star + "_star"

    def no_star_error(self) -> RiemannBoundsError:
        return self.no_star(self.no_star_message)


def wave_data(system: System, problem) -> WaveData:
    """Wave data of `problem` from the signs of the wave-curve function at
    the data values, without solving for the star state.

    Raises `ClosedFormOverflow` when x_rr or f at a node it evaluates is not
    finite or overflows while being evaluated.
    """
    k, module = problem._sides, system.module
    x_left, x_right = k.x_l, k.x_r
    right_min = x_right <= x_left
    x_min, x_max = (x_right, x_left) if right_min else (x_left, x_right)
    c_left, c_right, nan = k.c_l, k.c_r, math.nan
    if not system.positive(problem):
        return WaveData(c_left, c_right, x_min, x_max, nan, nan, nan, nan, WavePattern.VACUUM)
    curve, isfinite = getattr(module, system.curve), math.isfinite
    try:
        x_rr = getattr(module, system.two_rarefaction)(problem)
        f_min = curve(x_min, problem)
        if not (isfinite(x_rr) and isfinite(f_min)):
            raise ClosedFormOverflow(f"wave data overflows: x_rr = {x_rr}, f(x_min) = {f_min}")
        if f_min >= 0.0:
            return WaveData(c_left, c_right, x_min, x_max, f_min, nan, x_rr, nan, WavePattern.RR)
        f_max, f_rr = curve(x_max, problem), curve(x_rr, problem)
        if not (isfinite(f_max) and isfinite(f_rr)):
            raise ClosedFormOverflow(f"wave data overflows: f(x_max) = {f_max}, f(x_rr) = {f_rr}")
    except OverflowError:
        raise ClosedFormOverflow("the wave curve overflows at a wave-data node") from None
    if f_max < 0.0:
        pattern = WavePattern.SS
    else:
        pattern = WavePattern.RS if right_min else WavePattern.SR
    return WaveData(c_left, c_right, x_min, x_max, f_min, f_max, x_rr, f_rr, pattern)


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


def solve_star(
    system: System,
    problem,
    f_zero: float,
    two_shock: Optional[Callable[[float], float]],
    rel_tol: float,
) -> float:
    """Star value of a problem that has a positive one: Newton inside the
    bracket that the wave pattern gives (`star_bracket`, with f(0) given as
    `f_zero`), from the start `star_start` picks."""
    wave, module = problem._wave_data, system.module
    curve = getattr(module, system.curve)
    slope = getattr(module, system.curve + "_deriv")
    f = lambda x: curve(x, problem)  # noqa: E731
    bracket = star_bracket(wave, f, f_zero)
    return module.find_root(
        f,
        bracket,
        rel_tol=rel_tol,
        fprime=lambda x: slope(x, problem),
        x0=star_start(wave, bracket, two_shock),
    )


def star_speeds(system: System, problem, x: float) -> Tuple[float, float]:
    """(S_L, S_R) for star value x: on a side whose data value x exceeds
    the wave is a shock, u_K -/+ c_K q_K(x), otherwise a rarefaction
    headed by the eigenvalue u_K -/+ c_K."""
    left, right, params, k = problem.left, problem.right, problem.params, problem._sides
    q_factor = system.module.q_factor
    s_left = left.u - k.c_l if x <= k.x_l else left.u - k.c_l * q_factor(x, left, params)
    s_right = right.u + k.c_r if x <= k.x_r else right.u + k.c_r * q_factor(x, right, params)
    return s_left, s_right


def davis_a(system: System, problem) -> Tuple[float, float]:
    k = problem._sides
    return problem.left.u - k.c_l, problem.right.u + k.c_r


def davis_b(system: System, problem) -> Tuple[float, float]:
    k = problem._sides
    cl, cr = k.c_l, k.c_r
    return (
        min(problem.left.u - cl, problem.right.u - cr),
        max(problem.left.u + cl, problem.right.u + cr),
    )


def toro(system: System, problem) -> Tuple[float, float]:
    """Two-rarefaction estimator: the q factors at the closed form x_rr."""
    wave = problem._wave_data
    if wave.pattern is WavePattern.VACUUM:
        raise system.no_star_error()
    return star_speeds(system, problem, wave.x_rr)


def tms(system: System, problem, variant: EstimatorId) -> Tuple[float, float]:
    """Interpolation bounds TMS_a-c: the q factors at a star value from a
    chord of the wave curve (a, b) or at a data value (c)."""
    left, right, params = problem.left, problem.right, problem.params
    wave = problem._wave_data
    cl, cr = wave.c_left, wave.c_right
    if wave.pattern is WavePattern.RR:  # eigenvalue speeds are exact
        return left.u - cl, right.u + cr
    module = system.module
    x_min, x_max, x_rr = wave.x_min, wave.x_max, wave.x_rr
    f_min, f_max, f_rr = wave.f_min, wave.f_max, wave.f_rr

    if wave.pattern is not WavePattern.SS:  # the shock sits on the side of x_min
        if variant is EstimatorId.TMS_A:
            x_hat = module.interpolate_root((x_min, f_min), (x_max, f_max))
        elif variant is EstimatorId.TMS_B:
            x_hat = module.interpolate_root((x_min, f_min), (x_rr, f_rr))
        else:  # TMS_C: data value of the opposite side
            x_hat = x_max
        if wave.pattern is WavePattern.RS:
            return left.u - cl, right.u + cr * module.q_factor(x_hat, right, params)
        return left.u - cl * module.q_factor(x_hat, left, params), right.u + cr

    # S/S: both waves are shocks.  x_rr > x_max, so f_rr is on the shock
    # branch of both sides.
    if variant is EstimatorId.TMS_C and system.ss_tms_c_eigen:
        return right.u - cr, left.u + cl
    if variant is EstimatorId.TMS_A:
        x_hat = module.interpolate_root((x_max, f_max), (x_rr, f_rr))
    elif variant is EstimatorId.TMS_B:
        # The side with the larger data value extends its shock branch below it.
        if system.ss_shock_curve is not None:
            f_min = system.ss_shock_curve(x_min, problem)
        x_hat = module.interpolate_root((x_min, f_min), (x_rr, f_rr))
    else:
        x_hat = x_rr
    return (
        left.u - cl * module.q_factor(x_hat, left, params),
        right.u + cr * module.q_factor(x_hat, right, params),
    )


def speed_registry(own: Mapping) -> dict:
    """The estimators all systems share and a system's `own` ones, in
    `EstimatorId` order.  Per estimator: its speed pair, called as
    fn(system, problem), and whether `estimate` reports the wave pattern."""
    speeds = {
        EstimatorId.DAVIS_A: (davis_a, False),
        EstimatorId.DAVIS_B: (davis_b, False),
        EstimatorId.TORO: (toro, False),
        EstimatorId.TMS_A: (partial(tms, variant=EstimatorId.TMS_A), True),
        EstimatorId.TMS_B: (partial(tms, variant=EstimatorId.TMS_B), True),
        EstimatorId.TMS_C: (partial(tms, variant=EstimatorId.TMS_C), True),
        **own,
    }
    return {estimator: speeds[estimator] for estimator in EstimatorId if estimator in speeds}


def estimate(system: System, problem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) of `problem` for the requested estimator."""
    if estimator is EstimatorId.EXACT:
        sol = system.module.solve_exact(problem)
        return SpeedBounds(sol.s_left, sol.s_right, estimator, sol.pattern)
    entry = system.speeds.get(estimator)
    if entry is None:
        raise UnsupportedEstimator(
            f"{estimator.value} is not defined for the {system.title} system")
    speeds, with_pattern = entry
    pattern = None
    if with_pattern:
        pattern = system.module.classify(problem)
        if pattern is WavePattern.VACUUM:
            raise system.no_star_error()
    s_left, s_right = speeds(system, problem)
    return SpeedBounds(s_left, s_right, estimator, pattern)


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
