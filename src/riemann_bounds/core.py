"""System-agnostic scaffolding: wave patterns, estimator ids, the `System`
record that describes one system and the registry of the three, the
estimators shared by all systems, root finding, linear interpolation of
wave-curve functions and the Courant time step."""

from __future__ import annotations

import enum
import importlib
import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import partial
from types import ModuleType


class RiemannBoundsError(Exception):
    """Base class for all library errors."""


class InvalidBracket(RiemannBoundsError):
    """The supplied interval does not bracket a sign change, or, for
    `find_root`, f falls across it."""


class NoConvergence(RiemannBoundsError):
    """Root iteration exceeded the iteration budget."""


class DegeneratePoints(RiemannBoundsError):
    """Secant interpolation requested through degenerate points."""


class ZeroMaxSpeed(RiemannBoundsError):
    """All wave speeds are zero, or so close to it that the Courant step
    overflows; the step is unbounded."""


class VacuumData(RiemannBoundsError):
    """Euler data violating the pressure positivity condition."""


class DryBed(RiemannBoundsError):
    """Shallow-water data strong enough to dry the bed."""


class CollapseData(RiemannBoundsError):
    """Blood-flow data strong enough to collapse the vessel."""


class UnsupportedEstimator(RiemannBoundsError):
    """Estimator not defined for the requested system."""


class ClosedFormOverflow(RiemannBoundsError):
    """A closed-form value (the two-rarefaction star value, a side's
    wave-curve constants such as its sound speed), the wave-curve function
    at a node of the wave data or during the root solve, or a wave speed
    leaves the floating-point range; or a value that is positive in exact
    arithmetic (a chord root of the star value) is not a positive float
    after overflow or rounding, where a square root of it would follow."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def fields(record) -> tuple[str, ...]:
    """The field names of a record type or record, in order."""
    return record._fields


def asdict(value):
    """A record as a dict of its fields and a tuple or list item by item,
    each converted in turn; any other value as it is."""
    if hasattr(type(value), "_fields"):
        return {name: asdict(getattr(value, name)) for name in value._fields}
    return type(value)(map(asdict, value)) if isinstance(value, (tuple, list)) else value


def replace(record, **changes):
    """A record like `record` with `changes`, built (and checked) by its
    constructor, the class call."""
    return type(record)(**{**dict(zip(record._fields, _values(record))), **changes})


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({values})"


def _frozen(self, name, *value):  # __setattr__ and __delattr__
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _reduce(self):  # copies and pickles are rebuilt by the class call
    return type(self), _values(self)


def _fields_dict(self) -> dict:
    return dict(zip(self._fields, _values(self)))


def _init_subclass(cls, **kwargs):  # __init_subclass__ of a record
    record = next(base for base in cls.__mro__[1:] if "_fields" in vars(base))
    if cls.__basicsize__ != record.__basicsize__ or cls.__dictoffset__ or cls.__weakrefoffset__:
        raise TypeError(f"{cls.__qualname__}: a subclass of the record {record.__qualname__} "
                        "must declare __slots__ = (), since it is built in the record's layout")
    super(record, cls).__init_subclass__(**kwargs)


class Positive(float):
    """Field kind: a value in (0, inf), which the record's constructor checks."""


class Finite(float):
    """Field kind: a finite value, which the record's constructor checks."""


#: Per field kind, the condition that `record` writes into `__new__` and
#: the message of the `ValueError` it raises otherwise; {0} is the field.
_CHECKS = {"Positive": ("0.0 < {0} < __inf", "{0} must be positive and finite, got {{{0}}}"),
           "Finite": ("__isfinite({0})", "{0} must be finite, got {{{0}}}")}


def record(cls: type):
    """Class decorator of the package's value types:
    `dataclass(frozen=True, slots=True)` without the dataclass module, from
    the shared functions above, with a faster constructor (see README).
    The fields are the class's own annotations but `ClassVar` ones, with
    class attributes as defaults.  The one constructor is a generated
    `__new__(cls, *fields)`, which the class call, `replace`, copies and
    pickles (`__reduce__`) reach as well, and which hot callers call
    directly (`SpeedBounds.__new__(SpeedBounds, ...)`).  It checks the
    fields of a field kind (`Positive`, `Finite`) in order, allocates the
    record's twin (a class of the same bases and slots without the frozen
    `__setattr__`), stores each field and the None of each slot that a
    base declares with a plain store, which CPython 3.11+ specializes to
    `STORE_ATTR_SLOT`, makes the object a `cls`, then calls
    `__post_init__`.  A subclass of a record must declare
    `__slots__ = ()`, so that it keeps the twin's layout.  Equality
    compares field tuples, as on Python 3.10-3.12 (3.13's `dataclass`
    compares field by field).  `vars()`, where the dataclass raises, is a
    new dict of the fields in order (a read-only `__dict__` property).
    Fields other than plain positional ones raise `TypeError`."""
    namespace = {"__repr__": _repr, **cls.__dict__}  # a repr of its own is kept
    annotations = namespace.get("__annotations__", {})
    names, defaults, checks = [], [], []
    for name, annotation in annotations.items():
        if isinstance(annotation, type):  # a class, as without `__future__` annotations
            annotation = annotation.__qualname__
        kind = (annotation if isinstance(annotation, str) else repr(annotation)).partition("[")[0]
        if kind.endswith("ClassVar"):  # "typing.ClassVar", or a `__future__` string
            continue
        if (kind.endswith("InitVar") or "KW_ONLY" in kind
                or type(namespace.get(name)).__name__ == "Field"):
            raise TypeError(f"record {cls.__qualname__}: fields must be plain positional ones")
        if name in namespace:
            defaults.append(namespace[name])
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        names.append(name)
        check = _CHECKS.get(kind.rpartition(".")[2])  # "Positive", or "core.Positive"
        if check:
            checks += [f"    if not {check[0].format(name)}:",
                       f"        raise ValueError(f{check[1].format(name)!r})"]
    names = tuple(names)
    for name in ("__weakref__", *names):
        namespace.pop(name, None)  # a slot replaces its default
    twin = type(cls)(cls.__name__, cls.__bases__, {"__slots__": names,
                                                   "__qualname__": f"{cls.__qualname__}.twin"})
    namespace.update(__qualname__=cls.__qualname__, _fields=names, __slots__=names,
                     __dict__=property(_fields_dict), __eq__=_eq, __hash__=_hash,
                     __setattr__=_frozen, __delattr__=_frozen, __reduce__=_reduce,
                     __init_subclass__=_init_subclass)
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    # The slots that a base declares (a problem's two lazy slots) start as None.
    empty = [name for base in cls.__mro__[1:] for name in base.__dict__.get("__slots__", ())]
    # No field name can start with __, so the parameters and globals cannot clash.
    lines = [f"def __new__(__cls, {', '.join(names)}):", *checks,
             "    __self = __twin()",
             *[f"    __self.{name} = {name}" for name in names],
             *[f"    __self.{name} = None" for name in empty],
             "    __self.__class__ = __cls"]
    if hasattr(cls, "__post_init__"):
        lines.append("    __self.__post_init__()")
    lines.append("    return __self")
    scope = {"__inf": math.inf, "__isfinite": math.isfinite, "__twin": twin}  # what it reads
    exec(compile("\n".join(lines), "<record>", "exec"), scope)
    new = scope["__new__"]
    new.__defaults__ = tuple(defaults) or None
    # The return annotation of a dataclass's `__init__`, so that
    # `inspect.signature` of the class is the dataclass's.
    new.__annotations__ = {**{name: annotations[name] for name in names}, "return": None}
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    new.__module__ = cls.__module__
    cls.__new__ = staticmethod(new)  # as `type` wraps a `__new__` of a class body
    return cls


class WavePattern(enum.Enum):
    """Outer-wave configuration of the Riemann solution."""

    RR = "RR"
    RS = "RS"
    SR = "SR"
    SS = "SS"
    VACUUM = "Vacuum"

    # Members are unique objects compared by identity; Enum's own __hash__
    # hashes the name in Python code on every dict or set lookup.
    __hash__ = object.__hash__


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

    __hash__ = object.__hash__  # as WavePattern's


# Members that the hot paths below compare against, bound once: looking a
# member up on its Enum class costs several times a global lookup.
_RR, _RS, _SR, _SS, _VACUUM = (WavePattern.RR, WavePattern.RS, WavePattern.SR,
                               WavePattern.SS, WavePattern.VACUUM)
_TMS_A, _TMS_B, _TMS_C, _EXACT = (EstimatorId.TMS_A, EstimatorId.TMS_B,
                                  EstimatorId.TMS_C, EstimatorId.EXACT)
#: The estimators whose `SpeedBounds` carries the wave pattern, which
#: `estimate` reads from `classify`.
_WITH_PATTERN = frozenset((_TMS_A, _TMS_B, _TMS_C, EstimatorId.TMS_D, _EXACT))
_INF, _NEG_INF = math.inf, -math.inf


@record
class SpeedBounds:
    """Estimated (or exact) pair of minimal/maximal wave speeds."""

    s_left: float
    s_right: float
    estimator: EstimatorId
    pattern: WavePattern | None = None


@record
class RootBracket:
    """Interval with a sign change (or an exact root at an endpoint)."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise InvalidBracket(f"lo={self.lo} must be < hi={self.hi}, both finite")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise InvalidBracket(f"f must be finite at both endpoints: "
                                 f"f({self.lo})={self.f_lo}, f({self.hi})={self.f_hi}")
        # Signs, not the product's: f_lo * f_hi underflows to 0 for tiny values.
        if (self.f_lo > 0.0 and self.f_hi > 0.0) or (self.f_lo < 0.0 and self.f_hi < 0.0):
            raise InvalidBracket(
                f"f has the same sign at both endpoints: "
                f"f({self.lo})={self.f_lo}, f({self.hi})={self.f_hi}"
            )


@record
class WaveData:
    """Wave-curve data of one Riemann problem, computed once per problem.

    `x_min <= x_max` are the ordered data values of the star variable
    (ties resolve to (x_R, x_L)), `f_min`, `f_max` the wave-curve function
    there, `x_rr` the two-rarefaction closed form and `f_rr = f(x_rr)`.
    Values the pattern does not need, `f_max` and `f_rr` under RR, are NaN
    and were never computed.  Data that leave no positive star value have
    no wave data (see `wave_data`), so `pattern` is never VACUUM.
    """

    x_min: float
    x_max: float
    f_min: float
    f_max: float
    x_rr: float
    f_rr: float
    pattern: WavePattern


# The constructors of the records that the hot paths below build, bound once
# and called directly, without the class call (see `record`).
_new_bounds, _new_bracket, _new_wave_data = (SpeedBounds.__new__, RootBracket.__new__,
                                             WaveData.__new__)


@record
class System:
    """One hyperbolic system, described once for the shared code below, the
    registry after it (`system_record`), the fuzzer and the CLI.  The CLI's
    constant flags are not part of it: `cli` keeps them in a table of its
    own, so that its parser is built without importing any system module.

    A system module holds only its physics and `solve_exact`, and binds
    the surface written once below under its public names: `classify`,
    the wave curve and its slope (`wave_curves`), `estimate`, the
    positivity test and the two-rarefaction function, which take a problem
    alone and read this record as the problem type's `_system`; a
    module's `solve_exact` builds the `solution_type` of the problem's own
    system.  Shared code reaches `classify`, `interpolate_root`, `find_root`
    and the functions named by `curve` and `two_rarefaction` as attributes
    of `module` when it runs, so that replacing them on the module (to count
    or time calls) takes effect.  A problem's `_sides` slot holds the `side`
    records of its two states, None until the first reader builds them
    with `sides` (see `Problem`), and shared code reads a side only
    through them, `q_factor` included.  The celerity is written once per
    system, in `celerity`: the side record (blood flow's multiplies the two
    factors it keeps, with `celerity`'s bits) and `fuzz.sample_problem`
    call it.  The positivity condition and TMS_d rest on the front
    u -/+ 2c/(gamma-1) of a rarefaction into vacuum, and are written once
    for all systems, in `positivity` and `tms_d` below, from the params'
    `gamma`: Euler's ratio of specific heats, and for shallow water and
    blood flow the exponent of their pressure law P = kappa x^gamma, a
    class attribute of the params type (2 and 3/2), not a field.
    """

    name: str  # registry key and CLI --system value
    title: str  # in messages: "the <title> system"
    module: ModuleType
    state_type: type
    params_type: type
    #: The default params object: the last default of the problem type's
    #: `__new__`, shared by every problem built without overrides.
    params: object
    problem_type: type  # a `Problem` whose `_system` is this record
    #: build_problem(left, right, overrides=None) of `make_problem`, made by
    #: `problem_builder` from the state, problem and params types.
    build_problem: Callable[..., object]
    solution_type: type  # the record `solve_exact` returns
    #: Per-side record `side(state, params, sqrt=math.sqrt)`: the side's
    #: data value `x`, velocity `u`, celerity `c` and the constants its
    #: branches read; with TMS_d, the celerity `c_floor` of its vacuum front.
    side: type
    #: The celerity c_K of one state, celerity(values, params, sqrt=math.sqrt),
    #: over the state's field values in field order (a `draw`, or a side's
    #: state as scalars or arrays): the side record's `c`.  The velocity u
    #: is the second field of every state type.
    celerity: Callable[..., float]
    star: str  # state field of the star variable; the solution's is star + "_star"
    star_label: str  # CLI label of the star value
    no_star: type  # raised with no_star_message for data without a positive star value
    no_star_message: str
    curve: str  # module name of the wave curve f(x, problem); its slope is <curve>_deriv
    two_rarefaction: str  # closed-form star value of both waves rarefactions
    #: The formulas below, the per-side branches and `tms_d` evaluate numpy
    #: arrays as well as floats, for the lane kernel of `fuzz.run_fuzz`: a
    #: `sqrt` argument takes `numpy.sqrt`, and a side record may hold arrays
    #: (the params object is one for all lanes).
    #: x_rr from the two side records and the params, for data that leave
    #: a positive star value: the formula of `two_rarefaction`.
    rr_closed_form: Callable[[object, object, object], float]
    draw: Callable[[object], tuple[float, ...]]  # one state of the fuzz ensemble from an rng
    #: Each estimator id to its pair function fn(problem) -> (S_L, S_R),
    #: from `speed_registry`; its key order is the module's `ESTIMATORS`.
    #: `estimate` wraps the pair in a `SpeedBounds`; `fuzz.run_fuzz` and
    #: `tables._speed_cells` read it through `speed_function`.
    speeds: Mapping[EstimatorId, Callable[[object, object], tuple[float, float]]]
    #: One side's wave-curve term f_K(x, side, sqrt=math.sqrt) on its shock
    #: branch (taken where x exceeds the side's data value) and its
    #: rarefaction branch (at or below it), and the slopes of both;
    #: `wave_curves` composes them.
    shock: Callable[[float, object], float]
    rarefaction: Callable[[float, object], float]
    shock_slope: Callable[[float, object], float]
    rarefaction_slope: Callable[[float, object], float]
    #: Shock factor q_K(x, side, sqrt=math.sqrt): the shock speed u_K -/+ c_K q_K(x).
    q_factor: Callable[[float, object], float]
    #: `chord_start`, the Newton start of `solve_star` (scalar only), draws
    #: its chord over sqrt(x), where the wave curves of strong shocks are
    #: nearly straight, when true, and over x when false.
    sqrt_chord: bool
    #: S/S node of TMS_b at x_min: both sides on their shock branch when
    #: true, else f(x_min) itself (blood flow, pinned by its Test 5).
    ss_shock_extension: bool
    #: S/S TMS_c is the eigenvalue pair instead of the q factors at x_rr.
    ss_tms_c_eigen: bool
    #: Estimators with a proven bound property, which `fuzz.run_fuzz` checks.
    bound_estimators: tuple[EstimatorId, ...]

    def __repr__(self) -> str:
        # The field repr prints every field, the registry and module included: 2 KB.
        return f"System({self.name!r})"

    @property
    def star_field(self) -> str:
        return self.star + "_star"

    def unsupported_error(self, estimator) -> UnsupportedEstimator:
        """The error for an estimator that the registry misses: an id the
        system lacks, or a value that is no `EstimatorId` at all."""
        if not isinstance(estimator, EstimatorId):
            return UnsupportedEstimator(f"{estimator!r} is not an EstimatorId")
        return UnsupportedEstimator(
            f"{estimator.value} is not defined for the {self.title} system")


#: The module of each system, keyed by name; each module describes its
#: system once, in its `SYSTEM` record.  A module is imported by the first
#: `system_record` call for its system, so that a process imports only the
#: systems it uses.
_MODULES = {"euler": "euler", "swe": "shallow", "bfe": "bloodflow"}
#: The records of the systems imported so far, keyed by name.
_REGISTRY: dict[str, System] = {}
SYSTEMS = tuple(_MODULES)
#: The golden tables of `tables.reproduce`, which the CLI parser offers.
TABLES = ("ic", "s_left", "s_right")


def system_record(system: str) -> System:
    """`System` record of the named system; the first call for a system
    imports its module."""
    try:
        return _REGISTRY[system]
    except KeyError:
        if system not in _MODULES:
            raise ValueError(f"unknown system {system!r}") from None
    record = importlib.import_module(f"{__package__}.{_MODULES[system]}").SYSTEM
    _REGISTRY[system] = record
    return record


def system_module(system: str):
    """Solver module implementing the named system."""
    return system_record(system).module


def problem_builder(state: type, problem: type, params_type: type) -> Callable[..., object]:
    """The builder `build_problem(left, right, overrides=None)` of one
    system, made once from its state, problem and params types, which
    `make_problem` calls.  It unpacks each state's values into as many
    names as the state has fields and calls the records' generated
    `__new__` directly (see `record`): no class call, and no argument
    tuple built.  Values that do not unpack so (too many, too few, or no
    iterable) go to the class call `state(*values)` for its `TypeError`.
    Each state is built before the next is unpacked, so the errors come in
    the order left state, right state, params."""
    names = "".join(f"v{i}, " for i in range(len(state._fields)))
    lines = ["def build_problem(left, right, overrides=None):"]
    for side in ("left", "right"):
        lines += ["    try:",
                  f"        {names}= {side}",
                  "    except (TypeError, ValueError):",
                  f"        state(*{side})  # raises the class call's error",
                  "        raise",
                  f"    {side} = new_state(state, {names})"]
    lines += ["    if overrides:",
              "        return new_problem(problem, left, right, params_type(**overrides))",
              "    return new_problem(problem, left, right)"]
    scope = {"state": state, "new_state": state.__new__, "problem": problem,
             "new_problem": problem.__new__, "params_type": params_type}
    exec(compile("\n".join(lines), "<problem_builder>", "exec"), scope)
    build = scope["build_problem"]
    build.__module__ = problem.__module__
    return build


def make_problem(system: str, left: Sequence[float], right: Sequence[float],
                 params: dict[str, float] | None = None):
    """Riemann problem object for a system from plain numeric data, built
    by the system's `build_problem` (see `problem_builder`).

    Without overrides the problem keeps its class's default params object,
    `System.params`, shared by all such problems (params are frozen).
    """
    return (_REGISTRY.get(system) or system_record(system)).build_problem(left, right, params)


def star_values(system: str, solution) -> dict[str, float]:
    """Star-region values of an exact solution keyed like the reference."""
    field = system_record(system).star_field
    return {field: getattr(solution, field), "u_star": solution.u_star}


def wave_curves(system: System):
    """The wave curve f(x, problem) = f_L(x) + f_R(x) + u_R - u_L of
    `system` and its slope, composed from the per-side branches: the shock
    branch where x exceeds the side's data value, the rarefaction branch
    at or below it.  Each system module binds them under the names
    `system.curve` and `system.curve + "_deriv"`."""
    shock, rarefaction = system.shock, system.rarefaction
    shock_slope, rarefaction_slope = system.shock_slope, system.rarefaction_slope

    def curve(x: float, problem) -> float:
        left, right = problem._sides or sides(problem)
        return ((shock(x, left) if x > left.x else rarefaction(x, left))
                + (shock(x, right) if x > right.x else rarefaction(x, right))
                + (right.u - left.u))

    def slope(x: float, problem) -> float:
        left, right = problem._sides or sides(problem)
        return ((shock_slope(x, left) if x > left.x else rarefaction_slope(x, left))
                + (shock_slope(x, right) if x > right.x else rarefaction_slope(x, right)))

    for fn, name in ((curve, system.curve), (slope, system.curve + "_deriv")):
        fn.__name__ = fn.__qualname__ = name
        fn.__module__ = system.module.__name__
    return curve, slope


def side_difference(problem, x: float) -> float:
    """f_R(x) - f_L(x), the difference of the wave curve's side terms that
    u* = (u_L + u_R)/2 + (f_R(p*) - f_L(p*))/2 is computed from."""
    (left, right), system = problem._sides or sides(problem), problem._system
    return ((system.shock(x, right) if x > right.x else system.rarefaction(x, right))
            - (system.shock(x, left) if x > left.x else system.rarefaction(x, left)))


def positivity(c_left: float, c_right: float, du: float, params) -> bool:
    """The positivity condition 2 c_L/(gamma-1) + 2 c_R/(gamma-1) > du,
    du = u_R - u_L: the two vacuum fronts u_L + 2 c_L/(gamma-1) and
    u_R - 2 c_R/(gamma-1) do not cross, so the data leave a positive star
    value.  For shallow water and blood flow, 2c/(gamma-1) is 2c and 4c,
    exactly."""
    g = params.gamma
    return 2.0 * c_left / (g - 1.0) + 2.0 * c_right / (g - 1.0) > du


def positive(problem) -> bool:
    """True when the data leave a positive star value: no vacuum (Euler),
    no dry bed (shallow water), no vessel collapse (blood flow).  Each
    module binds it under its own name (`check_positivity`, `is_wet`,
    `is_open`).  It reads the problem's side records, so it raises what
    building them raises (`ClosedFormOverflow` for a side constant or a
    celerity past the float range, see `sides`)."""
    left, right = problem._sides or sides(problem)
    return positivity(left.c, right.c, right.u - left.u, problem.params)


def two_rarefaction(problem) -> float:
    """Closed-form star value assuming both waves are rarefactions, the
    system's `rr_closed_form`; each module binds it under the name in its
    record's `two_rarefaction`.  Raises the system's no-star error for data
    without a positive star value and `ClosedFormOverflow` when the value
    exceeds the float range."""
    left, right = problem._sides or sides(problem)
    params, system = problem.params, problem._system
    if not positivity(left.c, right.c, right.u - left.u, params):
        raise system.no_star(system.no_star_message)
    try:
        return system.rr_closed_form(left, right, params)
    except OverflowError:
        raise ClosedFormOverflow(f"two-rarefaction {system.star_label} overflows at "
                                 f"{params}") from None


class Problem:
    """Base of the problem types, whose `_system` each system module sets to
    its `SYSTEM`.  What every solve and estimate reads is built on first
    read and kept in a slot: `_sides`, the system's side record of each
    state (`sides`), and `_wave_data`, the problem's `wave_data`.  The
    record's constructor stores None in both, so every read of a problem
    is a plain slot read, and each reader writes `problem._sides or
    sides(problem)` (the same for the wave data).  The builder stores its
    value past the frozen `__setattr__`, through the slot's `__set__`: the
    only stores into a record after its constructor.  A build that raises
    leaves the slot None, to raise again on the next read: data without a
    positive star value raise the no-star error on each."""

    __slots__ = ("_sides", "_wave_data")


_set_sides, _set_wave_data = Problem._sides.__set__, Problem._wave_data.__set__


def sides(problem) -> tuple:
    """The side records of `problem`'s two states, built and kept in its
    `_sides` slot.  A side constant that overflows, or a celerity c that
    is not finite, raises `ClosedFormOverflow`: the one overflow rule of
    every system."""
    side, params = problem._system.side, problem.params
    try:
        value = left, right = side(problem.left, params), side(problem.right, params)
    except ArithmeticError:
        raise ClosedFormOverflow(f"a side constant overflows at {problem}") from None
    if not (math.isfinite(left.c) and math.isfinite(right.c)):
        raise ClosedFormOverflow(f"celerity overflows at {problem}: c = {left.c}, {right.c}")
    _set_sides(problem, value)
    return value


def wave_data(problem) -> WaveData:
    """Wave data of `problem` from the signs of the wave-curve function at
    the data values, without solving for the star state, built and kept
    in its `_wave_data` slot.

    The positivity condition is tested once, by the guard of the module's
    two-rarefaction function, whose no-star error this raises.  Raises
    `ClosedFormOverflow` when x_rr or f at a node it evaluates is not
    finite, or when evaluating one raises an arithmetic error (overflow, or
    a division by a product that underflowed to zero).
    """
    (left, right), system = problem._sides or sides(problem), problem._system
    x_left, x_right = left.x, right.x
    right_min = x_right <= x_left
    x_min, x_max = (x_right, x_left) if right_min else (x_left, x_right)
    curve, isfinite = getattr(system.module, system.curve), math.isfinite
    try:
        x_rr = getattr(system.module, system.two_rarefaction)(problem)
        f_min = curve(x_min, problem)
        if not (isfinite(x_rr) and isfinite(f_min)):
            raise ClosedFormOverflow(f"wave data overflows: x_rr = {x_rr}, f(x_min) = {f_min}")
        if f_min >= 0.0:
            f_max = f_rr = math.nan
            pattern = _RR
        else:
            f_max, f_rr = curve(x_max, problem), curve(x_rr, problem)
            if not (isfinite(f_max) and isfinite(f_rr)):
                raise ClosedFormOverflow(
                    f"wave data overflows: f(x_max) = {f_max}, f(x_rr) = {f_rr}")
            pattern = _SS if f_max < 0.0 else _RS if right_min else _SR
    except ArithmeticError:
        raise ClosedFormOverflow("the wave curve overflows at a wave-data node") from None
    value = _new_wave_data(WaveData, x_min, x_max, f_min, f_max, x_rr, f_rr, pattern)
    _set_wave_data(problem, value)
    return value


def classify(problem) -> WavePattern:
    """Wave pattern from the signs of the wave-curve function at the data
    values, without solving for the star state: VACUUM, from the no-star
    error of the wave data, for data that leave no positive star value."""
    try:
        return (problem._wave_data or wave_data(problem)).pattern
    except problem._system.no_star:
        return _VACUUM


def star_bracket(
    wave: WaveData, curve: Callable[[float], float], f_zero: float
) -> RootBracket:
    """Bracket of the star value that the wave pattern gives.

    RR: (0, x_min], with f(0) given as `f_zero`, so that no evaluation of
    `curve` is needed.  RS/SR: [x_min, x_max], cut down to [x_min, x_rr]
    when f(x_rr) >= 0 there.  SS: [x_max, hi], where hi starts at x_rr and
    doubles, from a positive value, while f(hi) < 0 (rounding, or a closed
    form that underflowed or is no upper bound).  Raises `NoConvergence`
    when the doubling reaches an infinite end or value of f first.
    """
    if wave.pattern is _RR:
        return _new_bracket(RootBracket, 0.0, wave.x_min, f_zero, wave.f_min)
    if wave.pattern is not _SS:
        if wave.x_min < wave.x_rr < wave.x_max and wave.f_rr >= 0.0:
            return _new_bracket(RootBracket, wave.x_min, wave.x_rr, wave.f_min, wave.f_rr)
        return _new_bracket(RootBracket, wave.x_min, wave.x_max, wave.f_min, wave.f_max)
    hi, f_hi = wave.x_rr, wave.f_rr
    if not hi > wave.x_max:
        hi, f_hi = wave.x_max, wave.f_max
    while f_hi < 0.0 and hi < math.inf:
        hi *= 2.0
        f_hi = curve(hi)
    if not (0.0 <= f_hi < math.inf and hi < math.inf):
        raise NoConvergence(f"no upper bracket for the star value above {wave.x_max}")
    return _new_bracket(RootBracket, wave.x_max, hi, wave.f_max, f_hi)


def chord_start(system: System, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of the chord through (lo, f_lo) and (hi, f_hi), drawn over
    sqrt(x) or over x as `system.sqrt_chord` picks: the Newton start of
    `solve_star` outside R/R."""
    if system.sqrt_chord:
        # sqrt(lo) may equal sqrt(hi) when the data values are one ulp apart.
        q_lo, q_hi = math.sqrt(lo), math.sqrt(hi)
        q = q_lo - (q_hi - q_lo) / (f_hi - f_lo) * f_lo
        return q * q
    return lo - (hi - lo) / (f_hi - f_lo) * f_lo


#: Relative tolerance of every star-value solve, `solve_star`'s `find_root`.
STAR_TOL = 1e-12


def solve_star(problem) -> float:
    """Star value of a problem to a relative tolerance of `STAR_TOL`: Newton
    inside the bracket that the wave pattern gives (`star_bracket`), from
    x_rr under RR, which is then the root, and otherwise from the
    `chord_start` of the bracket's end points (f_lo < f_hi in every bracket
    of `star_bracket`).  `find_root` takes a start on the bracket, its ends
    included, and replaces any other with the end with the smaller |f|.
    Raises the system's no-star error for data without a positive star
    value, and `ClosedFormOverflow` when an evaluation raises an
    arithmetic error."""
    wave, system = problem._wave_data or wave_data(problem), problem._system
    left, right = problem._sides or sides(problem)
    module = system.module
    curve = getattr(module, system.curve)
    slope = getattr(module, system.curve + "_deriv")
    f = lambda x: curve(x, problem)  # noqa: E731
    # f(0) of the RR bracket, where both sides are on their rarefaction
    # branch, without a call of `curve`
    f_zero = (system.rarefaction(0.0, left) + system.rarefaction(0.0, right) + (right.u - left.u)
              if wave.pattern is _RR else math.nan)
    try:
        bracket = star_bracket(wave, f, f_zero)
        x0 = (wave.x_rr if wave.pattern is _RR else
              chord_start(system, bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi))
        # Positional: keywords cost a dict per call.
        return module.find_root(f, bracket, lambda x: slope(x, problem), STAR_TOL, x0)
    except ArithmeticError:
        raise ClosedFormOverflow("the wave curve overflows during the root solve") from None


def _not_finite(s_left: float, s_right: float) -> ClosedFormOverflow:
    return ClosedFormOverflow(f"wave speeds are not finite: S_L = {s_left}, S_R = {s_right}")


def star_speeds(problem, x: float) -> tuple[float, float]:
    """(S_L, S_R) for star value x: on a side whose data value x exceeds
    the wave is a shock, u_K -/+ c_K q_K(x), otherwise a rarefaction
    headed by the eigenvalue u_K -/+ c_K.  Raises `ClosedFormOverflow`
    for a speed that is not finite."""
    (left, right), q_factor = problem._sides or sides(problem), problem._system.q_factor
    s_left = left.u - left.c if x <= left.x else left.u - left.c * q_factor(x, left)
    s_right = right.u + right.c if x <= right.x else right.u + right.c * q_factor(x, right)
    if not _NEG_INF < s_left < _INF > s_right > _NEG_INF:  # NaN fails every comparison
        raise _not_finite(s_left, s_right)
    return s_left, s_right


def davis_a(problem) -> tuple[float, float]:
    left, right = problem._sides or sides(problem)
    return left.u - left.c, right.u + right.c


def davis_b(problem) -> tuple[float, float]:
    left, right = problem._sides or sides(problem)
    # min(a, b) and max(a, b) without their calls, with the same result
    # (NaN and signed zeros included): the first argument unless the
    # second is strictly smaller (larger).
    a, b = left.u - left.c, right.u - right.c
    s_left = b if b < a else a
    a, b = left.u + left.c, right.u + right.c
    return s_left, b if b > a else a


def toro(problem) -> tuple[float, float]:
    """Two-rarefaction estimator: the q factors at the closed form x_rr."""
    return star_speeds(problem, (problem._wave_data or wave_data(problem)).x_rr)


def _no_chord_root(x_hat: float) -> ClosedFormOverflow:
    return ClosedFormOverflow(f"the chord root of the star value is not positive: {x_hat}")


def tms(variant: EstimatorId, problem) -> tuple[float, float]:
    """Interpolation bounds TMS_a-c: the q factors at a star value from a
    chord of the wave curve (a, b) or at a data value (c).  Raises the
    system's no-star error for data without a positive star value, and
    `ClosedFormOverflow` for a chord root that is not positive (overflow
    or rounding in the wave data) or a speed that is not finite."""
    wave, system = problem._wave_data or wave_data(problem), problem._system
    side_l, side_r = problem._sides or sides(problem)
    pattern = wave.pattern
    if pattern is _RR:  # eigenvalue speeds are exact
        s_left, s_right = side_l.u - side_l.c, side_r.u + side_r.c
    elif pattern is _SS and variant is _TMS_C and system.ss_tms_c_eigen:
        s_left, s_right = side_r.u - side_r.c, side_l.u + side_l.c
    else:
        # One star value: TMS_c's data value x_max (R/S, S/R) or x_rr (S/S), or
        # the root of a chord.  Under S/S x_rr > x_max, so f_rr is on the
        # shock branch of both sides.
        ss, module = pattern is _SS, system.module
        if variant is _TMS_C:
            x_hat = wave.x_rr if ss else wave.x_max
        elif variant is _TMS_A and not ss:
            x_hat = module.interpolate_root((wave.x_min, wave.f_min), (wave.x_max, wave.f_max))
        else:  # a chord to (x_rr, f_rr)
            node = (wave.x_max, wave.f_max) if variant is _TMS_A else (wave.x_min, wave.f_min)
            if ss and variant is _TMS_B and system.ss_shock_extension:
                # The side with the larger data value extends its shock branch below it.
                try:
                    node = (wave.x_min, system.shock(wave.x_min, side_l)
                            + system.shock(wave.x_min, side_r) + (side_r.u - side_l.u))
                except ArithmeticError:
                    raise ClosedFormOverflow("the shock branches overflow at x_min") from None
            x_hat = module.interpolate_root(node, (wave.x_rr, wave.f_rr))
        if not x_hat > 0.0:
            raise _no_chord_root(x_hat)
        # The left wave is a shock unless R/S, the right one unless S/R.
        s_left = (side_l.u - side_l.c if pattern is _RS
                  else side_l.u - side_l.c * system.q_factor(x_hat, side_l))
        s_right = (side_r.u + side_r.c if pattern is _SR
                   else side_r.u + side_r.c * system.q_factor(x_hat, side_r))
    if not _NEG_INF < s_left < _INF > s_right > _NEG_INF:
        raise _not_finite(s_left, s_right)
    return s_left, s_right


def tms_d(problem, minimum=min, maximum=max) -> tuple[float, float]:
    """The crude bound TMS_d (shallow water, blood flow): each side's
    eigenvalue against the other side's vacuum front, u -/+ 2(c - c_floor)
    /(gamma-1), the front of a rarefaction into the side record's floor
    celerity `c_floor` (0 for a dry bed).  The lane kernel passes its
    `_Lanes` as the problem and numpy's minimum and maximum.  Raises the
    no-star error of the wave data for data without a positive star value."""
    problem._wave_data or wave_data(problem)
    left, right = problem._sides or sides(problem)
    g = problem.params.gamma
    return (minimum(left.u - left.c, right.u - 2.0 * (right.c - right.c_floor) / (g - 1.0)),
            maximum(right.u + right.c, left.u + 2.0 * (left.c - left.c_floor) / (g - 1.0)))


def speed_registry(own: Mapping) -> dict:
    """The estimators all systems share and a system's `own` ones, in
    `EstimatorId` order, each mapped to its pair function
    fn(problem) -> (S_L, S_R), which reads the system from the problem.  A
    function that needs a positive star value (TORO, TMS) raises the no-star
    error of the problem's wave data, as `estimate` does."""
    speeds = {
        EstimatorId.DAVIS_A: davis_a,
        EstimatorId.DAVIS_B: davis_b,
        EstimatorId.TORO: toro,
        # Positional: a keyword partial builds a dict on every call.
        EstimatorId.TMS_A: partial(tms, EstimatorId.TMS_A),
        EstimatorId.TMS_B: partial(tms, EstimatorId.TMS_B),
        EstimatorId.TMS_C: partial(tms, EstimatorId.TMS_C),
        **own,
    }
    return {estimator: speeds[estimator] for estimator in EstimatorId if estimator in speeds}


def exact_speeds(problem) -> tuple[float, float]:
    """The pair of EXACT: the `star_speeds` at the `solve_star` value, which
    are the `s_left`, `s_right` of the module's `solve_exact`, without u*
    or a solution record."""
    return star_speeds(problem, solve_star(problem))


def estimate(problem, estimator: EstimatorId) -> SpeedBounds:
    """Wave-speed pair (S_L, S_R) of `problem` for the requested estimator
    of its system, as a `SpeedBounds` record: the public entry point.  The
    record carries the wave pattern for EXACT and TMS_a-d, from the
    module's `classify`, which answers VACUUM where the pair function then
    raises the no-star error.  Loops that read only the pair call the
    function `speed_function` resolves, once.  One registry lookup serves
    every id the registry holds; EXACT, which it never holds, or an id the
    system lacks is left to `speed_function` when it misses."""
    system = problem._system
    try:
        speeds = system.speeds.get(estimator) or speed_function(system, estimator)
    except TypeError:  # an unhashable value, which no registry holds
        raise system.unsupported_error(estimator) from None
    pattern = system.module.classify(problem) if estimator in _WITH_PATTERN else None
    s_left, s_right = speeds(problem)
    return _new_bounds(SpeedBounds, s_left, s_right, estimator, pattern)


def speed_function(
    system: System, estimator: EstimatorId
) -> Callable[[object], tuple[float, float]]:
    """The function fn(problem) -> (S_L, S_R) of `estimator` for problems
    of `system`, resolved once per loop: the pair that `estimate` returns,
    without building a `SpeedBounds` or classifying.  It is the one place
    that resolves EXACT, to `exact_speeds`, for `estimate` too; every other
    id resolves to its registry function.  Raises `UnsupportedEstimator`
    for any other value, an unhashable one included."""
    if estimator is _EXACT:
        return exact_speeds
    try:
        return system.speeds[estimator]
    except (KeyError, TypeError):
        raise system.unsupported_error(estimator) from None


def interpolate_root(p1: tuple[float, float], p2: tuple[float, float]) -> float:
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


#: Bracket ends of one sign more than this factor apart are bisected at
#: their geometric mean, so that a bracket spanning hundreds of decades
#: closes within `find_root`'s iteration budget, `_MAX_ITER`.
_GEOMETRIC_RATIO = 10.0
_MIN_NORMAL = sys.float_info.min
_MAX_ITER = 100


def _bisect(lo: float, hi: float) -> float:
    """Bisection point of the bracket lo < hi: sqrt(lo) * sqrt(hi) when
    both ends are normal positive floats more than `_GEOMETRIC_RATIO`
    apart, the midpoint otherwise.  Among subnormals `find_root`'s
    absolute floor on the width test would accept a geometric step far
    from the root."""
    if lo >= _MIN_NORMAL and hi > lo * _GEOMETRIC_RATIO:
        return math.sqrt(lo) * math.sqrt(hi)
    return 0.5 * (lo + hi)


def find_root(
    f: Callable[[float], float],
    bracket: RootBracket,
    fprime: Callable[[float], float],
    rel_tol: float = 1e-12,
    x0: float | None = None,
) -> float:
    """Root of an increasing continuous function `f` with slope `fprime`
    inside a bracket with f(lo) <= 0 <= f(hi).

    A Newton iteration started from `x0` (default: the endpoint with the
    smaller |f|) that falls back to bisection whenever a step leaves the
    current bracket.  Each iterate evaluates `f` and `fprime` once, and its
    value of `f` shrinks the bracket.  It returns at four exits: an end of
    `bracket` where f is 0; once |f| passes the residual test, the pending
    Newton correction when that lies inside the bracket and is below
    sqrt(rel_tol) * |x| or is the third one past the test, else the iterate
    when it leaves the bracket; the iterate when the bracket is narrower
    than rel_tol * |x|; and the iterate when the next one would repeat it.
    Raises `ValueError` unless 0 < rel_tol < 1, `InvalidBracket` when
    f(lo) > 0 > f(hi) (a falling f), and `NoConvergence` after `_MAX_ITER`
    iterates.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo > 0.0:
        raise InvalidBracket(f"f must increase across the bracket, but falls: "
                             f"f({lo})={f_lo} > 0 > f({hi})={f_hi}")
    f_tol = rel_tol * max(abs(f_lo), abs(f_hi))
    if x0 is not None and lo <= x0 <= hi:
        x = x0
    else:
        x = lo if abs(f_lo) <= abs(f_hi) else hi
    isfinite, sqrt_tol = math.isfinite, math.sqrt(rel_tol)
    corrections = 3  # Newton steps allowed past the residual test
    for _ in range(_MAX_ITER):
        fx, dfx = f(x), fprime(x)
        step = x - fx / dfx if dfx != 0.0 and isfinite(dfx) else math.nan
        ax = abs(x)
        if abs(fx) <= f_tol:
            # f_tol can be far above f near the root (a distant bracket
            # end), so the test can pass early.  The correction costs no
            # evaluation of f, and once it is small, Newton's quadratic
            # convergence makes the corrected value exact to rel_tol.
            if not lo < step < hi:  # NaN too
                return x
            corrections -= 1
            if corrections == 0 or abs(step - x) <= sqrt_tol * ax:
                return step
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= rel_tol * (1e-300 if ax < 1e-300 else ax):  # rel_tol * max(|x|, 1e-300)
            return x
        x_new = step if lo < step < hi else _bisect(lo, hi)
        if x_new == x:
            return x
        x = x_new
    raise NoConvergence(f"no root to rel_tol={rel_tol} within {_MAX_ITER} iterations")


def courant_dt(speeds: Iterable[SpeedBounds], dx: float, c_cfl: float) -> float:
    """Stable explicit time step dt = C_cfl * dx / S_max.

    `speeds` is any iterable of speed pairs, a generator included: it is
    read once, in one pass that checks each pair and keeps the running
    maximum of |S|.  Raises `ValueError` for a dx that is not positive and
    finite, naming it, for an empty `speeds`, and for the first speed pair
    with a NaN or infinite speed, naming its position.  Raises
    `ZeroMaxSpeed` when every speed is zero, and when S_max is so small
    that dt overflows, naming S_max: the step is never infinite.
    """
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")
    if not 0.0 < c_cfl <= 1.0:
        raise ValueError("c_cfl must lie in (0, 1]")
    # Every pair is checked before its magnitudes enter the maximum, so a
    # NaN raises instead of being skipped or kept by a comparison.  The
    # magnitudes are never negative: starting from +0.0, the running
    # maximum is the bits max() over them would give.
    s_max, i = 0.0, -1
    for i, s in enumerate(speeds):
        s_left, s_right = s.s_left, s.s_right
        if not _NEG_INF < s_left < _INF > s_right > _NEG_INF:  # NaN fails every comparison
            raise ValueError(f"speeds[{i}] is not finite: s_left={s_left}, "
                             f"s_right={s_right} ({s.estimator})")
        s_left, s_right = abs(s_left), abs(s_right)
        if s_left > s_max:
            s_max = s_left
        if s_right > s_max:
            s_max = s_right
    if i < 0:
        raise ValueError("speeds must be non-empty")
    if s_max == 0.0:
        raise ZeroMaxSpeed("all wave speeds are zero")
    dt = c_cfl * dx / s_max
    if dt == _INF:
        raise ZeroMaxSpeed(f"the Courant step overflows: S_max = {s_max!r}")
    return dt
