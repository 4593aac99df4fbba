"""The package's value types are declared with `core.record`: frozen,
slotted records with one faster generated constructor, `__new__`, built
without `dataclasses`.  Each record must behave exactly like a plain
`dataclass(frozen=True, slots=True)` twin with the same fields, methods and
layout, except that `vars()` of a record lists its fields where the twin
raises, and the enums that key the estimator registry must hash by
identity.  A problem keeps its side records and wave data in two slots of
its own, filled on first read."""

import copy
import dataclasses
import dis
import functools
import importlib
import inspect
import math
import pickle
import pkgutil
import sys
import types
import weakref
from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import ClassVar

import pytest

import riemann_bounds
from riemann_bounds import bloodflow, core, euler, fuzz, shallow, tables
from riemann_bounds.core import EstimatorId, InvalidBracket, WavePattern, WaveData, record
from test_contracts import REPRODUCERS


def package_classes():
    """Every class defined at module level in the package."""
    found = {}
    for info in pkgutil.walk_packages(riemann_bounds.__path__, "riemann_bounds."):
        try:
            module = importlib.import_module(info.name)
        except ImportError:
            if info.name != "riemann_bounds._kernel":  # needs numpy, an optional extra
                raise
            continue
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return found


def package_records():
    """Every record type of the package: the classes with a field tuple."""
    return {name: cls for name, cls in package_classes().items() if "_fields" in vars(cls)}


def samples():
    """One instance of every record type, taken from real library output."""
    out = []
    for system in core.SYSTEMS:
        record_ = core.system_record(system)
        ref = tables.load_reference(system)["tests"][0]
        problem = core.make_problem(system, ref["left"], ref["right"])
        out += [problem.left, problem.params, problem, record_.module.solve_exact(problem),
                record_.module.estimate(problem, EstimatorId.TMS_B), problem._wave_data,
                record_]
    report = tables.reproduce("euler", "s_left")
    violation = fuzz.FuzzViolation(3, "tms_b", "s_left", 1.5, 1.25, (1.0, 0.0, 1.0),
                                   (0.125, 0.0, 0.1))
    out += [core.RootBracket(0.0, 1.0, -0.5, 2.0), report, report.cells[0],
            fuzz.run_fuzz("swe", 3, 1), fuzz.FuzzReport("euler", 1, 2, (violation,)),
            violation]
    return out


# A module to hold the twins, so that pickle finds them by name.
TWINS = types.ModuleType("record_twins")
sys.modules[TWINS.__name__] = TWINS


#: A record without methods of its own: its repr is the one `record` installs.
PROBE = record(type("Probe", (), {"__annotations__": {"x": float}}))
#: What `record` installs in a record type, besides its fields' slots.
INSTALLED = {"__new__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__reduce__", "__init_subclass__", "__slots__", "_fields", "__dict__",
             "__weakref__"}


def own_repr(cls) -> bool:
    """Whether `cls` defines its `__repr__` itself, which `record` keeps."""
    return cls.__repr__ is not PROBE.__repr__


def tuple_eq(self, other):
    """The `__eq__` that `dataclass` generates on Python 3.10-3.12."""
    if other.__class__ is self.__class__:
        names = [f.name for f in dataclasses.fields(self)]
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)
    return NotImplemented


@functools.cache
def twin_of(cls):
    """A plain `dataclass(frozen=True, slots=True)` under the same name, so
    that its repr is the same, with the bases and own methods of `cls` and
    its annotations and defaults, from which `dataclass` finds the fields
    itself."""
    defaults = {name: p.default for name, p in inspect.signature(cls).parameters.items()
                if p.default is not p.empty}
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in INSTALLED and name not in core.fields(cls)}
    if own_repr(cls):
        namespace["__repr__"] = cls.__repr__
    namespace.update(defaults, __module__=TWINS.__name__, __qualname__=cls.__qualname__,
                     __annotations__=dict(vars(cls)["__annotations__"]))
    twin = dataclass(frozen=True, slots=True)(type(cls.__name__, cls.__bases__, namespace))
    if sys.version_info >= (3, 13):
        # From 3.13 on `dataclass` compares field by field; `record` pins
        # the tuple comparison of 3.10-3.12 (see `core.record`).
        twin.__eq__ = tuple_eq
    setattr(TWINS, cls.__qualname__, twin)
    return twin


def to_twin(value):
    """`value` with every record in it, also in a tuple, list or dict, made
    a twin: the value a twin holds where a record holds `value`."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(to_twin, value))
    if isinstance(value, dict):
        return {key: to_twin(item) for key, item in value.items()}
    if hasattr(type(value), "_fields"):
        return twin_of(type(value))(*[to_twin(getattr(value, name))
                                      for name in core.fields(value)])
    return value


SAMPLES = samples()
IDS = [f"{type(s).__module__.split('.')[-1]}.{type(s).__qualname__}" for s in SAMPLES]


def outcome(fn, obj):
    """fn(obj), or the type of the error it raises: a System holds its
    module, which can be neither pickled nor deep-copied, and dicts, which
    cannot be hashed."""
    try:
        return fn(obj)
    except TypeError as exc:
        return type(exc)


def astuple(obj) -> tuple:
    """`dataclasses.astuple` of a record, over `core.fields`, sharing the
    values that are not records or tuples or lists, as `core.asdict` does."""
    def plain(value):
        if isinstance(value, (tuple, list)):
            return type(value)(map(plain, value))
        return astuple(value) if hasattr(type(value), "_fields") else value
    return tuple(plain(getattr(obj, name)) for name in core.fields(obj))


def shallow_asdict(obj) -> dict:
    """A record's fields and their values, in field order."""
    return {name: getattr(obj, name) for name in core.fields(obj)}


def vars_outcome(obj):
    """The outcome of `vars(obj)`, with records made twins.  A record lists
    its fields, where its twin raises `TypeError`: the one documented
    difference from the twins, pinned by
    `test_vars_of_states_and_params_lists_their_fields`.  Here it reads as
    the twin's outcome once the dict is checked."""
    if hasattr(type(obj), "_fields"):
        assert vars(obj) == shallow_asdict(obj)
        return TypeError
    return outcome(lambda o: to_twin(vars(o)), obj)


def round_trip(through, names):
    """What `through(obj)` gives back: its type, the values of the fields
    `names` and its `vars()` outcome, with records made twins, and whether
    it equals `obj`."""
    def trip(obj):
        back = through(obj)
        return (type(back).__qualname__, [to_twin(getattr(back, name)) for name in names],
                vars_outcome(back), back == obj)
    return trip


def test_samples_cover_every_record_type():
    assert {type(s) for s in SAMPLES} == set(package_records().values())


def test_every_dataclass_is_a_record():
    # A class declared with plain `dataclass(...)` gets the generated
    # __init__ that stores each field through object.__setattr__, and
    # importing `dataclasses` costs a cold call 7-11 ms.
    plain = [name for name, cls in package_classes().items() if dataclasses.is_dataclass(cls)]
    assert not plain, f"declare these with core.record: {plain}"
    slow = [name for name, cls in package_records().items()
            if cls.__new__.__code__.co_filename != "<record>"]
    assert not slow, f"declare these with core.record: {slow}"


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_matches_plain_frozen_dataclass(sample):
    cls = type(sample)
    twin = twin_of(cls)
    names = core.fields(cls)
    values = [getattr(sample, name) for name in names]
    mine, theirs = cls(*values), twin(*to_twin(values))

    defaults = inspect.signature(cls).parameters
    assert core.fields(mine) == names
    assert [(name, cls.__annotations__[name], defaults[name].default) for name in names] == [
        (f.name, f.type, inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default) for f in dataclasses.fields(theirs)]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__slots__ == twin.__slots__ == names
    with pytest.raises(TypeError):
        vars(theirs)
    assert vars_outcome(mine) is TypeError
    # `core.asdict` shares the values `dataclasses.asdict` deep-copies.
    assert outcome(lambda obj: copy.deepcopy(core.asdict(obj)), mine) == outcome(
        dataclasses.asdict, theirs)
    assert outcome(lambda obj: copy.deepcopy(astuple(obj)), mine) == outcome(
        dataclasses.astuple, theirs)
    assert repr(mine) == repr(theirs)
    assert mine == cls(*values) and mine == sample and mine != theirs
    assert outcome(hash, mine) == outcome(hash, theirs) == outcome(hash, sample)
    assert core.replace(mine) == mine
    replaced = dataclasses.replace(theirs)
    assert [getattr(replaced, name) for name in names] == to_twin(values)
    first = names[0]
    assert getattr(core.replace(mine, **{first: values[0]}), first) is values[0]
    for through in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy):
        trip = round_trip(through, names)
        assert outcome(trip, mine) == outcome(trip, theirs)

    messages = []
    for target, error in ((mine, core.FrozenInstanceError),
                          (theirs, dataclasses.FrozenInstanceError)):
        with pytest.raises(error) as assigned:
            setattr(target, first, values[0])
        with pytest.raises(error) as deleted:
            delattr(target, first)
        messages.append((str(assigned.value), str(deleted.value)))
    assert messages[0] == messages[1]
    assert issubclass(core.FrozenInstanceError, AttributeError)


def test_equality_compares_field_tuples():
    # As `dataclass` on Python 3.10-3.12: a tuple comparison, where a field
    # that is the same object on both sides is equal even when it is a NaN.
    nan = float("nan")
    wave = WaveData(0.0, 1.0, nan, nan, nan, nan, WavePattern.VACUUM)
    assert wave == copy.copy(wave) == WaveData(*astuple(wave))
    assert wave != WaveData(0.0, 1.0, float("nan"), nan, nan, nan, WavePattern.VACUUM)
    assert hash(wave) == hash(astuple(wave))


def test_defaults_are_kept():
    left, right = euler.EulerState(1.0, 0.0, 1.0), euler.EulerState(0.125, 0.0, 0.1)
    # Problems without explicit params share their class's default object.
    assert euler.EulerProblem(left, right).params is euler.EulerProblem(right, left).params
    assert euler.EulerProblem(left, right).params == euler.EulerParams(1.4)
    assert shallow.SweParams().g == 9.8
    assert bloodflow.BfeParams() == bloodflow.BfeParams(28209.4792, 1.05)
    assert core.SpeedBounds(1.0, 2.0, EstimatorId.TORO).pattern is None
    assert tables.CellCheck(1, "toro", 1.0, 1.0, 0.0, "ok").note == ""
    assert core.make_problem("bfe", (1.0, 0.0), (2.0, 0.0)).params is (
        inspect.signature(bloodflow.BfeProblem).parameters["params"].default)


#: Arguments that a record refuses, by the check of a field kind or in its
#: own `__post_init__`, and the error it raises.
REFUSED = [
    (euler.EulerState, (-1.0, 0.0, 1.0), ValueError),
    (euler.EulerState, (1.0, math.nan, 1.0), ValueError),
    (euler.EulerParams, (1.0,), ValueError),
    (shallow.SweState, (0.0, 0.0), ValueError),
    (shallow.SweParams, (math.inf,), ValueError),
    (bloodflow.BfeState, (1.0, math.inf), ValueError),
    (bloodflow.BfeParams, (1.0, -1.0), ValueError),
    (core.RootBracket, (1.0, 0.0, -1.0, 1.0), InvalidBracket),
]


@pytest.mark.parametrize("cls, args, error", REFUSED,
                         ids=lambda v: getattr(v, "__qualname__", None))
def test_post_init_runs(cls, args, error):
    with pytest.raises(error):
        cls(*args)
    # ... and keyword arguments reach it too.
    names = core.fields(cls)
    with pytest.raises(error):
        cls(**dict(zip(names, args)))


@pytest.mark.parametrize("cls, args, error", REFUSED,
                         ids=lambda v: getattr(v, "__qualname__", None))
def test_a_direct_constructor_call_refuses_as_the_class_call(cls, args, error):
    # The hot paths call `cls.__new__(cls, ...)` without the class call:
    # the same checks and `__post_init__` run, with the same error.
    raised = []
    for build in (cls, functools.partial(cls.__new__, cls)):
        with pytest.raises(error) as refused:
            build(*args)
        raised.append((type(refused.value), str(refused.value)))
    assert raised[0] == raised[1]


def test_post_init_cases_cover_every_validating_record():
    # A record validates in a `__post_init__` of its own, or in the checks
    # that `record` writes into `__new__` for its fields of a field kind.
    validating = {cls for cls in package_records().values()
                  if hasattr(cls, "__post_init__")
                  or any(cls.__annotations__[name] in core._CHECKS for name in core.fields(cls))}
    covered = {args[0] for args in test_post_init_runs.pytestmark[0].args[1]}
    assert validating == covered
    assert sorted(cls.__qualname__ for cls in validating
                  if hasattr(cls, "__post_init__")) == ["EulerParams", "RootBracket"]


@pytest.mark.parametrize("kinds", [(core.Positive, core.Finite), ("Positive", "core.Finite")],
                         ids=["classes", "strings"])
def test_fields_of_a_kind_are_checked_in_field_order(kinds):
    # Class objects, as without `__future__` annotations, and strings,
    # bare or qualified; a field of another annotation is not checked, and
    # `__post_init__` runs after the checks.
    ran = []
    Point = record(type("Point", (), {
        "__annotations__": {"x": kinds[0], "y": kinds[1], "z": float},
        "__post_init__": lambda self: ran.append(self.z)}))
    assert core.fields(Point(5e-324, -0.0, math.nan)) == ("x", "y", "z") and len(ran) == 1
    for args, message in [((-0.0, math.nan, 0.0), "x must be positive and finite, got -0.0"),
                          ((math.inf, 0.0, 0.0), "x must be positive and finite, got inf"),
                          ((1.0, -math.inf, 0.0), "y must be finite, got -inf")]:
        with pytest.raises(ValueError) as raised:
            Point(*args)
        assert str(raised.value) == message
    assert len(ran) == 1


def test_wrong_arguments_raise_type_error():
    with pytest.raises(TypeError):
        euler.EulerState(1.0, 0.0)
    with pytest.raises(TypeError):
        euler.EulerState(1.0, 0.0, 1.0, 2.0)
    with pytest.raises(TypeError):
        euler.EulerState(1.0, 0.0, p=1.0, rho=2.0)


@pytest.mark.parametrize("body", [
    {"__annotations__": {"x": float, "y": list}, "y": field(default_factory=list)},
    {"__annotations__": {"x": float, "y": float}, "y": field(default=0.0, init=False)},
    {"__annotations__": {"x": float, "y": float}, "y": field(kw_only=True)},
    {"__annotations__": {"x": float, "y": InitVar[float]}},
    {"__annotations__": {"x": float, "_": KW_ONLY, "y": float}},
    # Under `from __future__ import annotations`, as in the package's modules.
    {"__annotations__": {"x": "float", "y": "InitVar[float]"}},
    {"__annotations__": {"x": "float", "_": "dataclasses.KW_ONLY", "y": "float"}},
], ids=["default_factory", "init_false", "kw_only", "initvar", "kw_only_marker",
        "initvar_string", "kw_only_marker_string"])
def test_unsupported_field_kinds_are_refused(body):
    with pytest.raises(TypeError, match="plain positional"):
        record(type("Bad", (), dict(body)))


def test_a_field_without_default_after_one_with_is_refused():
    body = {"__annotations__": {"x": float, "y": float}, "x": 0.0}
    for make in (dataclass(frozen=True), record):
        with pytest.raises(TypeError, match="non-default argument 'y' follows default"):
            make(type("Bad", (), dict(body)))


def test_a_repr_the_class_defines_is_kept():
    Point = record(type("Point", (), {"__annotations__": {"x": float},
                                      "__repr__": lambda self: f"P{self.x}"}))
    assert repr(Point(2.0)) == "P2.0" and own_repr(Point)
    assert [cls.__qualname__ for cls in package_records().values()
            if own_repr(cls)] == ["System"]


def test_class_variables_are_not_fields():
    Point = record(type("Point", (), {
        "__annotations__": {"x": float, "unit": ClassVar[str]}, "unit": "m"}))
    assert core.fields(Point) == ("x",)
    assert core.asdict(Point(2.0)) == {"x": 2.0}
    assert Point.unit == Point(2.0).unit == "m"
    # ... also under `from __future__ import annotations`.
    Point = record(type("Point", (), {
        "__annotations__": {"x": "float", "unit": "typing.ClassVar[str]"}, "unit": "m"}))
    assert core.fields(Point) == ("x",) and Point(2.0).unit == "m"


#: The ids of `SAMPLES` by class name alone; pytest numbers repeated ones.
NAME_IDS = [type(sample).__qualname__ for sample in SAMPLES]


@pytest.mark.parametrize("sample", SAMPLES, ids=NAME_IDS)
def test_a_direct_constructor_call_builds_what_the_class_call_builds(sample):
    cls, names = type(sample), core.fields(sample)
    values = [getattr(sample, name) for name in names]
    direct, called = cls.__new__(cls, *values), cls(*values)
    assert type(direct) is cls and direct == called == sample
    assert all(getattr(direct, name) is value for name, value in zip(names, values))
    if isinstance(sample, core.Problem):
        assert filled(direct) == [] and filled(called) == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="adaptive instructions from 3.11 on")
@pytest.mark.parametrize("sample", SAMPLES, ids=NAME_IDS)
def test_constructor_stores_specialize_to_slot_stores(sample):
    # Each field and lazy slot is stored into the twin, whose generic
    # `__setattr__` lets the store specialize; only the one `__class__`
    # store, which makes the twin a record, stays generic.
    if sys.gettrace() is not None:
        pytest.skip("under a trace function 3.11 runs only unspecialized instructions")
    cls = type(sample)
    values = [getattr(sample, name) for name in core.fields(sample)]
    new = cls.__new__
    for _ in range(100):
        new(cls, *values)
    stores = [(instruction.argval, instruction.opname)
              for instruction in dis.get_instructions(new, adaptive=True)
              if instruction.opname.startswith("STORE_ATTR")]
    slots = (*core.fields(cls), *(LAZY if isinstance(sample, core.Problem) else ()))
    assert stores[:-1] == [(name, "STORE_ATTR_SLOT") for name in slots]
    assert stores[-1][0] == "__class__"


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_a_subclass_without_slots_of_its_own_builds_to_its_type(system):
    plain = sod_like(system)
    sub = type("Sub", (type(plain),), {"__slots__": ()})
    for built in (sub(plain.left, plain.right), sub.__new__(sub, plain.left, plain.right)):
        assert type(built) is sub and filled(built) == []
        assert vars(built) == vars(plain) and built.params is plain.params
        assert core.classify(built) is core.classify(plain)
        with pytest.raises(core.FrozenInstanceError):
            built.left = plain.right


@pytest.mark.parametrize("body", [{}, {"__slots__": ("extra",)},
                                  {"__slots__": ("__weakref__",)}, {"__slots__": ("__dict__",)}],
                         ids=["dict", "slot", "weakref", "dict_slot"])
def test_a_subclass_that_adds_to_the_layout_is_refused(body):
    # Its instances could not be built as the record's twin.
    for base in (core.SpeedBounds, euler.EulerProblem):
        with pytest.raises(TypeError, match=r"must declare __slots__ = \(\)"):
            type("Sub", (base,), dict(body))


def test_every_record_is_slotted():
    # The slots are the fields; a problem's base adds its two lazy slots.
    for cls in package_records().values():
        assert not cls.__dictoffset__ and cls.__slots__ == core.fields(cls), cls
        assert "__weakref__" not in dir(cls), cls
    for module in (euler, shallow, bloodflow):
        assert module.SYSTEM.problem_type.__bases__ == (core.Problem,)
    assert core.Problem.__slots__ == ("_sides", "_wave_data")


@pytest.mark.parametrize("sample", SAMPLES, ids=NAME_IDS)
def test_vars_of_states_and_params_lists_their_fields(sample):
    # Every record, though the name speaks of the states and params, which
    # the benchmark's workloads enumerate with vars(): the fields in order,
    # as a shallow `core.asdict`, in a new dict on each call that does not
    # write through.
    names = core.fields(sample)
    listed = vars(sample)
    assert list(listed) == list(names)
    assert list(listed.values()) == [getattr(sample, name) for name in names]
    assert listed == shallow_asdict(sample)
    assert vars(sample) is not listed and sample.__dict__ is not listed
    listed[names[0]] = -1.0
    assert vars(sample) != listed and getattr(sample, names[0]) != -1.0


@pytest.mark.parametrize("sample", SAMPLES, ids=NAME_IDS)
def test_slotted_inputs(sample):
    # Every record, though the name speaks of the inputs.
    cls, names = type(sample), core.fields(sample)
    values = [getattr(sample, name) for name in names]
    assert not cls.__dictoffset__
    with pytest.raises(TypeError):
        weakref.ref(sample)
    for name in (*names, "__dict__", "other"):
        with pytest.raises(core.FrozenInstanceError):
            setattr(sample, name, 1.0)
    with pytest.raises(core.FrozenInstanceError):
        delattr(sample, names[0])
    assert [getattr(sample, name) for name in names] == values
    for through in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy,
                    core.replace):
        back = outcome(through, sample)
        if back is TypeError:  # a System holds its module
            assert isinstance(sample, core.System) and through is not copy.copy
            continue
        assert type(back) is cls and back == sample
        assert outcome(hash, back) == outcome(hash, sample)
        assert [getattr(back, name) for name in names] == values
        assert vars(back) == vars(sample)
    if isinstance(values[0], float):
        changed = core.replace(sample, **{names[0]: 2.0 * values[0]})
        assert type(changed) is cls and getattr(changed, names[0]) == 2.0 * values[0]
        assert [getattr(changed, name) for name in names[1:]] == values[1:]


#: Per system: a reproducer of tests/test_contracts.py, and the lazy slot
#: whose build raises `ClosedFormOverflow` on its problem.
FAILING_BUILDS = {
    "euler": ("euler-sound-speed-overflow", "_sides"),
    "swe": ("swe-wave-data-underflow", "_wave_data"),
    "bfe": ("bfe-side-constants-overflow", "_sides"),
}
LAZY = ("_sides", "_wave_data")
#: A public reader of each lazy slot, which builds it while it is None.
READERS = {"_sides": core.positive, "_wave_data": core.classify}


def sod_like(system):
    """The problem of the first golden row of `system`."""
    row = tables.load_reference(system)["tests"][0]
    return core.make_problem(system, row["left"], row["right"])


def filled(problem) -> list:
    """The lazy slots of `problem` that hold a value; a read of a slot is a
    plain read, which builds nothing."""
    return [name for name in LAZY if getattr(problem, name) is not None]


def side_values(side) -> list:
    return [getattr(side, name) for name in type(side).__slots__]


#: Per system: the left and right state values that `make_problem` builds
#: (a signed zero and a subnormal among them), and params overrides.
BUILDS = {"euler": ((1.0, -0.0, 1.0), (5e-324, 2.5, 0.1), {"gamma": 5.0 / 3.0}),
          "swe": ((1.0, -0.0), (5e-324, 2.5), {"g": 1.0}),
          "bfe": ((1.0, -0.0), (5e-324, 2.5), {"beta": 1e4})}


def bits(problem) -> list:
    """The type of a problem and of its states and params, and the type and
    bits of each of their fields."""
    return [type(problem)] + [
        (type(part), [(type(value), value.hex()) for value in shallow_asdict(part).values()])
        for part in (problem.left, problem.right, problem.params)]


@pytest.mark.parametrize("sequence", [tuple, list])
@pytest.mark.parametrize("system", core.SYSTEMS)
def test_make_problem_builds_what_the_class_calls_build(system, sequence):
    # The system's `build_problem` calls the records' `__new__` directly.
    record = core.system_record(system)
    state, problem_type = record.state_type, record.problem_type
    left, right, overrides = BUILDS[system]
    left, right = sequence(left), sequence(right)
    built = core.make_problem(system, left, right)
    assert bits(built) == bits(problem_type(state(*left), state(*right)))
    assert filled(built) == [] and built.params is record.params
    built = core.make_problem(system, left, right, overrides)
    assert bits(built) == bits(problem_type(state(*left), state(*right),
                                            record.params_type(**overrides)))
    assert filled(built) == []


@pytest.mark.parametrize("sequence", [tuple, list])
@pytest.mark.parametrize("system", core.SYSTEMS)
def test_make_problem_refuses_a_wrong_count_as_the_class_call(system, sequence):
    state, good = core.system_record(system).state_type, sequence(BUILDS[system][0])
    for values in (sequence([*good, 1.0]), sequence(good[:-1])):
        with pytest.raises(TypeError) as expected:
            state(*values)
        for left, right in ((values, good), (good, values)):
            with pytest.raises(TypeError) as raised:
                core.make_problem(system, left, right)
            assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_problem_slots_are_built_once(system, monkeypatch):
    builds = []
    build = core.wave_data
    monkeypatch.setattr(core, "wave_data", lambda problem: builds.append(problem) or build(problem))
    problem = sod_like(system)
    assert filled(problem) == []
    assert READERS["_sides"](problem)
    sides = problem._sides
    assert filled(problem) == ["_sides"]
    module = core.system_module(system)
    READERS["_wave_data"](problem)
    wave = problem._wave_data
    assert filled(problem) == list(LAZY)
    module.solve_exact(problem)
    for estimator in module.ESTIMATORS:
        module.estimate(problem, estimator)
    assert problem._sides is sides and problem._wave_data is wave
    assert module.classify(problem) is wave.pattern
    assert builds == [problem] and filled(problem) == list(LAZY)


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_a_build_that_raises_leaves_its_slot_empty(system):
    name, failing = FAILING_BUILDS[system]
    problem = core.replace(REPRODUCERS[name][1])  # a copy, with empty slots
    for _ in range(2):
        with pytest.raises(core.ClosedFormOverflow):
            READERS[failing](problem)
        assert failing not in filled(problem)
    # The wave data read the side records first, when those build.
    assert filled(problem) == ([] if failing == "_sides" else ["_sides"])


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_other_names_raise_the_standard_attribute_error(system):
    problem = sod_like(system)
    with pytest.raises(AttributeError) as raised:
        problem.nope
    message = f"{type(problem).__name__!r} object has no attribute 'nope'"
    assert type(raised.value) is AttributeError and str(raised.value) == message
    assert raised.value.name == "nope" and raised.value.obj is problem
    assert not hasattr(problem, "nope")
    assert filled(problem) == []


def test_no_problem_type_hooks_attribute_reads():
    # A class-level `__getattr__` or `__getattribute__` anywhere above a
    # problem type keeps every read of a problem off the specialized path.
    for system in core.SYSTEMS:
        for cls in core.system_record(system).problem_type.__mro__[:-1]:  # object's is generic
            assert "__getattr__" not in vars(cls) and "__getattribute__" not in vars(cls), cls


@pytest.mark.skipif(sys.version_info < (3, 11), reason="adaptive instructions from 3.11 on")
@pytest.mark.parametrize("system", core.SYSTEMS)
def test_problem_reads_specialize_to_slot_reads(system):
    if sys.gettrace() is not None:
        pytest.skip("under a trace function 3.11 runs only unspecialized instructions")
    scope: dict = {}
    exec("def read(p):\n    return p.left, p._sides, p.params", scope)  # a fresh code object
    read, problem = scope["read"], sod_like(system)
    for _ in range(100):
        read(problem)
    loads = [instruction.opname for instruction in dis.get_instructions(read, adaptive=True)
             if instruction.opname.startswith("LOAD_ATTR")]
    assert loads == ["LOAD_ATTR_SLOT"] * 3


@pytest.mark.parametrize("system", core.SYSTEMS)
def test_copies_of_a_problem_come_back_with_empty_slots(system):
    problem = sod_like(system)
    module = core.system_module(system)
    module.classify(problem)
    sides, wave = problem._sides, problem._wave_data
    for through in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy,
                    core.replace):
        back = through(problem)
        assert type(back) is type(problem) and back == problem
        assert filled(back) == [] and filled(problem) == list(LAZY)
        module.classify(back)
        assert back._wave_data == wave and back._sides is not sides
        assert [side_values(side) for side in back._sides] == list(map(side_values, sides))
    with pytest.raises(TypeError):
        weakref.ref(problem)


@pytest.mark.parametrize("enum", [WavePattern, EstimatorId])
def test_enum_members_hash_by_identity(enum):
    members = list(enum)
    table = {member: member.value for member in members}
    assert [table[enum(member.value)] for member in members] == [m.value for m in members]
    assert set(members) == {enum[m.name] for m in members} and len(set(members)) == len(members)
    for member in members:
        assert hash(member) == object.__hash__(member)
        assert pickle.loads(pickle.dumps(member)) is member
        assert pickle.loads(pickle.dumps({member: 1})) == {member: 1}
    assert EstimatorId("tms_a") is EstimatorId.TMS_A
    assert EstimatorId.TMS_A in euler.SYSTEM.speeds and EstimatorId.TMS_D not in euler.SYSTEM.speeds
