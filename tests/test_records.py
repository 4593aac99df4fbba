"""The package's value types are declared with `core.record`: a frozen
dataclass with a faster generated `__init__`, slotted except for the state,
params and problem types.  Each record must behave exactly like a plain
`dataclass(frozen=True)` twin with the same fields, methods and layout,
and the enums that key the estimator registry must hash by identity."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import sys
import types
from dataclasses import FrozenInstanceError, InitVar, dataclass, field
from typing import ClassVar

import pytest

import riemann_bounds
from riemann_bounds import bloodflow, core, euler, fuzz, shallow, tables
from riemann_bounds.core import EstimatorId, InvalidBracket, WavePattern, record


def package_dataclasses():
    """Every dataclass defined at module level in the package."""
    found = {}
    for info in pkgutil.walk_packages(riemann_bounds.__path__, "riemann_bounds."):
        try:
            module = importlib.import_module(info.name)
        except ImportError:
            if info.name != "riemann_bounds._kernel":  # needs numpy, an optional extra
                raise
            continue
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return found


def samples():
    """One instance of every record type, taken from real library output."""
    out = []
    for system in tables.SYSTEMS:
        record_ = tables.system_record(system)
        ref = tables.load_reference(system)["tests"][0]
        problem = tables.make_problem(system, ref["left"], ref["right"])
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


#: Source file of the methods that `dataclass` generates.
GENERATED = inspect.unwrap(dataclass(type("Probe", (), {})).__repr__).__code__.co_filename


def own_repr(cls) -> bool:
    """Whether `cls` defines its `__repr__` itself, which `dataclass` keeps."""
    return inspect.unwrap(cls.__repr__).__code__.co_filename != GENERATED


def slotted(cls) -> bool:
    """Whether `cls` keeps its fields in `__slots__`, without an instance
    `__dict__`."""
    return not cls.__dictoffset__


def twin_of(cls):
    """A plain `dataclass(frozen=True, slots=...)` with the fields, methods
    and layout of `cls`, under the same name, so that its repr is the same:
    the dataclass repr, or the one `cls` defines."""
    namespace = {"__module__": TWINS.__name__, "__qualname__": cls.__qualname__}
    if own_repr(cls):
        namespace["__repr__"] = cls.__repr__
    twin = dataclass(frozen=True, slots=slotted(cls))(type(cls.__name__, (cls,), namespace))
    setattr(TWINS, cls.__qualname__, twin)
    return twin


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


def field_values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def round_trip(through):
    """What `through(obj)` gives back: its type, field values, `vars()`
    outcome, and whether it equals `obj`."""
    def trip(obj):
        back = through(obj)
        return type(back).__qualname__, field_values(back), outcome(vars, back), back == obj
    return trip


def test_samples_cover_every_record_type():
    assert {type(s) for s in SAMPLES} == set(package_dataclasses().values())


def test_every_dataclass_is_a_record():
    # A dataclass declared with plain `dataclass(...)` gets the generated
    # __init__ that stores each field through object.__setattr__.
    slow = [name for name, cls in package_dataclasses().items()
            if cls.__init__.__code__.co_filename != "<record>"]
    assert not slow, f"declare these with core.record: {slow}"


@pytest.mark.parametrize("sample", SAMPLES, ids=IDS)
def test_matches_plain_frozen_dataclass(sample):
    cls = type(sample)
    twin = twin_of(cls)
    values = [getattr(sample, f.name) for f in dataclasses.fields(cls)]
    mine, theirs = cls(*values), twin(*values)

    assert [(f.name, f.type, f.default) for f in dataclasses.fields(mine)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(theirs)]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert slotted(twin) == slotted(cls)
    if slotted(cls):
        for target in (mine, theirs):
            with pytest.raises(TypeError):
                vars(target)
    else:
        assert vars(mine) == vars(theirs)
        assert list(vars(mine)) == [f.name for f in dataclasses.fields(cls)]
    assert outcome(dataclasses.asdict, mine) == outcome(dataclasses.asdict, theirs)
    assert outcome(dataclasses.astuple, mine) == outcome(dataclasses.astuple, theirs)
    assert repr(mine) == repr(theirs)
    assert mine == cls(*values) and mine == sample and mine != theirs
    assert outcome(hash, mine) == outcome(hash, theirs) == outcome(hash, sample)
    assert dataclasses.replace(mine) == mine
    assert field_values(dataclasses.replace(theirs)) == field_values(mine)
    first = dataclasses.fields(cls)[0].name
    assert getattr(dataclasses.replace(mine, **{first: values[0]}), first) is values[0]
    for through in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy):
        trip = round_trip(through)
        assert outcome(trip, mine) == outcome(trip, theirs)

    for target in (mine, theirs):
        with pytest.raises(FrozenInstanceError):
            setattr(target, first, values[0])
        with pytest.raises(FrozenInstanceError):
            delattr(target, first)


def test_defaults_are_kept():
    left, right = euler.EulerState(1.0, 0.0, 1.0), euler.EulerState(0.125, 0.0, 0.1)
    # Problems without explicit params share their class's default object.
    assert euler.EulerProblem(left, right).params is euler.EulerProblem(right, left).params
    assert euler.EulerProblem(left, right).params == euler.EulerParams(1.4)
    assert shallow.SweParams().g == 9.8
    assert bloodflow.BfeParams() == bloodflow.BfeParams(28209.4792, 1.05)
    assert core.SpeedBounds(1.0, 2.0, EstimatorId.TORO).pattern is None
    assert tables.CellCheck(1, "toro", 1.0, 1.0, 0.0, "ok").note == ""
    assert tables.make_problem("bfe", (1.0, 0.0), (2.0, 0.0)).params is (
        bloodflow.BfeProblem.__dataclass_fields__["params"].default)


@pytest.mark.parametrize("cls, args, error", [
    (euler.EulerState, (-1.0, 0.0, 1.0), ValueError),
    (euler.EulerState, (1.0, math.nan, 1.0), ValueError),
    (euler.EulerParams, (1.0,), ValueError),
    (shallow.SweState, (0.0, 0.0), ValueError),
    (shallow.SweParams, (math.inf,), ValueError),
    (bloodflow.BfeState, (1.0, math.inf), ValueError),
    (bloodflow.BfeParams, (1.0, -1.0), ValueError),
    (core.RootBracket, (1.0, 0.0, -1.0, 1.0), InvalidBracket),
], ids=lambda v: getattr(v, "__qualname__", None))
def test_post_init_runs(cls, args, error):
    with pytest.raises(error):
        cls(*args)
    # ... and keyword arguments reach it too.
    names = [f.name for f in dataclasses.fields(cls)]
    with pytest.raises(error):
        cls(**dict(zip(names, args)))


def test_post_init_cases_cover_every_validating_record():
    validating = {cls for cls in package_dataclasses().values() if hasattr(cls, "__post_init__")}
    covered = {args[0] for args in test_post_init_runs.pytestmark[0].args[1]}
    assert validating == covered


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
], ids=["default_factory", "init_false", "kw_only", "initvar"])
def test_unsupported_field_kinds_are_refused(body):
    with pytest.raises(TypeError, match="plain positional"):
        record(type("Bad", (), dict(body)))


def test_a_repr_the_class_defines_is_kept():
    Point = record(type("Point", (), {"__annotations__": {"x": float},
                                      "__repr__": lambda self: f"P{self.x}"}))
    assert repr(Point(2.0)) == "P2.0" and own_repr(Point)
    assert [cls.__qualname__ for cls in package_dataclasses().values()
            if own_repr(cls)] == ["System"]


@pytest.mark.parametrize("module", [euler, shallow, bloodflow], ids=lambda m: m.SYSTEM.name)
def test_bound_functions_have_a_short_repr(module):
    # The System record's dataclass repr printed every field, the registry
    # included, in the repr of each function bound to it: 2030 characters.
    for bound in (module.estimate, getattr(module, module.SYSTEM.two_rarefaction)):
        assert len(repr(bound)) < 200 and f"System({module.SYSTEM.name!r})" in repr(bound)


def test_class_variables_are_not_fields():
    for slots in (True, False):
        Point = record(slots=slots)(type("Point", (), {
            "__annotations__": {"x": float, "unit": ClassVar[str]}, "unit": "m"}))
        assert [f.name for f in dataclasses.fields(Point)] == ["x"]
        assert dataclasses.asdict(Point(2.0)) == {"x": 2.0}
        assert Point.unit == Point(2.0).unit == "m"


def test_only_the_input_types_keep_an_instance_dict():
    # vars() enumerates the states and params, and a problem keeps its
    # cached side records and wave data in its __dict__; every result
    # record is slotted.
    inputs = {cls for module in (euler, shallow, bloodflow)
              for cls in (module.SYSTEM.state_type, module.SYSTEM.params_type,
                          module.SYSTEM.problem_type)}
    records = set(package_dataclasses().values())
    assert len(inputs) == 9 and inputs < records
    assert {cls for cls in records if not slotted(cls)} == inputs
    for cls in records - inputs:
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls)), cls


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
