"""Input validation as a property.  For any floats, a state or params
constructor (called positionally or by keyword), and `make_problem` with
params overrides, either gives a record whose fields are the inputs, bit
for bit, or raises a `ValueError` whose message names the first failing
field in field order; `make_problem` checks the left state, the right
state and then the params.  The examples are derandomized and there is
no example database, so every run draws the same inputs."""

import math
import struct
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from riemann_bounds import bloodflow, core, euler, shallow

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal
#: Values at the edges of the float range and of the rules, drawn as often
#: as any other float.
EDGES = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, TINY, -TINY,
         sys.float_info.min, 2.5e-310, MAX, -MAX, 1.0, math.nextafter(1.0, 2.0), 1.4)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats())
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

#: The accepted values and the message of each rule, "{name} ... got {value}".
RULES = {
    "positive": (lambda v: 0.0 < v < math.inf, "{} must be positive and finite, got {}"),
    "finite": (math.isfinite, "{} must be finite, got {}"),
    "gamma": (lambda v: 1.0 < v < math.inf, "{} must be finite and exceed 1, got {}"),
}
#: Each state and params type and the rule of each of its fields, in order.
FIELD_RULES = {
    euler.EulerState: ("positive", "finite", "positive"),
    euler.EulerParams: ("gamma",),
    shallow.SweState: ("positive", "finite"),
    shallow.SweParams: ("positive",),
    bloodflow.BfeState: ("positive", "finite"),
    bloodflow.BfeParams: ("positive", "positive"),
}


def first_failure(cls, values) -> str | None:
    """The message for the first field of `cls` whose value its rule
    refuses, or None when every value is accepted."""
    for name, rule, value in zip(core.fields(cls), FIELD_RULES[cls], values):
        accepts, message = RULES[rule]
        if not accepts(value):
            return message.format(name, value)
    return None


def bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


def field_values(record) -> list:
    return [getattr(record, name) for name in core.fields(record)]


def check(build, expected: str | None, records_and_values):
    """`build()` raises `ValueError(expected)`, or, when nothing is
    expected to fail, returns a result whose records (from
    `records_and_values(result)`) hold their inputs bit for bit."""
    if expected is not None:
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is ValueError and str(raised.value) == expected
        return
    for record, values in records_and_values(build()):
        assert all(type(value) is float for value in field_values(record))
        assert bits(field_values(record)) == bits(values)


def test_rules_cover_every_state_and_params_type():
    types = set()
    for system in core.SYSTEMS:
        record = core.system_record(system)
        types |= {record.state_type, record.params_type}
    assert set(FIELD_RULES) == types
    assert all(len(rules) == len(core.fields(cls)) for cls, rules in FIELD_RULES.items())


@pytest.mark.parametrize("keyword", [False, True], ids=["positional", "keyword"])
@pytest.mark.parametrize("cls", FIELD_RULES, ids=lambda cls: cls.__qualname__)
@SETTINGS
@given(data=st.data())
def test_a_record_keeps_its_inputs_or_names_the_first_failing_field(cls, keyword, data):
    names = core.fields(cls)
    values = data.draw(st.tuples(*[FLOATS] * len(names)), label="values")
    build = partial(cls, **dict(zip(names, values))) if keyword else partial(cls, *values)
    check(build, first_failure(cls, values), lambda record: [(record, values)])


@pytest.mark.parametrize("system", core.SYSTEMS)
@SETTINGS
@given(data=st.data())
def test_make_problem_checks_left_right_then_params(system, data):
    record = core.system_record(system)
    state_type, params_type = record.state_type, record.params_type
    arity = len(core.fields(state_type))
    left, right, drawn = data.draw(st.tuples(
        *[st.tuples(*[FLOATS] * arity)] * 2,
        st.dictionaries(st.sampled_from(core.fields(params_type)), FLOATS)), label="data")
    overrides = dict(drawn)
    defaults = field_values(params_type())
    params = [overrides.get(name, default)
              for name, default in zip(core.fields(params_type), defaults)]
    expected = (first_failure(state_type, left) or first_failure(state_type, right)
                or first_failure(params_type, params))
    check(partial(core.make_problem, system, left, right, overrides), expected,
          lambda problem: [(problem.left, left), (problem.right, right),
                           (problem.params, params)])
