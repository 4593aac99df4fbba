"""States and physical constants must be finite: NaN and infinite values
are rejected when the dataclass is built."""

import math

import pytest

from riemann_bounds.bloodflow import BfeParams, BfeState
from riemann_bounds.euler import EulerParams, EulerState
from riemann_bounds.shallow import SweParams, SweState

# Per dataclass: its valid keyword arguments.
VALID = {
    EulerState: {"rho": 1.0, "u": 0.0, "p": 1.0},
    EulerParams: {"gamma": 1.4},
    SweState: {"h": 1.0, "u": 0.0},
    SweParams: {"g": 9.8},
    BfeState: {"a": 3.14, "u": 0.0},
    BfeParams: {"beta": 28209.4792, "rho": 1.05},
}

CASES = [(cls, name) for cls, kwargs in VALID.items() for name in kwargs]


@pytest.mark.parametrize("cls, field", CASES, ids=[f"{c.__name__}.{f}" for c, f in CASES])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_field_rejected(cls, field, value):
    cls(**VALID[cls])  # the valid values are accepted
    with pytest.raises(ValueError, match=field):
        cls(**dict(VALID[cls], **{field: value}))
