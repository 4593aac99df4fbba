"""The wave data of a problem (celerities, f at the data values, the
two-rarefaction value and the pattern) are computed once per problem
object and shared by the exact solve and every estimator."""

import dataclasses
import math

import pytest

from riemann_bounds import bloodflow, euler, shallow
from riemann_bounds.core import EstimatorId, WavePattern

# Per system: module, name of its wave-curve function, problem constructor,
# and data (left, right) of an S/S problem followed by RS, SR and RR ones.
SYSTEMS = {
    "euler": (
        euler, "pressure_function",
        lambda l, r: euler.EulerProblem(euler.EulerState(*l), euler.EulerState(*r)),
        [((6.0, 8.0, 460.0), (6.0, -6.0, 46.0)), ((1.0, 0.0, 1.0), (1.0, 0.0, 0.1)),
         ((1.0, 0.0, 0.01), (1.0, 0.0, 1000.0)), ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4))],
    ),
    "swe": (
        shallow, "depth_function",
        lambda l, r: shallow.SweProblem(shallow.SweState(*l), shallow.SweState(*r)),
        [((1.0, 5.0), (1.0, -5.0)), ((1.0, 0.0), (0.1, 0.0)),
         ((0.1, 0.0), (1.0, 0.0)), ((1.0, -2.0), (1.0, 2.0))],
    ),
    "bfe": (
        bloodflow, "area_function",
        lambda l, r: bloodflow.BfeProblem(bloodflow.BfeState(*l), bloodflow.BfeState(*r)),
        [((3.14, 100.0), (3.14, -100.0)), ((3.14, 0.0), (1.0, 0.0)),
         ((1.0, 0.0), (3.14, 0.0)), ((3.14, -50.0), (3.14, 50.0))],
    ),
}


def counting(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("system", SYSTEMS)
def test_estimators_reuse_the_solve(monkeypatch, system):
    module, curve, make, data = SYSTEMS[system]
    calls = counting(monkeypatch, module, curve)
    patterns = []
    for left, right in data:
        problem = make(left, right)
        patterns.append(module.solve_exact(problem).pattern)
        before = calls[0]
        for estimator in module.ESTIMATORS:
            module.estimate(problem, estimator)
        assert calls[0] == before, (patterns[-1], calls[0] - before)
    assert patterns == [WavePattern.SS, WavePattern.RS, WavePattern.SR, WavePattern.RR]


@pytest.mark.parametrize("system", SYSTEMS)
def test_tms_b_on_fresh_shock_pair(monkeypatch, system):
    module, curve, make, data = SYSTEMS[system]
    calls = counting(monkeypatch, module, curve)
    bounds = module.estimate(make(*data[0]), EstimatorId.TMS_B)
    assert bounds.pattern is WavePattern.SS
    assert calls[0] <= 3


@pytest.mark.parametrize("system", SYSTEMS)
def test_data_values_one_ulp_apart(system):
    # Mixed patterns can have a bracket [x_min, x_max] one ulp wide.
    module, _, make, _ = SYSTEMS[system]
    x = math.nextafter(1.0, 2.0)
    data = {"euler": ((1.0, 0.0, x), (1.0, 0.0, 1.0)), "swe": ((x, 0.0), (1.0, 0.0)),
            "bfe": ((x, 0.0), (1.0, 0.0))}[system]
    for left, right in (data, data[::-1]):
        star = dataclasses.astuple(module.solve_exact(make(left, right)))[0]
        assert 1.0 <= star <= x
