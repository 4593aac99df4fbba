"""The wave data of a problem (celerities, f at the data values, the
two-rarefaction value and the pattern) are computed once per problem
object and shared by the exact solve and every estimator."""

import dataclasses
import math
import random

import pytest

from riemann_bounds import bloodflow, euler, shallow, tables
from riemann_bounds.core import (
    ClosedFormOverflow,
    EstimatorId,
    UnsupportedEstimator,
    WavePattern,
)
from riemann_bounds.fuzz import sample_problem


# Textbook wave-curve branches (f_K, f_K') of one side K, written out from
# the formulas with no precomputed constant.


def euler_side(p, s, params):
    # Toro (2009), eqs. (4.6)-(4.7) and (4.37)
    g = params.gamma
    if p > s.p:
        ak = 2.0 / ((g + 1.0) * s.rho)
        bk = (g - 1.0) / (g + 1.0) * s.p
        root = math.sqrt(ak / (p + bk))
        return (p - s.p) * root, root * (1.0 - 0.5 * (p - s.p) / (p + bk))
    ck = math.sqrt(g * s.p / s.rho)
    return (2.0 * ck / (g - 1.0) * ((p / s.p) ** ((g - 1.0) / (2.0 * g)) - 1.0),
            (p / s.p) ** (-(g + 1.0) / (2.0 * g)) / (s.rho * ck))


def swe_side(h, s, params):
    g = params.g
    if h > s.h:
        root = math.sqrt(0.5 * g * (1.0 / h + 1.0 / s.h))
        return ((h - s.h) * math.sqrt(0.5 * g * (h + s.h) / (h * s.h)),
                root - 0.25 * g * (h - s.h) / (h * h * root))
    return 2.0 * (math.sqrt(g * h) - math.sqrt(g * s.h)), math.sqrt(g / h)


def bfe_side(a, s, params):
    zeta = math.sqrt(params.beta / (2.0 * params.rho))
    gamma_tube = params.beta / (3.0 * params.rho)
    if a < s.a:
        return 4.0 * zeta * (a**0.25 - s.a**0.25), zeta * a**-0.75
    n = (a - s.a) * (a**1.5 - s.a**1.5)
    f = math.sqrt(gamma_tube * (a - s.a) * (a**1.5 - s.a**1.5) / (a * s.a))
    if n == 0.0:
        return f, zeta * a**-0.75
    dn = (a**1.5 - s.a**1.5) + 1.5 * (a - s.a) * a**0.5
    q = gamma_tube * n / (a * s.a)
    dq = gamma_tube * (dn / (a * s.a) - n / (a * a * s.a))
    return f, 0.5 * dq / math.sqrt(q)


# Per system: module, name of its wave-curve function, problem constructor,
# data (left, right) of an S/S problem followed by RS, SR and RR ones, the
# textbook side branches, and the name of the star variable.
SYSTEMS = {
    "euler": (
        euler, "pressure_function",
        lambda l, r: euler.EulerProblem(euler.EulerState(*l), euler.EulerState(*r)),
        [((6.0, 8.0, 460.0), (6.0, -6.0, 46.0)), ((1.0, 0.0, 1.0), (1.0, 0.0, 0.1)),
         ((1.0, 0.0, 0.01), (1.0, 0.0, 1000.0)), ((1.0, -2.0, 0.4), (1.0, 2.0, 0.4))],
        euler_side, "p",
    ),
    "swe": (
        shallow, "depth_function",
        lambda l, r: shallow.SweProblem(shallow.SweState(*l), shallow.SweState(*r)),
        [((1.0, 5.0), (1.0, -5.0)), ((1.0, 0.0), (0.1, 0.0)),
         ((0.1, 0.0), (1.0, 0.0)), ((1.0, -2.0), (1.0, 2.0))],
        swe_side, "h",
    ),
    "bfe": (
        bloodflow, "area_function",
        lambda l, r: bloodflow.BfeProblem(bloodflow.BfeState(*l), bloodflow.BfeState(*r)),
        [((3.14, 100.0), (3.14, -100.0)), ((3.14, 0.0), (1.0, 0.0)),
         ((1.0, 0.0), (3.14, 0.0)), ((3.14, -50.0), (3.14, 50.0))],
        bfe_side, "a",
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
    module, curve, make, data, _, _ = SYSTEMS[system]
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
    module, curve, make, data, _, _ = SYSTEMS[system]
    calls = counting(monkeypatch, module, curve)
    bounds = module.estimate(make(*data[0]), EstimatorId.TMS_B)
    assert bounds.pattern is WavePattern.SS
    assert calls[0] <= 3


@pytest.mark.parametrize("system", SYSTEMS)
def test_data_values_one_ulp_apart(system):
    # Mixed patterns can have a bracket [x_min, x_max] one ulp wide.
    module, _, make, _, _, _ = SYSTEMS[system]
    x = math.nextafter(1.0, 2.0)
    data = {"euler": ((1.0, 0.0, x), (1.0, 0.0, 1.0)), "swe": ((x, 0.0), (1.0, 0.0)),
            "bfe": ((x, 0.0), (1.0, 0.0))}[system]
    for left, right in (data, data[::-1]):
        star = dataclasses.astuple(module.solve_exact(make(left, right)))[0]
        assert 1.0 <= star <= x


@pytest.mark.parametrize("system", SYSTEMS)
def test_curves_match_textbook_formulas(system):
    # The per-problem side constants must leave every value of the wave
    # curve and its slope unchanged, bit for bit, on both branches.
    module, curve, _, _, side, var = SYSTEMS[system]
    f, fprime = getattr(module, curve), getattr(module, curve + "_deriv")
    rng = random.Random(11)
    for _ in range(20):
        problem = sample_problem(system, rng)
        left, right = problem.left, problem.right
        x_min, x_max = sorted((getattr(left, var), getattr(right, var)))
        points = [x_min, x_max] + [
            x_min * 10.0 ** rng.uniform(-2.0, math.log10(x_max / x_min) + 2.0)
            for _ in range(198)
        ]
        assert min(points) < x_min and max(points) > x_max
        for x in points:
            f_l, d_l = side(x, left, problem.params)
            f_r, d_r = side(x, right, problem.params)
            assert f(x, problem) == f_l + f_r + (right.u - left.u), x
            assert fprime(x, problem) == d_l + d_r, x


@pytest.mark.parametrize("system", SYSTEMS)
def test_rr_solve_evaluates_the_curve_twice(monkeypatch, system):
    # f(x_min) for the pattern and f(x_rr) for the root, which x_rr is;
    # f(0) of the bracket (0, x_min] is the closed form.
    module, curve, make, data, _, _ = SYSTEMS[system]
    calls = counting(monkeypatch, module, curve)
    rng = random.Random(5)
    problems = [make(*data[3])] + [sample_problem(system, rng) for _ in range(300)]
    solved = 0
    for problem in problems:
        if module.classify(problem) is not WavePattern.RR:
            continue
        fresh = type(problem)(problem.left, problem.right, problem.params)
        calls[0] = 0
        module.solve_exact(fresh)
        assert calls[0] == 2
        solved += 1
    assert solved > 10


@pytest.mark.parametrize("system", SYSTEMS)
def test_shared_code_reaches_module_functions(monkeypatch, system):
    # The estimators and the root solve shared in core must call the
    # module's functions through its attributes, so that a replacement
    # (a counter, a timing wrapper) sees every call.
    module, _, make, data, _, _ = SYSTEMS[system]
    calls = {name: counting(monkeypatch, module, name)
             for name in ("interpolate_root", "q_factor", "classify")}
    roots = []
    find_root = module.find_root
    monkeypatch.setattr(module, "find_root",
                        lambda *args, **kwargs: roots.append(args) or find_root(*args, **kwargs))
    bounds = module.estimate(make(*data[1]), EstimatorId.TMS_A)
    assert bounds.pattern is WavePattern.RS
    assert {name: count[0] for name, count in calls.items()} == {
        "interpolate_root": 1, "q_factor": 1, "classify": 1}
    module.estimate(make(*data[0]), EstimatorId.EXACT)
    assert len(roots) == 1 and calls["classify"][0] == 2


@pytest.mark.parametrize("system, estimator, title", [
    ("euler", EstimatorId.TMS_D, "Euler"),
    ("swe", EstimatorId.EINFELDT, "shallow-water"),
    ("bfe", EstimatorId.BATTEN, "blood-flow"),
])
def test_unsupported_estimator_names_the_system(system, estimator, title):
    problem = sample_problem(system, random.Random(0))
    with pytest.raises(UnsupportedEstimator,
                       match=f"{estimator.value} is not defined for the {title} system"):
        tables.system_module(system).estimate(problem, estimator)


# Huge opposing velocities: f(x_rr) overflows to inf (BFE 1e34 and 1e50),
# A**1.5 raises OverflowError (BFE 1e60), x_rr overflows to inf (SWE).
NON_FINITE = [
    ("bfe", (1.0, 1e34), (1.0, -1e34)),
    ("bfe", (1.0, 1e50), (1.0, -1e50)),
    ("bfe", (1.0, 1e60), (1.0, -1e60)),
    ("swe", (1.0, 1e160), (1.0, -1e160)),
]


@pytest.mark.parametrize("call", ["exact", "toro", "tms_a", "tms_b", "tms_c"])
@pytest.mark.parametrize("system, left, right", NON_FINITE)
def test_non_finite_wave_data_raise(system, left, right, call):
    module = tables.system_module(system)
    problem = tables.make_problem(system, left, right)
    with pytest.raises(ClosedFormOverflow, match="overflows"):
        if call == "exact":
            module.solve_exact(problem)
        else:
            module.estimate(problem, EstimatorId(call))
