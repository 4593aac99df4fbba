"""The wave data of a problem (celerities, f at the data values, the
two-rarefaction value and the pattern) are computed once per problem
object and shared by the exact solve and every estimator."""

import math
import operator
import random
import re
import sys

import pytest

from riemann_bounds import bloodflow, core, euler, shallow
from riemann_bounds.core import (
    ClosedFormOverflow,
    EstimatorId,
    UnsupportedEstimator,
    WavePattern,
)
from riemann_bounds.fuzz import sample_problem


# Textbook wave-curve branches (f_K, f_K') of one side K, written out from
# the formulas with no precomputed constant, and the side term f_K on the
# branch the textbook selects: the shock branch above the data value.


def euler_shock(p, s, params):
    # Toro (2009), eqs. (4.6)-(4.7) and (4.37), with sqrt(A_K / (p + B_K))
    # written sqrt(A_K) / sqrt(p + B_K), A_K = 2 / ((gamma + 1) rho_K), as
    # the library evaluates it: the quotient underflows for a dense side at
    # a high pressure.
    g = params.gamma
    sa = math.sqrt(2.0 / (g + 1.0)) / math.sqrt(s.rho)
    b = p + (g - 1.0) / (g + 1.0) * s.p
    return (p - s.p) / math.sqrt(b) * sa, sa / math.sqrt(b) * (1.0 - 0.5 * (p - s.p) / b)


def euler_rarefaction(p, s, params):
    g = params.gamma
    ck = math.sqrt(g * s.p / s.rho)
    return (2.0 * ck / (g - 1.0) * ((p / s.p) ** ((g - 1.0) / (2.0 * g)) - 1.0),
            (p / s.p) ** (-(g + 1.0) / (2.0 * g)) / (s.rho * ck))


def euler_side(p, s, params):
    return (euler_shock if p > s.p else euler_rarefaction)(p, s, params)


def swe_shock(h, s, params):
    g = params.g
    root = math.sqrt(0.5 * g * (1.0 / h + 1.0 / s.h))
    return ((h - s.h) * math.sqrt(0.5 * g * (h + s.h) / (h * s.h)),
            root - 0.25 * g * (h - s.h) / (h * h * root))


def swe_rarefaction(h, s, params):
    g = params.g
    return 2.0 * (math.sqrt(g * h) - math.sqrt(g * s.h)), math.sqrt(g / h)


def swe_side(h, s, params):
    return (swe_shock if h > s.h else swe_rarefaction)(h, s, params)


def bfe_shock(a, s, params):
    gamma_tube = params.beta / (3.0 * params.rho)
    f = math.sqrt(gamma_tube * (a - s.a) * (a**1.5 - s.a**1.5) / (a * s.a))
    # df/da of the same branch written without the 0/0 at a = A_K, with
    # t = sqrt(A_K / a): sqrt(gamma_tube / ((1 + t)(1 + t + t^2) sqrt(a) A_K))
    # (3 + 3t + 2t^2 + 2t^3 + 2t^4) / 4.
    t = math.sqrt(s.a / a)
    return f, (math.sqrt(gamma_tube / ((1.0 + t) * (1.0 + t + t * t) * math.sqrt(a) * s.a))
               * (3.0 + t * (3.0 + t * (2.0 + t * (2.0 + 2.0 * t)))) * 0.25)


def bfe_rarefaction(a, s, params):
    zeta = math.sqrt(params.beta / (2.0 * params.rho))
    return 4.0 * zeta * (a**0.25 - s.a**0.25), zeta * a**-0.75


def bfe_side(a, s, params):
    return (bfe_shock if a > s.a else bfe_rarefaction)(a, s, params)


# Per system: the textbook shock and rarefaction branches.
BRANCHES = {"euler": (euler_shock, euler_rarefaction), "swe": (swe_shock, swe_rarefaction),
            "bfe": (bfe_shock, bfe_rarefaction)}


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


#: Per system: the celerity c of one state, written out from the formula
#: (the sound speed, the gravity-wave celerity and the elastic-wall wave
#: speed), a state and its published celerity.
CELERITIES = {
    "euler": (lambda s, params: math.sqrt(params.gamma * s.p / s.rho),
              (1.0, 0.0, 1.0), math.sqrt(1.4)),
    "swe": (lambda s, params: math.sqrt(params.g * s.h), (1.0, 0.0), math.sqrt(9.8)),
    "bfe": (lambda s, params: math.sqrt(params.beta / (2.0 * params.rho)) * s.a**0.25,
            (math.pi, 0.0), 154.3033),
}


@pytest.mark.parametrize("system", SYSTEMS)
def test_davis_a_is_the_eigenvalue_pair(system):
    # Davis a reads each side record's celerity: it must be the formula's.
    celerity, state, published = CELERITIES[system]
    module, make = SYSTEMS[system][0], SYSTEMS[system][2]
    problem = make(state, state)
    assert module.estimate(problem, EstimatorId.DAVIS_A).s_right == pytest.approx(
        published, abs=1e-4)
    for left, right in SYSTEMS[system][3]:
        problem = make(left, right)
        bounds = module.estimate(problem, EstimatorId.DAVIS_A)
        assert (bounds.s_left, bounds.s_right) == (
            problem.left.u - celerity(problem.left, problem.params),
            problem.right.u + celerity(problem.right, problem.params))


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
        solution = module.solve_exact(make(left, right))
        star = getattr(solution, core.fields(solution)[0])
        assert 1.0 <= star <= x


@pytest.mark.parametrize("system", SYSTEMS)
def test_curves_match_textbook_formulas(monkeypatch, system):
    # Each per-side branch function and its slope must give the textbook
    # term bit for bit, on either side of the data value, and the curve and
    # slope composed in core the textbook sums.  So must the two other
    # compositions: f(0) of the RR bracket from the rarefaction branches,
    # which must equal the curve at 0, and the S/S TMS_b node at x_min from
    # the shock branches (Euler, SWE; blood flow interpolates from f(x_min)).
    module, curve, make, data, side, var = SYSTEMS[system]
    shock, rarefaction = BRANCHES[system]
    f, fprime = getattr(module, curve), getattr(module, curve + "_deriv")
    f_zeros, nodes = [], []
    star_bracket = core.star_bracket
    monkeypatch.setattr(core, "star_bracket", lambda wave, g, f_zero: (
        f_zeros.append(f_zero) or star_bracket(wave, g, f_zero)))
    interpolate_root = module.interpolate_root
    monkeypatch.setattr(module, "interpolate_root",
                        lambda p1, p2: nodes.append(p1) or interpolate_root(p1, p2))
    rng = random.Random(11)
    problems = [make(*d) for d in data] + [sample_problem(system, rng) for _ in range(20)]
    patterns = set()
    for problem in problems:
        left, right, params = problem.left, problem.right, problem.params
        du = right.u - left.u
        x_min, x_max = sorted((getattr(left, var), getattr(right, var)))
        points = [x_min, x_max] + [
            x_min * 10.0 ** rng.uniform(-2.0, math.log10(x_max / x_min) + 2.0)
            for _ in range(198)
        ]
        assert min(points) < x_min and max(points) > x_max
        for x in points:
            f_l, d_l = side(x, left, params)
            f_r, d_r = side(x, right, params)
            assert f(x, problem) == f_l + f_r + du, x
            assert fprime(x, problem) == d_l + d_r, x
            for s, state in zip(problem._sides, (left, right)):
                assert (module._shock(x, s), module._shock_slope(x, s)) == shock(x, state, params)
                assert ((module._rarefaction(x, s), module._rarefaction_slope(x, s))
                        == rarefaction(x, state, params))

        pattern = module.solve_exact(problem).pattern
        patterns.add(pattern)
        if pattern is WavePattern.RR:
            assert f_zeros[-1] == f(0.0, problem)
        if pattern is WavePattern.SS:
            module.estimate(problem, EstimatorId.TMS_B)
            node = problem._wave_data.f_min
            if system != "bfe":
                node = shock(x_min, left, params)[0] + shock(x_min, right, params)[0] + du
            assert nodes[-1] == (x_min, node)
    assert patterns == set(WavePattern) - {WavePattern.VACUUM}


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


#: Per system: the seed of its acceptance ensemble (`tests/test_acceptance.py`)
#: and the largest mean number of wave-curve evaluations per `solve_exact`
#: on its first 2000 problems, counted after the wave data is built: the
#: cost of the Newton start, which measured 3.469, 3.4215 and 2.925.
SOLVE_EVALS = {"euler": (42, 3.50), "swe": (7, 3.45), "bfe": (13, 2.95)}


@pytest.mark.parametrize("system", SYSTEMS)
def test_solve_evaluation_count_on_the_acceptance_ensemble(monkeypatch, system):
    module, curve = SYSTEMS[system][:2]
    seed, most = SOLVE_EVALS[system]
    rng = random.Random(seed)
    problems = [sample_problem(system, rng) for _ in range(2000)]
    for problem in problems:
        core.wave_data(problem)
    calls = counting(monkeypatch, module, curve)
    for problem in problems:
        module.solve_exact(problem)
    mean = calls[0] / len(problems)
    print(f"{system}: {mean:.4f} wave-curve evaluations per solve")
    assert mean <= most


@pytest.mark.parametrize("system", SYSTEMS)
def test_shared_code_reaches_module_functions(monkeypatch, system):
    # The estimators and the root solve shared in core must call the
    # module's functions through its attributes, so that a replacement
    # (a counter, a timing wrapper) sees every call.
    # The same names `bench/tracing.py` wraps, the wave curve, its slope
    # and the two-rarefaction closed form included.
    module, _, make, data, _, _ = SYSTEMS[system]
    curve, two_rarefaction = module.SYSTEM.curve, module.SYSTEM.two_rarefaction
    names = ("interpolate_root", "classify", curve, curve + "_deriv",
             two_rarefaction, "solve_exact")
    calls = {name: counting(monkeypatch, module, name) for name in names}
    roots = []
    find_root = module.find_root
    monkeypatch.setattr(module, "find_root",
                        lambda *args, **kwargs: roots.append(args) or find_root(*args, **kwargs))
    bounds = module.estimate(make(*data[1]), EstimatorId.TMS_A)
    assert bounds.pattern is WavePattern.RS
    # RS wave data: f at both data values and at the two-rarefaction value
    assert {name: count[0] for name, count in calls.items()} == {
        "interpolate_root": 1, "classify": 1, curve: 3, curve + "_deriv": 0,
        two_rarefaction: 1, "solve_exact": 0}
    # EXACT is the star speeds of the root solve: its pattern comes from
    # `classify`, and no solution record (u*) is built.
    module.estimate(make(*data[0]), EstimatorId.EXACT)
    assert len(roots) == 1
    counts = {name: count[0] for name, count in calls.items()}
    assert (counts["classify"], counts[two_rarefaction], counts["solve_exact"]) == (2, 2, 0)
    assert counts[curve] > 3 and counts[curve + "_deriv"] >= 1


#: The shock sides of each wave pattern: the speeds TMS_a-c and EXACT take
#: the shock factor on.
SHOCK_SIDES = {WavePattern.SS: (True, True), WavePattern.RS: (False, True),
               WavePattern.SR: (True, False), WavePattern.RR: (False, False)}


@pytest.mark.parametrize("system", SYSTEMS)
def test_shared_code_reads_the_shock_factor_from_the_record(monkeypatch, system):
    # Toro, TMS_a-c and EXACT call the record's `q_factor` once per shock
    # side, with that side's record, and never the module's function.
    module, _, make, data, _, _ = SYSTEMS[system]
    q_factor, calls = module.q_factor, []

    def counted(x, side, *sqrt):
        calls.append(side)
        return q_factor(x, side, *sqrt)

    record = core.replace(module.SYSTEM, q_factor=counted)
    counted_problem = type("CountedProblem", (module.SYSTEM.problem_type,),
                           {"__slots__": (), "_system": record})
    monkeypatch.setattr(module, "q_factor", None)  # a call through the module fails
    for left, right in data:
        plain = make(left, right)
        problem = counted_problem(plain.left, plain.right)
        sides, wave = core.sides(problem), core.wave_data(problem)
        for estimator in (EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                          EstimatorId.TMS_C, EstimatorId.EXACT):
            calls.clear()
            bounds = module.estimate(problem, estimator)
            if estimator is EstimatorId.TORO:
                shocks = [wave.x_rr > side.x for side in sides]
            elif (estimator is EstimatorId.TMS_C and wave.pattern is WavePattern.SS
                  and record.ss_tms_c_eigen):
                shocks = [False, False]  # the eigenvalue pair
            else:
                shocks = SHOCK_SIDES[bounds.pattern]
            expected = [side for side, shock in zip(sides, shocks) if shock]
            assert len(calls) == len(expected) and all(map(operator.is_, calls, expected)), (
                wave.pattern, estimator)
            same = module.estimate(plain, estimator)
            assert (bounds.s_left, bounds.s_right) == (same.s_left, same.s_right)


#: Per module: the public names of its positivity test and its
#: two-rarefaction function.
PUBLIC = {euler: ("check_positivity", "two_rarefaction_pressure"),
          shallow: ("is_wet", "two_rarefaction_depth"),
          bloodflow: ("is_open", "two_rarefaction_area")}


def outcome(call, *args):
    """What a call gives: the repr of its value, or the type of its error."""
    try:
        return repr(call(*args))
    except Exception as error:  # noqa: BLE001 - errors are outcomes too
        return type(error)


@pytest.mark.parametrize("mine, theirs", [(a, b) for a in PUBLIC for b in PUBLIC if a is not b],
                         ids=lambda m: m.SYSTEM.name)
def test_public_functions_answer_for_the_problems_own_system(mine, theirs):
    # A problem carries its system (its type's `_system`), so one module's
    # `estimate`, `solve_exact`, positivity test and two-rarefaction
    # function give, on a problem of another system, what that system's own
    # do: its solution record too.  Each call gets a fresh problem, so that
    # neither reads what the other cached.
    rng = random.Random(0)
    data = [(p.left, p.right) for p in (sample_problem(theirs.SYSTEM.name, rng)
                                         for _ in range(50))]
    make = theirs.SYSTEM.problem_type
    calls = [(mine.estimate, theirs.estimate, estimator)
             for estimator in (EstimatorId.EXACT, *theirs.ESTIMATORS)]
    calls += [(getattr(mine, a), getattr(theirs, b)) for a, b in zip(PUBLIC[mine], PUBLIC[theirs])]
    calls.append((mine.solve_exact, theirs.solve_exact))
    for left, right in data:
        for mine_fn, theirs_fn, *estimator in calls:
            got = outcome(mine_fn, make(left, right), *estimator)
            assert got == outcome(theirs_fn, make(left, right), *estimator), (
                mine_fn, estimator, left, right)


# Per system: data (left, right) that leave no positive star value, and the
# error that says so.
VACUUM = {
    "euler": (((1.0, -50.0, 0.01), (1.0, 50.0, 0.01)), core.VacuumData),
    "swe": (((0.01, -10.0), (0.01, 10.0)), core.DryBed),
    "bfe": (((0.01, -400.0), (0.01, 400.0)), core.CollapseData),
}


#: Estimators whose pair does not need a positive star value.
NO_STAR_FREE = (EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.EINFELDT,
                EstimatorId.BATTEN)


@pytest.mark.parametrize("system", SYSTEMS)
def test_exact_solve_of_vacuum_data_raises_the_no_star_error(system):
    module, _, make, _, _, _ = SYSTEMS[system]
    (left, right), error = VACUUM[system]
    record = module.SYSTEM
    message = record.no_star_message
    with pytest.raises(error, match=message):
        core.solve_star(make(left, right))
    with pytest.raises(error, match=message):
        module.solve_exact(make(left, right))
    with pytest.raises(error, match=message):
        getattr(module, record.two_rarefaction)(make(left, right))
    # The wave data own the no-star case: `classify` is the one reader that
    # answers VACUUM, and the slot stays None, so each read raises again.
    problem = make(left, right)
    assert module.classify(problem) is WavePattern.VACUUM
    assert problem._wave_data is None
    for _ in range(2):
        with pytest.raises(error, match=message):
            problem._wave_data or core.wave_data(problem)
        assert problem._wave_data is None
    # Every estimator that needs a star value raises it, through `estimate`
    # and through its `speed_function` pair alike; the others answer.
    for estimator in (EstimatorId.EXACT, *module.ESTIMATORS):
        pair = core.speed_function(record, estimator)
        if estimator in NO_STAR_FREE:
            bounds = module.estimate(make(left, right), estimator)
            assert all(map(math.isfinite, (bounds.s_left, bounds.s_right))), estimator
            assert all(map(math.isfinite, pair(make(left, right)))), estimator
            continue
        with pytest.raises(error, match=message):
            module.estimate(make(left, right), estimator)
        with pytest.raises(error, match=message):
            pair(make(left, right))


@pytest.mark.parametrize("system", SYSTEMS)
def test_solve_exact_answers_from_the_problems_record(monkeypatch, system):
    # Each module's `solve_exact` builds the solution of the problem's own
    # system from its record, without calling that system's `solve_exact`.
    module, _, make, data, _, _ = SYSTEMS[system]
    expected = module.solve_exact(make(*data[1]))
    for other in {euler, shallow, bloodflow} - {module}:
        def refuse(problem):
            raise AssertionError("solve_exact handed the problem off")

        with monkeypatch.context() as patch:
            patch.setattr(module, "solve_exact", refuse)
            solution = other.solve_exact(make(*data[1]))
        assert type(solution) is type(expected)
        assert solution == expected
    assert module.SYSTEM.solution_type is type(expected) is {
        "euler": euler.EulerExactSolution, "swe": shallow.SweExactSolution,
        "bfe": bloodflow.BfeExactSolution}[system]


@pytest.mark.parametrize("vacuum", [False, True], ids=["positive", "vacuum"])
@pytest.mark.parametrize("system", SYSTEMS)
def test_classify_tests_positivity_once(system, vacuum):
    # The guard of the two-rarefaction function is the wave data's only
    # positivity test: its no-star error gives the VACUUM pattern.
    module, _, make, data, _, _ = SYSTEMS[system]
    problem = make(*(VACUUM[system][0] if vacuum else data[0]))
    code, calls = core.positivity.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    sys.setprofile(profile)
    try:
        pattern = module.classify(problem)
    finally:
        sys.setprofile(None)
    assert len(calls) == 1
    assert (pattern is WavePattern.VACUUM) == vacuum


@pytest.mark.parametrize("system, estimator, title", [
    ("euler", EstimatorId.TMS_D, "Euler"),
    ("swe", EstimatorId.EINFELDT, "shallow-water"),
    ("swe", EstimatorId.BATTEN, "shallow-water"),
    ("bfe", EstimatorId.EINFELDT, "blood-flow"),
    ("bfe", EstimatorId.BATTEN, "blood-flow"),
])
def test_unsupported_estimator_names_the_system(system, estimator, title):
    problem = sample_problem(system, random.Random(0))
    with pytest.raises(UnsupportedEstimator,
                       match=f"{estimator.value} is not defined for the {title} system"):
        core.system_module(system).estimate(problem, estimator)


@pytest.mark.parametrize("estimator", ["tms_b", None, 7])
@pytest.mark.parametrize("system", ["euler", "swe", "bfe"])
def test_an_estimator_that_is_no_estimator_id_is_unsupported(system, estimator):
    # A registry miss on a value that is no `EstimatorId` (its value string,
    # None) names that value, from `estimate` and `speed_function` alike.
    record = core.system_record(system)
    problem = sample_problem(system, random.Random(0))
    message = f"{estimator!r} is not an EstimatorId"
    with pytest.raises(UnsupportedEstimator, match=message):
        record.module.estimate(problem, estimator)
    with pytest.raises(UnsupportedEstimator, match=message):
        core.speed_function(record, estimator)


@pytest.mark.parametrize("estimator", [["tms_b"], {}, {"tms_b": 1}])
@pytest.mark.parametrize("system", ["euler", "swe", "bfe"])
def test_an_unhashable_estimator_is_unsupported(system, estimator):
    # A value that cannot be hashed misses the registry as well: it names
    # the value instead of leaking the dict's `TypeError`.
    record = core.system_record(system)
    problem = sample_problem(system, random.Random(0))
    message = re.escape(f"{estimator!r} is not an EstimatorId")
    with pytest.raises(UnsupportedEstimator, match=message):
        record.module.estimate(problem, estimator)
    with pytest.raises(UnsupportedEstimator, match=message):
        core.speed_function(record, estimator)


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
    module = core.system_module(system)
    problem = core.make_problem(system, left, right)
    with pytest.raises(ClosedFormOverflow, match="overflows"):
        if call == "exact":
            module.solve_exact(problem)
        else:
            module.estimate(problem, EstimatorId(call))
