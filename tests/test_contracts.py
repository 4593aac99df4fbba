"""Every input gives finite wave speeds or a named error.

On a seeded moderate-range ensemble per system, with the constants varied
as well as the states, `solve_exact` and every estimator must return
finite speeds or raise a `RiemannBoundsError`; never a raw arithmetic
error or an infinite or NaN "bound".  The reproducers below are inputs
that once leaked one or the other."""

import math
import random

import pytest

from riemann_bounds import bloodflow, core, euler, fuzz, shallow, tables
from riemann_bounds.core import ClosedFormOverflow, EstimatorId, RiemannBoundsError

SEED = 2005
DRAWS = 8000  # per system
GAMMAS = (1.001, 1.01, 1.4, 5.0 / 3.0, 3.0, 10.0)


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw(system, rng):
    """One problem of the ensemble: states 1e-8-1e8, |u| <= 1e4, and the
    system's constants over their ranges."""
    def state():
        value, u = log_uniform(rng, 1e-8, 1e8), rng.uniform(-1e4, 1e4)
        return (log_uniform(rng, 1e-8, 1e8), u, value) if system == "euler" else (value, u)

    if system == "euler":
        params = {"gamma": rng.choice(GAMMAS)}
    elif system == "swe":
        params = {"g": log_uniform(rng, 1e-2, 1e2)}
    else:
        params = {"beta": log_uniform(rng, 1e2, 1e8), "rho": rng.uniform(0.5, 2.0)}
    return core.make_problem(system, state(), state(), params)


def euler_problem(left, right, gamma):
    return euler.EulerProblem(euler.EulerState(*left), euler.EulerState(*right),
                              euler.EulerParams(gamma))


def swe_problem(left, right, g):
    return shallow.SweProblem(shallow.SweState(*left), shallow.SweState(*right),
                              shallow.SweParams(g))


# Per reproducer: system, problem, the calls ("exact" or an estimator id)
# that must raise, and the error they must raise.  A reproducer with no
# such calls raised once and is mended: every call must give finite speeds.
REPRODUCERS = {
    # (p/p_K)**zd with p/p_K underflowed to 0 in the slope raised
    # ZeroDivisionError; then A_L / (p + B_L) overflowed in the left shock
    # branch, the root solve raised NoConvergence, and it is solved now
    # (SOLVED).  Toro and TMS_c take the q factor at p_rr = 1.19e188, where
    # S_L is -inf.
    "euler-slope-underflow": ("euler", euler_problem(
        (3.163620301440339e-264, -0.0005312154766262234, 4.044859046496202e-205),
        (1.0035356994693857e+68, -2.3538580921671553e+45, 1.1914666961457971e+188),
        1.068152417570789), ["toro", "tms_c"], ClosedFormOverflow),
    # h * h_K underflowed to 0 in the shock branch, inside the root solve.
    "swe-root-solve-underflow": ("swe", swe_problem(
        (7.2148075922827245e+165, 5.029258498855064),
        (2.045802597946942e-167, 4.296782966012525e+29),
        3.499033247592021e-95), ["exact"], ClosedFormOverflow),
    # The same, at a node of the wave data.
    "swe-wave-data-underflow": ("swe", swe_problem(
        (1.2626514801501569e-68, 1.5659859329363785e+61),
        (1.2441858229005578e-291, -1.877277891299176e+94),
        21268712340021.547), ["exact", "toro", "tms_a", "tms_b", "tms_c"],
        ClosedFormOverflow),
    # A**1.5 of the side constants overflows.
    "bfe-side-constants-overflow": ("bfe", bloodflow.BfeProblem(
        bloodflow.BfeState(1.0, 0.0), bloodflow.BfeState(1e206, 0.0)),
        ["exact"] + [e.value for e in bloodflow.ESTIMATORS], ClosedFormOverflow),
    # The S/S TMS_b node: h * h_K underflowed to 0 in the shock branch at x_min.
    "swe-tms-b-node-underflow": ("swe", swe_problem(
        (5.577095318685274e-97, 2885.2300985634156),
        (6.210485525756503e-186, 13.515405851412652),
        4.726378406126793), ["tms_b"], ClosedFormOverflow),
    # y**1.5 overflowed in the blood-flow q factor.
    "bfe-q-factor-overflow": ("bfe", bloodflow.BfeProblem(
        bloodflow.BfeState(2.0389789260611394e-248, 5574.383476429288),
        bloodflow.BfeState(2.404138726322127e+20, -5900.474455118428),
        bloodflow.BfeParams(1250.9621175519806, 0.9822234077450813)),
        ["toro", "tms_c"], ClosedFormOverflow),
    # x_rr is finite, but x_rr / p_L overflows in the q factor: S_L = -inf.
    "euler-toro-infinite-speed": ("euler", euler_problem(
        (130334.44925440526, 0.28859086379431537, 8.738092032232124e-06),
        (8068.802889344685, -14.281837286913785, 0.04105669341105046),
        1.010080595678447), ["toro", "tms_c"], ClosedFormOverflow),
    # Both speeds infinite.
    "euler-toro-both-infinite": ("euler", euler_problem(
        (5.290847432789679, -0.0013223454932869741, 1.8826183268763195e-05),
        (599101.3998629061, -1.6234075087363549, 3.1650185557538326e-05),
        1.001), ["toro", "tms_c"], ClosedFormOverflow),
    # The Roe enthalpy overflowed: Batten's c_Roe**2 was +inf (gamma = 1.01).
    # Its Roe sound speed is now formed without enthalpies (no calls).
    "euler-batten-roe-enthalpy-overflow": ("euler", euler_problem(
        (2.6253149457325776e-290, -7412.820158872064, 1.8059384531807626e-93),
        (1.6672378868217063e-290, -4536.70999193011, 2.966675226996676e+17), 1.01),
        [], None),
    # The rest at the default constants.
    # Cancellation in h_Roe - u_Roe**2/2: Batten's c_Roe**2 was negative.
    # Then the Newton start, which rounds onto the bracket's end p_R, gave
    # way to the bracket's midpoint, 4.6e68, and the residual exit of the
    # root solve accepted p* = 1.62e-45, 57 decades off the oracle's.
    "euler-batten-roe-sound-speed": ("euler", core.make_problem(
        "euler", (5.3340097753571314e+197, 8133.430277554056, 9.28512128125268e+68),
        (5.297495636365946e-248, 82.80458655341135, 5.63989070365722e-159)),
        [], None),
    # The SWE TMS_b chord root is negative, and q_factor took its square
    # root, after h * h_K overflowed at the S/S node.
    "swe-tms-b-negative-chord-root": ("swe", core.make_problem(
        "swe", (8.487361008586014e+276, -2484.5044844899776),
        (2.9607947920135834e+92, -4370.537533982078)),
        ["tms_b"], ClosedFormOverflow),
    # c_L = sqrt(gamma p/rho) overflows: Davis a/b, Einfeldt and Batten gave
    # infinite speeds, the rest already raised from the wave data.
    "euler-sound-speed-overflow": ("euler", core.make_problem(
        "euler", (1.3573213500443768e-141, -5096.667016126539, 3.539777407430506e+187),
        (0.09568177268457889, -1682.5579811141924, 4.5235660048190316e+136)),
        ["exact"] + [e.value for e in euler.ESTIMATORS], ClosedFormOverflow),
    # du**2 overflows in Einfeldt's d**2, which gave the pair (-inf, +inf),
    # and then raised; d as a `math.hypot` of unsquared terms gives the
    # pairs that fit, Einfeldt's +/-7.07e199 and Batten's +/-4.47e199.
    # p* overflows.
    "euler-einfeldt-infinite-speeds": ("euler", core.make_problem(
        "euler", (1.0, 1e200, 1.0), (1.0, -1e200, 1.0)),
        ["exact", "toro", "tms_a", "tms_b", "tms_c"], ClosedFormOverflow),
    # (sqrt(rho_L) + sqrt(rho_R))**2 overflows in Einfeldt's weight, which
    # raised a raw OverflowError, and then a named error.
    "euler-einfeldt-weight-overflow": ("euler", core.make_problem(
        "euler", (1e308, 0.0, 1.0), (1e308, 0.0, 1.0)), [], None),
    # sqrt(rho_K) u_K overflows in the Roe velocity, so Einfeldt's and
    # Batten's speeds were NaN and raised, though both pairs fit; the
    # weights sqrt(rho_K)/(sqrt(rho_L) + sqrt(rho_R)) give them.  x_rr
    # overflows.
    "euler-roe-velocity-overflow": ("euler", core.make_problem(
        "euler", (1e300, 1e200, 1.0), (1e300, -1e200, 1.0)),
        ["exact", "toro", "tms_a", "tms_b", "tms_c"], ClosedFormOverflow),
    # u_R - u_L = -2e308 overflows, so Einfeldt's and Batten's speeds were
    # NaN, though both pairs fit; the Roe speed d now reads the velocity
    # jump as 2 (u_R/2 - u_L/2).  The wave data overflow.
    "euler-roe-velocity-difference-overflow": ("euler", core.make_problem(
        "euler", (1.0, 1e308, 1.0), (1.0, -1e308, 1.0)),
        ["exact", "toro", "tms_a", "tms_b", "tms_c"], ClosedFormOverflow),
    # The term w_L c_L^2/(w_L + w_R) = 1.4e-330 of the Roe speed's d^2
    # underflows to 0, so Einfeldt's pair was (0.0, 0.0), though it is
    # +/-1.18e-165; d as a `math.hypot` of unsquared terms gives it.
    "euler-roe-square-underflow": ("euler", core.make_problem(
        "euler", (1.0, 0.0, 1e-300), (1e60, 0.0, 1e-300)), [], None),
    # g h_L overflows, so c_L = sqrt(g h_L) is inf: Davis a/b gave infinite
    # speeds (Davis b the pair (-inf, inf)), the rest raised from the wave
    # data.
    "swe-celerity-overflow": ("swe", core.make_problem(
        "swe", (8.6e307, 0.0), (1.0, 0.0)),
        ["exact"] + [e.value for e in shallow.ESTIMATORS], ClosedFormOverflow),
    # zeta = sqrt(beta/(2 rho)) overflows, so both wave speeds are inf: the
    # same for blood flow.
    "bfe-celerity-overflow": ("bfe", core.make_problem(
        "bfe", (1.0, 0.0), (1.0, 0.0), {"beta": 1e308, "rho": 1e-10}),
        ["exact"] + [e.value for e in bloodflow.ESTIMATORS], ClosedFormOverflow),
    # Areas of 1e-127: the residual exit of the root solve stops at
    # A* = 3.25e-98, where the oracle's root is 6.21e-98, and the exact
    # pair comes out inverted, (4.13e-8, 1.83e-8), where the oracle gives
    # 2.98e-8 for both.  TMS_d is inverted too, (5.96e-8, 2.30e-30).
    "bfe-inverted-exact-pair": ("bfe", core.make_problem(
        "bfe", (1.56e-127, 5.96e-8), (1.56e-127, 1.56e-127)), [], None),
}


#: Reproducers whose side constants overflow, and the public positivity
#: test that reads them and must raise, as `classify` does.
SIDE_OVERFLOWS = {
    "bfe-side-constants-overflow": "is_open",
    "euler-sound-speed-overflow": "check_positivity",
    "swe-celerity-overflow": "is_wet",
    "bfe-celerity-overflow": "is_open",
}


#: The data of "euler-tms-b-negative-chord-root" below.
EULER_TMS_B_DATA = ((3.35140239615322e+229, 9614.871707839637, 3.939094590922741e+230),
                    (1.6194710822460035e+257, -8366.027878089182, 2.2309770306664407e+259))

#: Reproducers that `solve_exact` solves: the system and problem, the
#: oracle's star value, S_L and S_R (`bench/oracle.py`, a log-space
#: bisection in mpmath), the relative tolerance, and the estimators whose
#: pair must be finite and contain the oracle's.
SOLVED = {
    # p*/p_R = 3e-329 underflows to 0 in the right rarefaction branch,
    # which puts p* 7e-11 off.
    "euler-slope-underflow": (
        *REPRODUCERS["euler-slope-underflow"][:2],
        (3.5728655018390565e-141, -3.417373364477865e+61, 1.1261368096479661e+60), 1e-10, []),
    # A_K / (p + B_K) underflowed to 0 in the shock branch of the denser
    # side.  The TMS_a chord root came out negative, where q_factor took
    # its square root, and the S/S bracket of the exact solve doubled to
    # infinity (NoConvergence).
    "euler-tms-a-negative-chord-root": ("euler", core.make_problem(
        "euler", (4.218711246146151e+174, 900.4840954410993, 6.39103596564457e+146),
        (3.869184416937872e+169, -5627.047518164938, 5.026772276168695e-47)),
        (1.9664012615532341e+177, 876.8337877787721, 2182.3401104999793), 1e-12,
        ["tms_a", "tms_b"]),
    # The same for TMS_b; here the underflow also made the S/R data S/S.
    "euler-tms-b-negative-chord-root": (
        "euler", core.make_problem("euler", *EULER_TMS_B_DATA),
        (1.310314037388404e+238, -12045.456501771787, -8352.140349418067), 1e-12,
        ["toro", "tms_a", "tms_b", "tms_c"]),
}


#: Euler data at the ends of the float range, at gamma = 1.4: left and
#: right states (rho, u, p).
EXTREME_EULER = {
    # A_L = 2/((gamma+1) rho_L) overflows, and c_L is 5.3e11.
    "subnormal-density": ((5e-324, 0.0, 1e-300), (1.0, 0.0, 1.0)),
    # The same on both sides of two colliding streams.
    "colliding-subnormal-densities": ((1e-310, 10.0, 1e-10), (1e-310, -10.0, 1e-10)),
    # rho_R near 1e257: A_R / (p + B_R) underflows.
    "tms-b-reproducer": EULER_TMS_B_DATA,
    # A near-vacuum left side: the chord start rounded onto the bracket's
    # lower end and was replaced by the bracket's midpoint, from which the
    # residual exit of the root solve stopped with p* 1.9e-8 relative and
    # S_L 8.0e-9 of the speed scale off the oracle.
    "near-vacuum-left": ((1e-300, 1.0, 1e-12), (2.0, -1.0, 1e-3)),
}


def mp_log_root(f, mpmath):
    """The root of a wave curve f in mpmath: bisection on log x over
    [-3000, 3000] to a width of 1e-35."""
    lo, hi = mpmath.mpf(-3000), mpmath.mpf(3000)
    assert f(mpmath.exp(lo)) < 0 < f(mpmath.exp(hi))
    while hi - lo > mpmath.mpf("1e-35"):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mpmath.exp(mid)) < 0 else (lo, mid)
    return mpmath.exp((lo + hi) / 2)


def mp_solution(problem, mpmath):
    """(x*, u*, S_L, S_R) of a problem in mpmath: the root x* of its wave
    curve by `mp_log_root`, u* = (u_L + u_R + f_R(x*) - f_L(x*))/2, and the
    shock speed or the rarefaction head speed of each side.  Euler's is
    Toro's (2009, eqs. (4.6)-(4.7)).  Shallow water and blood flow are one
    isentropic system, A_t + (Au)_x = 0, (Au)_t + (Au^2 + P(A))_x = 0 with
    P = kappa A^gamma, written once: kappa = g/2 and gamma = 2, or
    kappa = beta/(3 rho) and gamma = 3/2."""
    mpf, params, system = mpmath.mpf, problem.params, problem._system
    g = mpf(params.gamma)
    if system.name == "swe":
        kappa = mpf(params.g) / 2
    elif system.name == "bfe":
        kappa = mpf(params.beta) / (3 * mpf(params.rho))

    def side(state):
        """(x_K, u_K, c_K, z, shock) of one state: the rarefaction branch
        is 2 c_K/(gamma-1) ((x/x_K)^z - 1), and shock(x) is the shock
        branch's (f_K(x), |S - u_K|)."""
        u, x_k = mpf(state.u), mpf(getattr(state, system.star))
        if system.name == "euler":
            rho = mpf(state.rho)
            c = mpmath.sqrt(g * x_k / rho)

            def shock(x):
                return ((x - x_k) * mpmath.sqrt(2 / ((g + 1) * rho) / (x + (g - 1) / (g + 1) * x_k)),
                        c * mpmath.sqrt((g + 1) / (2 * g) * x / x_k + (g - 1) / (2 * g)))
            return x_k, u, c, (g - 1) / (2 * g), shock

        def shock(x):
            jump = kappa * (x**g - x_k**g) / (x - x_k)  # (P(x) - P_K) / (x - x_K)
            return (x - x_k) * mpmath.sqrt(jump / (x * x_k)), mpmath.sqrt(x / x_k * jump)
        return x_k, u, mpmath.sqrt(kappa * g * x_k ** (g - 1)), (g - 1) / 2, shock

    left, right = side(problem.left), side(problem.right)

    def term(x, s):
        x_k, _, c, z, shock = s
        return shock(x)[0] if x > x_k else 2 * c / (g - 1) * ((x / x_k) ** z - 1)

    x = mp_log_root(lambda x: term(x, left) + term(x, right) + right[1] - left[1], mpmath)

    def offset(s):  # |S - u_K|
        return s[4](x)[1] if x > s[0] else s[2]
    u = (left[1] + right[1] + term(x, right) - term(x, left)) / 2
    return x, u, left[1] - offset(left), right[1] + offset(right)


@pytest.mark.parametrize("name", EXTREME_EULER)
def test_extreme_euler_data_are_solved_and_bounded(name):
    mpmath = pytest.importorskip("mpmath")
    left, right = EXTREME_EULER[name]
    problem = core.make_problem("euler", left, right)
    solution = euler.solve_exact(problem)
    with mpmath.workdps(40):
        p_star, _, s_left, s_right = (float(v) for v in mp_solution(problem, mpmath))
    scale = max(1.0, abs(s_left), abs(s_right))
    assert abs(solution.p_star - p_star) <= 1e-10 * p_star
    assert abs(solution.s_left - s_left) <= 1e-10 * scale
    assert abs(solution.s_right - s_right) <= 1e-10 * scale
    slack = fuzz.REL_SLACK * scale
    for estimator in euler.SYSTEM.bound_estimators:
        bounds = euler.estimate(problem, estimator)
        assert bounds.s_left <= s_left + slack and bounds.s_right >= s_right - slack, estimator


#: Data with constants at the bottom of the float range: system, left and
#: right states, and params.
SUBNORMAL_CONSTANTS = {
    # 2 rho b**2 underflowed in the two-rarefaction area, which read 4.0
    # instead of 4.398, so certified Toro, TMS_a and TMS_b missed the
    # exact speeds by up to 1.03e-2, 1.5e-3 and 2.8e-3.
    "bfe-subnormal-constants": ("bfe", (1.0, 1.0), (2.0, -1.0),
                                {"beta": 5e-324, "rho": 5e-324}),
    # Products of g with the data underflow: the two-rarefaction depth
    # reads 1.0 instead of 1.457, `solve_exact` gives S_L = -3.85e-162
    # instead of -2.97e-162 (h* = 1.454), Toro's S_L = -2.22e-162 misses
    # it, and TMS_b raises `DegeneratePoints`.
    "swe-subnormal-gravity": pytest.param(
        "swe", (1.0, 0.0), (2.0, 0.0), {"g": 5e-324}, marks=pytest.mark.xfail(
            strict=True, reason="products of g with the data underflow; the fix needs "
            "scale-free formulas (ROADMAP items 18 and 21)")),
}


@pytest.mark.parametrize("system, left, right, params", SUBNORMAL_CONSTANTS.values(),
                         ids=SUBNORMAL_CONSTANTS)
def test_subnormal_constants_are_solved_and_bounded(system, left, right, params):
    mpmath = pytest.importorskip("mpmath")
    problem = core.make_problem(system, left, right, params)
    module = core.system_module(system)
    solution = module.solve_exact(problem)
    with mpmath.workdps(40):
        _, _, s_left, s_right = (float(v) for v in mp_solution(problem, mpmath))
    # Without the floor of 1 of `REL_SLACK`'s scale, under which the SWE
    # speeds of 1e-162 would pass as anything near zero.
    scale = max(abs(s_left), abs(s_right))
    assert abs(solution.s_left - s_left) <= 1e-10 * scale
    assert abs(solution.s_right - s_right) <= 1e-10 * scale
    slack = fuzz.REL_SLACK * scale
    for estimator in module.SYSTEM.bound_estimators:
        bounds = module.estimate(problem, estimator)
        assert bounds.s_left <= s_left + slack and bounds.s_right >= s_right - slack, estimator


#: Every row of the three golden tables: (system, row id).
GOLDEN_ROWS = [(system, test["id"]) for system in core.SYSTEMS
               for test in tables.load_reference(system)["tests"]]


@pytest.mark.parametrize("system, row", GOLDEN_ROWS, ids=[f"{s}-{r}" for s, r in GOLDEN_ROWS])
def test_golden_row_is_solved_to_full_precision(system, row):
    # The table check allows 1e-3 against the published four decimals;
    # against the oracle the exact solve holds to rounding (at most 3.8e-16
    # of the speed scale, 4.9e-16 of the star scale and, for u*, 1.9e-16 of
    # the speed scale when this was written).
    mpmath = pytest.importorskip("mpmath")
    test = next(test for test in tables.load_reference(system)["tests"] if test["id"] == row)
    problem = core.make_problem(system, test["left"], test["right"])
    solution = core.system_module(system).solve_exact(problem)
    with mpmath.workdps(40):
        star, u_star, s_left, s_right = (float(v) for v in mp_solution(problem, mpmath))
    scale = max(1.0, abs(s_left), abs(s_right))
    assert abs(solution.s_left - s_left) <= 1e-13 * scale
    assert abs(solution.s_right - s_right) <= 1e-13 * scale
    computed = getattr(solution, problem._system.star_field)
    assert abs(computed - star) <= 1e-13 * max(1.0, star)
    assert abs(solution.u_star - u_star) <= 1e-13 * scale


def speeds(module, problem, call):
    """(S_L, S_R) of `call`: "exact" or an estimator id."""
    if call == "exact":
        solution = module.solve_exact(problem)
        return solution.s_left, solution.s_right
    bounds = module.estimate(problem, EstimatorId(call))
    return bounds.s_left, bounds.s_right


def check_contract(system, problem):
    module = core.system_module(system)
    for call in ["exact"] + [e.value for e in module.ESTIMATORS]:
        try:
            s_left, s_right = speeds(module, problem, call)
        except RiemannBoundsError:
            continue
        assert math.isfinite(s_left) and math.isfinite(s_right), (call, problem, s_left, s_right)


@pytest.mark.parametrize("name", REPRODUCERS)
def test_reproducer_raises_a_named_error(name):
    system, problem, calls, error = REPRODUCERS[name]
    module = core.system_module(system)
    if name in SIDE_OVERFLOWS:
        with pytest.raises(error):
            getattr(module, SIDE_OVERFLOWS[name])(problem)
        with pytest.raises(error):
            module.classify(problem)
    for call in calls:
        with pytest.raises(error):
            speeds(module, problem, call)
    if not calls:
        for call in ["exact"] + [e.value for e in module.ESTIMATORS]:
            assert all(map(math.isfinite, speeds(module, problem, call))), call
    check_contract(system, problem)


def solves(name) -> bool:
    """Whether the exact solve of a reproducer finishes."""
    system, problem, _, _ = REPRODUCERS[name]
    try:
        core.system_module(system).solve_exact(problem)
    except RiemannBoundsError:
        return False
    return True


#: The reproducers whose exact solve finishes.
FINISHED = [name for name in REPRODUCERS if solves(name)]


def known_failures(names, reasons):
    """`names` as test parameters, each one in `reasons` a strict xfail
    with its reason."""
    return [pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reasons[name]))
            if name in reasons else name for name in names]


#: Reproducers whose exact pair is known to be wrong, and why.
WRONG_EXACT_PAIRS = {
    "bfe-inverted-exact-pair": "the residual exit of the root solve accepts a non-root and "
    "the exact pair comes out inverted (ROADMAP item 16); TMS_d is inverted there too "
    "(ROADMAP item 21)",
}


@pytest.mark.parametrize("name", known_failures(FINISHED, WRONG_EXACT_PAIRS))
def test_reproducer_exact_pair_is_ordered_and_inside_every_finite_bound(name):
    system, problem, _, _ = REPRODUCERS[name]
    module = core.system_module(system)
    solution = module.solve_exact(problem)
    s_left, s_right = solution.s_left, solution.s_right
    assert s_left <= s_right
    slack = fuzz.REL_SLACK * max(1.0, abs(s_left), abs(s_right))
    for estimator in module.SYSTEM.bound_estimators:
        try:
            bounds = module.estimate(problem, estimator)
        except RiemannBoundsError:
            continue
        if math.isfinite(bounds.s_left) and math.isfinite(bounds.s_right):
            assert bounds.s_left <= s_left + slack, estimator
            assert bounds.s_right >= s_right - slack, estimator


#: Reproducers whose exact speeds are known to be off the oracle, and why.
OFF_THE_ORACLE = {
    "euler-slope-underflow": "p/p_R underflows to 0 in the right rarefaction branch, so S_L "
    "is 3.3e-11 of the speed scale off (ROADMAP item 3)",
    "bfe-inverted-exact-pair": "the residual exit of the root solve accepts a non-root, so "
    "both speeds are 1.1e-8 of the speed scale off (ROADMAP item 16)",
}


@pytest.mark.parametrize("name", known_failures(FINISHED, OFF_THE_ORACLE))
def test_finished_reproducer_speeds_match_the_oracle(name):
    mpmath = pytest.importorskip("mpmath")
    system, problem, _, _ = REPRODUCERS[name]
    solution = core.system_module(system).solve_exact(problem)
    with mpmath.workdps(40):
        _, _, s_left, s_right = (float(v) for v in mp_solution(problem, mpmath))
    tol = 1e-12 * max(1.0, abs(s_left), abs(s_right))
    assert abs(solution.s_left - s_left) <= tol
    assert abs(solution.s_right - s_right) <= tol


@pytest.mark.parametrize("name", SOLVED)
def test_reproducer_is_solved_as_the_oracle_solves_it(name):
    system, problem, (star, s_left, s_right), rel, estimators = SOLVED[name]
    module = core.system_module(system)
    solution = module.solve_exact(problem)
    assert solution.p_star == pytest.approx(star, rel=rel)
    assert solution.s_left == pytest.approx(s_left, rel=rel)
    assert solution.s_right == pytest.approx(s_right, rel=rel)
    assert math.isfinite(solution.u_star)
    for call in estimators:
        bounds = speeds(module, problem, call)
        assert all(map(math.isfinite, bounds)), call
        assert bounds[0] <= s_left and bounds[1] >= s_right, call
    check_contract(system, problem)


def test_euler_slope_is_infinite_where_the_pressure_ratio_underflows():
    # As where (p/p_K)**zd overflows: find_root then bisects.
    _, problem, _, _ = REPRODUCERS["euler-slope-underflow"]
    assert euler.pressure_function_deriv(5e-324, problem) == math.inf


def _check_roe_pairs_against_mpmath(name):
    # Einfeldt's and Batten's pairs on a reproducer against u~ and
    # d^2 = (w_L c_L^2 + w_R c_R^2)/(w_L + w_R) + eta w_L w_R
    # (u_R - u_L)^2/(w_L + w_R)^2 in 50-digit mpmath: within 1e-15 of the
    # speed scale.  Batten's pair also holds the eigenvalues.
    mpmath = pytest.importorskip("mpmath")
    _, problem, _, _ = REPRODUCERS[name]
    left, right = problem.left, problem.right
    with mpmath.workdps(50):
        g = mpmath.mpf(problem.params.gamma)
        wl, wr = mpmath.sqrt(left.rho), mpmath.sqrt(right.rho)
        cl, cr = mpmath.sqrt(g * left.p / left.rho), mpmath.sqrt(g * right.p / right.rho)
        du = mpmath.mpf(right.u) - left.u
        u_roe = (wl * left.u + wr * right.u) / (wl + wr)
        for estimator, eta in ((euler._einfeldt, mpmath.mpf(0.5)), (euler._batten, (g - 1) / 2)):
            d = mpmath.sqrt((wl * cl**2 + wr * cr**2) / (wl + wr)
                            + eta * wl * wr / (wl + wr) ** 2 * du**2)
            expected = [u_roe - d, u_roe + d]
            if estimator is euler._batten:
                expected = [min(expected[0], left.u - cl), max(expected[1], right.u + cr)]
            got = estimator(problem)
            scale = max(map(abs, expected))
            for mine, theirs in zip(got, expected):
                assert abs(mine - theirs) <= 1e-15 * scale, (estimator, got, expected)


@pytest.mark.parametrize("name", ["euler-einfeldt-infinite-speeds",
                                  "euler-einfeldt-weight-overflow",
                                  "euler-roe-velocity-overflow",
                                  "euler-roe-velocity-difference-overflow"])
def test_roe_pairs_fit_where_their_squares_overflow(name):
    # A square of the Roe speed d^2 overflows (u_R - u_L = -2e200;
    # (sqrt(rho_L) + sqrt(rho_R))^2 = 4e308), a product of the Roe velocity
    # does (sqrt(rho_L) u_L = 1e350), or the velocity difference itself does
    # (u_R - u_L = -2e308).
    _check_roe_pairs_against_mpmath(name)


def test_roe_pairs_fit_where_their_squares_underflow():
    # The term w_L c_L^2/(w_L + w_R) = 1.4e-330 of d^2 underflows.
    _check_roe_pairs_against_mpmath("euler-roe-square-underflow")


def test_exact_speeds_of_the_toro_reproducer_are_finite():
    # Only the closed-form estimators overflow; the star state fits a float.
    _, problem, _, _ = REPRODUCERS["euler-toro-infinite-speed"]
    assert euler.solve_exact(problem).s_left == pytest.approx(-2.629057572203892, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="u_L + u_R overflows in u* = 0.5 * (u_L + u_R) + ...; "
                   "the fix, 0.5 * left.u + 0.5 * right.u, waits on the text anchor of the "
                   "benchmark's smoke test (ROADMAP items 17 and 19)")
@pytest.mark.parametrize("system, state", [("euler", (1.0, 1e308, 1.0)), ("swe", (1.0, 1e308)),
                                           ("bfe", (1.0, 1e308))], ids=core.SYSTEMS)
def test_u_star_is_finite_where_the_velocity_sum_overflows(system, state):
    solution = core.system_module(system).solve_exact(core.make_problem(system, state, state))
    assert (solution.s_left, solution.s_right) == (1e308, 1e308)
    assert math.isfinite(solution.u_star)


#: The constants of `draw` at the ends of their ranges.
PARAMS_AT_THE_ENDS = {
    "euler": [{"gamma": gamma} for gamma in GAMMAS],
    "swe": [{"g": 1e-2}, {"g": 1e2}],
    "bfe": [{"beta": beta, "rho": rho} for beta in (1e2, 1e8) for rho in (0.5, 2.0)],
}


def states_at_the_float_ends(system):
    """States whose data values (and Euler densities) are 5e-324 or 1e300."""
    ends = (5e-324, 1e300)
    if system == "euler":
        return [(rho, 1.0, p) for rho in ends for p in ends]
    return [(x, 1.0) for x in ends]


@pytest.mark.parametrize("system", ["euler", "swe", "bfe"])
def test_q_factor_is_exactly_one_at_the_data_value(system):
    # So a star value tied with a side's data value gives that side the
    # eigenvalue u -/+ c to the bit on either branch: the tie of
    # `core.star_speeds` (x <= x_K) and the `where` of `_kernel.speeds`
    # cannot move a speed.
    record, rng = core.system_record(system), random.Random(f"{SEED}:{system}")
    problems = [fuzz.sample_problem(system, rng) for _ in range(2000)]
    states = states_at_the_float_ends(system)
    problems += [core.make_problem(system, left, right, params)
                 for params in PARAMS_AT_THE_ENDS[system] for left in states for right in states]
    for problem in problems:
        try:
            sides = core.sides(problem)
        except ClosedFormOverflow:
            continue
        for side in sides:
            assert record.q_factor(side.x, side) == 1.0, problem


@pytest.mark.parametrize("system", ["euler", "swe", "bfe"])
def test_moderate_range_ensemble_meets_the_contract(system):
    rng = random.Random(f"{SEED}:{system}")
    for _ in range(DRAWS):
        check_contract(system, draw(system, rng))
