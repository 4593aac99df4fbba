"""Exact scaling laws of the wave speeds, checked without an oracle.

Speed scalings multiply every wave speed by lambda:
- Euler: (rho, u, p) -> (rho, lambda u, lambda^2 p);
- shallow water and blood flow: (x, u) -> (lambda^(2/(gamma-1)) x,
  lambda u) with the constants fixed, built from the params' `gamma`.
  Both are isentropic systems with pressure law P = kappa x^gamma, whose
  celerity c^2 = kappa gamma x^(gamma-1) scales by lambda^2, so the map
  takes solutions to solutions: lambda^2 h for shallow water (gamma = 2),
  lambda^4 A for blood flow (gamma = 3/2).  A wrong exponent fails the law.

With lambda a power of 2 the rescaled data and their square and fourth
roots are exact.  Shallow water then keeps every bit, its root solve
included; so does blood flow for every estimator but TMS_d, and so do the
Euler estimators that are formulas of the data alone (Davis a/b, Einfeldt,
Batten).  The Euler exact solve, Toro and TMS_a-c keep their speeds to
rounding.  Blood-flow TMS_d breaks the law: its floor area of 1e-12 cm^2
does not scale (ROADMAP items 18 and 21), which a strict xfail records.

Two more laws leave the speeds' scale alone:
- a Galilean shift: adding w to both velocities adds w to every speed of
  every estimator of each system;
- Euler's (alpha rho, u, alpha p) leaves every speed unchanged.

Every law keeps patterns and error types."""

import functools
import random

import pytest

from riemann_bounds import bloodflow, euler, shallow
from riemann_bounds.core import EstimatorId, asdict
from riemann_bounds.fuzz import sample_problem

LAMBDAS = {"2^-20": 2.0**-20, "2": 2.0, "2^20": 2.0**20}
DRAWS = 500  # first acceptance draws of seed 3, per system
MODULES = {"swe": shallow, "euler": euler, "bfe": bloodflow}


def isentropic_law(params):
    """The speed scaling (x, u) -> (lambda^(2/(gamma-1)) x, lambda u) of an
    isentropic system with pressure law P = kappa x^gamma."""
    power = 2.0 / (params.gamma - 1.0)
    return lambda v, s: (s**power * v[0], s * v[1])


#: Per system: the rescaling of one state's values, and the estimators
#: whose speeds keep every bit (EXACT included as an id).
LAWS = {
    "swe": (isentropic_law(shallow.SweParams()), {EstimatorId.EXACT, *shallow.ESTIMATORS}),
    "euler": (lambda v, s: (v[0], s * v[1], s * s * v[2]),
              {EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.EINFELDT,
               EstimatorId.BATTEN}),
    "bfe": (isentropic_law(bloodflow.BfeParams()),
            {EstimatorId.EXACT, *bloodflow.ESTIMATORS} - {EstimatorId.TMS_D}),
}
#: Estimators that break a law, by system; each has its strict xfail below.
SCALING_BREAKERS = {"bfe": {EstimatorId.TMS_D}}
#: Shifts w of both velocities: powers of 2 of either sign.
SHIFTS = {"2^-20": 2.0**-20, "-2": -2.0, "2^20": 2.0**20}
#: Euler's density and pressure factors alpha: powers of 4, whose square
#: roots are exact.
ALPHAS = {"4^-10": 4.0**-10, "4": 4.0, "4^10": 4.0**10}
#: Bound on |S(moved) - S(law)| where bits may move, relative to a speed
#: scale of the base speeds S: lambda max(|S_L|, |S_R|) for a scaling,
#: max(|S_L|, |S_R|, |w|) for a shift by w, max(|S_L|, |S_R|) for Euler's
#: alpha law.
REL_TOL = 1e-14


@functools.cache
def draws(system):
    """The base problems of every law, and each state's values."""
    rng = random.Random(3)
    problems = [sample_problem(system, rng) for _ in range(DRAWS)]
    return [(problem, [tuple(asdict(state).values()) for state in (problem.left, problem.right)])
            for problem in problems]


def build(system, left, right):
    record = MODULES[system].SYSTEM
    return record.problem_type(record.state_type(*left), record.state_type(*right))


def outcome(module, problem, estimator):
    """The `SpeedBounds` of a call, or the type of its error."""
    try:
        return module.estimate(problem, estimator)
    except Exception as error:  # noqa: BLE001 - errors are outcomes too
        return type(error)


def speed_scale(bounds, *floor):
    """max(|S_L|, |S_R|) of a `SpeedBounds`, or of it and a floor."""
    return max(abs(bounds.s_left), abs(bounds.s_right), *floor)


def check_law(system, pairs, estimators, speed, scale, exact_bits=()):
    """Each estimator on each (base, moved) problem pair: the moved pair has
    the base pattern or error type, and the speeds `speed(S)` of the base
    speeds S, bit for bit for `exact_bits` and otherwise within `REL_TOL`
    times `scale(base bounds)`."""
    module = MODULES[system]
    for base, moved in pairs:
        where = (asdict(moved.left), asdict(moved.right))
        for estimator in estimators:
            want, got = outcome(module, base, estimator), outcome(module, moved, estimator)
            if isinstance(want, type):
                assert got is want, (estimator, where)
                continue
            assert not isinstance(got, type), (estimator, where, got)
            assert got.pattern is want.pattern, (estimator, where)
            pair = (speed(want.s_left), speed(want.s_right))
            if estimator in exact_bits:
                assert repr((got.s_left, got.s_right)) == repr(pair), (estimator, where)
                continue
            bound = REL_TOL * scale(want)
            assert abs(got.s_left - pair[0]) <= bound, (estimator, where)
            assert abs(got.s_right - pair[1]) <= bound, (estimator, where)


def scaled_pairs(system, scale):
    """Each base problem with its twin under the system's speed scaling."""
    rescale = LAWS[system][0]
    return [(base, build(system, rescale(left, scale), rescale(right, scale)))
            for base, (left, right) in draws(system)]


def shifted_pairs(system, shift):
    """Each base problem, its velocities first rounded onto the grid of
    u + w so that the shifted data are exact, with its twin shifted by w."""
    pairs = []
    for _, states in draws(system):
        base = [(v[0], (v[1] + shift) - shift, *v[2:]) for v in states]
        moved = [(v[0], v[1] + shift, *v[2:]) for v in base]
        assert all(m[1] - shift == v[1] for m, v in zip(moved, base))  # an exact shift
        pairs.append((build(system, *base), build(system, *moved)))
    return pairs


@pytest.mark.parametrize("scale", LAMBDAS.values(), ids=LAMBDAS)
@pytest.mark.parametrize("system", LAWS)
def test_speeds_scale_with_the_data(system, scale):
    module = MODULES[system]
    estimators = [e for e in (EstimatorId.EXACT, *module.ESTIMATORS)
                  if e not in SCALING_BREAKERS.get(system, ())]
    check_law(system, scaled_pairs(system, scale), estimators, lambda s: scale * s,
              lambda want: scale * speed_scale(want), LAWS[system][1])


@pytest.mark.xfail(strict=True, reason="ROADMAP items 18 and 21: the blood-flow TMS_d floor "
                                       "area of 1e-12 cm^2 does not scale")
@pytest.mark.parametrize("scale", LAMBDAS.values(), ids=LAMBDAS)
def test_bfe_tms_d_scales_with_the_data(scale):
    check_law("bfe", scaled_pairs("bfe", scale), [EstimatorId.TMS_D], lambda s: scale * s,
              lambda want: scale * speed_scale(want))


@pytest.mark.parametrize("shift", SHIFTS.values(), ids=SHIFTS)
@pytest.mark.parametrize("system", MODULES)
def test_speeds_shift_with_the_velocities(system, shift):
    module = MODULES[system]
    check_law(system, shifted_pairs(system, shift), (EstimatorId.EXACT, *module.ESTIMATORS),
              lambda s: s + shift, lambda want: speed_scale(want, abs(shift)))


@pytest.mark.parametrize("alpha", ALPHAS.values(), ids=ALPHAS)
def test_euler_speeds_keep_under_density_and_pressure_scaling(alpha):
    pairs = [(base, build("euler", *[(alpha * v[0], v[1], alpha * v[2]) for v in states]))
             for base, states in draws("euler")]
    # Davis a/b, Einfeldt and Batten read the data through p / rho and
    # sqrt(rho) ratios, exact under a power of 4; the exact solve, Toro and
    # TMS_a-c round.
    exact_bits = {EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.EINFELDT,
                  EstimatorId.BATTEN}
    check_law("euler", pairs, (EstimatorId.EXACT, *euler.ESTIMATORS), lambda s: s,
              speed_scale, exact_bits)
