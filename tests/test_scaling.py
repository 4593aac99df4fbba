"""Exact scaling laws of the wave speeds, checked without an oracle.

Shallow water: (h, u) -> (lambda^2 h, lambda u) with g fixed multiplies
every wave speed by lambda.  Euler: (rho, u, p) -> (rho, lambda u,
lambda^2 p) does the same.  With lambda a power of 2 the rescaled data and
their square roots are exact.  Shallow water then keeps every bit, its
root solve included, and so do the Euler estimators that are formulas of
the data alone (Davis a/b, Einfeldt, Batten); the Euler exact solve, Toro
and TMS_a-c keep their speeds to rounding.  Blood flow is left out: its
law is not derived yet."""

import random

import pytest

from riemann_bounds import euler, shallow
from riemann_bounds.core import EstimatorId, asdict
from riemann_bounds.fuzz import sample_problem

LAMBDAS = {"2^-20": 2.0**-20, "2": 2.0, "2^20": 2.0**20}
DRAWS = 500  # first acceptance draws of seed 3, per system
#: Per system: the module, the rescaling of one state's values, and the
#: estimators whose speeds keep every bit (EXACT included as an id).
LAWS = {
    "swe": (shallow, lambda v, s: (s * s * v[0], s * v[1]),
            {EstimatorId.EXACT, *shallow.ESTIMATORS}),
    "euler": (euler, lambda v, s: (v[0], s * v[1], s * s * v[2]),
              {EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.EINFELDT,
               EstimatorId.BATTEN}),
}
#: Bound on |S(scaled) - lambda S| / (lambda max(|S_L|, |S_R|)) for the rest.
REL_TOL = 1e-14


def outcome(module, problem, estimator):
    """The `SpeedBounds` of a call, or the type of its error."""
    try:
        return module.estimate(problem, estimator)
    except Exception as error:  # noqa: BLE001 - errors are outcomes too
        return type(error)


@pytest.mark.parametrize("scale", LAMBDAS.values(), ids=LAMBDAS)
@pytest.mark.parametrize("system", LAWS)
def test_speeds_scale_with_the_data(system, scale):
    module, rescale, exact_bits = LAWS[system]
    record = module.SYSTEM
    rng = random.Random(3)
    for base in [sample_problem(system, rng) for _ in range(DRAWS)]:
        left, right = (tuple(asdict(state).values()) for state in (base.left, base.right))
        scaled = record.problem_type(record.state_type(*rescale(left, scale)),
                                     record.state_type(*rescale(right, scale)))
        for estimator in (EstimatorId.EXACT, *module.ESTIMATORS):
            want, got = outcome(module, base, estimator), outcome(module, scaled, estimator)
            if isinstance(want, type):
                assert got is want, (estimator, left, right)
                continue
            assert not isinstance(got, type), (estimator, left, right, got)
            assert got.pattern is want.pattern, (estimator, left, right)
            pair = (scale * want.s_left, scale * want.s_right)
            if estimator in exact_bits:
                assert repr((got.s_left, got.s_right)) == repr(pair), (estimator, left, right)
                continue
            bound = REL_TOL * scale * max(abs(want.s_left), abs(want.s_right))
            assert abs(got.s_left - pair[0]) <= bound, (estimator, left, right)
            assert abs(got.s_right - pair[1]) <= bound, (estimator, left, right)
