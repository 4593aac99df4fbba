"""Tests for the system-agnostic scaffolding."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from riemann_bounds.core import (
    DegeneratePoints,
    EstimatorId,
    InvalidBracket,
    NoConvergence,
    RootBracket,
    SpeedBounds,
    WaveData,
    WavePattern,
    ZeroMaxSpeed,
    courant_dt,
    find_root,
    interpolate_root,
    star_bracket,
)

NAN, INF = math.nan, math.inf


def two_pass_courant_dt(speeds, dx, c_cfl):
    """The two-pass definition of `courant_dt` that its one-pass loop
    replaced, kept as the reference: a finiteness loop, then max() of the
    pairwise max(), and no infinite step."""
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")
    if not 0.0 < c_cfl <= 1.0:
        raise ValueError("c_cfl must lie in (0, 1]")
    if not speeds:
        raise ValueError("speeds must be non-empty")
    isfinite = math.isfinite
    for i, s in enumerate(speeds):
        if not (isfinite(s.s_left) and isfinite(s.s_right)):
            raise ValueError(f"speeds[{i}] is not finite: s_left={s.s_left}, "
                             f"s_right={s.s_right} ({s.estimator})")
    s_max = max(max(abs(s.s_left), abs(s.s_right)) for s in speeds)
    if s_max == 0.0:
        raise ZeroMaxSpeed("all wave speeds are zero")
    if not math.isfinite(c_cfl * dx / s_max):
        raise ZeroMaxSpeed(f"the Courant step overflows: S_max = {s_max!r}")
    return c_cfl * dx / s_max


#: Seed and count of the special-value speed lists; `tools/output_digest.py`
#: digests `courant_dt` on the same lists.
SPECIAL_SEED, SPECIAL_LISTS = 17, 2000


def special_speed_lists(seed=SPECIAL_SEED, count=SPECIAL_LISTS):
    """(speeds, dx, c_cfl) per call: lists of 1-300 pairs drawn from a few of
    four kinds of value (signed zeros, subnormals, magnitudes near the
    largest float, normal magnitudes), and in half of the lists one or two
    +-inf or NaN at a random position and side."""
    rng = random.Random(seed)
    big = sys.float_info.max
    estimators = list(EstimatorId)
    kinds = (
        lambda: rng.choice((0.0, -0.0)),
        lambda: rng.choice((1, -1)) * rng.randrange(1, 2**52) * 5e-324,
        lambda: rng.choice((1.0, -1.0)) * big * rng.uniform(0.5, 1.0),
        lambda: rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0),
    )
    for _ in range(count):
        n, mix = rng.randint(1, 300), rng.sample(kinds, rng.randint(1, len(kinds)))
        pairs = [[rng.choice(mix)(), rng.choice(mix)()] for _ in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            pairs[rng.randrange(n)][rng.randrange(2)] = rng.choice((INF, -INF, NAN))
        speeds = [SpeedBounds(a, b, rng.choice(estimators)) for a, b in pairs]
        yield speeds, 10.0 ** rng.uniform(-8.0, 2.0), rng.choice((1.0, rng.uniform(0.05, 1.0)))


def dt_outcome(call, *args):
    """The dt's bits, or the type and message of the error."""
    try:
        return call(*args).hex()
    except Exception as error:  # noqa: BLE001 - errors are outcomes too
        return type(error), str(error)


class TestRootBracket:
    def test_valid(self):
        bracket = RootBracket(0.0, 5.0, -2.0, 3.0)
        assert bracket.lo == 0.0 and bracket.f_hi == 3.0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidBracket):
            RootBracket(5.0, 0.0, -2.0, 3.0)

    def test_same_sign_rejected(self):
        with pytest.raises(InvalidBracket):
            RootBracket(0.0, 5.0, 1.0, 3.0)

    def test_same_sign_rejected_when_the_product_underflows(self):
        with pytest.raises(InvalidBracket, match="same sign"):
            RootBracket(0.0, 5.0, 1e-200, 1e-200)
        with pytest.raises(InvalidBracket, match="same sign"):
            RootBracket(0.0, 5.0, -1e-200, -1e-300)

    def test_endpoint_root_allowed(self):
        RootBracket(0.0, 5.0, 0.0, 3.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, INF), (-INF, 1.0), (-INF, INF), (NAN, 1.0),
                                        (0.0, NAN)])
    def test_non_finite_end_rejected(self, lo, hi):
        with pytest.raises(InvalidBracket, match="finite"):
            RootBracket(lo, hi, -1.0, 1.0)

    @pytest.mark.parametrize("f_lo, f_hi", [(-0.5, INF), (-INF, 1.0), (NAN, 1.0), (-1.0, NAN)])
    def test_non_finite_value_rejected(self, f_lo, f_hi):
        with pytest.raises(InvalidBracket, match="finite"):
            RootBracket(0.0, 1.0, f_lo, f_hi)

    def test_find_root_never_sees_a_non_finite_bracket(self):
        # With f(hi) = inf the residual test passes at once, and an infinite
        # end is returned as the root: neither bracket can be built now.
        with pytest.raises(InvalidBracket):
            find_root(lambda x: x - 0.5, RootBracket(0.0, 1.0, -0.5, INF), lambda x: 1.0)
        with pytest.raises(InvalidBracket):
            find_root(lambda x: x - 0.5, RootBracket(0.0, INF, -1.0, 1.0), lambda x: 1.0)


def _ss_wave(curve):
    """S/S wave data whose two-rarefaction node still has f < 0."""
    x_max, x_rr = 1.0, 2.0
    return WaveData(0.5, x_max, curve(0.5), curve(x_max), x_rr, curve(x_rr),
                    WavePattern.SS)


class TestStarBracket:
    def test_ss_doubling(self):
        curve = lambda x: x - 5.0
        bracket = star_bracket(_ss_wave(curve), curve, -5.0)
        assert (bracket.lo, bracket.hi, bracket.f_hi) == (1.0, 8.0, 3.0)

    @pytest.mark.parametrize("curve", [
        lambda x: -1.0,                           # never turns positive
        lambda x: -1.0 if x < INF else INF,       # turns positive at an infinite end
        lambda x: -1.0 if x < 4.0 else INF,       # turns positive with an infinite value
        lambda x: -1.0 if x < 4.0 else NAN,
    ])
    def test_ss_doubling_to_infinity_does_not_converge(self, curve):
        with pytest.raises(NoConvergence):
            star_bracket(_ss_wave(curve), curve, -5.0)


class TestInterpolateRoot:
    def test_linear(self):
        assert interpolate_root((0.0, -2.0), (5.0, 3.0)) == pytest.approx(2.0)

    def test_endpoint_roots(self):
        assert interpolate_root((1.0, 0.0), (5.0, 3.0)) == 1.0
        assert interpolate_root((1.0, -1.0), (5.0, 0.0)) == 5.0

    def test_degenerate(self):
        with pytest.raises(DegeneratePoints):
            interpolate_root((1.0, 2.0), (1.0, 3.0))
        with pytest.raises(DegeneratePoints):
            interpolate_root((1.0, 2.0), (4.0, 2.0))


class TestFindRoot:
    def test_linear(self):
        bracket = RootBracket(0.0, 5.0, -2.0, 3.0)
        assert find_root(lambda x: x - 2.0, bracket, lambda x: 1.0) == pytest.approx(2.0)

    def test_quadratic(self):
        f = lambda x: x * x - 4.0
        bracket = RootBracket(0.0, 5.0, -4.0, 21.0)
        assert find_root(f, bracket, lambda x: 2.0 * x) == pytest.approx(2.0, rel=1e-10)

    def test_with_derivative(self):
        f = lambda x: x * x * x - 8.0
        bracket = RootBracket(0.0, 5.0, -8.0, 117.0)
        root = find_root(f, bracket, fprime=lambda x: 3.0 * x * x, x0=4.0)
        assert root == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("start_inside", [False, True])
    def test_bisection_spans_hundreds_of_decades(self, start_inside):
        # An infinite slope makes every Newton step a bisection.  Halving a
        # bracket of 393 decades at its midpoint gains one bit per step and
        # ran out of iterations; its geometric mean closes it.
        f = lambda x: math.log(x) - math.log(3.57e-141)  # noqa: E731
        lo, hi = 4.04e-205, 1.19e188
        bracket = RootBracket(lo, hi, f(lo), f(hi))
        root = find_root(f, bracket, fprime=lambda x: math.inf,
                         x0=1e100 if start_inside else None)
        assert root == pytest.approx(3.57e-141, rel=1e-11)

    def test_falling_bracket_rejected(self):
        # f must increase: a falling f, root-bracketing or not, is refused
        # with a message that names the orientation.
        f = lambda x: math.log(3.57e-141) - math.log(x)  # noqa: E731
        lo, hi = 4.04e-205, 1.19e188
        with pytest.raises(InvalidBracket, match="must increase"):
            find_root(f, RootBracket(lo, hi, f(lo), f(hi)), fprime=lambda x: -1.0 / x)

    def test_zero_at_the_lower_end_is_the_root(self):
        calls = []
        f = lambda x: calls.append(x) or x  # noqa: E731
        assert find_root(f, RootBracket(0.0, 1.0, 0.0, 1.0), lambda x: 1.0) == 0.0
        assert calls == []  # read from the bracket, without an evaluation

    def test_no_convergence_within_the_iteration_budget(self):
        # A step at 1e-300 with a NaN slope: every Newton step is a
        # bisection, at the midpoint while the lower end stays subnormal,
        # so 100 halvings from 1e308 never reach the root.
        f = lambda x: -1.0 if x < 1e-300 else 1.0  # noqa: E731
        with pytest.raises(NoConvergence, match="within 100 iterations"):
            find_root(f, RootBracket(5e-324, 1e308, -1.0, 1.0), lambda x: NAN)

    def test_invalid_tolerance(self):
        bracket = RootBracket(0.0, 5.0, -2.0, 3.0)
        with pytest.raises(ValueError):
            find_root(lambda x: x - 2.0, bracket, lambda x: 1.0, rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [NAN, INF, -INF, 1.0, 1.5, -1e-12, 0.0])
    @pytest.mark.parametrize("with_start", [False, True])
    def test_tolerance_outside_zero_one_rejected(self, rel_tol, with_start):
        # A tolerance of 1 or more passes the residual test at once: the
        # cubic below came back as 0.0, where f = -2.  NaN passed `<= 0`.
        f = lambda x: x**3 - 2.0
        with pytest.raises(ValueError, match=r"rel_tol must lie in \(0, 1\)"):
            find_root(f, RootBracket(0.0, 2.0, -2.0, 6.0), lambda x: 3.0 * x * x, rel_tol,
                      x0=1.0 if with_start else None)

    @pytest.mark.parametrize("rel_tol", [5e-324, 1e-300, 0.5, 0.999])
    def test_tolerance_inside_zero_one_accepted(self, rel_tol):
        f = lambda x: x**3 - 2.0
        root = find_root(f, RootBracket(0.0, 2.0, -2.0, 6.0), lambda x: 3.0 * x * x, rel_tol)
        assert 0.0 <= root <= 2.0
        if rel_tol < 1e-12:
            assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_slope_evaluated_at_most_once_per_iterate(self):
        seen = []

        def fprime(x):
            seen.append(x)
            return 3.0 * x * x

        # The far bracket end makes the residual test pass with a large
        # Newton correction still pending, which is then also the next step.
        f = lambda x: x**3 - 8.0
        root = find_root(f, RootBracket(0.0, 1e4, -8.0, 1e12 - 8.0), fprime, x0=3.0)
        assert root == pytest.approx(2.0, rel=1e-12)
        assert len(seen) == len(set(seen)) >= 3, seen

    @given(
        a=st.floats(0.01, 10.0),
        b=st.floats(0.0, 10.0),
        root=st.floats(-5.0, 5.0),
        start=st.one_of(st.none(), st.floats(-7.0, 9.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_cubic(self, a, b, root, start):
        # Strictly increasing cubic with a known root, from the endpoint
        # with the smaller |f| or from a start inside the bracket.
        f = lambda x: a * (x - root) ** 3 + b * (x - root)
        lo, hi = root - 7.0, root + 9.0
        bracket = RootBracket(lo, hi, f(lo), f(hi))
        fprime = lambda x: 3.0 * a * (x - root) ** 2 + b
        x = find_root(f, bracket, fprime, x0=None if start is None else root + start)
        # Contract: small residual relative to the bracket's f-scale, or a
        # tight bracket around the returned iterate.
        f_scale = max(abs(f(lo)), abs(f(hi)))
        assert abs(f(x)) <= 1e-12 * f_scale or abs(x - root) <= 1e-9 * max(
            1.0, abs(root)
        )


class TestCourantDt:
    def test_value(self):
        speeds = [SpeedBounds(-33.0886, 37.4166, EstimatorId.TMS_B)]
        assert courant_dt(speeds, dx=0.01, c_cfl=0.9) == pytest.approx(
            0.9 * 0.01 / 37.4166
        )

    def test_fastest_speed_wins(self):
        speeds = [
            SpeedBounds(-1.0, 2.0, EstimatorId.DAVIS_A),
            SpeedBounds(-8.0, 4.0, EstimatorId.DAVIS_B),
        ]
        assert courant_dt(speeds, dx=1.0, c_cfl=0.5) == pytest.approx(0.5 / 8.0)

    def test_homogeneity_in_dx(self):
        speeds = [SpeedBounds(-3.0, 5.0, EstimatorId.EXACT)]
        assert courant_dt(speeds, 2.0, 0.8) == pytest.approx(
            2.0 * courant_dt(speeds, 1.0, 0.8)
        )

    def test_errors(self):
        speeds = [SpeedBounds(-1.0, 1.0, EstimatorId.EXACT)]
        with pytest.raises(ValueError):
            courant_dt(speeds, dx=0.0, c_cfl=0.5)
        with pytest.raises(ValueError):
            courant_dt(speeds, dx=1.0, c_cfl=1.5)
        with pytest.raises(ValueError):
            courant_dt([], dx=1.0, c_cfl=0.5)
        with pytest.raises(ZeroMaxSpeed):
            courant_dt([SpeedBounds(0.0, 0.0, EstimatorId.EXACT)], 1.0, 0.5)

    def test_overflowing_step_rejected(self):
        # 0.9 * 0.01 / 5e-324 is past the float range: the step would be inf.
        speeds = [SpeedBounds(-5e-324, 0.0, EstimatorId.TMS_B)]
        with pytest.raises(ZeroMaxSpeed, match=r"^the Courant step overflows: S_max = 5e-324$"):
            courant_dt(speeds, 0.01, 0.9)
        assert courant_dt(speeds, 1e-300, 1.0) == 1e-300 / 5e-324

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("side", ["s_left", "s_right"])
    def test_non_finite_speed_rejected(self, bad, position, side):
        # A NaN anywhere is named, never skipped by a comparison.
        speeds = [SpeedBounds(-1.0, 2.0, EstimatorId.TMS_B) for _ in range(3)]
        pair = {"s_left": -1.0, "s_right": 2.0, side: bad}
        speeds[position] = SpeedBounds(pair["s_left"], pair["s_right"], EstimatorId.TORO)
        with pytest.raises(ValueError, match=rf"speeds\[{position}\] is not finite"):
            courant_dt(speeds, dx=1.0, c_cfl=0.5)

    def test_first_non_finite_speed_is_named(self):
        speeds = [SpeedBounds(-1.0, 2.0, EstimatorId.TORO), SpeedBounds(NAN, 2.0, EstimatorId.TORO),
                  SpeedBounds(-1.0, INF, EstimatorId.TORO)]
        with pytest.raises(ValueError, match=r"speeds\[1\] is not finite: s_left=nan"):
            courant_dt(speeds, dx=1.0, c_cfl=0.5)

    @pytest.mark.parametrize("dx", [NAN, INF])
    def test_non_finite_dx_rejected(self, dx):
        speeds = [SpeedBounds(-1.0, 2.0, EstimatorId.TORO)]
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            courant_dt(speeds, dx=dx, c_cfl=0.5)

    def test_finite_result_unchanged(self):
        speeds = [SpeedBounds(-0.1, 0.3, EstimatorId.TORO), SpeedBounds(-7.25, 1e-3, EstimatorId.TORO),
                  SpeedBounds(-0.0, 7.25, EstimatorId.TORO)]
        assert courant_dt(speeds, 0.01, 0.9) == 0.9 * 0.01 / 7.25

    def test_matches_the_two_pass_definition(self):
        # Same bits or the same error on every special-value list, errors
        # of every kind among them, and never an infinite step.
        outcomes = set()
        for speeds, dx, c_cfl in special_speed_lists():
            got = dt_outcome(courant_dt, speeds, dx, c_cfl)
            assert got == dt_outcome(two_pass_courant_dt, speeds, dx, c_cfl), (speeds, dx, c_cfl)
            outcomes.add(got[0] if isinstance(got, tuple) else float.fromhex(got) < INF)
        assert outcomes == {ValueError, ZeroMaxSpeed, True}

    def test_generator_gives_the_bits_of_the_list(self):
        for speeds, dx, c_cfl in special_speed_lists(count=200):
            assert (dt_outcome(courant_dt, (s for s in speeds), dx, c_cfl)
                    == dt_outcome(courant_dt, speeds, dx, c_cfl))

    def test_empty_iterator_rejected(self):
        with pytest.raises(ValueError, match="^speeds must be non-empty$"):
            courant_dt(iter([]), dx=1.0, c_cfl=0.5)

    @pytest.mark.parametrize("position", [0, 1, 4])
    def test_generator_names_the_non_finite_pair(self, position):
        speeds = [SpeedBounds(-1.0, 2.0, EstimatorId.TMS_B) for _ in range(5)]
        speeds[position] = SpeedBounds(-1.0, NAN, EstimatorId.TORO)
        with pytest.raises(ValueError, match=rf"^speeds\[{position}\] is not finite: "
                                             rf"s_left=-1.0, s_right=nan"):
            courant_dt((s for s in speeds), dx=1.0, c_cfl=0.5)


def test_wave_pattern_values():
    assert {p.value for p in WavePattern} == {"RR", "RS", "SR", "SS", "Vacuum"}


def test_estimator_ids_round_trip():
    for estimator in EstimatorId:
        assert EstimatorId(estimator.value) is estimator
