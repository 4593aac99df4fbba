"""Lane kernel of `fuzz.run_fuzz`: the bound and dominance checks of a
chunk of problems at once, over numpy arrays.

Each problem is a lane.  For every lane the kernel computes what the scalar
check computes: the wave data, the Newton solve inside the lane's pattern
bracket, the exact speeds, each bound estimator of the system and the
two-rarefaction star value.  It does not decide a lane's verdict; it only
names the lanes whose verdict the scalar check must give, and every other
lane passes.  A lane passes here only when it is clean:

- its Newton iteration converged;
- every value it computed is finite, and no chord root of TMS is degenerate
  or non-positive;
- its bracket needed no doubling (S/S) and f(x_rr) >= 0 (R/S, S/R);
- every compared speed and the star value lie farther than `BAND` times
  their scale from the threshold of the check.

The formulas are the scalar ones: the side record, the branch functions,
the closed form and the shock factor of each `System` record, and
`core.chord_start` and `core.tms_d`, take arrays (`sqrt=numpy.sqrt`,
states of arrays; a chunk shares one params object); `core.tms_d` takes
the `_Lanes` object as its problem.  The kernel checks the `bound_estimators`
of the record it is given, which may be a copy of the problems' own.
Only what branches on a value has its array form here: the choice between
a side's two branches, the pattern, the bracket, the choice of the start,
the Newton iteration, the speeds and TMS_a-c.  The Newton iteration is
`core.find_root`'s loop over lanes, to the same tolerance,
`core.STAR_TOL`; the two differ only in their exits.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter, is_not
from types import SimpleNamespace

import numpy as np

from .core import (_GEOMETRIC_RATIO, _MIN_NORMAL, STAR_TOL, EstimatorId, System, chord_start,
                   fields, tms_d)

#: Half-width of the doubt band around each threshold, relative to the
#: scale of the check (that of `REL_SLACK`).  It is at least 100 times the
#: largest kernel-to-scalar difference of the exact speeds, estimates and
#: star values measured on the acceptance ensembles (`tests/test_fuzz.py`).
BAND = 1e-10
#: The estimators that `_Lanes.estimate` evaluates: `fuzz.run_fuzz` runs
#: the kernel only when they cover the system's bound estimators.
ESTIMATORS = frozenset((EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                        EstimatorId.TMS_C, EstimatorId.TMS_D))
#: Newton passes before an unconverged lane is left to the scalar check.
NEWTON_PASSES = 8

_sqrt, _where = np.sqrt, np.where


def _gather(objects: Sequence, record_type: type) -> SimpleNamespace:
    """Struct of arrays of `record_type` objects: each field holds that
    field of every object, in order."""
    n = len(objects)
    return SimpleNamespace(**{
        name: np.fromiter(map(attrgetter(name), objects), float, count=n)
        for name in fields(record_type)})


def _bisect(lo, hi):
    """`core._bisect` over lanes lo <= hi: the geometric mean of normal
    positive ends more than its ratio apart, else the midpoint."""
    geometric = (lo >= _MIN_NORMAL) & (hi > lo * _GEOMETRIC_RATIO)
    return _where(geometric, _sqrt(lo) * _sqrt(hi), 0.5 * (lo + hi))


def _chord(x1, f1, x2, f2):
    """`core.interpolate_root` over lanes, and where its points are
    degenerate (where it raises, and a little beyond)."""
    x = _where(f1 == 0.0, x1, _where(f2 == 0.0, x2, x1 - (x2 - x1) / (f2 - f1) * f1))
    return x, (x1 == x2) | (f1 == f2)


class _Lanes:
    """One chunk of problems as arrays, with the array form of the scalar
    code that branches on values."""

    def __init__(self, system: System, problems: Sequence):
        self.system = system
        self.params = params = problems[0].params
        if any(map(is_not, map(attrgetter("params"), problems), repeat(params))):
            raise ValueError("the problems of a chunk must share one params object, "
                             "as `fuzz.sample_problem` gives them")
        states = (_gather(list(map(attrgetter("left"), problems)), system.state_type),
                  _gather(list(map(attrgetter("right"), problems)), system.state_type))
        self.left, self.right = (system.side(state, params, _sqrt) for state in states)
        # What the shared formulas read of a problem: its side records, its
        # params, and `_wave_data`, which `core.tms_d` reads only to raise on
        # vacuum data.  Lanes are never vacuum, so any true value stands in;
        # None would make `core.tms_d` build the scalar wave data of the lanes.
        self._sides = (self.left, self.right)
        self._wave_data = True
        self.doubt = np.zeros(len(problems), dtype=bool)

    def doubt_unless(self, ok) -> None:
        """Leave every lane where `ok` is not true (NaN included) to the
        scalar check."""
        self.doubt |= ~ok

    def side(self, x, s, slope: bool = False):
        """Side term f_K(x) (or its slope) of side record `s`: the shock
        branch where x exceeds the side's data value."""
        system = self.system
        if slope:
            return _where(x > s.x, system.shock_slope(x, s, _sqrt),
                          system.rarefaction_slope(x, s, _sqrt))
        return _where(x > s.x, system.shock(x, s, _sqrt), system.rarefaction(x, s, _sqrt))

    def curve(self, x):
        left, right = self.left, self.right
        return self.side(x, left) + self.side(x, right) + (right.u - left.u)

    def slope(self, x):
        return self.side(x, self.left, True) + self.side(x, self.right, True)

    def speeds(self, x, left_shock, right_shock):
        """(S_L, S_R) with the shock factor at x on the sides that are
        shocks and the eigenvalue on the others, as `core.star_speeds`."""
        q_factor, left, right = self.system.q_factor, self.left, self.right
        return (left.u - left.c * _where(left_shock, q_factor(x, left, _sqrt), 1.0),
                right.u + right.c * _where(right_shock, q_factor(x, right, _sqrt), 1.0))

    def wave_data(self) -> None:
        """The pattern, the bracket and the Newton start of every lane, as
        `core.wave_data`, `core.star_bracket` and `core.star_start`."""
        system, left, right = self.system, self.left, self.right
        self.x_rr = x_rr = system.rr_closed_form(left, right, self.params)
        self.right_min = right_min = right.x <= left.x
        self.x_min = x_min = _where(right_min, right.x, left.x)
        self.x_max = x_max = _where(right_min, left.x, right.x)
        self.f_min, self.f_max, self.f_rr = f_min, f_max, f_rr = (
            self.curve(x_min), self.curve(x_max), self.curve(x_rr))
        self.doubt_unless(np.isfinite(x_rr) & np.isfinite(f_min)
                          & np.isfinite(f_max) & np.isfinite(f_rr))
        self.rr = rr = f_min >= 0.0
        self.ss = ss = ~rr & (f_max < 0.0)
        # R/R: (0, x_min]; R/S and S/R: [x_min, x_rr] where f(x_rr) >= 0
        # cuts it, which a clean lane needs; S/S: [x_max, max(x_rr, x_max)],
        # clean when f > 0 at its top without doubling.
        f_zero = (system.rarefaction(0.0, left, _sqrt) + system.rarefaction(0.0, right, _sqrt)
                  + (right.u - left.u))
        cut = (x_min < x_rr) & (x_rr < x_max) & (f_rr >= 0.0)
        ss_top = x_rr > x_max
        lo = _where(rr, 0.0, _where(ss, x_max, x_min))
        f_lo = _where(rr, f_zero, _where(ss, f_max, f_min))
        top = _where(ss, ss_top, cut)
        hi = _where(rr, x_min, _where(top, x_rr, x_max))
        f_hi = _where(rr, f_min, _where(top, f_rr, f_max))
        self.doubt_unless(rr | ss | (f_rr >= 0.0))
        self.doubt_unless((f_lo < 0.0) & (f_hi > 0.0))
        x = _where(rr, x_rr, chord_start(system, lo, hi, f_lo, f_hi, _sqrt))
        self.x0 = _where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        self.lo, self.hi = lo, hi

    def solve(self):
        """Star value of every lane: Newton from the start, inside the
        bracket, bisecting where a step leaves it, until the step falls
        below `core.STAR_TOL` of the iterate.  Lanes still moving after
        `NEWTON_PASSES`, or with a non-finite value or slope on the way,
        are left to the scalar check."""
        x, lo, hi = self.x0, self.lo, self.hi
        root = np.full_like(x, np.nan)
        moving = np.ones(x.shape, dtype=bool)
        for _ in range(NEWTON_PASSES):
            fx, dfx = self.curve(x), self.slope(x)
            self.doubt_unless(~moving | np.isfinite(fx) & np.isfinite(dfx) & (dfx > 0.0))
            below = fx < 0.0
            lo, hi = _where(below, x, lo), _where(below, hi, x)
            step = x - fx / dfx
            done = moving & ((fx == 0.0) | (np.abs(step - x) <= STAR_TOL * x))
            root = _where(done, _where(fx == 0.0, x, step), root)
            moving &= ~done
            if not moving.any():
                break
            x = _where((lo < step) & (step < hi), step, _bisect(lo, hi))
        self.doubt_unless(~moving & (self.lo < root) & (root < self.hi))
        return root

    def tms(self, variant: EstimatorId):
        """TMS_a-c over lanes, as `core.tms`."""
        system, left, right = self.system, self.left, self.right
        x_min, x_max, x_rr = self.x_min, self.x_max, self.x_rr
        rr, ss = self.rr, self.ss
        if variant is EstimatorId.TMS_A:
            one, one_bad = _chord(x_min, self.f_min, x_max, self.f_max)
            two, two_bad = _chord(x_max, self.f_max, x_rr, self.f_rr)
        elif variant is EstimatorId.TMS_B:
            one, one_bad = _chord(x_min, self.f_min, x_rr, self.f_rr)
            f_node = self.f_min
            if system.ss_shock_extension:  # both sides on their shock branch at x_min
                f_node = (system.shock(x_min, left, _sqrt) + system.shock(x_min, right, _sqrt)
                          + (right.u - left.u))
            two, two_bad = _chord(x_min, f_node, x_rr, self.f_rr)
        else:
            one, one_bad, two, two_bad = x_max, False, x_rr, False
        x_hat, bad = _where(ss, two, one), _where(ss, two_bad, one_bad)
        eigen = ss & (variant is EstimatorId.TMS_C and system.ss_tms_c_eigen)
        self.doubt_unless(rr | eigen | ~bad & (x_hat > 0.0))
        # R/S: the shock is on the right; S/R: on the left; S/S: both.
        shocks = ~rr & ~eigen
        s_left, s_right = self.speeds(x_hat, shocks & (ss | ~self.right_min),
                                      shocks & (ss | self.right_min))
        if variant is EstimatorId.TMS_C and system.ss_tms_c_eigen:
            s_left = _where(ss, right.u - right.c, s_left)
            s_right = _where(ss, left.u + left.c, s_right)
        return s_left, s_right

    @np.errstate(all="ignore")
    def estimate(self, estimator: EstimatorId):
        """(S_L, S_R) of an estimator of `ESTIMATORS` over lanes."""
        if estimator is EstimatorId.TORO:
            x_rr = self.x_rr
            return self.speeds(x_rr, x_rr > self.left.x, x_rr > self.right.x)
        if estimator is EstimatorId.TMS_D:
            return tms_d(self, np.minimum, np.maximum)
        return self.tms(estimator)

    @np.errstate(all="ignore")
    def exact(self):
        """(star value, S_L, S_R) of every lane, as `solve_exact`."""
        self.wave_data()
        star = self.solve()
        s_left, s_right = self.speeds(star, star > self.left.x, star > self.right.x)
        self.doubt_unless(np.isfinite(s_left) & np.isfinite(s_right))
        return star, s_left, s_right


@np.errstate(all="ignore")
def scalar_lanes(system: System, problems: Sequence, rel_slack: float) -> list[int]:
    """Indices, ascending, of the problems whose bound and dominance checks
    the scalar path must make: every lane that is not clean, and so every
    lane with a violation.  `problems` come from `fuzz.sample_problem`, and
    so share one params object (`ValueError` otherwise);
    the checks are those of `system.bound_estimators`, all of `ESTIMATORS`,
    with slack `rel_slack`."""
    lanes = _Lanes(system, problems)
    star, s_left, s_right = lanes.exact()
    scale = np.maximum(1.0, np.maximum(np.abs(s_left), np.abs(s_right)))
    left_max, right_min = s_left + rel_slack * scale, s_right - rel_slack * scale
    band = BAND * scale
    for estimator in system.bound_estimators:
        e_left, e_right = lanes.estimate(estimator)
        lanes.doubt_unless((e_left < left_max - band) & (e_right > right_min + band))
    lanes.doubt_unless(lanes.x_rr > star - (rel_slack - BAND) * np.maximum(1.0, star))
    return np.flatnonzero(lanes.doubt).tolist()
