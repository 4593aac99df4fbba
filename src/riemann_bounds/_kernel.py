"""Lane kernel of `fuzz.run_fuzz`: the bound and dominance checks of a
chunk of problems at once, over numpy arrays.

Each problem is a lane.  The kernel solves no lane for its star value: it
proves that a lane's checks pass from the signs of the wave curve f.  f
increases, so a computed f(x) >= 0 puts the star value x* at or below x;
each shock factor q_K increases in x, so the speeds at such an x lie
outside the exact ones.  For every lane the kernel computes

- the wave data, as `core.wave_data`: x_rr, f at x_min, x_max and x_rr,
  and so the pattern;
- the TMS_a and TMS_b chord roots, as `core.tms`, and f at each;
- x_up, the smallest of these values where f >= 0 (x_min under R/R,
  x_max under R/S and S/R), and under R/R, where f(x_rr) rounds below 0,
  the root of the chord from (x_rr, f_rr) to (x_min, f_min), which lies at
  or above x* because f is concave;
- the outer pair: the speeds at x_up with the pattern's shocks, outside
  the exact speeds (a rarefaction side reads u_K -/+ c_K, the exact speed
  to the bit);
- each bound estimate of the system.

A lane passes when each estimate lies outside the outer pair by more than
the check's slack less `BAND`, and x_rr lies at or above x_up less the same.
The kernel does not decide a lane's verdict: it names the lanes that do not
pass, which the scalar check settles, and every other lane passes.  So are
named the lanes where the scalar check could raise: a value that is not
finite, a degenerate or non-positive TMS chord root, or f(x_rr) < 0 under
S/S, where the scalar bracket doubles.

The formulas are the scalar ones: the side record, the branch functions,
the closed form and the shock factor of each `System` record, and
`core.tms_d`, take arrays (`sqrt=numpy.sqrt`, states of arrays; a chunk
shares one params object); `core.tms_d` takes the `_Lanes` object as its
problem.  The kernel checks the `bound_estimators` of the record it is
given, which may be a copy of the problems' own.  Only what branches on a
value has its array form here: the choice between a side's two branches,
the pattern, the chord roots, the speeds and TMS_a-c.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter, is_not
from types import SimpleNamespace

import numpy as np

from .core import EstimatorId, System, fields, tms_d

#: Half-width of the doubt band around each threshold: a lane passes a
#: check with slack `REL_SLACK` less `BAND`, times a scale at most the
#: check's (at least it, for a negative slack).  It covers the scalar
#: check's own rounding, its star value solved to 1e-12, and the kernel's
#: estimates against the scalar ones, which differ by at most 3.4e-15 of
#: the check's scale on the acceptance ensembles (`tests/test_fuzz.py`).
BAND = 1e-10
#: The estimators that `_Lanes.estimate` evaluates: `fuzz.run_fuzz` runs
#: the kernel only when they cover the system's bound estimators.
ESTIMATORS = frozenset((EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
                        EstimatorId.TMS_C, EstimatorId.TMS_D))

_sqrt, _where, _minimum, _INF = np.sqrt, np.where, np.minimum, np.inf


def _gather(objects: Sequence, record_type: type) -> SimpleNamespace:
    """Struct of arrays of `record_type` objects: each field holds that
    field of every object, in order."""
    n = len(objects)
    return SimpleNamespace(**{
        name: np.fromiter(map(attrgetter(name), objects), float, count=n)
        for name in fields(record_type)})


def _chord(x1, f1, x2, f2):
    """`core.interpolate_root` over lanes, and where its points are
    degenerate (where it raises, and a little beyond)."""
    x = _where(f1 == 0.0, x1, _where(f2 == 0.0, x2, x1 - (x2 - x1) / (f2 - f1) * f1))
    return x, (x1 == x2) | (f1 == f2)


class _Lanes:
    """One chunk of problems as arrays, with the array form of the scalar
    code that branches on values.  Its methods run under the errstate of
    `scalar_lanes`."""

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

    def side(self, x, s):
        """Side term f_K(x) of side record `s`: the shock branch where x
        exceeds the side's data value."""
        system = self.system
        return _where(x > s.x, system.shock(x, s, _sqrt), system.rarefaction(x, s, _sqrt))

    def curve(self, x):
        left, right = self.left, self.right
        return self.side(x, left) + self.side(x, right) + (right.u - left.u)

    def speeds(self, x, left_shock, right_shock):
        """(S_L, S_R) with the shock factor at x on the sides that are
        shocks and the eigenvalue on the others, as `core.star_speeds`."""
        q_factor, left, right = self.system.q_factor, self.left, self.right
        return (left.u - left.c * _where(left_shock, q_factor(x, left, _sqrt), 1.0),
                right.u + right.c * _where(right_shock, q_factor(x, right, _sqrt), 1.0))

    def wave_data(self) -> None:
        """The pattern and the TMS_a-b chord roots of every lane, as
        `core.wave_data` and `core.tms`, its upper star value x_up and its
        outer pair."""
        system, left, right = self.system, self.left, self.right
        self.x_rr = x_rr = system.rr_closed_form(left, right, self.params)
        self.right_min = right_min = right.x <= left.x
        x_min = _where(right_min, right.x, left.x)
        self.x_max = x_max = _where(right_min, left.x, right.x)
        f_min, f_max, f_rr = self.curve(x_min), self.curve(x_max), self.curve(x_rr)
        self.doubt_unless(np.isfinite(x_rr) & np.isfinite(f_min)
                          & np.isfinite(f_max) & np.isfinite(f_rr))
        self.rr = rr = f_min >= 0.0
        self.ss = ss = ~rr & (f_max < 0.0)
        rr_up = f_rr >= 0.0
        self.doubt_unless(~ss | rr_up)  # else the scalar S/S bracket doubles
        # The chord roots: TMS_a from (x_min, f_min) to (x_max, f_max), TMS_b
        # from (x_min, f_min) to (x_rr, f_rr); under S/S, where x_rr > x_max
        # puts f_rr on the shock branch of both sides, TMS_a from (x_max,
        # f_max) and TMS_b from its S/S node to (x_rr, f_rr).
        f_node = f_min
        if system.ss_shock_extension:  # both sides on their shock branch at x_min
            f_node = _where(ss, system.shock(x_min, left, _sqrt) + system.shock(x_min, right, _sqrt)
                            + (right.u - left.u), f_min)
        self.chords = {
            EstimatorId.TMS_A: _chord(_where(ss, x_max, x_min), _where(ss, f_max, f_min),
                                      _where(ss, x_rr, x_max), _where(ss, f_rr, f_max)),
            EstimatorId.TMS_B: _chord(x_min, f_node, x_rr, f_rr),
        }
        # x_up, the smallest upper bound of x*: x_min under R/R, x_max under
        # R/S and S/R, x_rr and each chord root where f >= 0, and under R/R,
        # where f(x_rr) may round below 0, the root of the chord from (x_rr,
        # f_rr) to (x_min, f_min), at or above x* because f is concave.
        rr_chord = x_rr - (x_min - x_rr) / (f_min - f_rr) * f_rr
        x_up = _minimum(_where(rr, x_min, _where(ss, _INF, x_max)),
                        _where(rr_up, x_rr, _where(rr, rr_chord, _INF)))
        for x_hat, _ in self.chords.values():
            x_up = _minimum(x_up, _where(self.curve(x_hat) >= 0.0, x_hat, _INF))
        self.x_up = x_up
        # R/S: the shock is on the right; S/R: on the left; S/S: both.
        shocks = ~rr
        self.outer = self.speeds(x_up, shocks & (ss | ~right_min), shocks & (ss | right_min))

    def tms(self, variant: EstimatorId):
        """TMS_a-c over lanes, as `core.tms`."""
        system, left, right, rr, ss = self.system, self.left, self.right, self.rr, self.ss
        if variant is EstimatorId.TMS_C:
            x_hat, bad = _where(ss, self.x_rr, self.x_max), np.False_
        else:
            x_hat, bad = self.chords[variant]
        eigen = ss & (variant is EstimatorId.TMS_C and system.ss_tms_c_eigen)
        self.doubt_unless(rr | eigen | ~bad & (x_hat > 0.0))
        shocks = ~rr & ~eigen
        s_left, s_right = self.speeds(x_hat, shocks & (ss | ~self.right_min),
                                      shocks & (ss | self.right_min))
        if variant is EstimatorId.TMS_C and system.ss_tms_c_eigen:
            s_left = _where(ss, right.u - right.c, s_left)
            s_right = _where(ss, left.u + left.c, s_right)
        return s_left, s_right

    def estimate(self, estimator: EstimatorId):
        """(S_L, S_R) of an estimator of `ESTIMATORS` over lanes."""
        if estimator is EstimatorId.TORO:
            x_rr = self.x_rr
            return self.speeds(x_rr, x_rr > self.left.x, x_rr > self.right.x)
        if estimator is EstimatorId.TMS_D:
            return tms_d(self, _minimum, np.maximum)
        return self.tms(estimator)


@np.errstate(all="ignore")
def scalar_lanes(system: System, problems: Sequence, rel_slack: float) -> list[int]:
    """Indices, ascending, of the problems whose bound and dominance checks
    the scalar path must make: every lane whose checks the outer pair and
    x_up do not prove to pass, and so every lane with a violation.
    `problems` come from `fuzz.sample_problem`, and so share one params
    object (`ValueError` otherwise); the checks are those of
    `system.bound_estimators`, all of `ESTIMATORS`, with slack `rel_slack`."""
    lanes = _Lanes(system, problems)
    lanes.wave_data()
    s_left, s_right = lanes.outer
    lanes.doubt_unless(np.isfinite(s_left) & np.isfinite(s_right))
    margin = rel_slack - BAND
    # The check's slack is rel_slack times its scale, max(1, |S_L|, |S_R|) of
    # the exact speeds: a positive margin is taken at scale 1, below it; a
    # negative one at a scale above it, since each exact speed lies between
    # the outer one and its side's eigenvalue.
    scale = star_scale = 1.0
    if margin < 0.0:
        left, right = lanes.left, lanes.right
        scale = np.maximum(1.0, np.abs([s_left, s_right, left.u - left.c,
                                        right.u + right.c]).max(axis=0))
        star_scale = np.maximum(1.0, lanes.x_up)
    left_max, right_min = s_left + margin * scale, s_right - margin * scale
    for estimator in system.bound_estimators:
        e_left, e_right = lanes.estimate(estimator)
        lanes.doubt_unless((-_INF < e_left) & (e_left < left_max)
                           & (right_min < e_right) & (e_right < _INF))
    lanes.doubt_unless(lanes.x_rr >= lanes.x_up - margin * star_scale)
    return np.flatnonzero(lanes.doubt).tolist()
