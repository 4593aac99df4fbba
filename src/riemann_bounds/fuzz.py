"""Randomized verification of the bound properties: certified estimators
must bracket the exact extreme wave speeds, and the two-rarefaction star
value must dominate the exact one, on large random problem ensembles."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .core import EstimatorId
from .tables import make_problem, system_record

#: Estimators with a proven bound property, per system.
BOUND_ESTIMATORS: Dict[str, Tuple[EstimatorId, ...]] = {
    "euler": (EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
              EstimatorId.TMS_C),
    "swe": (EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
            EstimatorId.TMS_C, EstimatorId.TMS_D),
    "bfe": (EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
            EstimatorId.TMS_C, EstimatorId.TMS_D),
}

#: Relative slack applied to every comparison, scaled by the problem's
#: speed magnitude; absorbs root-finder and floating-point round-off.
REL_SLACK = 1e-9


@dataclass(frozen=True)
class FuzzViolation:
    """One failed property check on one random problem."""

    trial: int
    estimator: str
    side: str  # "s_left" | "s_right" | "star"
    estimate: float
    exact: float
    left: Tuple[float, ...]
    right: Tuple[float, ...]


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a randomized property run; empty violations == all held."""

    system: str
    trials: int
    seed: int
    violations: Tuple[FuzzViolation, ...]


def sample_problem(system: str, rng: random.Random):
    """One random non-degenerate Riemann problem from the system ensemble."""
    record = system_record(system)
    while True:
        problem = make_problem(system, record.draw(rng), record.draw(rng))
        if record.positive(problem):
            return problem


def _violation(trial: int, estimator: str, side: str, estimate: float,
               exact: float, problem) -> FuzzViolation:
    return FuzzViolation(trial, estimator, side, estimate, exact,
                         tuple(vars(problem.left).values()),
                         tuple(vars(problem.right).values()))


def run_fuzz(system: str, count: int, seed: int,
             estimators: Optional[Tuple[EstimatorId, ...]] = None) -> FuzzReport:
    """Check the bound and dominance properties on `count` random problems."""
    if count <= 0:
        raise ValueError("count must be positive")
    if estimators is None:
        estimators = BOUND_ESTIMATORS[system]
    record = system_record(system)
    module, star_field = record.module, record.star_field
    rng = random.Random(seed)
    violations = []

    for trial in range(count):
        problem = sample_problem(system, rng)
        exact = module.solve_exact(problem)
        slack = REL_SLACK * max(1.0, abs(exact.s_left), abs(exact.s_right))

        for estimator in estimators:
            bounds = module.estimate(problem, estimator)
            if bounds.s_left > exact.s_left + slack:
                violations.append(_violation(
                    trial, estimator.value, "s_left", bounds.s_left,
                    exact.s_left, problem))
            if bounds.s_right < exact.s_right - slack:
                violations.append(_violation(
                    trial, estimator.value, "s_right", bounds.s_right,
                    exact.s_right, problem))

        star = getattr(exact, star_field)
        star_rr = problem._wave_data.x_rr  # the closed form, computed by the solve
        if star_rr < star - REL_SLACK * max(1.0, star):
            violations.append(_violation(
                trial, "two_rarefaction", "star", star_rr, star, problem))

    return FuzzReport(system, count, seed, tuple(violations))
