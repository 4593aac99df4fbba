"""Randomized verification of the bound properties: certified estimators
must bracket the exact extreme wave speeds, and the two-rarefaction star
value must dominate the exact one, on large random problem ensembles."""

from __future__ import annotations

import random

from .core import (_REGISTRY, asdict, make_problem, positivity, record, speed_function,
                   system_record, wave_data)

#: Relative slack applied to every comparison, scaled by the problem's
#: speed magnitude; absorbs root-finder and floating-point round-off.
REL_SLACK = 1e-9


@record
class FuzzViolation:
    """One failed property check on one random problem."""

    trial: int
    estimator: str
    side: str  # "s_left" | "s_right" | "star"
    estimate: float
    exact: float
    left: tuple[float, ...]
    right: tuple[float, ...]


@record
class FuzzReport:
    """Outcome of a randomized property run; empty violations == all held."""

    system: str
    trials: int
    seed: int
    violations: tuple[FuzzViolation, ...]


def sample_problem(system: str, rng: random.Random):
    """One random non-degenerate Riemann problem from the system ensemble.

    Each candidate pair of draws is tested for positivity on the drawn
    values themselves (`System.celerity`, `core.positivity`), with the
    bits of the public positivity test, and only the accepted pair is built
    into a problem (`make_problem`, one call per sample).  The problem
    comes without its side records, which a solve or an estimate builds
    when it first reads them: a constant past the float range therefore
    raises there, not here.
    """
    record = _REGISTRY.get(system) or system_record(system)
    draw, celerity = record.draw, record.celerity
    params = record.params  # the one `make_problem` passes
    while True:
        left, right = draw(rng), draw(rng)
        if positivity(celerity(left, params), celerity(right, params), right[1] - left[1],
                      params):
            return make_problem(system, left, right)


def _violation(trial: int, estimator: str, side: str, estimate: float,
               exact: float, problem) -> FuzzViolation:
    return FuzzViolation(trial, estimator, side, estimate, exact,
                         tuple(asdict(problem.left).values()),
                         tuple(asdict(problem.right).values()))


#: Fewest trials for which `run_fuzz` runs the lane kernel, when numpy
#: imports.  A cold process pays numpy's import first, about 0.1 s, which
#: is more than the kernel saves on 1000 trials (a few tens of ms): the
#: threshold pays off only in a process that runs many chunks.
KERNEL_MIN_COUNT = 1000
#: Problems per kernel call.
KERNEL_CHUNK = 1024


def _lane_kernel():
    """The numpy lane kernel module, or None without numpy.  Imported on
    first use, so that importing the package never imports numpy."""
    try:
        from . import _kernel
    except ImportError:
        return None
    return _kernel


def run_fuzz(system: str, count: int, seed: int) -> FuzzReport:
    """Check the bound and dominance properties on `count` random problems:
    each of the system's `bound_estimators` against the exact speeds, and
    the two-rarefaction star value against the exact one.

    Each estimator is resolved once to the function of its pair
    (`core.speed_function`), which is read directly, without a
    `SpeedBounds` record per trial.

    The problems are drawn `KERNEL_CHUNK` at a time.  With numpy, at least
    `KERNEL_MIN_COUNT` trials and bound estimators that the lane kernel
    evaluates (`_kernel.ESTIMATORS`), the kernel (`_kernel.scalar_lanes`)
    names the problems of a chunk whose checks are not certain to pass;
    otherwise every problem is named.  Only those go through the scalar
    check, in trial order.  The scalar check alone builds violations and
    raises errors, so the report and any error are the same either way.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    record = system_record(system)
    checks = tuple((estimator.value, speed_function(record, estimator))
                   for estimator in record.bound_estimators)
    module, star_field = record.module, record.star_field
    rng = random.Random(seed)
    violations = []

    def check(trial: int, problem) -> None:
        """The scalar check of one trial: its exact solve, every estimator
        and the two-rarefaction dominance."""
        exact = module.solve_exact(problem)
        exact_left, exact_right = exact.s_left, exact.s_right
        slack = REL_SLACK * max(1.0, abs(exact_left), abs(exact_right))
        left_max, right_min = exact_left + slack, exact_right - slack

        for name, speeds in checks:
            s_left, s_right = speeds(problem)
            if s_left > left_max:
                violations.append(_violation(
                    trial, name, "s_left", s_left, exact_left, problem))
            if s_right < right_min:
                violations.append(_violation(
                    trial, name, "s_right", s_right, exact_right, problem))

        star = getattr(exact, star_field)
        # The closed form, computed by the solve.
        star_rr = (problem._wave_data or wave_data(problem)).x_rr
        if star_rr < star - REL_SLACK * max(1.0, star):
            violations.append(_violation(
                trial, "two_rarefaction", "star", star_rr, star, problem))

    kernel = _lane_kernel() if count >= KERNEL_MIN_COUNT else None
    if kernel is not None and not kernel.ESTIMATORS.issuperset(record.bound_estimators):
        kernel = None
    for start in range(0, count, KERNEL_CHUNK):
        problems = [sample_problem(system, rng) for _ in range(min(KERNEL_CHUNK, count - start))]
        lanes = (range(len(problems)) if kernel is None
                 else kernel.scalar_lanes(record, problems, REL_SLACK))
        for lane in lanes:
            check(start + lane, problems[lane])

    return FuzzReport(system, count, seed, tuple(violations))
