"""Reference-table reproduction: embedded golden tables for the three
systems, per-cell diffing of recomputed values, and classification of
which published estimates fail to bound the exact wave speeds."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from . import bloodflow, euler, shallow
from .core import EstimatorId, System

#: The systems, keyed by name; each module describes its system once, in
#: its `SYSTEM` record.
_REGISTRY: Dict[str, System] = {
    record.name: record for record in (euler.SYSTEM, shallow.SYSTEM, bloodflow.SYSTEM)
}
SYSTEMS = tuple(_REGISTRY)
TABLES = ("ic", "s_left", "s_right")

#: |computed - published| tolerance floor for speed cells; the published
#: tables carry four decimals, so deviations below this are rounding noise.
CELL_TOL_ABS = 1e-3
CELL_TOL_REL = 1e-6

#: Margin when deciding whether a published estimate violates a bound.
VIOLATION_TOL = 1e-3


def system_record(system: str) -> System:
    """`System` record of the named system."""
    try:
        return _REGISTRY[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}") from None


def system_module(system: str):
    """Solver module implementing the named system."""
    return system_record(system).module


def make_problem(system: str, left: Sequence[float], right: Sequence[float],
                 params: Optional[Dict[str, float]] = None):
    """Riemann problem object for a system from plain numeric data.

    Without overrides the problem keeps its class's default params object,
    shared by all such problems (params are frozen).
    """
    record = system_record(system)
    left_state, right_state = record.state_type(*left), record.state_type(*right)
    if params:
        return record.problem_type(left_state, right_state, record.params_type(**params))
    return record.problem_type(left_state, right_state)


def star_values(system: str, solution) -> Dict[str, float]:
    """Star-region values of an exact solution keyed like the reference."""
    field = system_record(system).star_field
    return {field: getattr(solution, field), "u_star": solution.u_star}


@functools.cache
def load_reference(system: str) -> dict:
    """Embedded golden table for a system, parsed once per process.

    Every call returns the same dict, shared by all callers: treat it as
    read-only.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    path = resources.files(__package__) / "data" / f"{system}.json"
    return json.loads(path.read_text())


def cell_tolerance(expected: float) -> float:
    return max(CELL_TOL_ABS, CELL_TOL_REL * abs(expected))


@dataclass(frozen=True)
class CellCheck:
    """One recomputed table cell compared against its published value."""

    test_id: int
    column: str
    expected: Optional[float]
    computed: Optional[float]
    deviation: Optional[float]
    status: str  # "ok" | "fail" | "skipped"
    note: str = ""


@dataclass(frozen=True)
class TableReport:
    """Comparison of one full recomputed table against the reference."""

    system: str
    table: str
    cells: Tuple[CellCheck, ...]
    max_deviation: float
    passed: bool


def _speed_cells(system: str, ref: dict, test: dict, side: str) -> List[CellCheck]:
    module = system_module(system)
    problem = make_problem(system, test["left"], test["right"])
    unimplemented = ref.get("unimplemented_columns", {})
    skipped = test.get("skipped_cells", {}).get(side, {})
    cells = []
    for column in ref["columns"]:
        expected = test[side][column]
        if column in unimplemented:
            cells.append(CellCheck(test["id"], column, expected, None, None,
                                   "skipped", unimplemented[column]))
            continue
        if column in skipped:
            cells.append(CellCheck(test["id"], column, expected, None, None,
                                   "skipped", skipped[column]))
            continue
        bounds = module.estimate(problem, EstimatorId(column))
        computed = bounds.s_left if side == "s_left" else bounds.s_right
        deviation = abs(computed - expected)
        status = "ok" if deviation <= cell_tolerance(expected) else "fail"
        cells.append(CellCheck(test["id"], column, expected, computed,
                               deviation, status))
    return cells


def _ic_cells(system: str, ref: dict, test: dict) -> List[CellCheck]:
    module = system_module(system)
    problem = make_problem(system, test["left"], test["right"])
    solution = module.solve_exact(problem)
    computed_star = star_values(system, solution)
    cells = []
    star_skipped = test.get("star_skipped")
    decimals = test.get("star_decimals", {})
    for field in ref["star_fields"]:
        expected = test["star"][field]
        computed = computed_star[field]
        if star_skipped is not None:
            cells.append(CellCheck(test["id"], field, expected, computed, None,
                                   "skipped", star_skipped))
            continue
        # One unit in the last printed place: the published star values mix
        # round-to-nearest and truncation in their final digit.
        tol = 1.05 * 10.0 ** -decimals.get(field, 4)
        deviation = abs(computed - expected)
        status = "ok" if deviation <= tol else "fail"
        cells.append(CellCheck(test["id"], field, expected, computed,
                               deviation, status))
    status = "ok" if solution.pattern.value == test["pattern"] else "fail"
    cells.append(CellCheck(test["id"], "pattern", None, None, None, status,
                           f"expected {test['pattern']}, "
                           f"computed {solution.pattern.value}"))
    return cells


def reproduce(system: str, table: str) -> TableReport:
    """Recompute one published table and diff it against the reference."""
    if table not in TABLES:
        raise ValueError(f"unknown table {table!r}")
    ref = load_reference(system)
    cells: List[CellCheck] = []
    for test in ref["tests"]:
        if table == "ic":
            cells.extend(_ic_cells(system, ref, test))
        else:
            cells.extend(_speed_cells(system, ref, test, table))
    deviations = [c.deviation for c in cells if c.deviation is not None]
    return TableReport(
        system=system,
        table=table,
        cells=tuple(cells),
        max_deviation=max(deviations) if deviations else 0.0,
        passed=all(c.status != "fail" for c in cells),
    )


def bound_violations(test: dict, side: str, tol: float = VIOLATION_TOL) -> List[str]:
    """Published estimates of one table row that fail to bound the exact speed.

    An entry violates the lower bound when it exceeds the exact minimal
    speed, and the upper bound when it falls short of the exact maximal
    speed, both by more than `tol` (the print resolution of the values).
    """
    exact = test[side]["exact"]
    violators = []
    for column, value in test[side].items():
        if column == "exact":
            continue
        if side == "s_left":
            violates = value > exact + tol
        else:
            violates = value < exact - tol
        if violates:
            violators.append(column)
    return violators
