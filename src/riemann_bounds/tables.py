"""Reference-table reproduction: embedded golden tables for the three
systems, per-cell diffing of recomputed values, and classification of
which published estimates fail to bound the exact wave speeds.

Each reference row's problem is built once per process (`_row_problems`)
and serves all three tables, so its side records and wave data are built
once; every `reproduce` call still reads the published values and runs
each row's root solve afresh.

The system registry (`system_record`, `make_problem`, ...) lives in
`core`, so that only the CLI's `reproduce` imports this module.  Its names
stay here as `tables.*` for `bench/workloads.py`, their only caller; the
package, its tests and `tools/output_digest.py` call them from `core`."""

from __future__ import annotations

import functools
import json

from .core import (SYSTEMS, TABLES, EstimatorId, System, make_problem, record,
                   speed_function, star_values, system_module, system_record)

#: |computed - published| tolerance floor for speed cells; the published
#: tables carry four decimals, so deviations below this are rounding noise.
CELL_TOL_ABS = 1e-3
CELL_TOL_REL = 1e-6

#: Margin when deciding whether a published estimate violates a bound.
VIOLATION_TOL = 1e-3

#: Each estimator id by its value, the name of its speed-table column.
_ESTIMATOR_IDS = {estimator.value: estimator for estimator in EstimatorId}


@functools.cache
def load_reference(system: str) -> dict:
    """Embedded golden table for a system, parsed once per process.

    Every call returns the same dict, shared by all callers: treat it as
    read-only.
    """
    from importlib import resources  # here, so that only reproduce pays for it

    system_record(system)  # raises for an unknown system
    path = resources.files(__package__) / "data" / f"{system}.json"
    return json.loads(path.read_text())


@functools.cache
def _row_problems(system: str) -> tuple:
    """The problem of each row of a system's golden table, in row order,
    built once per process and shared by every `reproduce` call: a problem
    keeps only its side records and wave data, never a root solve."""
    return tuple(make_problem(system, test["left"], test["right"])
                 for test in load_reference(system)["tests"])


@record
class CellCheck:
    """One recomputed table cell compared against its published value."""

    test_id: int
    column: str
    expected: float | None
    computed: float | None
    deviation: float | None
    status: str  # "ok" | "fail" | "skipped"
    note: str = ""


@record
class TableReport:
    """Comparison of one full recomputed table against the reference."""

    system: str
    table: str
    cells: tuple[CellCheck, ...]
    max_deviation: float
    passed: bool


def _speed_columns(record: System, ref: dict) -> list[tuple]:
    """The columns of a speed table, each resolved once per table:
    (column, the note of an unimplemented column or None, the column's
    `speed_function` or None)."""
    unimplemented = ref.get("unimplemented_columns", {})
    return [(column, unimplemented[column], None) if column in unimplemented
            else (column, None, speed_function(record, _ESTIMATOR_IDS[column]))
            for column in ref["columns"]]


def _speed_cells(columns: list[tuple], test: dict, problem,
                 side: str) -> list[CellCheck]:
    """One row of a speed table: each column's speed pair of the row's
    `problem`, read from its function (`_speed_columns`)."""
    index = 0 if side == "s_left" else 1
    row, test_id = test[side], test["id"]
    skipped = test.get("skipped_cells", {}).get(side, {})
    cells = []
    for column, unimplemented, speeds in columns:
        expected = row[column]
        if unimplemented is not None:
            cells.append(CellCheck(test_id, column, expected, None, None,
                                   "skipped", unimplemented))
            continue
        if column in skipped:
            cells.append(CellCheck(test_id, column, expected, None, None,
                                   "skipped", skipped[column]))
            continue
        computed = speeds(problem)[index]
        deviation = abs(computed - expected)
        # deviation <= max(CELL_TOL_ABS, CELL_TOL_REL * |expected|), NaN
        # included, without the call
        status = ("ok" if deviation <= CELL_TOL_ABS or deviation <= CELL_TOL_REL * abs(expected)
                  else "fail")
        cells.append(CellCheck(test_id, column, expected, computed,
                               deviation, status))
    return cells


def _ic_cells(record: System, star_fields: list[str], test: dict,
              problem) -> list[CellCheck]:
    """One row of the ic table: the star values and the pattern of the
    module's `solve_exact` of the row's `problem` (the fields of
    `star_values`)."""
    solution = record.module.solve_exact(problem)
    cells = []
    star_skipped = test.get("star_skipped")
    decimals = test.get("star_decimals", {})
    for field in star_fields:
        expected = test["star"][field]
        computed = getattr(solution, field)
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
    """Recompute one published table and diff it against the reference.

    The rows' problems, with their side records and wave data, are those
    of `_row_problems`, kept per process.  Every call looks the reference
    up with `load_reference`, reads its published values and solves each
    row afresh: no solve, estimate, cell or report is kept between calls.
    """
    if table not in TABLES:
        raise ValueError(f"unknown table {table!r}")
    ref = load_reference(system)
    record = system_record(system)
    rows = zip(ref["tests"], _row_problems(system), strict=True)
    cells: list[CellCheck] = []
    if table == "ic":
        for test, problem in rows:
            cells.extend(_ic_cells(record, ref["star_fields"], test, problem))
    else:
        columns = _speed_columns(record, ref)
        for test, problem in rows:
            cells.extend(_speed_cells(columns, test, problem, table))
    deviations = [c.deviation for c in cells if c.deviation is not None]
    return TableReport(
        system=system,
        table=table,
        cells=tuple(cells),
        max_deviation=max(deviations) if deviations else 0.0,
        passed=all(c.status != "fail" for c in cells),
    )


def bound_violations(test: dict, side: str) -> list[str]:
    """Published estimates of one table row that fail to bound the exact speed.

    An entry violates the lower bound when it exceeds the exact minimal
    speed, and the upper bound when it falls short of the exact maximal
    speed, both by more than `VIOLATION_TOL` (the print resolution of the
    values).
    """
    exact = test[side]["exact"]
    violators = []
    for column, value in test[side].items():
        if column == "exact":
            continue
        if side == "s_left":
            violates = value > exact + VIOLATION_TOL
        else:
            violates = value < exact - VIOLATION_TOL
        if violates:
            violators.append(column)
    return violators
