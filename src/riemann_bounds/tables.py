"""Reference-table reproduction: embedded golden tables for the three
systems, per-cell diffing of recomputed values, and classification of
which published estimates fail to bound the exact wave speeds.

Each reference row's problem is built once per process (`_row_problems`)
and serves all three tables, so its side records and wave data are built
once; every `reproduce` call still looks the reference up with
`load_reference`, reads the published values and runs each row's root
solve afresh.  It builds a table in one pass: each row's published values
are read once, and the report's maximum deviation and pass flag are kept
up to date as the cells are made.

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


#: The running maximum deviation before the first one.  Every deviation is
#: >= 0 or NaN, so `best < 0.0` reads "no deviation yet", and the first one
#: replaces it, NaN included, as the first item starts `max()`.
_NO_DEVIATION = -1.0

#: Star-value tolerance at the published four decimals: one unit in the last
#: printed place, since the published star values mix round-to-nearest and
#: truncation in their final digit.  A row's `star_decimals` overrides it.
_STAR_TOL = 1.05 * 10.0 ** -4


def _speed_cells(cells: list[CellCheck], columns: list[tuple], test: dict, problem,
                 side: str, best: float, failed: bool) -> tuple[float, bool]:
    """Append one row of a speed table to `cells`: each column's speed pair
    of the row's `problem`, read from its function (`_speed_columns`).
    Returns the running maximum deviation `best` and the `failed` flag of
    the table, updated by the row's cells (see `reproduce`)."""
    index = 0 if side == "s_left" else 1
    row, test_id = test[side], test["id"]
    skipped = test.get("skipped_cells")
    skipped = skipped.get(side, ()) if skipped else ()
    append = cells.append
    for column, unimplemented, speeds in columns:
        expected = row[column]
        if unimplemented is not None:
            append(CellCheck(test_id, column, expected, None, None, "skipped", unimplemented))
        elif column in skipped:
            append(CellCheck(test_id, column, expected, None, None, "skipped", skipped[column]))
        else:
            computed = speeds(problem)[index]
            deviation = abs(computed - expected)
            # deviation <= max(CELL_TOL_ABS, CELL_TOL_REL * |expected|), NaN
            # included, without the call
            if deviation <= CELL_TOL_ABS or deviation <= CELL_TOL_REL * abs(expected):
                status = "ok"
            else:
                status, failed = "fail", True
            if deviation > best or best < 0.0:
                best = deviation
            append(CellCheck(test_id, column, expected, computed, deviation, status))
    return best, failed


def _ic_cells(cells: list[CellCheck], record: System, star_fields: list[str], test: dict,
              problem, best: float, failed: bool) -> tuple[float, bool]:
    """Append one row of the ic table to `cells`: the star values and the
    pattern of the module's `solve_exact` of the row's `problem` (the fields
    of `star_values`).  Returns `best` and `failed` as `_speed_cells` does."""
    solution = record.module.solve_exact(problem)
    test_id, star = test["id"], test["star"]
    star_skipped = test.get("star_skipped")
    decimals = test.get("star_decimals", ())
    append = cells.append
    for field in star_fields:
        expected = star[field]
        computed = getattr(solution, field)
        if star_skipped is not None:
            append(CellCheck(test_id, field, expected, computed, None, "skipped", star_skipped))
            continue
        tol = 1.05 * 10.0 ** -decimals[field] if field in decimals else _STAR_TOL
        deviation = abs(computed - expected)
        if deviation <= tol:
            status = "ok"
        else:
            status, failed = "fail", True
        if deviation > best or best < 0.0:
            best = deviation
        append(CellCheck(test_id, field, expected, computed, deviation, status))
    pattern = solution.pattern.value
    if pattern == test["pattern"]:
        status = "ok"
    else:
        status, failed = "fail", True
    append(CellCheck(test_id, "pattern", None, None, None, status,
                     f"expected {test['pattern']}, computed {pattern}"))
    return best, failed


def reproduce(system: str, table: str) -> TableReport:
    """Recompute one published table and diff it against the reference.

    The rows' problems, with their side records and wave data, are those
    of `_row_problems`, kept per process.  Every call looks the reference
    up with `load_reference`, reads its published values and solves each
    row afresh: no solve, estimate, cell or report is kept between calls.

    One pass over the rows builds the cells and the summary together, and
    reads each row's published values once: the maximum deviation is the
    one `max()` gives over the cells' deviations in cell order (the first
    of equal ones, and NaN only when it comes first), 0.0 when no cell has
    one, and the table passes when no cell fails.
    """
    if table not in TABLES:
        raise ValueError(f"unknown table {table!r}")
    ref = load_reference(system)
    record = system_record(system)
    rows = zip(ref["tests"], _row_problems(system), strict=True)
    cells: list[CellCheck] = []
    best, failed = _NO_DEVIATION, False
    if table == "ic":
        star_fields = ref["star_fields"]
        for test, problem in rows:
            best, failed = _ic_cells(cells, record, star_fields, test, problem, best, failed)
    else:
        columns = _speed_columns(record, ref)
        for test, problem in rows:
            best, failed = _speed_cells(cells, columns, test, problem, table, best, failed)
    return TableReport(
        system=system,
        table=table,
        cells=tuple(cells),
        max_deviation=0.0 if best < 0.0 else best,
        passed=not failed,
    )


def bound_violations(test: dict, side: str) -> list[str]:
    """Published estimates of one table row that fail to bound the exact speed.

    An entry violates the lower bound when it exceeds the exact minimal
    speed, and the upper bound when it falls short of the exact maximal
    speed, both by more than `VIOLATION_TOL` (the print resolution of the
    values).
    """
    row = test[side]
    exact = row["exact"]
    if side == "s_left":
        limit = exact + VIOLATION_TOL
        return [column for column, value in row.items() if value > limit and column != "exact"]
    limit = exact - VIOLATION_TOL
    return [column for column, value in row.items() if value < limit and column != "exact"]
