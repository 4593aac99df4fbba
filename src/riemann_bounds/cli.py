"""Command-line harness: single-problem exact solutions, estimator
evaluation, golden-table reproduction and randomized property fuzzing."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, fields
from typing import Dict, List, Optional, Sequence

from .core import (
    EstimatorId,
    RiemannBoundsError,
    SpeedBounds,
    System,
    UnsupportedEstimator,
)
from . import tables
from .fuzz import run_fuzz
from .tables import make_problem, star_values, system_record

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICAL = 2
EXIT_TOLERANCE = 3
EXIT_VIOLATIONS = 4
EXIT_SOLVER = 5  # any other library error: no convergence, closed-form overflow, ...

_RECORDS = tuple(system_record(system) for system in tables.SYSTEMS)
#: Physical-constant flags of all systems; each applies to one system.
_CONSTANT_FLAGS = tuple(flag for record in _RECORDS for flag in record.flags)
#: Errors in the physical data: no positive star value, or a state or
#: constant out of range.
_PHYSICAL_ERRORS = tuple(record.no_star for record in _RECORDS) + (ValueError,)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _parse_state(text: str, record: System) -> List[float]:
    parts = text.split(",")
    arity = len(fields(record.state_type))
    if len(parts) != arity:
        raise _UsageError(
            f"--left/--right for {record.name} need {arity} "
            f"comma-separated values, got {text!r}"
        )
    try:
        return [float(part) for part in parts]
    except ValueError:
        raise _UsageError(f"non-numeric state component in {text!r}") from None


def _params_overrides(record: System, args) -> Dict[str, float]:
    overrides: Dict[str, float] = {}
    for flag in _CONSTANT_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag not in record.flags:
            raise _UsageError(f"{flag} does not apply to the {record.name} system")
        overrides[record.flags[flag]] = value
    return overrides


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def _emit_md(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _problem_json(left, right, params) -> dict:
    return {
        "left": list(left),
        "right": list(right),
        "params": {key: getattr(params, key) for key in vars(params)},
    }


def _result_json(bounds, star: Optional[dict] = None) -> dict:
    result = {
        "estimator": bounds.estimator.value,
        "s_left": bounds.s_left,
        "s_right": bounds.s_right,
        "pattern": bounds.pattern.value if bounds.pattern is not None else None,
    }
    if star is not None:
        result["star"] = star
    return result


def _problem(args):
    """(record, left, right, problem) of --system, --left, --right and flags."""
    record = system_record(args.system)
    left = _parse_state(args.left, record)
    right = _parse_state(args.right, record)
    overrides = _params_overrides(record, args)
    return record, left, right, make_problem(args.system, left, right, overrides)


def _cmd_exact(args) -> int:
    record, left, right, problem = _problem(args)
    solution = record.module.solve_exact(problem)
    star = star_values(args.system, solution)

    if args.format == "json":
        bounds = SpeedBounds(solution.s_left, solution.s_right, EstimatorId.EXACT,
                             solution.pattern)
        payload = {
            "system": args.system,
            "problem": _problem_json(left, right, problem.params),
            "results": [_result_json(bounds, star)],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    header = [record.star_label, "u_*", "pattern", "s_left", "s_right"]
    row = [_fmt(star[record.star_field]), _fmt(solution.u_star),
           solution.pattern.value, _fmt(solution.s_left),
           _fmt(solution.s_right)]
    if args.format == "csv":
        print(_emit_csv(header, [row]))
    else:
        for name, value in zip(header, row):
            print(f"{name} = {value}")
    return EXIT_OK


def _resolve_estimators(args, module) -> List[EstimatorId]:
    if args.estimator == "all":
        return [EstimatorId.EXACT, *module.ESTIMATORS]
    try:
        estimator = EstimatorId(args.estimator)
    except ValueError:
        raise _UsageError(f"unknown estimator {args.estimator!r}") from None
    return [estimator]  # estimate raises UnsupportedEstimator, naming the system


def _cmd_bounds(args) -> int:
    record, left, right, problem = _problem(args)
    module = record.module
    results = [module.estimate(problem, estimator)
               for estimator in _resolve_estimators(args, module)]

    if args.format == "json":
        payload = {
            "system": args.system,
            "problem": _problem_json(left, right, problem.params),
            "results": [_result_json(bounds) for bounds in results],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    header = ["estimator", "s_left", "s_right", "pattern"]
    rows = [
        [bounds.estimator.value, _fmt(bounds.s_left), _fmt(bounds.s_right),
         bounds.pattern.value if bounds.pattern is not None else ""]
        for bounds in results
    ]
    emit = _emit_csv if args.format == "csv" else _emit_md
    print(emit(header, rows))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report = tables.reproduce(args.system, args.table)

    if args.format == "json":
        payload = {
            "system": report.system,
            "table": report.table,
            "max_deviation": report.max_deviation,
            "passed": report.passed,
            "cells": [asdict(cell) for cell in report.cells],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK if report.passed else EXIT_TOLERANCE

    header = ["test", "column", "published", "computed", "|dev|", "status",
              "note"]
    rows = [
        [str(cell.test_id), cell.column, _fmt(cell.expected),
         _fmt(cell.computed), _fmt(cell.deviation), cell.status, cell.note]
        for cell in report.cells
    ]
    if args.format == "csv":
        print(_emit_csv(header, rows))
    else:
        print(_emit_md(header, rows))
        print(f"\nmax |deviation| = {report.max_deviation:.6f} "
              f"({'pass' if report.passed else 'FAIL'})")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _cmd_fuzz(args) -> int:
    if args.count <= 0:
        raise _UsageError("--count must be positive")
    report = run_fuzz(args.system, args.count, args.seed)

    if args.format == "json":
        payload = {
            "system": report.system,
            "trials": report.trials,
            "seed": report.seed,
            "violations": [asdict(violation) for violation in report.violations],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_VIOLATIONS if report.violations else EXIT_OK

    print(f"system = {report.system}")
    print(f"trials = {report.trials}")
    print(f"seed = {report.seed}")
    print(f"violations = {len(report.violations)}")
    for violation in report.violations:
        print(f"  trial {violation.trial}: {violation.estimator} "
              f"{violation.side} = {violation.estimate!r} vs exact "
              f"{violation.exact!r} (left={violation.left}, "
              f"right={violation.right})")
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="riemann-bounds",
                     description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, states: bool):
        sub.add_argument("--system", required=True, choices=tables.SYSTEMS)
        sub.add_argument("--format", choices=("md", "csv", "json"),
                         default="md")
        if states:
            sub.add_argument("--left", required=True, metavar="a,b[,c]")
            sub.add_argument("--right", required=True, metavar="a,b[,c]")
            for flag in _CONSTANT_FLAGS:
                sub.add_argument(flag, type=float, default=None)

    sub = subparsers.add_parser("exact", help="exact star state and speeds")
    add_common(sub, states=True)
    sub.set_defaults(func=_cmd_exact)

    sub = subparsers.add_parser("bounds", help="estimator speed pairs")
    add_common(sub, states=True)
    sub.add_argument("--estimator", default="all")
    sub.set_defaults(func=_cmd_bounds)

    sub = subparsers.add_parser("reproduce",
                                help="recompute a published table")
    add_common(sub, states=False)
    sub.add_argument("--table", required=True,
                     choices=("ic", "s_left", "s_right"))
    sub.set_defaults(func=_cmd_reproduce)

    sub = subparsers.add_parser("fuzz", help="randomized bound checking")
    add_common(sub, states=False)
    sub.add_argument("--count", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, UnsupportedEstimator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PHYSICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICAL
    except RiemannBoundsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
