"""Command-line harness: single-problem exact solutions, estimator
evaluation, golden-table reproduction and randomized property fuzzing."""

from __future__ import annotations

import argparse
import io
import sys
from collections.abc import Sequence

from .core import (SYSTEMS, TABLES, CollapseData, DryBed, EstimatorId, RiemannBoundsError,
                   SpeedBounds, System, UnsupportedEstimator, VacuumData, asdict, fields,
                   make_problem, star_values, system_record)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICAL = 2
EXIT_TOLERANCE = 3
EXIT_VIOLATIONS = 4
EXIT_SOLVER = 5  # any other library error: no convergence, closed-form overflow, ...

#: Physical-constant flags of each system, to the params field each sets.
#: Every subcommand with states takes all of them, and a flag of another
#: system is a usage error; kept here, so that building the parser imports
#: no system module.
_CONSTANT_FLAGS = {
    "euler": {"--gamma": "gamma"},
    "swe": {"--gravity": "g"},
    "bfe": {"--beta": "beta", "--rho-blood": "rho"},
}
#: Errors in the physical data: no positive star value, or a state or
#: constant out of range.
_PHYSICAL_ERRORS = (VacuumData, DryBed, CollapseData, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _parse_state(text: str, record: System) -> list[float]:
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


def _params_overrides(record: System, args) -> dict[str, float]:
    own = _CONSTANT_FLAGS[record.name]
    overrides: dict[str, float] = {}
    for flags in _CONSTANT_FLAGS.values():
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is None:
                continue
            if flag not in own:
                raise _UsageError(f"{flag} does not apply to the {record.name} system")
            overrides[own[flag]] = value
    return overrides


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    return "\n".join("| " + " | ".join(row) + " |"
                     for row in (header, ["---"] * len(header), *rows))


def _emit(args, payload: dict, header: Sequence[str],
          rows: Sequence[Sequence[str]], text: str | None = None) -> None:
    """Print a command's output in its --format: the payload for json, the
    header and rows for csv, and for md the command's own text, or the
    rows as a Markdown table when it passes none."""
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        import csv

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        print(buffer.getvalue().rstrip("\n"))
    else:
        print(_md_table(header, rows) if text is None else text)


def _result_json(bounds) -> dict:
    return {
        "estimator": bounds.estimator.value,
        "s_left": bounds.s_left,
        "s_right": bounds.s_right,
        "pattern": bounds.pattern.value if bounds.pattern is not None else None,
    }


def _problem(args):
    """(record, left, right, problem) of --system, --left, --right and flags."""
    record = system_record(args.system)
    left = _parse_state(args.left, record)
    right = _parse_state(args.right, record)
    overrides = _params_overrides(record, args)
    return record, left, right, make_problem(args.system, left, right, overrides)


def _problem_payload(args, left, right, params, results: list[dict]) -> dict:
    """The json payload of `exact` and `bounds`: the problem and its results."""
    return {
        "system": args.system,
        "problem": {
            "left": left,
            "right": right,
            "params": asdict(params),
        },
        "results": results,
    }


def _cmd_exact(args) -> int:
    record, left, right, problem = _problem(args)
    solution = record.module.solve_exact(problem)
    star = star_values(args.system, solution)
    bounds = SpeedBounds(solution.s_left, solution.s_right, EstimatorId.EXACT,
                         solution.pattern)
    payload = _problem_payload(args, left, right, problem.params,
                               [{**_result_json(bounds), "star": star}])
    header = [record.star_label, "u_*", "pattern", "s_left", "s_right"]
    row = [_fmt(star[record.star_field]), _fmt(solution.u_star),
           solution.pattern.value, _fmt(solution.s_left),
           _fmt(solution.s_right)]
    text = "\n".join(f"{name} = {value}" for name, value in zip(header, row))
    _emit(args, payload, header, [row], text)
    return EXIT_OK


def _resolve_estimators(args, module) -> list[EstimatorId]:
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
    payload = _problem_payload(args, left, right, problem.params,
                               [_result_json(bounds) for bounds in results])
    header = ["estimator", "s_left", "s_right", "pattern"]
    rows = [
        [bounds.estimator.value, _fmt(bounds.s_left), _fmt(bounds.s_right),
         bounds.pattern.value if bounds.pattern is not None else ""]
        for bounds in results
    ]
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .tables import reproduce

    report = reproduce(args.system, args.table)
    payload = {
        "system": report.system,
        "table": report.table,
        "max_deviation": report.max_deviation,
        "passed": report.passed,
        "cells": [asdict(cell) for cell in report.cells],
    }
    header = ["test", "column", "published", "computed", "|dev|", "status",
              "note"]
    rows = [
        [str(cell.test_id), cell.column, _fmt(cell.expected),
         _fmt(cell.computed), _fmt(cell.deviation), cell.status, cell.note]
        for cell in report.cells
    ]
    text = (f"{_md_table(header, rows)}\n\nmax |deviation| = "
            f"{report.max_deviation:.6f} ({'pass' if report.passed else 'FAIL'})")
    _emit(args, payload, header, rows, text)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _cmd_fuzz(args) -> int:
    from .fuzz import FuzzViolation, run_fuzz

    if args.count <= 0:
        raise _UsageError("--count must be positive")
    report = run_fuzz(args.system, args.count, args.seed)
    # One row per violation, in FuzzViolation's field order; the values at
    # full precision, as the md line prints them.
    header = list(fields(FuzzViolation))
    rows = [
        [str(v.trial), v.estimator, v.side, repr(v.estimate), repr(v.exact),
         str(v.left), str(v.right)]
        for v in report.violations
    ]
    text = "\n".join([
        f"system = {report.system}",
        f"trials = {report.trials}",
        f"seed = {report.seed}",
        f"violations = {len(report.violations)}",
        *("  trial {}: {} {} = {} vs exact {} (left={}, right={})".format(*row)
          for row in rows),
    ])
    _emit(args, asdict(report), header, rows, text)
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="riemann-bounds",
                     description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, states: bool):
        sub.add_argument("--system", required=True, choices=SYSTEMS)
        sub.add_argument("--format", choices=("md", "csv", "json"),
                         default="md")
        if states:
            sub.add_argument("--left", required=True, metavar="a,b[,c]")
            sub.add_argument("--right", required=True, metavar="a,b[,c]")
            for flags in _CONSTANT_FLAGS.values():
                for flag in flags:
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
    sub.add_argument("--table", required=True, choices=TABLES)
    sub.set_defaults(func=_cmd_reproduce)

    sub = subparsers.add_parser("fuzz", help="randomized bound checking")
    add_common(sub, states=False)
    sub.add_argument("--count", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
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
