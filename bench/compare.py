"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py or a directory of
them.  Results are grouped by workload and trace mode; within a group the
metric values of all runs are reduced to their median.  For every
end-to-end metric the change is checked against its bound: how much NEW
may be worse than BASE, as a share of BASE's median.  Where BASE has four
or more runs whose quartile spread exceeds the bound, the metric is
reported as unresolved.  Per-layer metrics have no bound; their change is
listed.  The failed share of operations must be equal in both sets.

Exit status: 0 when everything agrees, 1 when a metric is worse than its
bound, a failed share differs or a run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path):
    """{(workload, trace): [result, ...]} from a file or a directory."""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    groups = defaultdict(list)
    for file in files:
        result = json.loads(file.read_text())
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def spread(values):
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def compare(base, new, spec):
    """Rows of (workload, trace, metric, base, new, change, verdict)."""
    rows, ok = [], True
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for side, runs in (("base", base[key]), ("new", new[key])):
            if not all(r["correct"] for r in runs):
                rows.append((workload, trace, f"({side} runs)", None, None, None, "INCORRECT"))
                ok = False
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in (base[key], new[key])]
        same = len(shares[0] | shares[1]) == 1
        rows.append((workload, trace, "failed share", min(shares[0]), min(shares[1]), None,
                     "ok" if same else "DIFFERS"))
        ok &= same
        for metric in metrics:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            cur = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not old or not cur:
                rows.append((workload, trace, name, None, None, None, "MISSING"))
                ok = False
                continue
            b, n = statistics.median(old), statistics.median(cur)
            change = n / b - 1.0
            worse = -change if metric["better"] == "higher" else change
            if "bound" not in metric:
                verdict = "better" if worse < 0 else "worse" if worse > 0 else "same"
            elif (spread(old) or 0.0) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                ok = False
            else:
                verdict = "ok"
            rows.append((workload, trace, name, b, n, change, verdict))
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    if not set(base) & set(new):
        print("error: no workload appears in both result sets", file=sys.stderr)
        return 1
    rows, ok = compare(base, new, spec)
    print(f"{'workload':8} {'trace':5} {'metric':42} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for workload, trace, name, b, n, change, verdict in rows:
        fmt = lambda v: "" if v is None else f"{v:.6g}"  # noqa: E731
        pct = "" if change is None else f"{100 * change:+.1f}%"
        print(f"{workload:8} {trace:<5} {name:42} {fmt(b):>12} {fmt(n):>12} {pct:>8}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
