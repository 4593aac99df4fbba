"""Benchmark of riemann-bounds: fuzz, mesh and golden workloads.

    python3 bench/run.py --workload fuzz --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  `--trace 0` measures the end-to-end metrics, `--trace 1`
runs the workload with timing wrappers around the library's public
functions and reports the per-layer metrics (see README.md).  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics with their units.  A fuller result (medians, quartiles, sample
counts, environment) is written under bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7     # fresh interpreters timed for setup_s
IMPORT_PROBES = 5    # fresh interpreters timed for cli.import_ms
CLI_MAIN_CALLS = 20  # warm in-process `cli.main(["exact", ...])` calls
SOD_ARGV = ["exact", "--system", "euler", "--left", "1,0,1",
            "--right", "0.125,0,0.1", "--format", "json"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fuzz", "mesh", "golden", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies block, grid and subsample sizes (smoke test)")
    parser.add_argument("--out", default=str(BENCH / "results"),
                        help="directory for the result and trace files")
    return parser.parse_args(argv)


def summary(values):
    """Median, quartiles and count of one metric's samples."""
    values = list(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def child(args, *extra):
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--scale", str(args.scale), *extra]


# Fresh-interpreter probes, given the benchmark's and the library's
# directories as their first two arguments.  They import only what they
# time, so that the figure is the library's and the workload's own.
SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), float(sys.argv[5]), sys.argv[6])
print("ready", flush=True)
"""
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import riemann_bounds.cli
print(1e3 * (time.perf_counter() - start), flush=True)
"""


def probe(code, *argv) -> str:
    """Run `code` in a fresh interpreter and return its first output line,
    as soon as it is printed; the process is then waited for."""
    argv = [sys.executable, "-c", code, str(BENCH), str(SRC), *map(str, argv)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0:
            raise RuntimeError(f"probe {argv} exited {proc.returncode}")
    return line


def environment():
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), "")
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "numpy": numpy, "cpu": cpu or platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def measure(workload, seconds, after_round=None) -> int:
    """Whole rounds until `seconds` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        workload.round(rounds)
        rounds += 1
        if after_round is not None:
            after_round()
    return rounds


def run_untraced(args, workload, spec):
    from workloads import timed_process

    setup = [timed_process(lambda: probe(SETUP_PROBE, args.workload, args.seed, args.scale, ROOT),
                           cwd=ROOT)[1:]
             for _ in range(SETUP_PROBES)]
    workload = workload()
    workload.prepare()
    rounds = measure(workload, args.seconds)
    samples = dict(workload.samples, setup_s=[scaled for _, scaled in setup])
    raw = dict(workload.raw_samples, setup_s=[wall for wall, _ in setup])
    return workload, rounds, {m: dict(summary(samples[m]), raw_median=statistics.median(raw[m]))
                              for m in spec}


def run_traced(args, workload, spec):
    from tracing import Aggregate, Tracer, install, layer_value
    from riemann_bounds import cli
    from workloads import WORKLOADS

    wl = workload()
    wl.prepare()
    untraced_rounds = measure(wl, args.seconds / 3.0)
    untraced = {k: statistics.median(v) for k, v in wl.samples.items() if k.endswith("_per_s")}
    wl.samples = {k: [] for k in wl.samples}

    tracer = Tracer()
    per_round = {"own": [], "other": []}
    mark = [Aggregate()]

    def snapshot(kind):
        def after_round():
            now = tracer.agg.copy()
            per_round[kind].append(now.minus(mark[0]))
            mark[0] = now
        return after_round

    others = []
    uninstall = install(tracer)
    try:
        rounds = measure(wl, args.seconds * 2.0 / 3.0, snapshot("own"))
        # One round of each other workload, so that every layer has a figure.
        for name, cls in WORKLOADS.items():
            if name != args.workload:
                other = cls(args.seed, args.scale, str(ROOT))
                other.prepare()
                mark[0] = tracer.agg.copy()
                other.round(0)
                snapshot("other")()
                others.append(other)
        mark[0] = tracer.agg.copy()
        for _ in range(CLI_MAIN_CALLS):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                status = cli.main(SOD_ARGV)
            star = json.loads(out.getvalue())["results"][0]["star"]
            wl.check(status == 0 and round(star["p_star"], 5) == 0.30313,
                     f"cli.main exact on Sod: {status}, {star}")
        snapshot("other")()
    finally:
        uninstall()
    for other in others:
        wl.errors += other.errors
        wl.error_count += other.error_count

    imports = [float(probe(IMPORT_PROBE)) for _ in range(IMPORT_PROBES)]
    traced = {k: statistics.median(v) for k, v in wl.samples.items() if k.endswith("_per_s")}
    overhead = [100.0 * (untraced[k] / traced[k] - 1.0) for k in traced]

    metrics = {}
    for name in spec:
        if name == "cli.import_ms":
            values = imports
        elif name == "trace.overhead_pct":
            values = overhead
        else:
            values = []
            for kind in ("own", "other"):  # the workload's own figure first
                values = [v for v in (layer_value(name, a) for a in per_round[kind])
                          if v is not None]
                if values:
                    break
        if not values:
            raise RuntimeError(f"no spans for per-layer metric {name}")
        metrics[name] = summary(values)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz",
                 {"workload": args.workload, "seed": args.seed})
    return wl, untraced_rounds + rounds, metrics


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("fuzz", "mesh", "golden"):
        argv = child(args, "--trace", str(args.trace), "--out", args.out)
        argv[argv.index("all")] = name
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


# How the uniform metric names read on each workload.
_MEANING = {
    "fuzz": {f"{s}_ops_per_s": f"{s}_problems_per_s" for s in ("euler", "swe", "bfe")},
    "mesh": {f"{s}_ops_per_s": f"{s}_interfaces_per_s" for s in ("euler", "swe", "bfe")},
    "golden": {f"{s}_ops_per_s": f"{s}_table_passes_per_s" for s in ("euler", "swe", "bfe")},
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riemann_bounds" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)

    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench_spec["per_layer" if args.trace else "end_to_end"]}
    from workloads import WORKLOADS

    import riemann_bounds
    if Path(riemann_bounds.__file__).resolve().parent != SRC / "riemann_bounds":
        print(f"error: imported {riemann_bounds.__file__}, not the checkout's", file=sys.stderr)
        return 2

    def workload():
        return WORKLOADS[args.workload](args.seed, args.scale, str(ROOT))

    try:
        run = run_traced if args.trace else run_untraced
        wl, rounds, metrics = run(args, workload, spec)
    except Exception:  # report the broken run as incorrect, with its traceback
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    correct = wl.error_count == 0
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "rounds": rounds, "op": wl.op,
        "correct": correct, "attempted": wl.attempted, "failed": wl.failed,
        "failures": wl.failures, "errors": wl.errors, "error_count": wl.error_count,
        "environment": environment(),
        "metrics": {n: dict(value=s["median"], unit=spec[n]["unit"], better=spec[n]["better"], **s)
                    for n, s in metrics.items()},
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))

    meaning = _MEANING.get(args.workload, {})
    print(f"{args.workload}: {rounds} rounds, {wl.attempted} operations, {wl.failed} failed, "
          f"correct={correct}; one op = {wl.op}")
    for message in wl.errors:
        print(f"  CHECK FAILED: {message}")
    for message in wl.failures[:5]:
        print(f"  failed: {message}")
    for name, s in metrics.items():
        quartiles = f" [{s['q1']:.6g}, {s['q3']:.6g}]" if "q1" in s else ""
        alias = f" ({meaning[name]})" if name in meaning else ""
        print(f"  {name}{alias} = {s['median']:.6g} {spec[name]['unit']} "
              f"({spec[name]['better']} is better; median of {s['n']}{quartiles})")
    print(f"  result: {path}")
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": {n: {"value": s["median"], "unit": spec[n]["unit"]}
                                  for n, s in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
