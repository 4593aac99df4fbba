"""SHA-256 digest of the library's numerical outputs, to check that a change
leaves every output bit as it was.

    python3 tools/output_digest.py src
    python3 tools/output_digest.py ../base/src --problems 500 --dump base.txt

`<src>` is the `src/` directory of the checkout to digest; the library is
imported from there.  Run it on two checkouts and compare the digests; with
`--dump` each also writes its lines, so that `diff` names the first output
that moved.  The lines are, per system:

- the first `--problems` problems of the acceptance ensemble (the seeds of
  `tests/test_acceptance.py`): `solve_exact`, `classify` and `estimate` for
  every `EstimatorId`, unsupported ones included;
- `RAW_PAIRS` raw pairs of the system's fuzz draw, seed `RAW_SEED`, without
  the positivity filter of the acceptance ensemble, so that data leaving no
  positive star value are among them: the positivity test, `classify`, the
  two-rarefaction closed form, `solve_exact` and `estimate` for every
  `EstimatorId`;
- the benchmark's mesh grids of seeds 1-3 and their mirror images: every
  estimator of the system and the exact solve at every interface, and
  `courant_dt` of each estimator's column per grid;
- `run_fuzz` for seeds 1-3 with 1000 trials;

and then the nine `tables.reproduce` reports.  Values are written with
`repr`, which gives every float's bits exactly, and an error as its type
and message.  The mesh grids come from `bench/workloads.py` of the
checkout this script belongs to.

After the total the nine tables are reproduced a second time, each
system's in reverse table order, and the script exits 1 if a report
differs from the first pass: `tables` keeps each row's problem across
calls, so this checks that nothing one call leaves behind moves another's
output.  The second pass adds no line to the digest.

The public root finder has a section of its own, printed after the total
and not part of it, so that the total stays comparable with totals taken
before the section existed: `core.find_root` on `ROOT_CUBICS` seeded
increasing cubics with their slopes, at each of `ROOT_TOLS`, from its
default start and from a start inside the bracket, with the root and the
counts of function and slope evaluations.  `core.courant_dt` has one too,
also apart from the total: the dt or the error of each of `COURANT_LISTS`
seeded lists of speed pairs that mix signed zeros, subnormals, magnitudes
near the largest float and, in some lists, infinities and NaN (the mesh
lines above reach it only with finite columns).  The value types have one
too, apart from the total: for one sample of every record type and for
R/R wave data with NaN fields, and for what pickling at every protocol
from 0 to `pickle.HIGHEST_PROTOCOL`, `copy.copy` and `copy.deepcopy` give
back of each, the repr, whether it equals a copy rebuilt from the
sample's field values, and whether its hash equals that copy's and that
of the tuple of its field values.  It reads the fields from the
constructor signature, so that it runs on a checkout of any version.

After the total it prints, apart from it, the lanes that the lane kernel
(`riemann_bounds._kernel`) handed back to the scalar check in the
`run_fuzz` lines, per system, counted through a wrapper of
`_kernel.scalar_lanes`; without numpy the line reads "no kernel".  Then a
hash of the mesh grids' input states.  Digests compare only within one Python minor version: from
Python 3.12 on, `sum()` of floats is compensated, so `build_grid` in
`bench/workloads.py` builds different grids, and the nine mesh lines move
with the input hash while the library's outputs on equal inputs do not.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Per system, the seed of its acceptance ensemble.
ACCEPTANCE_SEEDS = {"euler": 42, "swe": 7, "bfe": 13}
MESH_SEEDS = (1, 2, 3)
FUZZ_SEEDS = (1, 2, 3)
FUZZ_TRIALS = 1000
RAW_SEED = 5
#: Per system, the public name of its positivity test.
POSITIVITY = {"euler": "check_positivity", "swe": "is_wet", "bfe": "is_open"}
RAW_PAIRS = 3000
ROOT_SEED = 11
ROOT_CUBICS = 300
ROOT_TOLS = (1e-6, 1e-10, 1e-12, 1e-14)
#: The special-value lists of `tests/test_core.py`.
COURANT_SEED, COURANT_LISTS = 17, 2000


def outcome(fn, *args) -> str:
    """repr of fn(*args), or the error it raises."""
    try:
        return repr(fn(*args))
    except Exception as error:  # noqa: BLE001 - errors are outputs too
        return f"{type(error).__name__}: {error}"


def acceptance_lines(system: str, count: int):
    from riemann_bounds import core, fuzz
    from riemann_bounds.core import EstimatorId

    module = core.system_module(system)
    rng = random.Random(ACCEPTANCE_SEEDS[system])
    for i in range(count):
        problem = fuzz.sample_problem(system, rng)
        yield f"{system} {i} exact {outcome(module.solve_exact, problem)}"
        yield f"{system} {i} classify {outcome(module.classify, problem)}"
        for estimator in EstimatorId:
            yield f"{system} {i} {estimator.value} {outcome(module.estimate, problem, estimator)}"


def raw_lines(system: str):
    from riemann_bounds import core
    from riemann_bounds.core import EstimatorId

    record = core.system_record(system)
    module = record.module
    positive = getattr(module, POSITIVITY[system])
    two_rarefaction = getattr(module, record.two_rarefaction)
    rng = random.Random(RAW_SEED)
    for i in range(RAW_PAIRS):
        problem = core.make_problem(system, record.draw(rng), record.draw(rng))
        yield f"raw {system} {i} positive {outcome(positive, problem)}"
        yield f"raw {system} {i} classify {outcome(module.classify, problem)}"
        yield f"raw {system} {i} two_rarefaction {outcome(two_rarefaction, problem)}"
        yield f"raw {system} {i} exact {outcome(module.solve_exact, problem)}"
        for estimator in EstimatorId:
            yield f"raw {system} {i} {estimator.value} {outcome(module.estimate, problem, estimator)}"


@functools.cache
def mesh(seed: int):
    """The benchmark's mesh workload of `seed`: its grids, dx and CFL number."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.Mesh(seed, 1.0, str(ROOT))


def mesh_lines(system: str, seed: int):
    from riemann_bounds import core
    from riemann_bounds.core import EstimatorId

    grids = mesh(seed)
    module = core.system_module(system)
    estimators = tuple(module.ESTIMATORS) + (EstimatorId.EXACT,)
    for k, pair in enumerate(grids.grids[system]):
        for side, problems in zip(("grid", "mirror"), pair):
            columns = {e: [] for e in estimators}
            for i, problem in enumerate(problems):
                for estimator in estimators:
                    try:
                        bounds = module.estimate(problem, estimator)
                    except Exception as error:  # noqa: BLE001
                        yield f"mesh {system} {seed} {k} {side} {i} {estimator.value} " \
                              f"{type(error).__name__}: {error}"
                        continue
                    columns[estimator].append(bounds)
                    yield f"mesh {system} {seed} {k} {side} {i} {bounds!r}"
            for estimator, column in columns.items():
                yield f"mesh {system} {seed} {k} {side} courant_dt {estimator.value} " \
                      f"{outcome(core.courant_dt, column, grids.dx, grids.CFL)}"


def mesh_input_lines():
    """The left and right state of every interface of every mesh grid."""
    for system in ACCEPTANCE_SEEDS:
        for seed in MESH_SEEDS:
            for k, pair in enumerate(mesh(seed).grids[system]):
                for side, problems in zip(("grid", "mirror"), pair):
                    for i, problem in enumerate(problems):
                        yield f"mesh input {system} {seed} {k} {side} {i} " \
                              f"{problem.left!r} {problem.right!r}"


def fuzz_lines(system: str):
    from riemann_bounds import fuzz

    for seed in FUZZ_SEEDS:
        yield f"fuzz {system} {seed} {outcome(fuzz.run_fuzz, system, FUZZ_TRIALS, seed)}"


def count_handed_back() -> dict | None:
    """Per system, a count of the lanes that `_kernel.scalar_lanes` hands
    back from here on, through a wrapper installed on the kernel module;
    None without the kernel (no numpy)."""
    from riemann_bounds import fuzz

    kernel = getattr(fuzz, "_lane_kernel", lambda: None)()
    if kernel is None:
        return None
    counts, scalar_lanes = dict.fromkeys(ACCEPTANCE_SEEDS, 0), kernel.scalar_lanes

    def counting(system, problems, rel_slack):
        lanes = scalar_lanes(system, problems, rel_slack)
        counts[system.name] += len(lanes)
        return lanes
    kernel.scalar_lanes = counting
    return counts


def table_lines(reports: dict, reverse: bool = False):
    """The line of each of the nine `tables.reproduce` reports, each
    system's tables in order or in reverse order, also kept in `reports`
    by (system, table)."""
    from riemann_bounds import core, tables

    order = core.TABLES[::-1] if reverse else core.TABLES
    for system in core.SYSTEMS:
        for table in order:
            line = f"table {system} {table} {outcome(tables.reproduce, system, table)}"
            reports[system, table] = line
            yield line


def counted_root(f, fprime, lo, hi, **kwargs):
    """(root, evaluations of f, evaluations of fprime) of `find_root` on
    [lo, hi].  Every argument but f and the bracket goes by keyword, so
    that the call reads the same whatever order a checkout's signature
    gives them."""
    from riemann_bounds.core import RootBracket, find_root

    calls = [0, 0]

    def counted_f(x):
        calls[0] += 1
        return f(x)

    def counted_fprime(x):
        calls[1] += 1
        return fprime(x)

    root = find_root(counted_f, RootBracket(lo, hi, f(lo), f(hi)), fprime=counted_fprime,
                     **kwargs)
    return root, calls[0], calls[1]


def root_lines():
    """`find_root` on increasing cubics f(x) = a (x - r)^3 + b (x - r):
    even ones on a bracket around r of 1e-3 to 1e3 on either side, odd
    ones with r > 0 on a bracket spanning up to 30 decades on either side,
    where bisection is geometric.  b = 0 gives a zero slope at the root."""
    rng = random.Random(ROOT_SEED)
    for i in range(ROOT_CUBICS):
        a, b = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.2:
            b = 0.0
        if i % 2 == 0:
            r = rng.uniform(-10.0, 10.0)
            lo, hi = r - 10.0 ** rng.uniform(-3, 3), r + 10.0 ** rng.uniform(-3, 3)
        else:
            r = 10.0 ** rng.uniform(-20, 20)
            lo, hi = r * 10.0 ** -rng.uniform(0, 30), r * 10.0 ** rng.uniform(0, 30)
        x0 = rng.uniform(lo, hi)

        def f(x, a=a, b=b, r=r):
            return a * (x - r) ** 3 + b * (x - r)

        def fprime(x, a=a, b=b, r=r):
            return 3.0 * a * (x - r) ** 2 + b

        for rel_tol in ROOT_TOLS:
            for start in (None, x0):
                result = outcome(lambda: counted_root(f, fprime, lo, hi, rel_tol=rel_tol,
                                                      x0=start))
                yield f"root {i} {r!r} {lo!r} {hi!r} {rel_tol!r} {start!r} {result}"


def courant_lines():
    """`courant_dt` on the special-value lists of `tests/test_core.py`,
    drawn as `special_speed_lists` there draws them: per call, lists of
    1-300 pairs from a few of four kinds of value, and in half of the lists
    one or two +-inf or NaN at a random position and side."""
    from riemann_bounds.core import EstimatorId, SpeedBounds, courant_dt

    rng = random.Random(COURANT_SEED)
    big = sys.float_info.max
    estimators = list(EstimatorId)
    kinds = (
        lambda: rng.choice((0.0, -0.0)),
        lambda: rng.choice((1, -1)) * rng.randrange(1, 2**52) * 5e-324,
        lambda: rng.choice((1.0, -1.0)) * big * rng.uniform(0.5, 1.0),
        lambda: rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0),
    )
    for i in range(COURANT_LISTS):
        n, mix = rng.randint(1, 300), rng.sample(kinds, rng.randint(1, len(kinds)))
        pairs = [[rng.choice(mix)(), rng.choice(mix)()] for _ in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            pairs[rng.randrange(n)][rng.randrange(2)] = rng.choice((math.inf, -math.inf, math.nan))
        speeds = [SpeedBounds(a, b, rng.choice(estimators)) for a, b in pairs]
        dx, c_cfl = 10.0 ** rng.uniform(-8.0, 2.0), rng.choice((1.0, rng.uniform(0.05, 1.0)))
        yield f"courant_dt {i} {dx!r} {c_cfl!r} {outcome(courant_dt, speeds, dx, c_cfl)}"


def record_samples():
    """One instance of every record type of the package, from library
    output, and R/R wave data."""
    from riemann_bounds import core, fuzz, tables
    from riemann_bounds.core import EstimatorId

    out = []
    for system in core.SYSTEMS:
        record = core.system_record(system)
        ref = tables.load_reference(system)["tests"][0]
        problem = core.make_problem(system, ref["left"], ref["right"])
        out += [problem.left, problem.params, problem, record.module.solve_exact(problem),
                record.module.estimate(problem, EstimatorId.TMS_B), core.wave_data(problem),
                record]
    # R/R wave data, with NaN for the values the pattern does not need
    out.append(core.wave_data(core.make_problem("euler", (1.0, -2.0, 0.4), (1.0, 2.0, 0.4))))
    report = tables.reproduce("euler", "s_left")
    violation = fuzz.FuzzViolation(3, "tms_b", "s_left", 1.5, 1.25, (1.0, 0.0, 1.0),
                                   (0.125, 0.0, 0.1))
    return out + [core.RootBracket(0.0, 1.0, -0.5, 2.0), report, report.cells[0],
                  fuzz.run_fuzz("swe", 3, 1), fuzz.FuzzReport("euler", 1, 2, (violation,)),
                  violation]


def pickle_trip(obj, protocol: int):
    """`obj` pickled at `protocol` and loaded back."""
    import pickle

    return pickle.loads(pickle.dumps(obj, protocol))


def record_lines():
    """Repr, equality and hash of each record sample and of its round
    trips, by generic operations alone: hashes of strings and enum members
    change from process to process, so only hash equalities are written."""
    import copy
    import inspect
    import pickle

    trips = {"self": lambda obj: obj,
             **{f"pickle{protocol}": functools.partial(pickle_trip, protocol=protocol)
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
             "copy": copy.copy, "deepcopy": copy.deepcopy}
    for sample in record_samples():
        cls = type(sample)
        values = tuple(getattr(sample, name) for name in inspect.signature(cls).parameters)
        rebuilt = cls(*values)
        for via, trip in trips.items():
            try:
                obj = trip(sample)
            except Exception as error:  # noqa: BLE001 - errors are outputs too
                yield f"records {cls.__qualname__} {via} {type(error).__name__}: {error}"
                continue
            yield (f"records {cls.__qualname__} {via} {outcome(repr, obj)} "
                   f"eq={outcome(lambda: obj == rebuilt)} "
                   f"hash={outcome(lambda: hash(obj) == hash(rebuilt))} "
                   f"tuple_hash={outcome(lambda: hash(obj) == hash(values))}")


def sections(problems: int, reports: dict):
    for system in ACCEPTANCE_SEEDS:
        yield f"acceptance {system}", acceptance_lines(system, problems)
        yield f"raw {system}", raw_lines(system)
        for seed in MESH_SEEDS:
            yield f"mesh {system} seed {seed}", mesh_lines(system, seed)
        yield f"fuzz {system}", fuzz_lines(system)
    yield "tables", table_lines(reports)


def digest(lines):
    """SHA-256 hex digest of `lines`, each ended by a newline, and their count."""
    sha, n = hashlib.sha256(), 0
    for line in lines:
        sha.update((line + "\n").encode())
        n += 1
    return sha.hexdigest(), n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="src/ directory of the checkout to digest")
    parser.add_argument("--problems", type=int, default=4000,
                        help="acceptance problems per system (default 4000)")
    parser.add_argument("--dump", help="also write every line to this file")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "riemann_bounds" / "__init__.py").is_file():
        parser.error(f"{src} holds no riemann_bounds package")
    sys.path.insert(0, str(src))
    import riemann_bounds

    total, count, reports = hashlib.sha256(), 0, {}
    handed_back = count_handed_back()
    dump = open(args.dump, "w") if args.dump else None
    try:
        for name, lines in sections(args.problems, reports):
            part, n = hashlib.sha256(), 0
            for line in lines:
                data = (line + "\n").encode()
                part.update(data)
                total.update(data)
                n += 1
                if dump:
                    dump.write(line + "\n")
            count += n
            print(f"{part.hexdigest()[:16]}  {n:7d}  {name}")
    finally:
        if dump:
            dump.close()
    print(f"{total.hexdigest()}  {count}  total ({Path(riemann_bounds.__file__).parent})")
    print("lanes handed back by the lane kernel in run_fuzz, not in the total: "
          + (", ".join(f"{system} {n}" for system, n in handed_back.items())
             if handed_back is not None else "no kernel"))
    again = {}
    list(table_lines(again, reverse=True))
    moved = [f"{system} {table}" for (system, table), line in reports.items()
             if again[system, table] != line]
    print(f"tables again in reverse table order, not in the total: "
          f"{', '.join(moved) or 'none'} moved")
    roots, n = digest(root_lines())
    print(f"{roots}  {n}  find_root, not in the total")
    courant, n = digest(courant_lines())
    print(f"{courant}  {n}  courant_dt, not in the total")
    records, n = digest(record_lines())
    print(f"{records}  {n}  records, not in the total")
    inputs, n = digest(mesh_input_lines())
    print(f"{inputs}  {n}  mesh input states, not in the total "
          f"(Python {sys.version_info.major}.{sys.version_info.minor})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
