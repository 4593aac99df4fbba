"""The benchmark's three workloads: fuzz, mesh and golden.

Each workload builds its inputs from the seed in its constructor (that is
the set-up that `setup_s` times), draws its check data and computes their
independent reference in `prepare`, and then runs whole rounds.  A round
is a fixed list of operations: timed blocks per system, the checks of
their outputs and one cold CLI process.  Every round counts its
operations in `attempted`, and in `failed` those that hit the one fault
kept in the workload (see `Fuzz.check_solution`), so the failed share is
the same in every run.  Any other wrong output records an error, which
makes the run incorrect.

Only public functions of the library are called, through module
attributes, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from riemann_bounds import core, fuzz, tables
from riemann_bounds.core import EstimatorId

SYSTEMS = ("euler", "swe", "bfe")
END_TO_END = tuple(f"{s}_ops_per_s" for s in SYSTEMS) + ("cli_cold_s",)

#: Calibration chunks per second of a reference machine: a 2-vCPU Xeon
#: container at rest.  Timings are scaled to this speed (see machine_speed).
REFERENCE_SPEED = 175.0
#: Wall time of a bare `python -c pass` start on the reference machine.
REFERENCE_STARTUP = 0.05

#: Relative tolerance for agreement with the mpmath oracle, and the slack a
#: certified bound may exceed the oracle's speed by (floating-point round-off).
ORACLE_TOL = 1e-9
#: Largest |f(p*)| / max(|f(0)|, |f(p_rr)|) of an Euler solve that stopped
#: early: `euler.solve_exact`'s rel_tol of 1e-12, with room for rounding.
EARLY_STOP_RESIDUAL = 2e-12


def fields(state) -> tuple:
    return tuple(vars(state).values())


def oracle_args(system: str, problem):
    return system, fields(problem.left), fields(problem.right), dict(vars(problem.params))


@dataclass(frozen=True)
class _Side:
    value: float
    scale: float


def _curve(side: _Side, x: float) -> float:
    if x > side.value:
        return (x - side.value) * math.sqrt(2.0 / (x + side.scale))
    return 2.0 * ((x / side.value) ** 0.1428 - 1.0)


def _calibration_chunk() -> float:
    """Fixed pure-Python work of the library's kind (small frozen
    dataclasses, attribute access, sqrt and pow), independent of it."""
    total = 0.0
    for i in range(6000):
        side = _Side(1.0 + i % 7, 0.5)
        x = 0.3 * (i % 11) + 0.1
        total += _curve(side, x) + _curve(side, 2.0 * x)
    return total


def machine_speed() -> float:
    """Speed of this machine right now relative to the reference machine.

    The machine is shared, and its speed for pure-Python work swings by
    +-30% over seconds.  Each timed operation is bracketed by a
    calibration chunk before and after it, and its time is scaled by
    the mean of the two speeds: the time it would have taken on the
    reference machine.  This removes the drift common to the library and
    the chunk; what stays is the library's own cost.
    """
    start = time.perf_counter()
    _calibration_chunk()
    return 1.0 / (time.perf_counter() - start) / REFERENCE_SPEED


def timed(fn):
    """(result, wall seconds, seconds at reference speed) of one call."""
    before = machine_speed()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed * 0.5 * (before + machine_speed())


def _bare_start(env=None, cwd=None) -> float:
    import subprocess  # here, so that the set-up probe does not pay for it

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=env, cwd=cwd,
                   timeout=60, check=True)
    return time.perf_counter() - start


def timed_process(fn, env=None, cwd=None):
    """Like `timed`, for a call that starts a fresh interpreter.

    Process start-up follows the machine's load differently from
    pure-Python work, so the time is scaled by bare interpreter starts
    (`python -c pass`) just before and after it instead.
    """
    before = _bare_start(env, cwd)
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed * REFERENCE_STARTUP / (0.5 * (before + _bare_start(env, cwd)))


class Workload:
    name = ""
    #: What one operation of the timed blocks is, per system.
    op = ""

    def __init__(self, seed: int, scale: float, root: str):
        self.seed = seed
        self.scale = scale
        self.root = root
        self.samples: Dict[str, List[float]] = {m: [] for m in END_TO_END}
        self.raw_samples: Dict[str, List[float]] = {m: [] for m in END_TO_END}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []  # first few failed operations
        self.errors: List[str] = []    # first few broken checks
        self.error_count = 0

    def sized(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.error_count += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20 and message not in self.failures:
            self.failures.append(message)

    def prepare(self) -> None:
        """Independent reference values; runs after set-up, before timing."""

    def round(self, index: int) -> None:
        raise NotImplementedError

    def record(self, metric: str, wall: float, scaled: float) -> None:
        self.raw_samples[metric].append(wall)
        self.samples[metric].append(scaled)

    def timed_block(self, system: str, ops: int, fn):
        result, wall, scaled = timed(fn)
        self.record(f"{system}_ops_per_s", ops / wall, ops / scaled)
        self.attempted += ops
        return result

    def cli(self, argv: Sequence[str]) -> Optional[dict]:
        """One cold `python -m riemann_bounds.cli` process, timed from spawn
        to exit; returns its parsed JSON output."""
        import json
        import subprocess

        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        done, wall, scaled = timed_process(
            lambda: subprocess.run([sys.executable, "-m", "riemann_bounds.cli", *argv],
                                   capture_output=True, text=True, env=env,
                                   cwd=self.root, timeout=60),
            env, self.root)
        self.record("cli_cold_s", wall, scaled)
        self.attempted += 1
        self.check(done.returncode == 0,
                   f"cli {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
        return json.loads(done.stdout) if done.returncode == 0 else None


class Fuzz(Workload):
    """`fuzz.run_fuzz` on the acceptance ensemble, plus an oracle check of a
    fixed subsample of that ensemble."""

    name = "fuzz"
    op = "run_fuzz trial"
    BLOCK = 1000          # trials per run_fuzz call
    CLI_COUNT = 100       # trials of the cold CLI fuzz call
    #: Acceptance seeds and how many of their first problems the oracle checks.
    ORACLE_SAMPLE = {"euler": (42, 300), "swe": (7, 60), "bfe": (13, 60)}

    def __init__(self, seed, scale, root):
        super().__init__(seed, scale, root)
        self.rng = random.Random(f"fuzz:{seed}")
        self.block = self.sized(self.BLOCK)

    def prepare(self):
        import oracle
        self.fixed = {}
        for system, (acceptance_seed, count) in self.ORACLE_SAMPLE.items():
            rng = random.Random(acceptance_seed)
            self.fixed[system] = [fuzz.sample_problem(system, rng)
                                  for _ in range(self.sized(count))]
        self.reference = {
            system: [oracle.solve(*oracle_args(system, p)) for p in problems]
            for system, problems in self.fixed.items()
        }

    def round(self, index):
        for system in SYSTEMS:
            seed = self.rng.getrandbits(32)
            report = self.timed_block(
                system, self.block, lambda: fuzz.run_fuzz(system, self.block, seed))
            self.check(report.trials == self.block and not report.violations,
                       f"run_fuzz({system}, seed={seed}): {len(report.violations)} "
                       f"violations in {report.trials} trials")

        for system, problems in self.fixed.items():
            module = tables.system_module(system)
            for i, (problem, ref) in enumerate(zip(problems, self.reference[system])):
                self.attempted += 1
                self.check_solution(system, i, problem, module.solve_exact(problem), ref)

        seed = self.rng.getrandbits(32)
        out = self.cli(["fuzz", "--system", "euler", "--count", str(self.CLI_COUNT),
                        "--seed", str(seed), "--format", "json"])
        if out is not None:
            self.check(out["trials"] == self.CLI_COUNT and not out["violations"],
                       f"cli fuzz seed {seed}: {len(out['violations'])} violations")

    def check_solution(self, system, i, problem, solution, ref):
        """One exact solve of the fixed subsample against the oracle.

        The one miss counted as a failed operation is the kept fault: an
        Euler p* that `core.find_root` returned early, because it stops once
        |f(p)| <= rel_tol * max(|f(0)|, |f(p_rr)|) and f(p_rr) is huge for
        strong shocks.  Such a p* meets that rule when f is evaluated
        exactly, and the rest of the solution is exact at that p*.  Any
        other miss makes the run incorrect.
        """
        star = [v for k, v in tables.star_values(system, solution).items() if k != "u_star"][0]
        got = (solution.u_star, solution.s_left, solution.s_right)
        x, *want = ref
        scale = max(1.0, abs(want[1]), abs(want[2]))
        errors = [abs(star - x) / x, *(abs(g - w) / scale for g, w in zip(got, want))]
        if all(e <= ORACLE_TOL for e in errors):  # false for a NaN
            return
        import oracle
        where = (f"{system} acceptance problem {i}: relative errors "
                 f"{', '.join(f'{e:.2e}' for e in errors)} against the oracle")
        args = oracle_args(system, problem)
        if system == "euler":
            residual = oracle.euler_residual(*args[1:], star)
            at_star = oracle.star_at(*args, star)
            if (residual <= EARLY_STOP_RESIDUAL
                    and all(abs(g - w) <= ORACLE_TOL * scale for g, w in zip(got, at_star))):
                self.fail(f"{where}, p* stopped early (residual {residual:.1e})")
                return
            where += f", not an early stop (residual {residual:.1e})"
        self.check(False, where)


# Mesh grids: smooth profiles times a Sod-like step down to the right and a
# dam-break-like step up to the right (a low region on the left), at rest
# apart from a smooth velocity.  Per system: base value, log-amplitude of the
# smooth variation, velocity amplitude, and the factors of the two steps.
_GRID = {
    #         base  log_amp  u_amp  sod (rho, p)    dam (rho, p)
    "euler": ((1.0, 1.0), 0.3, 0.35, (0.125, 0.1), (0.1, 0.01)),
    "swe": ((1.0,), 0.2, 0.9, (0.7,), (0.1,)),
    "bfe": ((math.pi,), 0.1, 30.0, (0.9,), (0.2,)),
}


def build_grid(system: str, rng: random.Random, cells: int) -> List[tuple]:
    """Primitive cell states of one piecewise-smooth 1-D grid."""
    base, log_amp, u_amp, sod, dam = _GRID[system]

    def profile():
        modes = [(rng.randint(1, 6), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0))
                 for _ in range(3)]
        return lambda x: sum(a * math.sin(2.0 * math.pi * k * x + phi) for k, phi, a in modes) / 3.0

    scalars = [profile() for _ in base]
    velocity = profile()
    x_sod, x_dam = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
    states = []
    for i in range(cells):
        x = (i + 0.5) / cells
        values = []
        for j, b in enumerate(base):
            v = b * math.exp(log_amp * scalars[j](x))
            if x > x_sod:
                v *= sod[j]
            if x < x_dam:
                v *= dam[j]
            values.append(v)
        u = u_amp * velocity(x)
        states.append((values[0], u, values[1]) if system == "euler" else (values[0], u))
    # Two plateaus of equal cells give equal-state interfaces.
    width = max(2, cells // 50)
    for _ in range(2):
        start = rng.randrange(0, max(1, cells - width))
        states[start:start + width] = [states[start]] * len(states[start:start + width])
    return states


def mirror_states(states: List[tuple]) -> List[tuple]:
    """The grid seen from the other side: cells reversed, velocities negated."""
    return [(s[0], -s[1], *s[2:]) for s in reversed(states)]


def eigen_speeds(system: str, state: tuple, params) -> tuple:
    """u - c, u + c of one state, computed here from the textbook sound speed."""
    if system == "euler":
        c = math.sqrt(params.gamma * state[2] / state[0])
    elif system == "swe":
        c = math.sqrt(params.g * state[0])
    else:
        c = math.sqrt(params.beta / (2.0 * params.rho)) * state[0] ** 0.25
    return state[1] - c, state[1] + c


#: Estimators that return exactly the eigenvalues at equal states, and
#: those that reach them up to rounding.
_EIGEN_EXACT = {EstimatorId.DAVIS_A, EstimatorId.DAVIS_B, EstimatorId.TMS_A,
                EstimatorId.TMS_B, EstimatorId.TMS_C}
_EIGEN_NEAR = {EstimatorId.EINFELDT, EstimatorId.BATTEN, EstimatorId.TORO}
_CERTIFIED = {EstimatorId.TORO, EstimatorId.TMS_A, EstimatorId.TMS_B,
              EstimatorId.TMS_C, EstimatorId.TMS_D}


class Mesh(Workload):
    """Every estimator at every interface of piecewise-smooth grids and their
    mirror images, with one `courant_dt` per grid sweep; no exact solve."""

    name = "mesh"
    op = "interface (every estimator of the system)"
    GRIDS = 8    # per system; several grids even out the wave-pattern mix
    CELLS = 251  # per grid
    CFL = 0.9
    ORACLE_POINTS = 5  # evenly spaced interfaces per grid checked by the oracle

    def __init__(self, seed, scale, root):
        super().__init__(seed, scale, root)
        rng = random.Random(f"mesh:{seed}")
        cells = self.sized(self.CELLS - 1) + 1
        self.dx = 1.0 / cells
        self.grids = {}
        for system in SYSTEMS:
            self.grids[system] = []
            for _ in range(self.GRIDS):
                states = build_grid(system, rng, cells)
                self.grids[system].append([
                    [tables.make_problem(system, left, right) for left, right in zip(g, g[1:])]
                    for g in (states, mirror_states(states))
                ])
        self.cli_rng = random.Random(f"mesh-cli:{seed}")

    def prepare(self):
        import oracle
        self.reference = {}
        for system, grids in self.grids.items():
            for k, (grid, _) in enumerate(grids):
                step = max(1, len(grid) // self.ORACLE_POINTS)
                for i in range(step // 2, len(grid), step):
                    if grid[i].left != grid[i].right:
                        self.reference[(system, k, i)] = oracle.solve(*oracle_args(system, grid[i]))

    def sweep(self, system, grids):
        """Every estimator at every interface of `grids`, one timed block."""
        estimators = tables.system_module(system).ESTIMATORS
        tms_b = estimators.index(EstimatorId.TMS_B)

        def run():
            estimate = tables.system_module(system).estimate
            out = []
            for problems in grids:
                rows = [[estimate(p, e) for e in estimators] for p in problems]
                out.append((rows, core.courant_dt([row[tms_b] for row in rows],
                                                  self.dx, self.CFL)))
            return out

        out = self.timed_block(system, sum(map(len, grids)), run)
        for rows, dt in out:
            s_max = max(max(abs(row[tms_b].s_left), abs(row[tms_b].s_right)) for row in rows)
            self.check(abs(dt - self.CFL * self.dx / s_max) <= 4.0 * math.ulp(dt),
                       f"{system}: courant_dt {dt!r} != C dx / max|S| "
                       f"{self.CFL * self.dx / s_max!r}")
        return [rows for rows, _ in out]

    def round(self, index):
        for system, grids in self.grids.items():
            rows = self.sweep(system, [g for g, _ in grids])
            mirror_rows = self.sweep(system, [m for _, m in grids])
            for k, (grid, _) in enumerate(grids):
                self.check_rows(system, k, grid, rows[k], mirror_rows[k])

        grid = self.cli_rng.choice(self.grids["euler"])[0]
        i = self.cli_rng.randrange(len(grid))
        problem = grid[i]
        out = self.cli(["bounds", "--system", "euler", "--format", "json",
                        "--left", ",".join(map(repr, fields(problem.left))),
                        "--right", ",".join(map(repr, fields(problem.right)))])
        if out is not None:
            # The estimators must match in-process ones bit for bit; the exact
            # speeds (not solved here, to keep solves out of this workload)
            # must lie inside the certified TMS_b pair, up to round-off.
            module = tables.system_module("euler")
            results = {r["estimator"]: (r["s_left"], r["s_right"]) for r in out["results"]}
            exact = results.pop("exact")
            for name, pair in results.items():
                want = module.estimate(problem, EstimatorId(name))
                self.check(pair == (want.s_left, want.s_right),
                           f"cli bounds at euler interface {i}: {name} {pair} != {want}")
            tms_b = results["tms_b"]
            slack = ORACLE_TOL * max(1.0, abs(exact[0]), abs(exact[1]))
            self.check(tms_b[0] <= exact[0] + slack and exact[1] - slack <= tms_b[1],
                       f"cli bounds at euler interface {i}: exact {exact} outside tms_b {tms_b}")

    def check_rows(self, system, k, grid, rows, mirror_rows):
        estimators = tables.system_module(system).ESTIMATORS
        n = len(grid)
        for i, (problem, row) in enumerate(zip(grid, rows)):
            where = f"{system} grid {k} interface {i}"
            pairs = {e: (b.s_left, b.s_right) for e, b in zip(estimators, row)}
            # Swap symmetry against the mirrored interface.
            for e, b in zip(estimators, mirror_rows[n - 1 - i]):
                s_left, s_right = pairs[e]
                scale = max(1.0, abs(s_left), abs(s_right))
                self.check(abs(b.s_left + s_right) <= 1e-12 * scale
                           and abs(b.s_right + s_left) <= 1e-12 * scale,
                           f"{where} {e.value}: mirror {(b.s_left, b.s_right)} "
                           f"vs {(s_left, s_right)}")
            if problem.left == problem.right:
                lo, hi = eigen_speeds(system, fields(problem.left), problem.params)
                exact = {pairs[e] for e in _EIGEN_EXACT if e in pairs}
                self.check(len(exact) == 1, f"{where}, equal states: {exact}")
                got = exact.pop()
                ulps = 2.0 * max(math.ulp(lo), math.ulp(hi))
                self.check(abs(got[0] - lo) <= ulps and abs(got[1] - hi) <= ulps,
                           f"{where}, equal states: {got} != {(lo, hi)}")
                for e in _EIGEN_NEAR & set(pairs):
                    self.check(abs(pairs[e][0] - lo) <= 1e-12 * abs(lo) + ulps
                               and abs(pairs[e][1] - hi) <= 1e-12 * abs(hi) + ulps,
                               f"{where} {e.value}, equal states: {pairs[e]}")
            ref = self.reference.get((system, k, i))
            if ref is not None:
                _, _, s_left, s_right = ref
                slack = ORACLE_TOL * max(1.0, abs(s_left), abs(s_right))
                for e in _CERTIFIED & set(pairs):
                    self.check(pairs[e][0] <= s_left + slack and pairs[e][1] >= s_right - slack,
                               f"{where} {e.value}: {pairs[e]} does not bracket "
                               f"oracle {(s_left, s_right)}")


class Golden(Workload):
    """Reproduction of the published tables with red-flag classification,
    and a cold CLI `exact` call on Sod's problem."""

    name = "golden"
    op = "table pass (the system's three tables and their red flags)"
    PASSES = 60  # per timed block
    TABLES = ("ic", "s_left", "s_right")
    SIDES = ("s_left", "s_right")
    #: Toro's published star values for Sod's problem.
    SOD_STAR = {"p_star": 0.30313, "u_star": 0.92745}

    def __init__(self, seed, scale, root):
        super().__init__(seed, scale, root)
        from riemann_bounds import cli  # noqa: F401  (its import is part of set-up)
        self.passes = self.sized(self.PASSES)
        self.refs = {system: tables.load_reference(system) for system in SYSTEMS}

    def table_pass(self, system):
        reports = [tables.reproduce(system, table) for table in self.TABLES]
        flags = [(test, side, tables.bound_violations(test, side))
                 for test in self.refs[system]["tests"] for side in self.SIDES]
        return reports, flags

    def round(self, index):
        for system in SYSTEMS:
            reports, flags = self.timed_block(
                system, self.passes,
                lambda: [self.table_pass(system) for _ in range(self.passes)][-1])
            for report in reports:
                self.check(report.passed, f"{system} table {report.table} deviates: "
                           f"max |dev| {report.max_deviation}")
            for test, side, got in flags:
                self.check(set(got) == set(test["red_flags"][side]),
                           f"{system} test {test['id']} {side}: red flags {got}")

        out = self.cli(["exact", "--system", "euler", "--left", "1,0,1",
                        "--right", "0.125,0,0.1", "--format", "json"])
        if out is not None:
            star = out["results"][0]["star"]
            self.check(all(round(star[k], 5) == v for k, v in self.SOD_STAR.items()),
                       f"cli exact on Sod: {star} != {self.SOD_STAR}")


WORKLOADS = {w.name: w for w in (Fuzz, Mesh, Golden)}
