"""In-memory span tracer that wraps the library's public functions.

`install` replaces module attributes (for example `euler.pressure_function`,
`euler.find_root` or `fuzz.make_problem`) with timing wrappers and returns
a function that puts the originals back.  The library resolves these names
through its module globals at call time, so calls made inside the library
go through the wrappers too.  The library source is not changed.

Every call becomes a span (name, start, end, parent).  Aggregates per span
name (calls, total and self time) and counts of each span name below each
ancestor name are kept for all spans; the span records themselves are kept
up to `span_cap` and written out at the end of the run.

A wrapper costs about 1 us a call, and the part of it outside the wrapped
call's own clock window lands in the time of every span around it: an
Euler exact solve holds 20-30 wrapped calls.  Each wrapper reads that part
of its time from the clock and passes it up to the span around it, and
each span's figures are taken net of the wrappers below it.  The little
that the clock reads miss (the call itself, argument packing, the return)
is measured once on wrapped no-ops by `Tracer.calibrate`.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

SYSTEM_MODULES = {"euler": "euler", "swe": "shallow", "bfe": "bloodflow"}

# Per system module: (wave-curve function, its derivative, two-rarefaction closed form).
_CURVES = {
    "euler": ("pressure_function", "pressure_function_deriv", "two_rarefaction_pressure"),
    "shallow": ("depth_function", "depth_function_deriv", "two_rarefaction_depth"),
    "bloodflow": ("area_function", "area_function_deriv", "two_rarefaction_area"),
}


class Aggregate:
    """Per-span-name totals: calls, total and self nanoseconds, and
    `inside[(ancestor, name)]`, the number of `name` spans below an
    `ancestor` span.  `below_wrapper_ns` and `child_wrapper_ns` are the
    wrapper time of all spans below a span and of its direct children,
    which its total and self time include."""

    KEYS = ("calls", "total_ns", "self_ns", "inside", "below_wrapper_ns", "child_wrapper_ns")

    def __init__(self):
        for key in self.KEYS:
            setattr(self, key, Counter())

    def copy(self) -> "Aggregate":
        other = Aggregate()
        for key in self.KEYS:
            setattr(other, key, Counter(getattr(self, key)))
        return other

    def minus(self, earlier: "Aggregate") -> "Aggregate":
        delta = Aggregate()
        for key in self.KEYS:
            mine, theirs = getattr(self, key), getattr(earlier, key)
            setattr(delta, key, Counter({k: v - theirs[k] for k, v in mine.items()
                                         if v != theirs[k]}))
        return delta


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.agg = Aggregate()
        # Span records in flat arrays, which the garbage collector does not
        # scan: name id, start and end (ns), parent index (-1 for a root).
        self.span_names: Dict[str, int] = {}
        self.names, self.parents = array("i"), array("i")
        self.starts, self.ends = array("q"), array("q")
        self.spans_dropped = 0
        # [name, child_ns, span index, wrapper ns below, wrapper ns of children]
        self._stack: List[list] = []
        # Wrapper time per call that the wrapper's own clock reads miss: the
        # call into it, argument packing, the return, and what its clock
        # window adds to the wrapped call's own time; measured by `calibrate`.
        self._outside_ns = [0.0]

    def calibrate(self, calls: int = 2000, repeats: int = 7) -> None:
        """Measure the wrapper time a wrapper's own clock reads miss: a loop
        of wrapped no-op calls against the same loop of direct calls, less
        the wrapper time that was read, at the fastest of `repeats` loops.

        The probe tracer keeps no span records, like this one once its
        `span_cap` is reached, which is where nearly all calls of a run fall.
        """
        probe = Tracer(span_cap=0)
        clock = time.perf_counter_ns

        def noop(a, b):
            return None

        wrapped = probe.wrap(noop, "noop")
        outer = ["outer", 0, -1, 0, 0]
        probe._stack.append(outer)
        best = {noop: (math.inf, 0), wrapped: (math.inf, 0)}
        for _ in range(repeats):
            for fn in (noop, wrapped):
                outer[4] = 0
                start = clock()
                for _ in range(calls):
                    fn(1, 2)
                best[fn] = min(best[fn], (clock() - start, outer[4]))
        (direct, _), (traced, read) = best[noop], best[wrapped]
        self._outside_ns[0] = max(0.0, (traced - direct - read) / calls)

    def wrap(self, fn: Callable, name: str,
             tag: Optional[Callable[[tuple], str]] = None) -> Callable:
        """`fn` recorded as span `name` (suffixed with `tag(args)` if given)."""
        stack, agg, ids = self._stack, self.agg, self.span_names
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        outside = self._outside_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entry = clock()
            span = name if tag is None else f"{name}.{tag(args)}"
            index = len(starts)
            if index < self.span_cap:
                names.append(ids.setdefault(span, len(ids)))
                parents.append(stack[-1][2] if stack else -1)
                starts.append(0)
                ends.append(0)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [span, 0, index, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg.calls[span] += 1
                agg.total_ns[span] += duration
                agg.self_ns[span] += duration - frame[1]
                agg.below_wrapper_ns[span] += frame[3]
                agg.child_wrapper_ns[span] += frame[4]
                if index >= 0:
                    starts[index] = start
                    ends[index] = end
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    for ancestor in stack:  # the library does not recurse
                        agg.inside[(ancestor[0], span)] += 1
                    # This wrapper's time outside [start, end], which the
                    # spans around it include.
                    own = start - entry + clock() - end + outside[0]
                    parent[3] += frame[3] + own
                    parent[4] += own

        traced.__wrapped__ = fn
        return traced

    def write(self, path, extra: Dict) -> None:
        """Spans, per-layer self time and counts as gzipped JSON."""
        payload = dict(extra)
        agg = self.agg
        payload["layers"] = {
            name: {"calls": calls, "total_us": agg.total_ns[name] / 1e3,
                   "self_us": agg.self_ns[name] / 1e3,
                   "below_wrapper_us": agg.below_wrapper_ns[name] / 1e3,
                   "child_wrapper_us": agg.child_wrapper_ns[name] / 1e3}
            for name, calls in sorted(agg.calls.items())
        }
        payload["wrapper_outside_ns"] = self._outside_ns[0]
        payload["counts_inside"] = [[a, n, c] for (a, n), c in sorted(self.agg.inside.items())]
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent"]
        payload["span_names"] = sorted(self.span_names, key=self.span_names.get)
        payload["spans"] = [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)]
        payload["spans_dropped"] = self.spans_dropped
        with gzip.open(path, "wt") as out:
            json.dump(payload, out)


def install(tracer: Tracer) -> Callable[[], None]:
    """Calibrate the wrapper cost, then wrap the public functions of fuzz,
    the system modules, core, tables and cli; returns the function that
    removes the wrappers."""
    from riemann_bounds import bloodflow, cli, core, euler, fuzz, shallow, tables

    tracer.calibrate()
    replaced: List[Tuple[object, str, object]] = []

    def put(module, attr, name, tag=None):
        original = getattr(module, attr)
        replaced.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, tag))

    first_arg = lambda args: args[0]  # noqa: E731
    for system, mod_name in SYSTEM_MODULES.items():
        module = {"euler": euler, "shallow": shallow, "bloodflow": bloodflow}[mod_name]
        curve, deriv, two_rar = _CURVES[mod_name]
        put(module, curve, f"{mod_name}.curve")
        put(module, deriv, f"{mod_name}.curve_deriv")
        put(module, two_rar, f"{mod_name}.two_rarefaction")
        put(module, "classify", f"{mod_name}.classify")
        put(module, "solve_exact", f"{mod_name}.solve_exact")
        put(module, "estimate", f"{mod_name}.estimate", lambda args: args[1].value)
        put(module, "find_root", f"core.find_root.{system}")
        put(module, "interpolate_root", "core.interpolate_root")
    put(core, "courant_dt", "core.courant_dt")
    put(fuzz, "sample_problem", "fuzz.sample_problem", first_arg)
    put(fuzz, "run_fuzz", "fuzz.run_fuzz", first_arg)
    put(fuzz, "make_problem", "fuzz.make_problem")
    put(tables, "load_reference", "tables.load_reference")
    put(tables, "reproduce", "tables.reproduce")
    put(tables, "bound_violations", "tables.bound_violations")
    put(cli, "main", "cli.main", lambda args: args[0][0])

    def uninstall():
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)

    return uninstall


_SYSTEM_OF_MODULE = {m: s for s, m in SYSTEM_MODULES.items()}


def layer_value(metric: str, agg: Aggregate) -> Optional[float]:
    """Value of one span-derived per-layer metric over `agg`, or None when
    the span it needs was not called.

    A metric is `<span name>.<stat>`: `us`/`ms` is the mean span time,
    `self_us` the self time per fuzz trial, both net of the wrappers below
    the span, `draws` the make_problem calls per span, and
    `curve_evals`/`deriv_evals`/`evals` the wave-curve (derivative)
    evaluations per span.
    """
    span, stat = metric.rsplit(".", 1)
    calls = agg.calls[span]
    if calls == 0:
        return None
    if stat in ("us", "ms"):
        net_ns = agg.total_ns[span] - agg.below_wrapper_ns[span]
        return net_ns / calls / (1e3 if stat == "us" else 1e6)
    if stat == "self_us":  # fuzz.run_fuzz.<sys>: self time per trial
        system = span.rsplit(".", 1)[1]
        trials = agg.inside[(span, f"fuzz.sample_problem.{system}")]
        net_ns = agg.self_ns[span] - agg.child_wrapper_ns[span]
        return net_ns / trials / 1e3 if trials else None
    if stat == "draws":
        return agg.inside[(span, "fuzz.make_problem")] / calls
    head = span.split(".")  # <module>.<fn>... or core.find_root.<sys>
    module = head[0] if head[0] in _SYSTEM_OF_MODULE else SYSTEM_MODULES[head[-1]]
    if stat in ("curve_evals", "evals"):
        return agg.inside[(span, f"{module}.curve")] / calls
    if stat == "deriv_evals":
        return agg.inside[(span, f"{module}.curve_deriv")] / calls
    raise ValueError(f"no definition for per-layer metric {metric!r}")
