"""Span tracing of the arq package from outside, for the per-layer metrics.

`installed(tracer)` wraps the public functions listed in `TARGETS` by
rebinding every module attribute (and class attribute) that holds the
original function, so each caller's own global lookup finds the wrapper.
Each wrapped call records a span (name, start, end, parent, solve id,
thread); spans live in memory on the `Tracer` and each thread keeps its own
stack, so parents never cross threads.  A span's self time is its duration
minus the union of its children's intervals.  Every original is restored
when the context exits, also on error.  A target missing from the package
raises `LookupError`, so a renamed function cannot read as zero calls.
"""
from __future__ import annotations

import csv
import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, qualified name, span name).  Span name None = count calls only:
# `taylor_decrement` runs millions of times inside the order-3 measure, and
# as a span it would also hide that measure's own time.
TARGETS = (
    ("arq.solver", "solve", "solver.solve"),
    ("arq.solver", "step1", "solver.step1"),
    ("arq.solver", "step2", "solver.step2"),
    ("arq.solver", "step3_step4", "solver.step3_step4"),
    ("arq.solver", "step5", "solver.step5"),
    ("arq.oracle", "Oracle.inexact_bundle", "oracle.inexact_bundle"),
    ("arq.oracle", "Oracle.inexact_value", "oracle.inexact_value"),
    ("arq.oracle", "estimate_lipschitz", "oracle.estimate_lipschitz"),
    ("arq.check", "check", "check.check"),
    ("arq.subsolvers", "optimality_measure", "subsolvers.optimality_measure"),
    ("arq.subsolvers", "minimize_model", "subsolvers.minimize_model"),
    ("arq.subsolvers", "radius_search", "subsolvers.radius_search"),
    ("arq.subsolvers", "solve_trs", "subsolvers.solve_trs"),
    ("arq.tensors", "operator_norm", "tensors.operator_norm"),
    ("arq.tensors", "taylor_decrement", None),
    ("arq.harness", "verify_certificate", "harness.verify_certificate"),
    ("arq.harness", "visited_lipschitz", "harness.visited_lipschitz"),
    ("arq.harness", "run_sweep", "harness.run_sweep"),
    ("arq.diagnostics", "compute_bounds", "diagnostics.compute_bounds"),
)

SOLVE_SPAN = "solver.solve"
MEASURE_ORDERS = (1, 2, 3)


def _span_names():
    for _, _, base in TARGETS:
        if base == "subsolvers.optimality_measure":
            yield from (f"{base}.o{j}" for j in MEASURE_ORDERS)
        elif base is not None:
            yield base


# Every span name the targets can record; a name without spans reads 0 calls.
SPAN_NAMES = tuple(_span_names())


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "thread")

    def __init__(self, name, start, end=0.0, parent=-1, solve=0, thread=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.solve = solve
        self.thread = thread


class Tracer:
    """In-memory span store plus call tallies; safe to record from threads."""

    def __init__(self):
        self.spans = []
        self.tallies = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._solves = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tally(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.tallies[key] += amount

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            if name == SOLVE_SPAN:
                self._solves += 1
                solve = self._solves
            else:
                solve = self.spans[parent].solve if parent >= 0 else 0
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), parent=parent, solve=solve,
                     thread=threading.get_ident())
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent", "solve", "thread"))
            for i, s in enumerate(self.spans):
                writer.writerow((i, s.name, repr(s.start), repr(s.end), s.parent,
                                 s.solve, s.thread))


def _span_name(base: str, fn_name: str, args, kwargs) -> str:
    if fn_name == "optimality_measure":
        order = args[1] if len(args) > 1 else kwargs["j"]
        return f"{base}.o{order}"
    return base


def _observe(tracer: Tracer, fn_name: str, result) -> None:
    if fn_name == "check" and getattr(result, "name", None) == "INSUFFICIENT":
        tracer.tally("check.insufficient")
    elif fn_name == "minimize_model":
        tracer.tally("minimize_model.inner_iters", result.inner_iterations)


def _wrap(tracer: Tracer, fn, fn_name: str, base):
    if base is None:
        key = f"{fn_name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.tally(key)
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(_span_name(base, fn_name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        _observe(tracer, fn_name, result)
        return result

    return traced


def _resolve(module_name: str, qualname: str):
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Route the `TARGETS` through `tracer` for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "arq" or name.startswith("arq."))]
    patches = []  # (owner, attribute, original)
    try:
        for module_name, qualname, base in TARGETS:
            try:
                owner, attr = _resolve(module_name, qualname)
                original = getattr(owner, attr)
            except (KeyError, AttributeError) as exc:
                raise LookupError(f"trace target {module_name}.{qualname} not found") from exc
            wrapper = _wrap(tracer, original, attr, base)
            if owner not in modules:  # a method: the class attribute is the lookup
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds around an empty function: the best of
    five batches, wrapped minus bare.  A parent with many child spans
    carries this cost in its `self_s`, once per child."""
    def empty():
        return None

    wrapped = _wrap(Tracer(), empty, "empty", "empty")

    def batch(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    return (min(batch(wrapped) for _ in range(5)) - min(batch(empty) for _ in range(5))) / calls


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Per span: duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds `s` and `self_s`."""
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        entry = stats[s.name]
        entry["calls"] += 1
        entry["s"] += s.end - s.start
        entry["self_s"] += own
    return dict(stats)


def sweep_busy(spans, jobs: int) -> tuple:
    """(busy seconds of the rows, jobs x wall seconds) over all run_sweep spans.

    Row work is the top-level spans a study runs: the direct children of the
    run_sweep span when it runs inline, and the root spans of other threads
    that start inside it when it fans out to its pool.
    """
    busy = capacity = 0.0
    sweeps = [(i, s) for i, s in enumerate(spans) if s.name == "harness.run_sweep"]
    for i, sw in sweeps:
        capacity += jobs * (sw.end - sw.start)
        for s in spans:
            inline = s.parent == i
            pooled = (s.parent < 0 and s.thread != sw.thread
                      and sw.start <= s.start <= sw.end)
            if inline or pooled:
                busy += s.end - s.start
    return busy, capacity


def radius_halvings(spans) -> int:
    """Order-3 measure calls made directly inside a radius search."""
    return sum(
        1 for s in spans
        if s.name == "subsolvers.optimality_measure.o3"
        and s.parent >= 0 and spans[s.parent].name == "subsolvers.radius_search"
    )
