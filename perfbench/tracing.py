"""Spans around the calls one layer of mmse_bounds makes into the next.

The program itself is not instrumented. `instrument` replaces, for the
length of a traced pass, the names that one module imports from another
(``mmse_bounds.cli.solve_bound``, ``mmse_bounds.solver.solve_bound`` as
reached through ``local_bound``, ``mmse_bounds.mc.gaussian_log_density``
and so on) with wrappers that record a span per call. Spans are kept in
memory and written out as JSON lines once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time

# (module, imported name, span name, layer). A name a later version of
# the program no longer has is skipped, so the benchmark outlives the
# removal of a helper it traces.
PATCHES = (
    ("cli", "solve_bound", "solver.solve_bound", "solver"),
    ("cli", "local_bounds_weighted", "solver.local_bounds_weighted", "solver"),
    ("solver", "solve_bound", "solver.solve_bound", "solver"),
    ("solver", "validate_problem", "problem.validate_problem", "problem"),
    ("cli", "mc_weighted_sum", "mc.mc_weighted_sum", "mc"),
    ("mc", "gaussian_log_density", "priors.gaussian_log_density", "priors"),
    ("mc", "log_density", "priors.log_density", "priors"),
    ("mc", "prior_moments", "priors.closed_form", "priors"),
    ("cli", "gen_gauss_covariance", "priors.closed_form", "priors"),
    ("cli", "gen_gauss_epsilon", "priors.closed_form", "priors"),
    ("cli", "gen_gauss_fisher", "priors.closed_form", "priors"),
    ("cli", "uniform_ball_epsilon", "priors.closed_form", "priors"),
    ("cli", "uniform_ball_moments", "priors.closed_form", "priors"),
    ("cli", "lmmse_upper", "baselines.lmmse_upper", "baselines"),
    ("cli", "cramer_rao_lower", "baselines.cramer_rao_lower", "baselines"),
    ("cli", "load_config", "problem.load_config", "problem"),
    ("cli", "validate_problem", "problem.validate_problem", "problem"),
)


def solve_attrs(attrs, bound, result):
    """Exact counts carried by a BoundResult."""
    attrs["inner"] = getattr(result, "inner_iterations", 0)
    attrs["outer"] = getattr(result, "outer_iterations", 0)


def mc_attrs(attrs, bound, result):
    """Problem size of one mc_weighted_sum call."""
    ensemble = bound.arguments["ensemble"]
    attrs["n_outer"] = int(bound.arguments["n_outer"])
    attrs["n_inner"] = int(bound.arguments["n_inner"])
    attrs["channels"] = ensemble.count
    attrs["dimension"] = ensemble.dimension


ON_RESULT = {"solver.solve_bound": solve_attrs, "mc.mc_weighted_sum": mc_attrs}


class Tracer:
    """Collects spans: name, layer, start, end, parent span and thread.

    Each thread keeps its own stack of open spans. A span opened on a
    thread whose stack is empty (a worker of the CLI's sweep pool) takes
    the innermost open root span as its parent, so rows computed in the
    pool hang under the subcommand that submitted them.
    """

    def __init__(self):
        self.spans = []  # list.append is atomic under the interpreter lock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots = []  # open root spans, innermost last; main thread only

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, layer, root=False, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._roots[-1] if self._roots else None)
        rec = {"id": next(self._ids), "parent": parent, "name": name,
               "layer": layer, "thread": threading.current_thread().name,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        stack.append(rec["id"])
        if root:
            self._roots.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if root:
                self._roots.pop()
            self.spans.append(rec)

    def wrap(self, fn, name, layer):
        """`fn` with a span around each call; failures are recorded by
        exception type and re-raised."""
        on_result = ON_RESULT.get(name)
        sig = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as rec:
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    rec["attrs"]["error"] = type(exc).__name__
                    raise
                if on_result:
                    on_result(rec["attrs"], sig.bind(*args, **kwargs), out)
                return out
        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def instrument(tracer, program):
    """Swap every name in PATCHES for its traced wrapper; restore on exit."""
    saved = []
    try:
        for mod_name, attr, span_name, layer in PATCHES:
            module = getattr(program, mod_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span_name, layer))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children on pool threads may overlap one another, so their intervals
    are merged before they are subtracted.
    """
    children = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)
    out = {}
    for rec in spans:
        lo, hi = rec["start"], rec["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(rec["id"], ()), key=lambda r: r["start"]):
            a, b = max(c["start"], lo), min(c["end"], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[rec["id"]] = (hi - lo) - covered
    return out


def descendants(spans, root_ids):
    """Spans below any of `root_ids` (roots excluded)."""
    by_parent = {}
    for rec in spans:
        by_parent.setdefault(rec["parent"], []).append(rec)
    out, todo = [], list(root_ids)
    while todo:
        for rec in by_parent.get(todo.pop(), ()):
            out.append(rec)
            todo.append(rec["id"])
    return out
