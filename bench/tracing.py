"""Spans around calls into each ``lambdacol`` module, from outside the library.

:class:`Tracer` replaces public functions by timing wrappers at every name
a ``lambdacol`` module binds them to (so ``extremal.lambda_number`` is timed
when ``classify`` calls it) and puts every original back on exit.  Private
helpers are never wrapped.  Spans stay in memory as
``[name, start, end, parent, instance, timed_out]`` rows; a deadline that
fires is charged to the innermost wrapped call that was running.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from math import comb
from time import perf_counter

# module -> public functions called by the workloads
FUNCTIONS = {
    "graphs": ["parse_graph", "path_cover_number"],
    "solver": ["lambda_number", "lambda_via_path_cover", "format_colouring",
               "parse_colouring", "find_violation", "is_lambda_colouring"],
    "families": ["embed_universal", "is_family_member"],
    "standardise": ["edge_standardise"],
    "shapes": ["edge_bound"],
    "extremal": ["max_edges", "predicted_shapes", "verify_classification",
                 "build_stationary", "is_stationary", "classify",
                 "brute_force_graph_census"],
}
# module -> class -> public methods called by the workloads
METHODS = {
    "graphs": {"Graph": ["complement"]},
    "standardise": {"StandardisedGraph": ["graph"]},
}
LAYERS = list(FUNCTIONS)

NAME, START, END, PARENT, INSTANCE, TIMED_OUT = range(6)


class Tracer:
    """Install with ``with Tracer(DeadlineExceeded) as tr:``; read ``tr.spans``."""

    def __init__(self, deadline_error):
        self.deadline_error = deadline_error
        self.spans = []
        self.instance = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.instance, False]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            except self.deadline_error as exc:
                if not getattr(exc, "charged", False):
                    exc.charged = True
                    row[TIMED_OUT] = True
                raise
            finally:
                row[END] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "lambdacol" or key.startswith("lambdacol.")]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"lambdacol.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        for layer, classes in METHODS.items():
            home = importlib.import_module(f"lambdacol.{layer}")
            for cname, methods in classes.items():
                cls = getattr(home, cname)
                for mname in methods:
                    original = cls.__dict__[mname]
                    self._saved.append((cls, mname, original))
                    setattr(cls, mname,
                            self._wrap(f"{layer}.{cname}.{mname}", original))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def merge(span_lists):
    """Concatenate the spans of several passes, keeping parent links."""
    out = []
    for spans in span_lists:
        offset = len(out)
        for row in spans:
            row = list(row)
            if row[PARENT] >= 0:
                row[PARENT] += offset
            out.append(row)
    return out


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    return own


def _per_name(spans):
    own = self_times(spans)
    out = {}
    for row, self_s in zip(spans, own):
        rec = out.setdefault(row[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                         "timeouts": 0, "durations": []})
        duration = row[END] - row[START]
        rec["s"] += duration
        rec["self_s"] += self_s
        rec["calls"] += 1
        rec["timeouts"] += row[TIMED_OUT]
        rec["durations"].append(duration)
    return out


# (metric, span, statistic, unit) in report order.  "s" is the inclusive time
# of every call, "self_s" the time outside wrapped callees.
SPAN_METRICS = [
    ("solver.lambda_number.s", "solver.lambda_number", "s", "s"),
    ("solver.lambda_number.calls", "solver.lambda_number", "calls", "count"),
    ("solver.lambda_number.timeouts", "solver.lambda_number", "timeouts", "count"),
    ("solver.lambda_number.ms_p50", "solver.lambda_number", "ms_p50", "ms"),
    ("graphs.path_cover_number.s", "graphs.path_cover_number", "s", "s"),
    ("graphs.path_cover_number.calls", "graphs.path_cover_number", "calls", "count"),
    ("graphs.path_cover_number.timeouts", "graphs.path_cover_number", "timeouts",
     "count"),
    ("graphs.complement.s", "graphs.Graph.complement", "s", "s"),
    ("solver.lambda_via_path_cover.self_s", "solver.lambda_via_path_cover",
     "self_s", "s"),
    ("graphs.parse_graph.s", "graphs.parse_graph", "s", "s"),
    ("solver.parse_colouring.s", "solver.parse_colouring", "s", "s"),
    ("solver.find_violation.s", "solver.find_violation", "s", "s"),
    ("standardise.edge_standardise.s", "standardise.edge_standardise", "s", "s"),
    ("families.embed_universal.s", "families.embed_universal", "s", "s"),
    ("families.is_family_member.s", "families.is_family_member", "s", "s"),
    ("extremal.max_edges.s", "extremal.max_edges", "s", "s"),
    ("extremal.brute_force_graph_census.s", "extremal.brute_force_graph_census",
     "s", "s"),
    ("extremal.predicted_shapes.s", "extremal.predicted_shapes", "s", "s"),
    ("extremal.verify_classification.self_s", "extremal.verify_classification",
     "self_s", "s"),
    ("extremal.classify.self_s", "extremal.classify", "self_s", "s"),
    ("extremal.build_stationary.s", "extremal.build_stationary", "s", "s"),
    ("extremal.is_stationary.s", "extremal.is_stationary", "s", "s"),
    ("shapes.edge_bound.s", "shapes.edge_bound", "s", "s"),
]


def layer_metrics(spans, traced_wall_s, untraced_wall_s, points, census_orders):
    """The per-layer metrics of one traced run.

    ``points`` are the ``(n, t)`` grid points given to ``max_edges`` and
    ``census_orders`` the census orders, one entry per pass that ran them.
    Returns ``[{"name", "unit", "better", "value"}]`` in a fixed order.
    """
    per = _per_name(spans)
    none = {"s": 0.0, "self_s": 0.0, "calls": 0, "timeouts": 0, "durations": []}
    out = []

    def add(name, unit, value, better="lower"):
        out.append({"name": name, "unit": unit, "better": better,
                    "value": float(value)})

    def rate(work, span):
        busy = per.get(span, none)["s"]
        return work / busy if busy > 0 else 0.0

    for name, span, stat, unit in SPAN_METRICS:
        rec = per.get(span, none)
        if stat == "ms_p50":
            add(name, unit, 1000 * statistics.median(rec["durations"] or [0.0]))
        else:
            add(name, unit, rec[stat])
    # work per busy second: shape-space points (the library's own size measure)
    # and labelled graphs enumerated
    add("extremal.max_edges.points_per_s", "1/s",
        rate(sum(comb(n - 2 + t, t) for n, t in points), "extremal.max_edges"),
        better="higher")
    add("extremal.brute_force_graph_census.graphs_per_s", "1/s",
        rate(sum(2 ** comb(n, 2) for n in census_orders),
             "extremal.brute_force_graph_census"), better="higher")

    own = self_times(spans)
    covered = sum(row[END] - row[START] for row in spans if row[PARENT] < 0)
    for layer in LAYERS:
        add(f"{layer}.self_s", "s",
            sum(s for row, s in zip(spans, own)
                if row[NAME].split(".", 1)[0] == layer))
    add("trace.uncovered_s", "s", traced_wall_s - covered)
    add("trace.wall_s", "s", traced_wall_s)
    add("trace.overhead_pct", "%", 100.0 * (traced_wall_s / untraced_wall_s - 1.0))
    return out
