"""One cold pass of a workload, run in a fresh process.

Reads ``{"instances": [...], "deadline_s": float, "trace": bool}`` as JSON
on stdin and prints one JSON object: a record per instance, the pass's wall
time and peak RSS and, when traced, the spans.  Instances run one after
another (a closed loop with one client).  Each instance's library calls run
under a per-instance deadline enforced with ``signal.setitimer``; the answer
is then checked against the test oracles and the facts the input was built
with, outside the verdict time but inside the pass's wall time.

    python3 bench/worker.py < pass.json
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import sys
import traceback
from collections import Counter
from time import perf_counter

from checkout import load_library
from tracing import Tracer


class DeadlineExceeded(BaseException):
    """The per-instance deadline fired (a BaseException, so that no
    ``except Exception`` inside the library can swallow it)."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def run_with_deadline(fn, seconds):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# the calls made per instance
# ---------------------------------------------------------------------------

def solve_sparse(lc, inst):
    """The ``lambda``, ``check``, ``standardise`` and ``embed`` verbs."""
    g = lc.parse_graph(inst["text"])
    rep = lc.lambda_number(g)
    c = lc.parse_colouring(lc.format_colouring(rep.witness), g.n)
    out = {"g": g, "rep": rep, "c": c, "violation": lc.find_violation(g, c)}
    if rep.lambda_value >= 3:
        sg, _ = lc.edge_standardise(g, c)
        out["shape"], out["standard"] = sg.shape, sg.graph()
        out["host"], out["assignment"], _ = lc.embed_universal(g, c)
    return out


def solve_dense(lc, inst):
    """The ``pathcover`` and ``lambda`` verbs on one graph."""
    g = lc.parse_graph(inst["text"])
    bound = lc.lambda_via_path_cover(g)
    return {"g": g, "bound": bound, "rep": lc.lambda_number(g)}


def solve_census(lc, inst):
    return {"census": lc.brute_force_graph_census(inst["expect"]["n"])}


def solve_point(lc, inst):
    """One point of the classification sweep."""
    n, t = inst["expect"]["n"], inst["expect"]["t"]
    mx, argmax = lc.max_edges(n, t)
    out = {"max": mx, "argmax": argmax,
           "predicted": lc.predicted_shapes(n, t),
           "report": lc.verify_classification(n, t), "built": []}
    for shape in sorted(argmax, key=lambda s: s.sizes):
        g, part = lc.build_stationary(shape)
        out["built"].append((shape, g, part, lc.is_stationary(g, part)))
    if n <= 24:
        out["classified"] = lc.classify(out["built"][0][1])
    return out


SOLVERS = {"sparse": solve_sparse, "dense": solve_dense,
           "census": solve_census, "point": solve_point}


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def _check_witness(oracles, g, rep, errors):
    labels = rep.witness.labels
    if len(labels) != g.n or (labels and min(labels) != 0):
        errors.append("witness is not a normalised labelling of every vertex")
    elif not oracles.is_valid_by_distances(g, labels):
        errors.append("witness breaks the distance-two condition")
    elif labels and max(labels) != rep.lambda_value:
        errors.append(f"witness span {max(labels)} != reported {rep.lambda_value}")


def layered_matching_errors(n, edges, class_of):
    """Why ``edges`` are not a layered matching under ``class_of``, if so.

    Layered: no edge inside a class or between consecutive classes, no vertex
    with two neighbours in one class, and every pair of classes at index
    distance >= 2 matched so that the smaller class is saturated.  Such a
    graph has the class map as a valid colouring.
    """
    sizes = Counter(class_of)
    partners = {}
    for u, v in edges:
        cu, cv = class_of[u], class_of[v]
        if abs(cu - cv) < 2:
            return [f"edge {u}-{v} joins classes {cu} and {cv}"]
        for a, cb in ((u, cv), (v, cu)):
            partners[a, cb] = partners.get((a, cb), 0) + 1
            if partners[a, cb] > 1:
                return [f"vertex {a} has two neighbours in class {cb}"]
    top = max(sizes)
    for m in range(top + 1):
        for p in range(m + 2, top + 1):
            small, other = (m, p) if sizes[m] <= sizes[p] else (p, m)
            for v in range(n):
                if class_of[v] == small and (v, other) not in partners:
                    return [f"class pair {m},{p} leaves vertex {v} unmatched"]
    return []


def check_sparse(oracles, inst, out, notes):
    g, rep, c = out["g"], out["rep"], out["c"]
    errors = []
    _check_witness(oracles, g, rep, errors)
    if c != rep.witness:
        errors.append("colouring file round trip changed the witness")
    if out["violation"] is not None:
        errors.append(f"find_violation flagged a valid witness: {out['violation']}")
    if rep.lambda_value >= 3 and not errors:
        counts = [0] * (rep.lambda_value + 1)
        for x in c.labels:
            counts[x] += 1
        std = out["standard"]
        if list(out["shape"].sizes) != counts:
            errors.append("standardised shape differs from the class sizes")
        elif std.m != oracles.reference_edge_bound(out["shape"]):
            errors.append("standardised graph misses the shape's edge bound")
        elif std.m < g.m:
            errors.append("standardisation lost edges")
        host, class_of = out["host"], out["assignment"].class_of
        if not g.edges <= host.edges:
            errors.append("embedding does not contain the graph")
        errors += layered_matching_errors(host.n, host.edges, class_of)
        if len(set(Counter(class_of).values())) != 1:
            errors.append("embedding classes differ in size")
    return errors


def check_dense(oracles, inst, out, notes):
    g, bound, rep = out["g"], out["bound"], out["rep"]
    errors = []
    _check_witness(oracles, g, rep, errors)
    lam = rep.lambda_value
    span = inst["expect"].get("span")
    if span is not None and lam != span:
        errors.append(f"span {lam}, but the construction has span {span}")
    if bound.path_cover >= 2 and lam != g.n + bound.path_cover - 2:
        errors.append(f"span {lam} != n + pc - 2 = {g.n + bound.path_cover - 2}")
    if bound.path_cover == 1:
        dist = oracles.floyd_warshall(g)
        if lam > g.n - 1:
            errors.append(f"span {lam} above n - 1 although pc = 1")
        if max(max(row) for row in dist) <= 2 and lam != g.n - 1:
            errors.append(f"span {lam} != n - 1 at diameter <= 2 and pc = 1")
    return errors


def check_census(oracles, inst, out, notes):
    notes["census"][inst["expect"]["n"]] = out["census"]
    return []


def check_point(oracles, inst, out, notes):
    n, t = inst["expect"]["n"], inst["expect"]["t"]
    mx, argmax, report = out["max"], out["argmax"], out["report"]
    errors = []
    if argmax != out["predicted"]:
        errors.append("attaining shapes differ from predicted_shapes")
    if report.max_edges != mx:
        errors.append(f"verify_classification found {report.max_edges} edges, "
                      f"max_edges {mx}")
    if not report.inner_ok:
        notes["inner_window_failures"] += 1
    for shape in argmax:
        s = shape.sizes
        if (len(s) != t + 1 or sum(s) != n or not s[0] or not s[-1]
                or any(a == b == 0 for a, b in zip(s, s[1:]))):
            errors.append(f"attaining shape {s} is not a valid shape")
        elif oracles.reference_edge_bound(shape) != mx:
            errors.append(f"attaining shape {s} has another edge bound than {mx}")
    for shape, g, part, (stationary, _) in out["built"]:
        class_of = [0] * g.n
        for m, members in enumerate(part.classes):
            for v in members:
                class_of[v] = m
        if g.m != mx:
            errors.append(f"stationary graph of {shape.sizes} has {g.m} edges")
        if not stationary:
            errors.append(f"built graph of {shape.sizes} is not stationary")
        errors += layered_matching_errors(g.n, g.edges, class_of)
    classified = out.get("classified")
    if classified is not None and (
            classified.max_edges != mx or classified.witness_shape not in argmax
            or classified.case.value == "NOT_MAXIMAL"):
        errors.append(f"classify misjudged a maximal graph: {classified}")
    census = notes["census"].get(n)
    if census is not None and census.get(t) != mx:
        errors.append(f"census maximum {census.get(t)} != max_edges {mx}")
    return errors


CHECKS = {"sparse": check_sparse, "dense": check_dense,
          "census": check_census, "point": check_point}


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def run_instance(lc, oracles, inst, deadline_s, notes):
    """Solve, time and check one instance; returns its record."""
    solve = SOLVERS[inst["kind"]]
    record = {"id": inst["id"], "status": "decided", "errors": []}
    start = perf_counter()
    try:
        out = run_with_deadline(lambda: solve(lc, inst), deadline_s)
    except DeadlineExceeded:
        record["ms"] = 1000 * (perf_counter() - start)
        record["status"] = "undecided"
        return record
    except Exception:
        record["ms"] = 1000 * (perf_counter() - start)
        record["status"] = "error"
        record["errors"] = [traceback.format_exc(limit=3)]
        return record
    record["ms"] = 1000 * (perf_counter() - start)
    try:
        record["errors"] = CHECKS[inst["kind"]](oracles, inst, out, notes)
    except Exception:
        record["errors"] = [traceback.format_exc(limit=3)]
    if record["errors"]:
        record["status"] = "error"
    return record


def run_pass(lc, oracles, instances, deadline_s, trace):
    """Run every instance in order; returns the pass's JSON-ready result."""
    notes = {"census": {}, "inner_window_failures": 0}
    tracer = Tracer(DeadlineExceeded) if trace else None
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with tracer or contextlib.nullcontext():
            records = []
            start = perf_counter()
            for inst in instances:
                if tracer:
                    tracer.instance = inst["id"]
                records.append(run_instance(lc, oracles, inst, deadline_s, notes))
            wall_s = perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    return {
        "records": records,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inner_window_failures": notes["inner_window_failures"],
        "spans": tracer.spans if tracer else [],
    }


def main():
    spec = json.load(sys.stdin)
    lc, oracles = load_library()
    import numpy

    result = run_pass(lc, oracles, spec["instances"], spec["deadline_s"],
                      spec["trace"])
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
