"""Command-line front end.

One verb per library entry point, plain-text output by default (stable,
line-oriented, diff-friendly) and ``--json`` everywhere for scripting.  Exit
status: 0 success, 1 domain error (unreadable input, malformed file, validity
or cap violation), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .extremal import (
    ClassificationError,
    brute_force_graph_census,
    classify,
    max_edges,
    verify_classification,
)
from .families import (
    EmbeddingConsistencyError,
    embed_universal,
    family_member,
    path_complement,
)
from .graphs import (
    CapExceededError,
    GraphParseError,
    format_graph,
    parse_graph,
)
from .shapes import (
    adjacent_max_pairs,
    edge_bound,
    format_shape,
    parse_shape,
)
from .solver import (
    SpanSearchError,
    find_violation,
    format_colouring,
    lambda_number,
    lambda_via_path_cover,
    parse_colouring,
)
from .standardise import edge_standardise


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path):
    return parse_graph(_read_text(path))


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _graph_json(g):
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_lambda(args):
    g = _read_graph(args.file)
    rep = lambda_number(g)
    if args.json:
        _emit_json({
            "lambda": rep.lambda_value,
            "witness": list(rep.witness.labels),
            "holes": list(rep.holes),
        })
        return 0
    print(f"lambda {rep.lambda_value}")
    sys.stdout.write(format_colouring(rep.witness))
    holes = ",".join(map(str, rep.holes)) if rep.holes else "none"
    print(f"holes {holes}")
    return 0


def _cmd_check(args):
    g = _read_graph(args.file)
    c = parse_colouring(_read_text(args.colouring), g.n)
    bad = find_violation(g, c)
    if args.json:
        if bad is None:
            _emit_json({"valid": True, "span": c.span})
        else:
            u, v, d = bad
            _emit_json({"valid": False, "vertices": [u, v], "distance": d})
        return 0
    if bad is None:
        print(f"valid span={c.span}")
    else:
        u, v, d = bad
        print(
            f"invalid: vertices {u} and {v} at distance {d} "
            f"have labels {c[u]} and {c[v]}"
        )
    return 0


def _cmd_construct(args):
    if args.kind == "gn":
        if len(args.params) != 1:
            raise _Usage("construct gn takes one argument: N")
        g = path_complement(_int_arg(args.params[0], "N"))
        if args.json:
            _emit_json(_graph_json(g))
        else:
            sys.stdout.write(format_graph(g))
        return 0
    if len(args.params) != 2:
        raise _Usage("construct gtl takes two arguments: T L")
    t = _int_arg(args.params[0], "T")
    l = _int_arg(args.params[1], "L")
    g, fa = family_member(t, l)
    if args.json:
        out = _graph_json(g)
        out["classes"] = list(fa.class_of)
        _emit_json(out)
        return 0
    sys.stdout.write(format_graph(g))
    for v, m in enumerate(fa.class_of):
        print(f"v {v} {m}")
    return 0


def _cmd_embed(args):
    g = _read_graph(args.file)
    c = parse_colouring(_read_text(args.colouring), g.n)
    host, fa, injection = embed_universal(g, c)
    if args.json:
        out = {
            "host": _graph_json(host),
            "classes": list(fa.class_of),
            "injection": list(injection),
        }
        _emit_json(out)
        return 0
    sys.stdout.write(format_graph(host))
    for v, m in enumerate(fa.class_of):
        print(f"v {v} {m}")
    for old, new in enumerate(injection):
        print(f"map {old} {new}")
    return 0


def _cmd_standardise(args):
    g = _read_graph(args.file)
    c = parse_colouring(_read_text(args.colouring), g.n)
    sg, corr = edge_standardise(g, c)
    if args.json:
        _emit_json({
            "shape": list(sg.shape.sizes),
            "graph": _graph_json(sg.graph()),
            "map": list(corr),
        })
        return 0
    print(f"shape {format_shape(sg.shape)}")
    sys.stdout.write(format_graph(sg.graph()))
    for old, new in enumerate(corr):
        print(f"map {old} {new}")
    return 0


def _cmd_shape_m(args):
    value = edge_bound(parse_shape(args.shape))
    if args.json:
        _emit_json({"value": value})
    else:
        print(value)
    return 0


def _cmd_shape_k(args):
    value = adjacent_max_pairs(parse_shape(args.shape))
    if args.json:
        _emit_json({"value": value})
    else:
        print(value)
    return 0


def _cmd_maxedges(args):
    value, shapes = max_edges(args.n, args.t)
    ordered = sorted(s.sizes for s in shapes)
    if args.json:
        _emit_json({"max_edges": value, "shapes": [list(s) for s in ordered]})
        return 0
    print(value)
    for sizes in ordered:
        print(",".join(map(str, sizes)))
    return 0


def _cmd_classify(args):
    g = _read_graph(args.file)
    rep = classify(g)
    st = rep.stationary
    if args.json:
        _emit_json({
            "case": rep.case.value,
            "max_edges": rep.max_edges,
            "witness_shape": list(rep.witness_shape.sizes),
            "stationary": None if st is None else {
                "tag": st.tag, "dual": st.dual_flag,
            },
        })
        return 0
    tag = "-" if st is None else st.tag
    dual = "-" if st is None else ("yes" if st.dual_flag else "no")
    print(
        f"case={rep.case.value} max_edges={rep.max_edges} "
        f"witness_shape={format_shape(rep.witness_shape)} "
        f"type={tag} dual={dual}"
    )
    return 0


def _cmd_verify(args):
    rep = verify_classification(args.n, args.t)
    if args.json:
        _emit_json({
            "n": rep.n,
            "t": rep.t,
            "passed": rep.passed,
            "max_edges": rep.max_edges,
            "attaining": rep.attaining,
            "argmax_equals_predicted": rep.argmax_equals_predicted,
            "equitable_only_ok": rep.equitable_only_ok,
            "census_ok": rep.census_ok,
            "inner_ok": rep.inner_ok,
            "outer_ok": rep.outer_ok,
        })
        return 0
    print(rep.line())
    return 0


def _cmd_census(args):
    table = brute_force_graph_census(args.n)
    if args.json:
        _emit_json({"n": args.n, "table": sorted(table.items())})
        return 0
    for lam in sorted(table):
        print(f"{lam} {table[lam]}")
    return 0


def _cmd_pathcover(args):
    g = _read_graph(args.file)
    bound = lambda_via_path_cover(g)
    if args.json:
        _emit_json({
            "path_cover": bound.path_cover,
            "exact": bound.exact,
            "value": bound.value,
        })
        return 0
    exact = "yes" if bound.exact else "no"
    print(f"path_cover={bound.path_cover} exact={exact} value={bound.value}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

class _Usage(Exception):
    """Bad verb arguments detected after argparse (exit status 2)."""


def _int_arg(text, name):
    try:
        return int(text)
    except ValueError:
        raise _Usage(f"{name} must be an integer, got {text!r}") from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lambdacol",
        description="Distance-two colouring spans, constructions, and extremal counts.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.set_defaults(func=func)
        return p

    p = add("lambda", _cmd_lambda, "exact span of a graph file")
    p.add_argument("file")

    p = add("check", _cmd_check, "validate a colouring file against a graph")
    p.add_argument("file")
    p.add_argument("colouring")

    p = add("construct", _cmd_construct,
            "build a canonical graph: gn N, or gtl T L")
    p.add_argument("kind", choices=["gn", "gtl"])
    p.add_argument("params", nargs="*")

    p = add("embed", _cmd_embed,
            "embed a coloured graph into its universal host")
    p.add_argument("file")
    p.add_argument("colouring")

    p = add("standardise", _cmd_standardise,
            "rank-aligned standardisation of a coloured graph")
    p.add_argument("file")
    p.add_argument("colouring")

    p = add("shape-m", _cmd_shape_m, "edge bound of a shape (comma-separated)")
    p.add_argument("shape")

    p = add("shape-k", _cmd_shape_k, "adjacent max pairs of a shape")
    p.add_argument("shape")

    p = add("maxedges", _cmd_maxedges,
            "maximum edges and attaining shapes for order N, span T")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)

    p = add("classify", _cmd_classify, "classify one graph file")
    p.add_argument("file")

    p = add("verify", _cmd_verify, "verify the classification at (N, T)")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)

    p = add("census", _cmd_census,
            "max edges per span over all graphs on N vertices")
    p.add_argument("n", type=int)

    p = add("pathcover", _cmd_pathcover,
            "span via the complement's path-cover number")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (GraphParseError, EmbeddingConsistencyError, ClassificationError,
            SpanSearchError, CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
