"""Command-line front end.

One verb per library entry point, plain-text output by default (stable,
line-oriented, diff-friendly) and ``--json`` everywhere for scripting.  Each
verb returns a pair, its JSON object and its text, and :func:`main` prints
the one asked for; a verb that raises prints nothing to stdout.  Exit
status: 0 success, 1 domain error (unreadable input, malformed file, validity
or cap violation), 2 usage error.
"""

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
from .graphs import format_graph, parse_graph
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


def _read_graph(args):
    return parse_graph(_read_text(args.file))


def _read_coloured(args):
    g = _read_graph(args)
    return g, parse_colouring(_read_text(args.colouring), g.n)


def _graph_json(g):
    return {"n": g.n, "edges": g.sorted_edges()}


def _indexed(tag, values):
    """One ``<tag> <i> <value>`` line per entry, e.g. ``v`` or ``map``."""
    return "".join(f"{tag} {i} {x}\n" for i, x in enumerate(values))


# ---------------------------------------------------------------------------
# verbs: each returns (JSON object, text)
# ---------------------------------------------------------------------------

def _cmd_lambda(args):
    rep = lambda_number(_read_graph(args))
    holes = ",".join(map(str, rep.holes)) if rep.holes else "none"
    return (
        {"lambda": rep.lambda_value, "witness": list(rep.witness.labels),
         "holes": list(rep.holes)},
        f"lambda {rep.lambda_value}\n{format_colouring(rep.witness)}"
        f"holes {holes}\n",
    )


def _cmd_check(args):
    g, c = _read_coloured(args)
    bad = find_violation(g, c)
    if bad is None:
        return {"valid": True, "span": c.span}, f"valid span={c.span}\n"
    u, v, d = bad
    return (
        {"valid": False, "vertices": [u, v], "distance": d},
        f"invalid: vertices {u} and {v} at distance {d} "
        f"have labels {c[u]} and {c[v]}\n",
    )


def _cmd_construct(args):
    if args.kind == "gn":
        if len(args.params) != 1:
            raise _Usage("construct gn takes one argument: N")
        g = path_complement(_int_arg(args.params[0], "N"))
        return _graph_json(g), format_graph(g)
    if len(args.params) != 2:
        raise _Usage("construct gtl takes two arguments: T L")
    g, fa = family_member(_int_arg(args.params[0], "T"),
                          _int_arg(args.params[1], "L"))
    return ({**_graph_json(g), "classes": list(fa.class_of)},
            format_graph(g) + _indexed("v", fa.class_of))


def _cmd_embed(args):
    host, fa, injection = embed_universal(*_read_coloured(args))
    return (
        {"host": _graph_json(host), "classes": list(fa.class_of),
         "injection": list(injection)},
        format_graph(host) + _indexed("v", fa.class_of)
        + _indexed("map", injection),
    )


def _cmd_standardise(args):
    sg, corr = edge_standardise(*_read_coloured(args))
    g = sg.graph()
    return (
        {"shape": list(sg.shape.sizes), "graph": _graph_json(g),
         "map": list(corr)},
        f"shape {format_shape(sg.shape)}\n" + format_graph(g)
        + _indexed("map", corr),
    )


def _shape_verb(functional):
    def run(args):
        value = functional(parse_shape(args.shape))
        return {"value": value}, f"{value}\n"
    return run


def _cmd_maxedges(args):
    value, shapes = max_edges(args.n, args.t)
    ordered = sorted(s.sizes for s in shapes)
    return (
        {"max_edges": value, "shapes": [list(s) for s in ordered]},
        f"{value}\n" + "".join(",".join(map(str, s)) + "\n" for s in ordered),
    )


def _cmd_classify(args):
    rep = classify(_read_graph(args))
    st = rep.stationary
    tag = "-" if st is None else st.tag
    dual = "-" if st is None else ("yes" if st.dual_flag else "no")
    return (
        {"case": rep.case.value, "max_edges": rep.max_edges,
         "witness_shape": list(rep.witness_shape.sizes),
         "stationary": None if st is None else {
             "tag": st.tag, "dual": st.dual_flag}},
        f"case={rep.case.value} max_edges={rep.max_edges} "
        f"witness_shape={format_shape(rep.witness_shape)} "
        f"type={tag} dual={dual}\n",
    )


def _cmd_verify(args):
    rep = verify_classification(args.n, args.t)
    return {**rep._asdict(), "passed": rep.passed}, rep.line() + "\n"


def _cmd_census(args):
    table = list(brute_force_graph_census(args.n).items())
    return ({"n": args.n, "table": table},
            "".join(f"{lam} {m}\n" for lam, m in table))


def _cmd_pathcover(args):
    bound = lambda_via_path_cover(_read_graph(args))
    exact = "yes" if bound.exact else "no"
    return bound._asdict(), (f"path_cover={bound.path_cover} exact={exact} "
                             f"value={bound.value}\n")


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


#: argparse options of the positional arguments that are not plain strings.
_POSITIONAL = {
    "kind": {"choices": ["gn", "gtl"]},
    "params": {"nargs": "*"},
    "n": {"type": int},
    "t": {"type": int},
}

#: (verb, handler, help, positional arguments), in help order.
_VERBS = [
    ("lambda", _cmd_lambda, "exact span of a graph file", ["file"]),
    ("check", _cmd_check, "validate a colouring file against a graph",
     ["file", "colouring"]),
    ("construct", _cmd_construct, "build a canonical graph: gn N, or gtl T L",
     ["kind", "params"]),
    ("embed", _cmd_embed, "embed a coloured graph into its universal host",
     ["file", "colouring"]),
    ("standardise", _cmd_standardise,
     "rank-aligned standardisation of a coloured graph",
     ["file", "colouring"]),
    ("shape-m", _shape_verb(edge_bound),
     "edge bound of a shape (comma-separated)", ["shape"]),
    ("shape-k", _shape_verb(adjacent_max_pairs),
     "adjacent max pairs of a shape", ["shape"]),
    ("maxedges", _cmd_maxedges,
     "maximum edges and attaining shapes for order N, span T", ["n", "t"]),
    ("classify", _cmd_classify, "classify one graph file", ["file"]),
    ("verify", _cmd_verify, "verify the classification at (N, T)", ["n", "t"]),
    ("census", _cmd_census, "max edges per span over all graphs on N vertices",
     ["n"]),
    ("pathcover", _cmd_pathcover,
     "span via the complement's path-cover number", ["file"]),
]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lambdacol",
        description="Distance-two colouring spans, constructions, and extremal counts.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, func, help_text, positional in _VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.set_defaults(func=func)
        for arg in positional:
            p.add_argument(arg, **_POSITIONAL.get(arg, {}))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        obj, text = args.func(args)
        if args.json:
            print(json.dumps(obj, sort_keys=True))
        else:
            sys.stdout.write(text)
        return 0
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EmbeddingConsistencyError, ClassificationError, SpanSearchError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
