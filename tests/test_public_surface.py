"""The public surface: the names ``lambdacol`` exports and the benchmark
wraps, and checks that hold under ``python -O``."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lambdacol
from lambdacol import (
    Case, ClassificationReport, ColouredPartition, Colouring, Graph,
    PartitionShape, PathCoverBound, SolveReport, StandardisedGraph,
    StationaryType, VerificationReport, family_member,
)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

PUBLIC = [
    "CENSUS_CAP", "CONSTRUCTION_CAP", "CapExceededError", "Case",
    "ClassificationError", "ClassificationReport", "ColouredPartition",
    "Colouring", "DEFAULT_MAX_SHAPES", "DEFAULT_SOLVER_CAP",
    "DuplicateEdgeError", "DuplicateVertexError", "EmbeddingConsistencyError",
    "EndpointRangeError", "Graph", "GraphParseError",
    "MalformedLineError", "MissingHeaderError", "MissingVertexError",
    "NotNormalisedError", "PartitionShape", "PathCoverBound", "SelfLoopError",
    "SolveReport", "SpanSearchError", "StandardisedGraph", "StationaryType",
    "VerificationReport", "VertexRangeError", "adjacent_max_pairs",
    "brute_force_graph_census", "build_stationary", "classify", "delete_max",
    "dual_shape", "edge_bound", "edge_standardise", "embed_universal",
    "family_member", "find_violation", "format_colouring", "format_graph",
    "format_shape", "holes_of", "insert_min", "is_family_member",
    "is_lambda_colouring", "is_stationary", "is_valid_shape", "lambda_number",
    "lambda_via_path_cover", "max_classes", "max_edges", "min_classes",
    "parse_colouring", "parse_graph", "parse_shape", "partition_of",
    "path_complement", "path_cover_number", "predicted_shapes",
    "prohibited_zone", "shape_of", "spread", "verify_classification",
]


def test_exported_names_are_pinned():
    # a name added or dropped here is a change of the public surface
    assert sorted(lambdacol.__all__) == PUBLIC


def test_every_name_the_tracer_wraps_exists():
    # the traced benchmark looks each of these up and fails on a missing one
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.FUNCTIONS.items():
        home = importlib.import_module(f"lambdacol.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), (layer, name)
    for layer, classes in tracing.METHODS.items():
        home = importlib.import_module(f"lambdacol.{layer}")
        for cname, methods in classes.items():
            for name in methods:
                assert callable(vars(getattr(home, cname)).get(name)), \
                    (layer, cname, name)


def test_no_assert_statements_in_the_library():
    # an assert vanishes under ``python -O``, so no check in src/ may be one
    asserts = []
    for path in sorted((ROOT / "src" / "lambdacol").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]
    assert asserts == []


def test_every_library_import_is_read():
    # a name a module imports but never reads is dead weight; __init__.py
    # imports to re-export, so it is left out
    unread = []
    for path in sorted((ROOT / "src" / "lambdacol").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unread == []


_SHAPE = PartitionShape((1, 1, 1, 1))
# each record class with its fields in order and, where its constructor
# checks them, field values that check refuses
RECORDS = [
    (Graph, {"n": 3, "edges": frozenset({(0, 1), (1, 2)})},
     {"n": 2, "edges": frozenset({(0, 2)})}),
    (Colouring, {"labels": (0, 2, 4)}, {"labels": (1, 3)}),
    (SolveReport, {"lambda_value": 4, "witness": Colouring((0, 2, 4)),
                   "holes": (1, 3)}, None),
    (PathCoverBound, {"path_cover": 2, "exact": True, "value": 3}, None),
    (PartitionShape, {"sizes": (3, 2, 1, 3)}, {"sizes": ()}),
    (ColouredPartition, {"t": 1, "class_of": (0, 1)},
     {"t": 1, "class_of": (0, 2)}),
    (StandardisedGraph, {"shape": _SHAPE},
     {"shape": PartitionShape((1, 1, 1))}),
    (StationaryType, {"tag": "EQUITABLE", "dual_flag": False}, None),
    (ClassificationReport, {"case": Case.DIVISIBLE, "witness_shape": _SHAPE,
                            "max_edges": 3,
                            "stationary": StationaryType("EQUITABLE", False)},
     None),
    (VerificationReport, {"n": 8, "t": 3, "max_edges": 10, "attaining": 1,
                          "argmax_equals_predicted": True,
                          "equitable_only_ok": None, "census_ok": None,
                          "inner_ok": True, "outer_ok": True}, None),
]


@pytest.mark.parametrize("cls, fields, refused", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_values(cls, fields, refused):
    values = tuple(fields.values())
    record = cls(*values)
    assert record == cls(**fields) and hash(record) == hash(cls(**fields))
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    # the same field values held by another record class are another value
    other = next(c for c, _, _ in RECORDS if c is not cls)
    twin = object.__new__(other)
    vars(twin).update(vars(record))
    assert record != twin and twin != record
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    for wrong in (values[:-1], values + values[:1]):
        with pytest.raises(TypeError):
            cls(*wrong)
    if refused is not None:
        with pytest.raises(ValueError):
            cls(**refused)


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(True, ()), "vertex count must be a non-negative integer"),
    (lambda: Graph(3, {(0, True)}), "must join integer vertices"),
    (lambda: Colouring((0, True)), "labels must be non-negative integers"),
    (lambda: PartitionShape((True, 1, 1, 1)),
     "class sizes must be non-negative integers"),
    (lambda: ColouredPartition(True, (0, 1)),
     "span must be a non-negative integer"),
    (lambda: ColouredPartition(1, (0, True)), "class indices must be integers"),
    (lambda: family_member(True, 1), "need t >= 3, got True"),
    (lambda: family_member(3, True), "need l >= 1, got True"),
], ids=["graph-n", "graph-endpoint", "colouring", "shape", "partition-t",
        "partition-class", "member-t", "member-l"])
def test_records_refuse_a_bool_as_an_integer(build, message):
    # a bool passes isinstance(x, int), and a file would hold the word
    # "True", which no parser reads back
    with pytest.raises(ValueError, match=message):
        build()


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are built without ``dataclasses``, which imports
    # ``inspect``, ``ast``, ``dis`` and ``tokenize``; ``site`` may preload
    # modules, so only the ones the import adds count
    probe = ("import sys; before = set(sys.modules); import lambdacol; "
             "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path},
                         timeout=60, check=True)
    added = set(res.stdout.split())
    assert "lambdacol.extremal" in added
    assert not added & {"dataclasses", "inspect"}
