"""The public surface: the names ``lambdacol`` exports and the benchmark
wraps, and checks that hold under ``python -O``."""

import ast
import importlib
import importlib.util
from pathlib import Path

import lambdacol

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

PUBLIC = [
    "CENSUS_CAP", "CHECK_CAP", "CONSTRUCTION_CAP", "CapExceededError", "Case",
    "ClassificationError", "ClassificationReport", "ColouredPartition",
    "Colouring", "DEFAULT_MAX_SHAPES", "DEFAULT_SOLVER_CAP",
    "DuplicateEdgeError", "DuplicateVertexError", "EmbeddingConsistencyError",
    "EndpointRangeError", "FamilyAssignment", "Graph", "GraphParseError",
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
