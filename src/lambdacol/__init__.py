"""Distance-two colouring: exact spans, universal constructions, extremal counts.

The public surface, by theme:

* graphs and files — :class:`Graph`, :func:`parse_graph`, :func:`format_graph`,
  :func:`path_cover_number`;
* exact solving — :func:`lambda_number`, :func:`is_lambda_colouring`,
  :func:`find_violation`, :func:`holes_of`, :func:`lambda_via_path_cover`,
  :class:`Colouring`, colouring files;
* canonical constructions — :func:`path_complement`, :func:`family_member`,
  :func:`is_family_member`, :func:`embed_universal`;
* shapes and transforms — :class:`PartitionShape`, :func:`edge_bound`,
  :func:`adjacent_max_pairs`, :func:`spread`, :func:`delete_max`,
  :func:`insert_min`, :func:`edge_standardise`;
* the extremal classification — :func:`max_edges`, :func:`predicted_shapes`,
  :func:`build_stationary`, :func:`is_stationary`, :func:`classify`,
  :func:`verify_classification`, :func:`brute_force_graph_census`.
"""

from types import ModuleType as _ModuleType

from .graphs import (
    CapExceededError,
    DEFAULT_SOLVER_CAP,
    DuplicateEdgeError,
    EndpointRangeError,
    Graph,
    GraphParseError,
    MalformedLineError,
    MissingHeaderError,
    SelfLoopError,
    format_graph,
    parse_graph,
    path_cover_number,
)
from .solver import (
    Colouring,
    DuplicateVertexError,
    MissingVertexError,
    NotNormalisedError,
    PathCoverBound,
    SolveReport,
    SpanSearchError,
    VertexRangeError,
    find_violation,
    format_colouring,
    holes_of,
    is_lambda_colouring,
    lambda_number,
    lambda_via_path_cover,
    parse_colouring,
)
from .families import (
    EmbeddingConsistencyError,
    FamilyAssignment,
    embed_universal,
    family_member,
    is_family_member,
    path_complement,
)
from .shapes import (
    PartitionShape,
    adjacent_max_pairs,
    delete_max,
    dual_shape,
    edge_bound,
    format_shape,
    insert_min,
    is_valid_shape,
    max_classes,
    min_classes,
    parse_shape,
    prohibited_zone,
    spread,
)
from .standardise import (
    CONSTRUCTION_CAP,
    ColouredPartition,
    StandardisedGraph,
    edge_standardise,
    partition_of,
    shape_of,
)
from .extremal import (
    Case,
    CENSUS_CAP,
    ClassificationError,
    ClassificationReport,
    DEFAULT_MAX_SHAPES,
    StationaryType,
    VerificationReport,
    brute_force_graph_census,
    build_stationary,
    classify,
    is_stationary,
    max_edges,
    predicted_shapes,
    verify_classification,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
