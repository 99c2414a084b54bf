"""Universal graphs for a given span: layered members and the embedding.

Two constructions anchor everything here.

The first, :func:`path_complement`, builds for each ``n >= 3`` a graph on
``n + 1`` vertices with ``C(n, 2)`` edges and span exactly ``n``: start from
the 4-vertex base with edges 02, 03, 13 and, for each new vertex ``k``, join
it to all of ``0..k-2`` (everything except its predecessor).  The result is
the complement of the path ``0-1-...-n``, and labelling vertex ``i`` with
``i`` is an optimal colouring without holes.

The second is the *layer family*: fix a span ``t >= 3`` and width ``l >= 1``,
take ``t + 1`` disjoint classes of ``l`` vertices, and join two classes by a
perfect matching exactly when their indices differ by at least 2 (consecutive
classes and class interiors stay edgeless).  Every choice of the perfect
matching per pair gives a graph on ``(t+1)*l`` vertices with ``C(t, 2)*l``
edges and span exactly ``t``; the class map itself is a valid colouring.
Width-1 members are exactly the :func:`path_complement` graphs.  A member is
a layered matching on the shape ``(l,) * (t+1)``: :func:`family_member`
builds the rank-aligned one with the builder of :mod:`lambdacol.standardise`,
and :func:`is_family_member` recognises every one with its checker, on
that module's :class:`ColouredPartition`.

The family is universal: any graph with a valid colouring of span ``t`` sits
inside some member with ``l`` equal to its largest colour class.
:func:`embed_universal` performs that construction — pad every class to size
``l`` with fresh vertices, then for each noncontiguous class pair match up
the vertices still missing a neighbour across the pair, in ascending vertex
order.  This works because a valid colouring never gives a vertex two
neighbours in one other class, so the cross-class edges already present form
a partial matching.
"""

from .graphs import Graph
from .shapes import PartitionShape
from .solver import Colouring
from .standardise import (
    ColouredPartition,
    StandardisedGraph,
    _check_construction_size,
    _is_layered_matching,
    partition_of,
    shape_of,
)


class EmbeddingConsistencyError(RuntimeError):
    """An identity the embedding relies on failed at runtime.

    The checked identities (unmatched sets of a class pair having equal
    sizes; the result a family member) are theorems for valid colourings,
    so this error indicates a bug, not bad input.
    """


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _check_member_size(t, l):
    """Refuse a width-``l`` member for span ``t`` above the cap, unbuilt."""
    _check_construction_size(
        "vertices plus edges", (t + 1) * l, t * (t - 1) // 2 * l
    )


def path_complement(n: int) -> Graph:
    """The recursive ``n + 1``-vertex graph of span ``n`` (``n >= 3``).

    Base: vertices 0..3 with edges 02, 03, 13.  Step: vertex ``k`` joined to
    ``0..k-2``.  Equivalently the complement of the path on ``n + 1``
    vertices, whence the name, and the width-1 member of the layer family
    for span ``n``.  Raises :class:`CapExceededError` above
    :data:`CONSTRUCTION_CAP`.
    """
    return family_member(n, 1)[0]


def family_member(t: int, l: int):
    """The rank-aligned member of the width-``l`` layer family for span ``t``.

    Vertices are numbered class-major (``class * l + index``), and index
    ``i`` of every class is joined to index ``i`` of each class at index
    distance two or more: the standardised graph of the shape
    ``(l,) * (t+1)``.  Returns ``(graph, partition)``; raises
    :class:`CapExceededError` above :data:`CONSTRUCTION_CAP`.
    """
    if type(t) is not int or t < 3:  # before any size arithmetic
        raise ValueError(f"need t >= 3, got {t!r}")
    if type(l) is not int or l < 1:
        raise ValueError(f"need l >= 1, got {l!r}")
    _check_member_size(t, l)
    sg = StandardisedGraph(PartitionShape((l,) * (t + 1)))
    return sg.graph(), sg.partition()


def is_family_member(g: Graph, partition: ColouredPartition) -> bool:
    """Whether ``g``'s edges realise the layer structure of ``partition``.

    Requires span ``t >= 3`` and ``t + 1`` classes of one size ``l >= 1``
    (else ``False``), no edge inside a class or between consecutive classes,
    and a perfect matching between every pair of classes at index distance
    >= 2 (a matching saturating one of two equal classes is perfect).
    """
    if len(partition.class_of) != g.n:
        raise ValueError(
            f"partition covers {len(partition.class_of)} vertices, "
            f"graph has {g.n}"
        )
    t, l = partition.t, g.n // (partition.t + 1)
    if t < 3 or l < 1:  # then t + 1 <= n, so the sizes are counted cheaply
        return False
    shape = shape_of(partition)
    return (shape.sizes == (l,) * (t + 1)
            and _is_layered_matching(g, partition.class_of, shape))


# ---------------------------------------------------------------------------
# the universality embedding
# ---------------------------------------------------------------------------

def embed_universal(g: Graph, c: Colouring):
    """Embed ``g`` into a layer member via the colouring ``c``.

    ``c`` must be a valid colouring of ``g`` with span ``t >= 3`` (optimality
    is the caller's business — the construction only needs validity).  Returns
    ``(gstar, partition, injection)`` where ``gstar`` contains ``g`` as a
    labelled subgraph under ``injection`` (the identity: original vertices
    keep their ids, padding takes fresh ids in class order) and passes
    :func:`is_family_member` with width ``l`` = largest colour class of ``c``.
    Each vertex's neighbour classes are read off the edge list, so the work
    is linear in the member's size.  Raises :class:`CapExceededError` when
    that member exceeds :data:`CONSTRUCTION_CAP`, before it is built.
    """
    cp = partition_of(g, c)
    t = cp.t
    if t < 3:
        raise ValueError(f"embedding needs span >= 3, got {t}")
    sizes = shape_of(cp).sizes
    width = max(sizes)
    _check_member_size(t, width)

    # fresh ids pad each class in turn, so every class is in id order
    class_of = list(cp.class_of)
    for m, size in enumerate(sizes):
        class_of += [m] * (width - size)
    padded = [[] for _ in range(t + 1)]
    for v, m in enumerate(class_of):
        padded[m].append(v)

    partners = [0] * len(class_of)  # bit p set once v has a neighbour in p
    for u, v in g.edges:
        partners[u] |= 1 << class_of[v]
        partners[v] |= 1 << class_of[u]
    edges = set(g.edges)
    for m in range(t + 1):
        for p in range(m + 2, t + 1):
            z_mp = [v for v in padded[m] if not partners[v] >> p & 1]
            z_pm = [v for v in padded[p] if not partners[v] >> m & 1]
            if len(z_mp) != len(z_pm):
                raise EmbeddingConsistencyError(
                    f"unmatched sets of classes {m} and {p} differ in size: "
                    f"{len(z_mp)} vs {len(z_pm)}"
                )
            for a, b in zip(z_mp, z_pm):
                edges.add((min(a, b), max(a, b)))

    gstar = Graph(len(class_of), frozenset(edges))
    partition = ColouredPartition(t, tuple(class_of))
    if not is_family_member(gstar, partition):
        raise EmbeddingConsistencyError("the padded graph is not a family member")
    return gstar, partition, tuple(range(g.n))
