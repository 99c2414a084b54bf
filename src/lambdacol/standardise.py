"""Coloured partitions and the rank-aligned standardised graph.

A colouring of span ``t`` partitions the vertices into classes ``C_0..C_t``
(some possibly empty — holes).  :class:`ColouredPartition`, a class map, is
the one record of such a partition that every construction returns and
every check reads.  The *standardised graph* of a pair ``(g, c)``
keeps the vertex set and the partition but replaces the edge set with the
one determined purely by the shape: rank the vertices of each class
by ascending id, then join rank ``i`` of class ``m`` with rank ``i`` of class
``p`` for every noncontiguous pair ``m < p - 1`` and every rank below both
class sizes.  Three facts make this the workhorse of the extremal theory:

* it never loses edges — in ``g`` each vertex had at most one neighbour in
  any other class and none in its own or adjacent classes, while the
  standardised graph gives it exactly one partner in every noncontiguous
  class that is large enough — so the edge count rises to exactly the shape's
  edge bound;

* the shape (hence the spread) is untouched;

* when ``c`` is optimal the span is preserved, so extremal questions about
  graphs reduce to integer questions about shapes.

The standardised graph, the layer family and the stationary extremal graphs
are each a *layered matching*: every noncontiguous class pair joined by a
matching that saturates the smaller class.  :meth:`StandardisedGraph.graph`
builds the rank-aligned one on any shape, and :func:`_is_layered_matching`
recognises every one, whichever matching joins each pair, so membership and
stationarity are checked alike by counting partners and edges.
"""

from functools import cached_property

from .graphs import CapExceededError, Graph, _Record
from .shapes import PartitionShape, edge_bound
from .solver import Colouring, is_lambda_colouring


#: Largest construction: a graph of at most this many vertices plus edges,
#: a partition into at most this many colour classes, a standardised graph
#: on at most this many class pairs.  Each size follows from the input, so
#: the cap is checked before anything of that size is built.
CONSTRUCTION_CAP = 500_000


def _check_construction_size(what, *counts):
    if sum(counts) > CONSTRUCTION_CAP:
        raise CapExceededError(
            f"constructions limited to {CONSTRUCTION_CAP} {what}, got "
            + " + ".join(map(str, counts))
        )


class ColouredPartition(_Record):
    """Colour classes ``C_0..C_t``, empties allowed, as a class map:
    ``class_of[v]`` is vertex ``v``'s class, an ``int`` (not a ``bool``)."""

    t: int
    class_of: tuple

    def __post_init__(self):
        if type(self.t) is not int or self.t < 0:
            raise ValueError(
                f"span must be a non-negative integer, got {self.t!r}"
            )
        for m in self.class_of:
            if type(m) is not int or not 0 <= m <= self.t:
                raise ValueError(
                    f"class indices must be integers in 0..{self.t}, got {m!r}"
                )

    @cached_property
    def classes(self) -> tuple:
        """The classes as frozensets of vertices."""
        members = [[] for _ in range(self.t + 1)]
        for v, m in enumerate(self.class_of):
            members[m].append(v)
        return tuple(map(frozenset, members))


def partition_of(g: Graph, c: Colouring) -> ColouredPartition:
    """The coloured partition of ``g`` under a valid colouring ``c``, its
    ``span + 1`` classes checked against :data:`CONSTRUCTION_CAP`."""
    if not is_lambda_colouring(g, c):
        raise ValueError("colouring is not valid on the graph")
    _check_construction_size("colour classes", c.span + 1)
    return ColouredPartition(c.span, c.labels)


def shape_of(cp: ColouredPartition) -> PartitionShape:
    """Class sizes of a partition."""
    sizes = [0] * (cp.t + 1)
    for m in cp.class_of:
        sizes[m] += 1
    return PartitionShape(tuple(sizes))


# ---------------------------------------------------------------------------
# standardised graphs
# ---------------------------------------------------------------------------

class StandardisedGraph(_Record):
    """The graph whose edges are a pure function of a shape.

    Vertices are numbered class-major: class ``m`` occupies the contiguous
    block starting at ``offset(m)``, with ranks ``0..c_m - 1``.  The edge set
    is the rank-aligned matching between every noncontiguous class pair, so
    the edge count is exactly the shape's edge bound.  Shapes with more
    than :data:`CONSTRUCTION_CAP` noncontiguous class pairs, or vertices
    plus edges, are refused.
    """

    shape: PartitionShape

    def __post_init__(self):
        t = self.shape.t
        if t < 3:
            raise ValueError(f"standardised graphs need span >= 3, got {t}")
        _check_construction_size("class pairs", t * (t - 1) // 2)
        _check_construction_size(
            "vertices plus edges", self.shape.n, edge_bound(self.shape)
        )

    @cached_property
    def offsets(self) -> tuple:
        off = [0]
        for s in self.shape.sizes:
            off.append(off[-1] + s)
        return tuple(off)

    def vertex(self, m: int, i: int) -> int:
        """Vertex id of rank ``i`` within class ``m``."""
        sizes = self.shape.sizes
        if not (0 <= m < len(sizes) and 0 <= i < sizes[m]):
            raise IndexError(f"no rank {i} in class {m} of 0..{len(sizes) - 1}")
        return self.offsets[m] + i

    def graph(self) -> Graph:
        """The standardised graph: each noncontiguous pair joins equal ranks."""
        s = self.shape.sizes
        off = self.offsets
        edges = set()
        for m in range(len(s)):
            later = range(m + 2, len(s))
            for i in range(s[m]):
                u = off[m] + i
                edges.update([(u, off[p] + i) for p in later if i < s[p]])
        return Graph(self.shape.n, frozenset(edges))

    def partition(self) -> ColouredPartition:
        """The class-major partition: class ``m`` is its block of vertices."""
        return ColouredPartition(self.shape.t, tuple(
            m for m, size in enumerate(self.shape.sizes) for _ in range(size)
        ))


def _is_layered_matching(g: Graph, class_of, shape: PartitionShape) -> bool:
    """Whether ``g``'s edges are a layered matching of the classes of ``shape``.

    ``class_of[v]`` is v's class.  No edge may lie inside a class or join
    consecutive classes, and no vertex may have two partners in one class.
    The edges between two classes then form a matching, which has at most
    as many edges as the smaller class has vertices, so all of them
    saturate their smaller class exactly when ``g`` has the shape's edge
    bound of edges.
    """
    partners = [0] * g.n  # bit c set once the vertex has a partner in c
    for u, v in g.edges:
        cu, cv = class_of[u], class_of[v]
        if abs(cu - cv) < 2 or partners[u] >> cv & 1 or partners[v] >> cu & 1:
            return False
        partners[u] |= 1 << cv
        partners[v] |= 1 << cu
    return g.m == edge_bound(shape)


def edge_standardise(g: Graph, c: Colouring):
    """Standardise ``(g, c)``: returns the standardised graph + correspondence.

    ``c`` must be valid with span >= 3.  The correspondence maps each original
    vertex id to its id in the standardised graph's class-major numbering
    (rank by ascending original id within each class).  The result has the
    same shape and spread, and at least as many edges as ``g``.
    """
    cp = partition_of(g, c)
    sg = StandardisedGraph(shape_of(cp))
    nxt = list(sg.offsets)  # the next free id of each class block
    corr = []
    for m in cp.class_of:
        corr.append(nxt[m])
        nxt[m] += 1
    return sg, tuple(corr)
