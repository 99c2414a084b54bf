"""Finite simple graphs, their text format, and path covers.

Everything downstream works with labelled undirected graphs on vertex set
``{0, ..., n-1}`` with no loops or parallel edges.  The graph-theoretic
quantity that matters here is the path cover number: the least number of
vertex-disjoint paths needed to cover every vertex, where a single vertex
counts as a (length-zero) path.  Its value on the *complement* of a graph
controls the top of the colouring span, which is why it lives here next to
``complement``.  Only the number is computed: the span needs no paths.

The text format is line oriented.  A graph file contains a header line
``p <n> <m>`` followed by exactly ``m`` edge lines ``e <u> <v>`` with
``0 <= u < v < n``.  Blank lines and lines starting with ``#`` are ignored.
Each distinct way a file can be malformed raises its own error class so that
callers (the command-line tool in particular) can point at the offending
line.
"""

from functools import cached_property
from operator import attrgetter

#: Largest order whose :attr:`Graph.adj_masks` are built, so the largest
#: :func:`lambda_number` solves and whose path cover number
#: :func:`_path_cover_number` counts: its DP visits all ``2^n`` subsets.
DEFAULT_SOLVER_CAP = 24


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class GraphParseError(ValueError):
    """A graph or colouring file violated the line-oriented format."""


class MissingHeaderError(GraphParseError):
    """The first significant line was not a well-formed ``p <n> <m>`` header."""


class MalformedLineError(GraphParseError):
    """A line after the header was not a well-formed record."""


class SelfLoopError(GraphParseError):
    """An edge line joined a vertex to itself."""


class EndpointRangeError(GraphParseError):
    """An edge line mentioned a vertex outside ``0..n-1``."""


class DuplicateEdgeError(GraphParseError):
    """The same edge appeared on two lines."""


class CapExceededError(ValueError):
    """An exact computation was asked for on a graph above its size cap."""


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

_setattr = object.__setattr__


class _Record:
    """Base of the library's frozen records.

    A record's fields are its class's annotated names, in order.  They are
    set by position or keyword, then checked by the class's
    ``__post_init__``.  Records compare and hash by their field values,
    never equal a record of another class, print as ``Name(field=value)``
    and refuse assignment and deletion; a ``cached_property`` still caches,
    since it writes the instance dictionary directly.  It stands in for
    ``dataclass(frozen=True)``, whose imports (``inspect``, ``ast``,
    ``dis``, ``tokenize``) and per-class code generation were half the time
    of ``import lambdacol``.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):]
                            if f in named)
        if named or len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields "
                f"({', '.join(fields)}), each once"
            )
        # not through self.__dict__: a materialised instance dictionary
        # makes every later attribute read slower in CPython 3.11
        for field, value in zip(fields, values):
            _setattr(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {f: getattr(self, f) for f in self._fields}


# ---------------------------------------------------------------------------
# the graph type
# ---------------------------------------------------------------------------

class Graph(_Record):
    """An undirected simple graph on vertices ``0..n-1``.

    ``edges`` is a frozenset of pairs ``(u, v)`` with ``u < v``, made from
    whatever container is given; ``n`` and the endpoints are ints, not
    bools.  Instances are immutable and hashable; the exact searches read
    neighbours from the bitmasks :attr:`adj_masks`, computed once and cached,
    and refused above :data:`DEFAULT_SOLVER_CAP`.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        _setattr(self, "edges", frozenset(self.edges))
        if type(self.n) is not int or self.n < 0:
            raise ValueError(
                f"vertex count must be a non-negative integer, got {self.n!r}"
            )
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e} must join integer vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} must have 0 <= u < v < n={self.n}")

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build a graph from any iterable of pairs, normalising order."""
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n, norm)

    @cached_property
    def adj_masks(self) -> tuple:
        """Neighbour sets as bitmasks (bit ``v`` set iff ``v`` adjacent), read
        only by the solver and the path covers.  Raises
        :class:`CapExceededError` above :data:`DEFAULT_SOLVER_CAP` vertices,
        before any mask is built: the one cap check of the exact searches."""
        if self.n > DEFAULT_SOLVER_CAP:
            raise CapExceededError(
                f"exact searches limited to n <= {DEFAULT_SOLVER_CAP}, "
                f"got {self.n}"
            )
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def complement_path_cover_number(self) -> int:
        """The path cover number of the complement.

        Raises :class:`CapExceededError` above :data:`DEFAULT_SOLVER_CAP`
        vertices, from :attr:`adj_masks`.
        """
        return _path_cover_number(_complement_masks(self.adj_masks), self.n + 1)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple:
        """The edges in ascending order, sorted once per graph."""
        return self._sorted_edges

    @cached_property
    def _sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    def complement(self) -> "Graph":
        """The graph with exactly the missing pairs as edges."""
        comp = frozenset(
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edges
        )
        return Graph(self.n, comp)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def _components(adj):
    """Vertex sets of the connected components of ``adj``, as bitmasks."""
    left = (1 << len(adj)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:  # flood fill from the lowest vertex left
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & ~comp
            comp |= frontier
        left ^= comp
        yield comp


# ---------------------------------------------------------------------------
# path cover
# ---------------------------------------------------------------------------

def path_cover_number(g: Graph) -> int:
    """Minimum number of vertex-disjoint paths covering all of ``V(g)``.

    Isolated vertices are length-zero paths, so the answer is between 1 and
    ``n`` for any non-empty graph (and 0 for the empty one).  From
    :func:`_path_cover_number`.  Raises :class:`CapExceededError` when ``n``
    exceeds :data:`DEFAULT_SOLVER_CAP`, from :attr:`Graph.adj_masks`.
    """
    return _path_cover_number(g.adj_masks, g.n + 1)


def _complement_masks(adj):
    """Bitmask adjacency of the complement of bitmask adjacency ``adj``."""
    full = (1 << len(adj)) - 1
    return tuple(full & ~m & ~(1 << v) for v, m in enumerate(adj))


def _path_cover_number(adj, below):
    """The path cover number of bitmask adjacency ``adj`` when it is below
    ``below``; else None.

    None at once when :func:`_path_cover_bound` reaches ``below``; the
    greedy cover's size when it meets the bound; only otherwise does the
    ``2^n`` DP run, and only for covers of fewer paths than both the greedy
    one and ``below``.  Every cover number is decided here.
    """
    bound = _path_cover_bound(adj)
    if bound >= below:
        return None
    greedy = _greedy_path_count(adj)
    if greedy == bound:
        return greedy
    pc = _path_cover_masks(adj, min(greedy, below))
    if pc is None and greedy < below:
        return greedy  # no cover of fewer paths
    return pc


def _path_cover_bound(adj):
    """A lower bound on the path cover number of bitmask adjacency ``adj``.

    The larger of two counts.  No path leaves a component, so each
    component needs its own :func:`_paths_needed`.  A path on ``m``
    vertices holds at most ``ceil(m/2)`` vertices of an independent set, so
    ``p`` paths on ``n`` vertices hold at most ``(n + p) / 2`` of them:
    ``p >= 2 * alpha - n``, with ``alpha`` the clique number of the
    complement.
    """
    by_slots = sum(_paths_needed(adj, c) for c in _components(adj))
    alpha = _max_cliques(_complement_masks(adj))[0].bit_count()
    return max(by_slots, 2 * alpha - len(adj))


def _max_cliques(adj, limit=1):
    """Up to ``limit`` maximum cliques of bitmask adjacency ``adj``, as masks.

    Branch and bound over vertices in id order.  A branch ends at a clique
    that no candidate left extends, and only such cliques are kept; every
    maximum clique is one.  ``bar`` is the least size still worth reaching:
    the largest kept, or one more once ``limit`` cliques of that size are
    held.  Each clique is reached along one branch, so none repeats.  The
    size of any of them is the clique number; the only maximum clique of
    the graph on no vertices is empty.
    """
    found = []
    bar = 0

    def expand(clique, size, cand):
        nonlocal bar
        if not cand:
            if size >= bar:
                if size == bar and len(found) < limit:
                    found.append(clique)
                else:
                    found[:] = [clique]
                bar = size + (len(found) >= limit)
            return
        while cand:
            if size + cand.bit_count() < bar:
                return
            b = cand & -cand
            expand(clique | b, size + 1, cand & adj[b.bit_length() - 1])
            cand ^= b

    expand(0, 0, (1 << len(adj)) - 1)
    return found


def _path_cover_masks(adj, below):
    """The path cover number of bitmask adjacency ``adj`` when it is below
    ``below``; else None.

    A dynamic programme over all ``2^n`` vertex subsets, each family of
    subsets held as one integer whose bit ``S`` stands for the subset ``S``,
    so that one integer operation acts on every subset at once.  For
    ``p = 1, 2, ...`` in turn, ``covered`` is the family of subsets with a
    cover by at most ``p - 1`` paths, and ``ends[v]`` the family of subsets
    with a cover by at most ``p`` paths, one of them ending at ``v``.
    Taking ``v`` off the end of its path leaves ``S - v`` covered by at most
    ``p - 1`` paths, or by at most ``p`` with one ending next to ``v``; so
    ``ends[v]`` is the least family holding ``S + v`` for each ``S`` without
    ``v`` in ``covered`` or in ``ends[u]`` of a neighbour ``u``, reached by
    sweeping the vertices until no family grows.  The first ``p`` at which
    some ``ends[v]`` holds the full set is the cover number.  Each level is
    built once and dropped for the next, so the run holds about ``2n``
    families of ``2^n`` bits (2 MB each at 24 vertices).
    """
    n = len(adj)
    size = 1 << n
    full = size - 1
    if not full:
        return 0  # the empty set needs no paths
    nbrs = [list(_bits(a)) for a in adj]
    # the subsets without v: runs of 2^v set bits and 2^v clear ones
    without = []
    for v in range(n):
        fam = (1 << (1 << v)) - 1
        width = 2 << v
        while width < size:
            fam |= fam << width
            width <<= 1
        without.append(fam)
    covered = 1  # just the empty set, with a cover by no paths
    for p in range(1, below):
        ends = [(covered & without[v]) << (1 << v) for v in range(n)]
        grew = True
        while grew:
            grew = False
            for v in range(n):
                reach = 0
                for u in nbrs[v]:
                    reach |= ends[u]
                fam = ends[v] | (reach & without[v]) << (1 << v)
                if fam != ends[v]:
                    ends[v] = fam
                    grew = True
        if any(fam >> full & 1 for fam in ends):
            return p
        for fam in ends:
            covered |= fam
        ends = None  # the next level is built without this one
    return None


def _greedy_path_count(adj):
    """The number of paths of a greedy path cover of bitmask adjacency
    ``adj``, not always the least.

    Each path starts at an uncovered vertex with the fewest uncovered
    neighbours and grows from its end to the uncovered neighbour with the
    fewest uncovered neighbours until the end has none.
    """
    left = (1 << len(adj)) - 1
    paths = 0
    while left:
        paths += 1
        cand = left
        while cand:
            v = min(_bits(cand), key=lambda u: (adj[u] & left).bit_count())
            left &= ~(1 << v)
            cand = adj[v] & left
    return paths


def _paths_needed(adj, within):
    """A lower bound on the paths of any path cover of the non-empty vertex
    set ``within`` of bitmask adjacency ``adj``.

    Every path has two end slots (a one-vertex path fills both with its
    vertex), and a vertex with ``d < 2`` neighbours in ``within`` fills at
    least ``2 - d`` of them, so a cover needs at least one path and half
    as many as the slots filled.
    """
    slots = 0
    for v in _bits(within):
        d = (adj[v] & within).bit_count()
        if d < 2:
            slots += 2 - d
    return max(1, (slots + 1) // 2)


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_graph(text: str) -> Graph:
    """Parse the ``p``/``e`` line format into a :class:`Graph`.

    The header is ``p <n> <m>``; a bare ``p <n>`` is accepted with the edge
    count inferred from the lines that follow.  Raises a specific
    :class:`GraphParseError` subclass per defect, with the line number and
    offending token in the message.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise MissingHeaderError("no header line found")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) not in (2, 3) or fields[0] != "p":
        raise MissingHeaderError(f"line {lineno}: expected 'p <n> <m>', got {header!r}")
    try:
        counts = [int(x) for x in fields[1:]]
    except ValueError:
        raise MissingHeaderError(
            f"line {lineno}: header counts must be integers, got {header!r}"
        ) from None
    if any(x < 0 for x in counts):
        raise MissingHeaderError(f"line {lineno}: negative count in header {header!r}")
    n = counts[0]

    edge_lines = lines[1:]
    # An edge count in the header is a promise; 'p <n>' alone infers it.
    if len(counts) == 2 and len(edge_lines) != counts[1]:
        raise MalformedLineError(
            f"header promised {counts[1]} edge lines, found {len(edge_lines)}"
        )
    edges = set()
    for lineno, line in edge_lines:
        fields = line.split()
        if len(fields) != 3 or fields[0] != "e":
            raise MalformedLineError(
                f"line {lineno}: expected 'e <u> <v>', got {line!r}"
            )
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise MalformedLineError(
                f"line {lineno}: endpoints must be integers, got {line!r}"
            ) from None
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
        if u > v:
            raise MalformedLineError(
                f"line {lineno}: endpoints must satisfy u < v, got {line!r}"
            )
        if not (0 <= u and v < n):
            raise EndpointRangeError(
                f"line {lineno}: vertex out of range 0..{n - 1} in {line!r}"
            )
        if (u, v) in edges:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph(n, frozenset(edges))


def format_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph`; edges sorted, newline terminated."""
    out = [f"p {g.n} {g.m}"]
    for u, v in g.sorted_edges():
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"
