"""Finite simple graphs, their text format, and path covers.

Everything downstream works with labelled undirected graphs on vertex set
``{0, ..., n-1}`` with no loops or parallel edges.  The graph-theoretic
quantity that matters here is the path cover number: the least number of
vertex-disjoint paths needed to cover every vertex, where a single vertex
counts as a (length-zero) path.  Its value on the *complement* of a graph
controls the top of the colouring span, which is why it lives here next to
``complement``.

The text format is line oriented.  A graph file contains a header line
``p <n> <m>`` followed by exactly ``m`` edge lines ``e <u> <v>`` with
``0 <= u < v < n``.  Blank lines and lines starting with ``#`` are ignored.
Each distinct way a file can be malformed raises its own error class so that
callers (the command-line tool in particular) can point at the offending
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

#: Largest order :func:`lambda_number` solves and :func:`_min_path_cover`
#: covers: the cover's dynamic programme visits all ``2^n`` vertex subsets.
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
# the graph type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    ``edges`` is a frozenset of pairs ``(u, v)`` with ``u < v``.  Instances
    are immutable and hashable; neighbours are read from the bitmasks
    :attr:`adj_masks`, computed once and cached.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build a graph from any iterable of pairs, normalising order."""
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n, norm)

    @cached_property
    def adj_masks(self) -> tuple:
        """Neighbour sets as bitmasks (bit ``v`` set iff ``v`` adjacent)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def complement_path_cover(self) -> tuple:
        """A minimum path cover of the complement, as vertex tuples.

        From :func:`_min_path_cover`, which refuses graphs above
        :data:`DEFAULT_SOLVER_CAP`.
        """
        return tuple(tuple(p) for p in _min_path_cover(self, complement=True))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for the empty or edgeless graph."""
        return max((m.bit_count() for m in self.adj_masks), default=0)

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
        comp = sum(_bfs_layers(adj, left & -left))  # disjoint layers
        left ^= comp
        yield comp


def _bfs_layers(adj, start):
    """BFS layers of bitmask adjacency ``adj`` from vertex set ``start``."""
    seen = frontier = start
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier


# ---------------------------------------------------------------------------
# path cover
# ---------------------------------------------------------------------------

def path_cover_number(g: Graph) -> int:
    """Minimum number of vertex-disjoint paths covering all of ``V(g)``.

    Isolated vertices are length-zero paths, so the answer is between 1 and
    ``n`` for any non-empty graph (and 0 for the empty one).  The size of
    :func:`_min_path_cover`'s cover: the greedy one when it meets
    :func:`_path_cover_bound`, else the exact dynamic programme over vertex
    subsets (:func:`_path_cover_masks`).  Raises :class:`CapExceededError`
    when ``n`` exceeds :data:`DEFAULT_SOLVER_CAP`.
    """
    return len(_min_path_cover(g))


def _complement_masks(adj):
    """Bitmask adjacency of the complement of bitmask adjacency ``adj``."""
    full = (1 << len(adj)) - 1
    return tuple(full & ~m & ~(1 << v) for v, m in enumerate(adj))


def _min_path_cover(g, complement=False):
    """A minimum path cover of ``g``, or of its complement, as vertex lists.

    Raises :class:`CapExceededError` above :data:`DEFAULT_SOLVER_CAP`
    vertices, before any masks are built.  The greedy cover is minimum when
    it meets :func:`_path_cover_bound`; only otherwise does the ``2^n`` DP
    run, and only for covers of fewer paths than the greedy one.
    """
    if g.n > DEFAULT_SOLVER_CAP:
        raise CapExceededError(
            f"path cover limited to n <= {DEFAULT_SOLVER_CAP} vertices, "
            f"got {g.n}"
        )
    adj = _complement_masks(g.adj_masks) if complement else g.adj_masks
    paths = _greedy_path_cover(adj)
    if len(paths) > _path_cover_bound(adj):
        paths = _path_cover_masks(adj, len(paths)) or paths
    return paths


def _path_cover_bound(adj):
    """A lower bound on the path cover number of bitmask adjacency ``adj``.

    The larger of two counts.  No path leaves a component, and each
    component needs at least one path and half its :func:`_end_slots`.  A
    path on ``m`` vertices holds at most ``ceil(m/2)`` vertices of an
    independent set, so ``p`` paths on ``n`` vertices hold at most
    ``(n + p) / 2`` of them: ``p >= 2 * alpha - n``, with ``alpha`` the
    clique number of the complement.
    """
    by_slots = sum(max(1, (_end_slots(adj, c) + 1) // 2)
                   for c in _components(adj))
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
    """A minimum path cover of bitmask adjacency ``adj``, as vertex lists,
    when it has fewer than ``below`` paths; else None.

    A dynamic programme over all ``2^n`` vertex subsets, each family of
    subsets held as one integer whose bit ``S`` stands for the subset ``S``,
    so that one integer operation acts on every subset at once.  For
    ``p = 1, 2, ...`` in turn, ``ends[v]`` is the family of subsets with a
    cover by at most ``p`` paths, one of them ending at ``v`` (the levels of
    :func:`_cover_levels`).  The first ``p`` at which some ``ends[v]`` holds
    the full set is the cover number.  The levels up to ``below - 1`` are
    built one at a time and dropped, so a run that finds no cover holds
    about ``2n`` families of ``2^n`` bits (2 MB each at 24 vertices).  Only
    when a cover is found are its ``p`` levels built again and kept, and
    the cover is walked back from the full set, each path going on to a
    neighbour whose ``ends`` at the same ``p`` hold the rest, and otherwise
    stopping there and leaving the rest to ``p - 1`` paths.
    """
    full = (1 << len(adj)) - 1
    p = 0  # the empty set needs no paths
    if full:
        levels = _cover_levels(adj)
        for p in range(1, below):
            if any(fam >> full & 1 for fam in next(levels)):
                break
        else:
            return None
    levels = list(islice(_cover_levels(adj), p))
    paths = []
    s = full
    while s:
        ends = levels.pop()
        v = next(v for v in _bits(s) if ends[v] >> s & 1)
        path = [v]
        paths.append(path)
        s ^= 1 << v
        while s:
            v = next((u for u in _bits(adj[v]) if ends[u] >> s & 1), -1)
            if v < 0:
                break
            path.append(v)
            s ^= 1 << v
    return paths


def _cover_levels(adj):
    """The levels ``ends`` of :func:`_path_cover_masks`, ``p = 1, 2, ...``.

    ``covered`` is the family of subsets with a cover by at most ``p - 1``
    paths.  Taking ``v`` off the end of its path leaves ``S - v`` covered by
    at most ``p - 1`` paths, or by at most ``p`` with one ending next to
    ``v``; so ``ends[v]`` is the least family holding ``S + v`` for each
    ``S`` without ``v`` in ``covered`` or in ``ends[u]`` of a neighbour
    ``u``, reached by sweeping the vertices until no family grows.  Runs on
    past the cover number, so the caller stops it.
    """
    n = len(adj)
    size = 1 << n
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
    while True:
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
        yield ends
        for fam in ends:
            covered |= fam
        ends = None  # the next level is built without this one


def _greedy_path_cover(adj):
    """A path cover of bitmask adjacency ``adj``, not always a minimum one.

    Each path starts at an uncovered vertex with the fewest uncovered
    neighbours and grows from its end to the uncovered neighbour with the
    fewest uncovered neighbours until the end has none.
    """
    left = (1 << len(adj)) - 1
    paths = []
    while left:
        path = []
        cand = left
        while cand:
            v = min(_bits(cand), key=lambda u: (adj[u] & left).bit_count())
            path.append(v)
            left &= ~(1 << v)
            cand = adj[v] & left
        paths.append(path)
    return paths


def _end_slots(adj, within):
    """Path ends that any path cover of the vertex set ``within`` fills.

    Every path has two end slots (a one-vertex path fills both with its
    vertex), and a vertex with ``d < 2`` neighbours in ``within`` fills at
    least ``2 - d`` of them, so a cover needs at least half this many paths.
    """
    slots = 0
    for v in _bits(within):
        d = (adj[v] & within).bit_count()
        if d < 2:
            slots += 2 - d
    return slots


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
