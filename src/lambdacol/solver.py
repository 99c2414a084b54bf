"""Exact minimum spans for distance-two colourings.

A *colouring* here is a total map ``c`` from vertices to non-negative integer
labels such that ``|c(u) - c(v)| + d(u, v) >= 3`` for every pair of distinct
vertices: adjacent vertices need labels at least 2 apart, vertices at distance
two need distinct labels, and pairs further apart (or disconnected) are
unconstrained.  The *span* of the graph is the least achievable maximum label
(minimum label normalised to 0), written ``lambda_number`` below.

The solver iterates candidate spans upward from a lower bound and decides
feasibility of each span by depth-first search with forward checking on
label domains (stored as bitmasks: a chosen label ``x`` removes
``{x-1, x, x+1}`` from unassigned neighbours and ``{x}`` from unassigned
vertices at distance two).  One search plan per graph serves every span
and every witness probe: a connected vertex order, in which each vertex
follows those within distance two of it, and the forward-checking lists of
that order.  Reversal ``x -> k - x`` maps colourings of span ``k`` to
colourings, so the first vertex searched only takes labels up to ``k // 2``.

The lexicographically smallest optimal witness is then built vertex by vertex
in id order from an incumbent, the smaller of the colouring found and its
reversal.  Each label below the incumbent's that the fixed prefix leaves
open is fixed with forward checking, the later vertices are probed by the
same search over the same plan (fixed vertices keep their places, with
one-label domains), and the first probe that succeeds becomes the
incumbent.

Off the far-pair route below, the iteration starts from the distance-two
clique bound: vertices pairwise within distance two need pairwise distinct
labels, so a clique of the square graph G^2 on ``q`` vertices forces span
``>= q - 1``.  With ``q = omega(G^2)`` this is at least ``max_degree`` (a
closed neighbourhood is such a clique), but it can fall short of
``max_degree + 1``, which also counts the centre's gap of 2 to each
neighbour: the spider with edges 01, 02, 03, 14 has ``omega(G^2) - 1 = 3``
and span 4.  So the start is ``max(max_degree + 1, 2*(omega - 1),
omega(G^2) - 1)``, with ``omega`` the clique number of G (pairwise gaps of
2).  At span ``k = omega(G^2) - 1`` a maximum clique of G^2 is *tight*: it
has ``k + 1`` members and uses every label once.  Every search
at that span, witness probes included, is cut on the tight cliques (at most
``n`` of them): a branch dies when the labels left to a tight clique's
unplaced members are fewer than those members, the pigeonhole filter of
all-different propagation (Regin, 1994).  Its rows are built once, over the
plan, for the probes too.  The cut drops only branches without completions,
so the colourings found and their order are the same.

A graph with at most :data:`FAR_PAIR_LIMIT` *far* pairs, at distance three
or more, takes the route far-clique partitions -> path covers -> layout ->
label-order probes, and runs no DFS.  The vertices sharing a label are
pairwise far, and two labels in a row hold vertex sets with no edge between
them.  So a colouring is a partition ``P`` of the vertices into blocks of
pairwise far vertices, one label per block, and an ordered list of paths
of the *quotient*, in which two blocks are joined when no edge runs between
them, with a one-label hole between consecutive paths.  The span is the
least ``|P| + pc - 2`` over the partitions, ``pc`` the path cover number of
the quotient (Georges, Mauro and Whittlesey, 1994, on each quotient).  At
diameter two the only partition is into singletons, its quotient is the
complement, and the span is ``n + pc(complement) - 2``, from the minimum
cover cached on the graph, :attr:`Graph.complement_path_cover`.  Laying the
paths of a best partition out in order gives the first colouring.  The
witness is then built vertex by vertex in the same way, but each probe
walks the labels ``0..k`` in order on each quotient of span ``k``, placing
at each label a quotient neighbour of the block at the label before, or a
hole (:func:`_probe_in_label_order`; the label-order subset search of
Havet, Klazar, Kratochvil, Kratsch and Liedloff, 2011, with label classes
of at most one block).  The DFS decides every other graph, and the census.
The census keeps to three elementary bounds, ``max_degree + 1``,
``2*(omega - 1)`` and ``n - 1`` at diameter two, and searches with no cut,
so the checks of the theorem stay independent of it and it pays nothing for
the cliques of G^2.

At every span ``k`` a vertex of degree ``k - 1`` only takes label 0 or ``k``
(see :func:`_domains`), so every search starts such vertices from that
two-label domain.

One recursive forward-checking core, :func:`_search_masks`, runs every
search off that route and returns its first completion; each branch narrows
its own copy of the domains, so there is no undo trail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    CapExceededError,
    DEFAULT_SOLVER_CAP,
    Graph,
    GraphParseError,
    MalformedLineError,
    _bits,
    _complement_masks,
    _end_slots,
    _greedy_path_cover,
    _max_cliques,
    _path_cover_bound,
    _path_cover_masks,
    _significant_lines,
)

#: Largest order :func:`find_violation` checks: its masks take up to n bits
#: per vertex (a path at the cap peaks near 110 MB).
CHECK_CAP = 25_000

#: Most far pairs, at distance three or more, of a graph that
#: :func:`lambda_number` decides by its far-clique partitions rather than by
#: the DFS.  The partitions it enumerates number at most ``2^f`` for ``f``
#: far pairs, and past 9 far pairs the DFS was faster on the graphs measured.
FAR_PAIR_LIMIT = 9


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------

class DuplicateVertexError(GraphParseError):
    """A colouring file labelled the same vertex twice."""


class MissingVertexError(GraphParseError):
    """A colouring file left some vertex unlabelled."""


class VertexRangeError(GraphParseError):
    """A colouring file mentioned a vertex outside ``0..n-1``."""


class NotNormalisedError(GraphParseError):
    """A colouring file's minimum label was not 0."""


class SpanSearchError(RuntimeError):
    """The span search passed the trivial upper bound: a solver fault."""


@dataclass(frozen=True)
class Colouring:
    """A normalised total labelling: ``labels[v]`` is the label of vertex v.

    Labels are non-negative integers and the minimum over a non-empty graph
    is 0 (colourings are always presented shifted down to zero).
    """

    labels: tuple

    def __post_init__(self):
        for x in self.labels:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"labels must be non-negative integers, got {x!r}")
        if self.labels and min(self.labels) != 0:
            raise ValueError("colouring must be normalised: minimum label 0")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def span(self) -> int:
        """Largest label used (0 for the empty labelling)."""
        return max(self.labels) if self.labels else 0

    def __getitem__(self, v) -> int:
        return self.labels[v]


def find_violation(g: Graph, c: Colouring):
    """First pair breaking the distance-two condition, or ``None``.

    Returns ``(u, v, distance)`` with ``u < v`` for the lexicographically
    first offending pair: an edge whose labels differ by less than 2, or a
    distance-two pair with equal labels.  Raises :class:`CapExceededError`
    above :data:`CHECK_CAP` vertices, before any mask is built.
    """
    if len(c.labels) != g.n:
        raise ValueError(f"colouring covers {len(c.labels)} vertices, graph has {g.n}")
    if g.n > CHECK_CAP:
        raise CapExceededError(
            f"colouring check limited to n <= {CHECK_CAP}, got {g.n}"
        )
    lab = c.labels
    d1 = g.adj_masks
    d2 = _second_neighbourhoods(d1)
    for u in range(g.n):
        # only pairs within distance two can break the condition
        for v in _bits((d1[u] | d2[u]) >> (u + 1) << (u + 1)):
            if d1[u] >> v & 1:
                if abs(lab[u] - lab[v]) < 2:
                    return (u, v, 1)
            elif lab[u] == lab[v]:
                return (u, v, 2)
    return None


def is_lambda_colouring(g: Graph, c: Colouring) -> bool:
    """Return ``True`` when ``c`` satisfies the distance-two condition on ``g``.

    Gap >= 2 across every edge, distinct labels across every pair at distance
    exactly two; pairs at distance three or more (or disconnected) are free.
    """
    return find_violation(g, c) is None


def holes_of(c: Colouring) -> tuple:
    """Unused labels strictly between 0 and the largest used label."""
    used = set(c.labels)
    if not used:
        return ()
    top = max(used)
    return tuple(h for h in range(1, top) if h not in used)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    """Result of an exact solve: the span, one optimal witness, its holes."""

    lambda_value: int
    witness: Colouring
    holes: tuple


@dataclass(frozen=True)
class PathCoverBound:
    """What the path-cover number of the complement says about the span.

    ``path_cover`` is the cover number of the complement graph.  When it is at
    least 2 the span is determined exactly (``exact`` is ``True`` and ``value``
    is the span); when the complement has a Hamilton path the theorem only
    bounds the span by ``n - 1`` (``exact`` is ``False``, ``value`` is that
    bound).
    """

    path_cover: int
    exact: bool
    value: int


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _second_neighbourhoods(adj):
    """Distance-two masks derived from distance-one masks."""
    n = len(adj)
    d2 = []
    for v in range(n):
        reach = 0
        m = adj[v]
        while m:
            b = m & -m
            m ^= b
            reach |= adj[b.bit_length() - 1]
        d2.append(reach & ~adj[v] & ~(1 << v))
    return tuple(d2)


def _diameter_two(n, d1, d2):
    """Whether every pair of distinct vertices is at distance one or two."""
    full = (1 << n) - 1
    return all((1 << v) | d1[v] | d2[v] == full for v in range(n))


def _lower_bound(n, d1, diameter_two):
    """Best of the three elementary bounds for a graph with >= 1 edge.

    The census starts from this alone; :func:`lambda_number` raises it to
    the distance-two clique bound of :func:`_square_cliques`.
    """
    lb = max(m.bit_count() for m in d1) + 1
    lb = max(lb, 2 * (_max_cliques(d1)[0].bit_count() - 1))
    if diameter_two:
        lb = max(lb, n - 1)
    return lb


def _square_cliques(d1, d2):
    """Up to ``n`` maximum cliques of the square graph, as bitmasks.

    A clique of the square is a vertex set pairwise within distance two, so
    its members need distinct labels and the span is at least its size less
    one.  The cap bounds the list on squares with very many maximum cliques.
    """
    return _max_cliques([a | b for a, b in zip(d1, d2)], len(d1))


def _tight(cliques, k):
    """The ``cliques`` with one member per label of span ``k``: ``k + 1``."""
    return [q for q in cliques if q.bit_count() == k + 1]


# ---------------------------------------------------------------------------
# search core (shared with the census)
# ---------------------------------------------------------------------------

def _connected_order(d1, d2):
    """Search order: the highest-degree vertex (lowest id on ties), then
    repeatedly the one with the most ordered vertices within distance two,
    ties by degree, then id.  A maximum-cardinality search (Tarjan and
    Yannakakis, 1984) of the square, whose edges are the constraints, so
    forward checking meets a dead branch early (Haralick and Elliott, 1980).
    """
    n = len(d1)
    score = [m.bit_count() * n + n - 1 - v for v, m in enumerate(d1)]
    order = []
    left = list(range(n))
    while left:
        v = max(left, key=score.__getitem__)
        order.append(v)
        left.remove(v)
        for u in _bits(d1[v] | d2[v]):
            score[u] += n * n
    return order


def _plan(d1, d2, order):
    """``order`` with, per position, the later vertices at distance one and
    at distance two, which forward checking narrows: one plan serves every
    search of a graph, at every span and with any vertices fixed.
    """
    later1, later2 = [], []
    after = (1 << len(order)) - 1
    for v in order:
        after ^= 1 << v
        later1.append(list(_bits(d1[v] & after)))
        later2.append(list(_bits(d2[v] & after)))
    return order, later1, later2


def _cut_rows(plan, tight):
    """The cut over ``plan`` on cliques of the square ``tight`` at a span.

    Such a clique has one member per label.  Row ``i + 1`` holds, as
    ``(members, count)``, each tight clique's members after position ``i``
    when the label placed at ``i`` can narrow their domains; row 0 holds
    every clique.  A fixed member's label is already gone from the other
    members' domains, so it adds one to both sides of its row.
    """
    order, later1, later2 = plan
    left = (1 << len(order)) - 1
    rows = [[(list(_bits(q)), q.bit_count()) for q in tight]]
    for v, l1, l2 in zip(order, later1, later2):
        left ^= 1 << v
        near = sum(1 << u for u in l1 + l2)
        rows.append([(list(_bits(q & left)), (q & left).bit_count())
                     for q in tight if q & near])
    return rows


def _search_masks(plan, dom, cut=()):
    """DFS with forward checking; returns a label list or None.

    Labels the vertices in the order of ``plan`` (:func:`_plan`), each
    taking the smallest label left in its domain first; ``dom[v]`` is the
    bitmask of labels open to vertex v, a one-label domain for a vertex
    fixed beforehand (already forward-checked into the rest).  Returns the
    first completion, the lexicographically smallest along the order.  Each
    branch forward-checks its own copy of the domains, so backtracking has
    nothing to undo.

    ``cut`` holds the rows of :func:`_cut_rows` at the search's span.  A
    branch, the root included, dies when a row's domains hold fewer labels
    between them than its count.  That only cuts branches without
    completions, so the completions and their order stay the same.
    """
    order, later1, later2 = plan
    depth = len(order)
    labels = [0] * depth
    if cut and _short(cut[0], dom):
        return None

    def rec(i, dom):
        if i == depth:
            return True
        v = order[i]
        l1, l2 = later1[i], later2[i]
        rows = cut and cut[i + 1]
        avail = dom[v]
        while avail:
            b = avail & -avail
            avail ^= b
            x = b.bit_length() - 1
            nd = dom[:]
            m3 = ~((7 << x) >> 1)
            for u in l1:
                nd[u] &= m3
            for u in l2:
                nd[u] &= ~b
            if 0 in nd or rows and _short(rows, nd):
                continue
            labels[v] = x
            if rec(i + 1, nd):
                return True
        return False

    return labels if rec(0, list(dom)) else None


def _short(rows, dom):
    """Whether some ``(members, count)`` row's domains hold < count labels."""
    for members, count in rows:
        held = 0
        for u in members:
            held |= dom[u]
        if held.bit_count() < count:
            return True
    return False


def _domains(d1, k):
    """Label domains at span ``k``: ``0..k``, or ``{0, k}`` at degree k - 1.

    The closed neighbourhood of a vertex of degree ``k - 1`` needs ``k``
    distinct labels, and a label ``0 < x < k`` on the vertex leaves its
    neighbours only the ``k - 2`` labels of ``0..k`` outside ``x-1..x+1``.
    """
    full = (1 << (k + 1)) - 1
    ends = 1 | 1 << k
    return [ends if m.bit_count() == k - 1 else full for m in d1]


def _optimal_colouring(plan, d1, k, cliques=()):
    """Smallest feasible span from a lower bound ``k``, a colouring at it,
    and the cut rows of that span.

    For a graph with >= 1 edge; every span is searched over the one
    ``plan``.  ``x -> k - x`` maps colourings of span ``k`` to colourings
    (and the domains of :func:`_domains` to themselves), so the first vertex
    of the plan only needs the labels ``0..k//2``.  Each search is cut on
    the square's ``cliques`` that are tight at its span (:func:`_cut_rows`);
    a span with none builds no rows.
    """
    first = plan[0][0]
    while True:
        dom = _domains(d1, k)
        dom[first] &= (1 << (k // 2 + 1)) - 1
        # the census passes no cliques and skips the cut
        tight = _tight(cliques, k)
        cut = tight and _cut_rows(plan, tight)
        labels = _search_masks(plan, dom, cut)
        if labels is not None:
            return k, labels, cut
        k += 1
        if k > 2 * (len(d1) - 1):  # greedy labelling 0,2,4,... always works
            raise SpanSearchError("span search exceeded the trivial upper bound")


def _min_span_masks(n, d1, d2):
    """Smallest feasible span for bitmask adjacency with >= 1 edge.

    Search from the elementary bounds alone: the census and the checks of
    the path-cover theorem rely on it staying independent of path covers.
    """
    lb = _lower_bound(n, d1, _diameter_two(n, d1, d2))
    return _optimal_colouring(_plan(d1, d2, _connected_order(d1, d2)), d1, lb)[0]


def _fix(d1, d2, dom, v, x):
    """Copy of ``dom`` with v labelled x, forward-checked; None on a wipe-out."""
    dom = list(dom)
    dom[v] = 1 << x
    for u in _bits(d1[v]):
        dom[u] &= ~((7 << x) >> 1)
    for u in _bits(d2[v]):
        dom[u] &= ~(1 << x)
    return None if 0 in dom else dom


def _probe_in_label_order(comp, dom, k, gaps):
    """A colouring with one label per vertex of ``comp``, or None.

    Two vertices may take consecutive labels exactly when they are adjacent
    in ``comp``, and no two take the same label: the setting of a
    diameter-two graph and the complement, or of a far-clique partition
    and its quotient (:func:`_quotient`).  So the labels ``0..k`` are walked
    in order, each taking an unplaced vertex whose domain ``dom`` (none
    empty) holds it and that is a ``comp`` neighbour of the vertex at the
    label before, or a hole.  A vertex whose domain is a single label goes
    at exactly that label.  A branch is cut when a vertex left has a domain
    ending before the current label, or when the labels left cannot hold
    the vertices left: these form paths of ``comp`` with a hole between
    consecutive paths, and there are at least half as many paths as
    :func:`_end_slots` counts.  ``gaps`` maps each set of vertices left to
    those holes, and is shared by every probe on ``comp``.  A state
    (vertices placed, vertex or hole at the last label, label) that failed
    is not entered again.
    """
    n = len(dom)
    full = (1 << n) - 1
    pinned = [-1] * (k + 1)  # the vertex whose domain is just the label
    # vertices whose domain ends at the label before; every branch walks
    # every label, so it meets a vertex left there at the first label past
    # the vertex's domain
    expired = [0] * (k + 2)
    for v, m in enumerate(dom):
        top = m.bit_length()
        expired[top] |= 1 << v
        if m == 1 << top - 1:
            pinned[top - 1] = v
    labels = [0] * n
    dead = set()

    def rec(placed, last, x):
        if placed == full:
            return True
        left = full ^ placed
        count = left.bit_count()
        room = k + 1 - x
        if count > room or expired[x] & left:
            return False
        key = (placed * (n + 1) + last + 1) * (k + 1) + x
        if key in dead:
            return False
        # the paths the vertices left form need holes between them
        holes = gaps.get(left)
        if holes is None:
            holes = gaps[left] = (_end_slots(comp, left) + 1) // 2 - 1
        if count + holes > room:
            return False
        v = pinned[x]
        cand = left if v < 0 else 1 << v
        if last >= 0:
            cand &= comp[last]
        while cand:
            b = cand & -cand
            cand ^= b
            u = b.bit_length() - 1
            if not dom[u] >> x & 1:
                continue
            labels[u] = x
            if rec(placed | b, u, x + 1):
                return True
        if v < 0 and rec(placed, -1, x + 1):
            return True
        dead.add(key)
        return False

    return labels if rec(0, -1, 0) else None


def _lex_least_witness(d1, d2, k, incumbent, probe):
    """The lexicographically least colouring with labels in ``0..k``.

    ``incumbent`` is any such colouring.  Vertex by vertex in id order, each
    label below the incumbent's still open to the vertex is tried in
    ascending order: it is fixed with forward checking and ``probe`` is
    asked for a colouring within the fixed domains, or None.  On the
    far-pair route that is the label-order probe
    (:func:`_probe_in_label_order`) on each quotient of span ``k`` in turn,
    sharing one end-slot table per quotient; else the DFS over the graph's
    one plan with the cut rows of span ``k``, so no probe builds a plan or
    a cut.
    The first success becomes the incumbent, so after vertex v its prefix
    through v is the least one that extends, whichever completion the probe
    returned; v is then fixed to the incumbent's label, which always
    extends.
    """
    dom = _domains(d1, k)
    for v in range(len(d1)):
        for x in _bits(dom[v] & ((1 << incumbent[v]) - 1)):
            trial = _fix(d1, d2, dom, v, x)
            if trial is None:
                continue
            labels = probe(trial)
            if labels is not None:
                incumbent = labels
                break
        dom = _fix(d1, d2, dom, v, incumbent[v])
    return incumbent


def _path_layout(n, paths):
    """Labels putting ``paths`` in order, one hole between consecutive ones.

    Span ``n + len(paths) - 2``; at diameter two a colouring when ``paths``
    cover the complement.
    """
    labels = [0] * n
    x = 0
    for path in paths:
        for v in path:
            labels[v] = x
            x += 1
        x += 1
    return labels


def _far_masks(n, d1, d2):
    """Per vertex, the vertices at distance three or more, or unreachable."""
    full = (1 << n) - 1
    return [full & ~(a | b | 1 << v) for v, (a, b) in enumerate(zip(d1, d2))]


def _far_partitions(far):
    """Every partition of the vertices into blocks of pairwise far vertices.

    A partition is a list of block masks in the order of their lowest
    vertices: the lowest vertex left goes with each far clique of the
    vertices left that contains it, and the rest is partitioned in turn, so
    each partition comes once.  Without far pairs the only one is into
    singletons.
    """
    def cliques(clique, cand):
        yield clique
        while cand:
            b = cand & -cand
            cand ^= b
            yield from cliques(clique | b, cand & far[b.bit_length() - 1])

    def split(left):
        if not left:
            yield []
            return
        low = left & -left
        for block in cliques(low, far[low.bit_length() - 1] & left):
            for rest in split(left ^ block):
                yield [block, *rest]

    return split((1 << len(far)) - 1)


def _quotient(d1, blocks):
    """Adjacency of ``blocks``, two joined when no edge of G runs between.

    In a colouring whose label classes are the blocks, two blocks may take
    consecutive labels exactly when they are joined.  Into singletons, the
    quotient is the complement.
    """
    if len(blocks) == len(d1):
        return _complement_masks(d1)
    touch = []
    for block in blocks:
        t = 0
        for v in _bits(block):
            t |= d1[v]
        touch.append(t)
    return tuple(sum(1 << j for j, other in enumerate(blocks)
                     if j != i and not t & other)
                 for i, t in enumerate(touch))


def _partition_route(g, d1, far):
    """Span, a colouring at it and a witness probe, by far-clique partitions.

    A colouring's label classes are pairwise far, so they partition the
    vertices into blocks of :func:`_far_partitions`, each block at its own
    label, and consecutive labels hold blocks joined in the
    :func:`_quotient`.  So the span is the least ``|P| + pc(quotient) - 2``
    over the partitions ``P`` (Georges, Mauro and Whittlesey, 1994, apply to
    each quotient), and a colouring within some domains exists exactly when
    :func:`_probe_in_label_order` finds one on a quotient of span at most
    ``k``, a block's domain the AND of its members'.  Without far pairs the
    one quotient is the complement, whose minimum cover is the one cached
    on the graph.  Otherwise each quotient starts from the greedy cover and
    :func:`_path_cover_bound`; the DP runs only for a quotient whose bound
    could reach the best span so far, and only up to that span, so every
    quotient at the least span is known exactly.
    """
    found = []
    diameter_two = not any(far)
    for blocks in _far_partitions(far):
        comp = _quotient(d1, blocks)
        if diameter_two:
            paths = g.complement_path_cover
            bound = len(paths)
        else:
            paths = _greedy_path_cover(comp)
            bound = _path_cover_bound(comp)
        found.append((len(blocks) + bound - 2, blocks, comp, paths))
    found.sort(key=lambda entry: entry[0])
    best = min(len(blocks) + len(paths) - 2 for _, blocks, _, paths in found)
    spans = []
    for lowest, blocks, comp, paths in found:
        if lowest > best:
            break
        base = len(blocks) - 2
        if lowest < base + len(paths):
            # a cover of fewer paths than greedy's, and reaching ``best``
            fewer = _path_cover_masks(comp, min(len(paths), best - base + 1))
            paths = fewer or paths
        best = min(best, base + len(paths))
        spans.append((base + len(paths), blocks, comp, paths))
    k = best
    quotients = [([list(_bits(b)) for b in blocks], comp, {})
                 for span, blocks, comp, paths in spans if span == k]
    _, blocks, _, paths = next(e for e in spans if e[0] == k)
    labels = [0] * len(d1)
    for block, x in zip(blocks, _path_layout(len(blocks), paths)):
        for v in _bits(block):
            labels[v] = x

    def probe(trial):
        for members, comp, gaps in quotients:
            dom = []
            for vs in members:
                m = -1
                for v in vs:
                    m &= trial[v]
                if not m:
                    break
                dom.append(m)
            else:
                got = _probe_in_label_order(comp, dom, k, gaps)
                if got is not None:
                    labels = [0] * len(trial)
                    for vs, x in zip(members, got):
                        for v in vs:
                            labels[v] = x
                    return labels
        return None

    return k, labels, probe


# ---------------------------------------------------------------------------
# the solver proper
# ---------------------------------------------------------------------------

def lambda_number(g: Graph) -> SolveReport:
    """Exact span of ``g`` with the lexicographically least optimal witness.

    Raises :class:`CapExceededError` when ``g.n`` exceeds
    :data:`DEFAULT_SOLVER_CAP` and ``ValueError`` on the empty graph.
    """
    if g.n == 0:
        raise ValueError("span of the empty graph is undefined")
    if g.n > DEFAULT_SOLVER_CAP:
        raise CapExceededError(
            f"exact solver limited to n <= {DEFAULT_SOLVER_CAP}, got {g.n}"
        )
    if not g.edges:
        c = Colouring((0,) * g.n)
        return SolveReport(0, c, ())
    n = g.n
    d1 = g.adj_masks
    d2 = _second_neighbourhoods(d1)
    far = _far_masks(n, d1, d2)
    # each far pair is counted at both of its vertices
    if sum(m.bit_count() for m in far) <= 2 * FAR_PAIR_LIMIT:
        k, labels, probe = _partition_route(g, d1, far)
    else:
        plan = _plan(d1, d2, _connected_order(d1, d2))
        cliques = _square_cliques(d1, d2)
        lb = max(_lower_bound(n, d1, False), cliques[0].bit_count() - 1)
        k, labels, cut = _optimal_colouring(plan, d1, lb, cliques)
        probe = lambda trial: _search_masks(plan, trial, cut)
    labels = _lex_least_witness(d1, d2, k, min(labels, [k - x for x in labels]),
                                probe)
    c = Colouring(tuple(labels))
    return SolveReport(k, c, holes_of(c))


def lambda_via_path_cover(g: Graph) -> PathCoverBound:
    """Span via the path-cover number of the complement.

    The complement decomposes into ``t`` vertex-disjoint paths but not fewer
    exactly when the span is ``n + t - 2``, provided ``t >= 2``; when the
    complement has a Hamilton path (``t = 1``) the span is only bounded above
    by ``n - 1``.  Raises :class:`CapExceededError` above
    :data:`DEFAULT_SOLVER_CAP` vertices.
    """
    if g.n == 0:
        raise ValueError("span of the empty graph is undefined")
    t = len(g.complement_path_cover)
    if t >= 2:
        return PathCoverBound(t, True, g.n + t - 2)
    return PathCoverBound(t, False, g.n - 1)


# ---------------------------------------------------------------------------
# colouring files
# ---------------------------------------------------------------------------

def parse_colouring(text: str, n: int) -> Colouring:
    """Parse ``c <vertex> <label>`` lines into a total colouring of ``n``.

    Every vertex must appear exactly once; labels are non-negative integers
    with minimum 0.  Blank lines and ``#`` comments are ignored.
    """
    seen = {}
    for lineno, line in _significant_lines(text):
        fields = line.split()
        if len(fields) != 3 or fields[0] != "c":
            raise MalformedLineError(
                f"line {lineno}: expected 'c <vertex> <label>', got {line!r}"
            )
        try:
            v, x = int(fields[1]), int(fields[2])
        except ValueError:
            raise MalformedLineError(
                f"line {lineno}: fields must be integers, got {line!r}"
            ) from None
        if not 0 <= v < n:
            raise VertexRangeError(
                f"line {lineno}: vertex {v} out of range 0..{n - 1}"
            )
        if x < 0:
            raise MalformedLineError(f"line {lineno}: negative label {x}")
        if v in seen:
            raise DuplicateVertexError(f"line {lineno}: vertex {v} labelled twice")
        seen[v] = x
    if len(seen) < n:
        first = next(v for v in range(n) if v not in seen)
        raise MissingVertexError(
            f"{n - len(seen)} of {n} vertices unlabelled, the first is {first}"
        )
    if n and min(seen.values()) != 0:
        raise NotNormalisedError(
            f"minimum label is {min(seen.values())}, colourings must start at 0"
        )
    return Colouring(tuple(seen[v] for v in range(n)))


def format_colouring(c: Colouring) -> str:
    """Inverse of :func:`parse_colouring`; one line per vertex, in order."""
    return "".join(f"c {v} {x}\n" for v, x in enumerate(c.labels))
