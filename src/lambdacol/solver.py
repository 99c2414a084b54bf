"""Exact minimum spans for distance-two colourings.

A *colouring* here is a total map ``c`` from vertices to non-negative integer
labels such that ``|c(u) - c(v)| + d(u, v) >= 3`` for every pair of distinct
vertices: adjacent vertices need labels at least 2 apart, vertices at distance
two need distinct labels, and pairs further apart (or disconnected) are
unconstrained.  So every search here reads G and the square G^2, whose
edges are the constrained pairs, and the check reads the edge list.  The
*span* of the graph is the least achievable maximum label (minimum label
normalised to 0), written ``lambda_number`` below.

The solver iterates candidate spans upward from a lower bound and, at each
span ``k``, searches for the lexicographically least colouring with labels
in ``0..k``; the first span at which that search succeeds is the span, and
the colouring found is the witness.  The search builds it vertex by vertex
in id order: each label the fixed prefix leaves open is fixed in turn with
forward checking on label domains (a chosen label ``x`` removes
``{x-1, x, x+1}`` from unassigned neighbours and ``{x}`` from unassigned
vertices at distance two), and the later vertices are probed by a
depth-first search with forward checking; the first probe that succeeds
fixes the vertex, and later vertices only try labels below that
colouring's.  Reversal ``x -> k - x`` maps colourings of span ``k`` to
colourings, so vertex 0 only tries labels up to ``k // 2``, and when none of
them extends, span ``k`` has no colouring.  One search order per graph
serves every span and every probe: a connected vertex order, in which each
vertex follows those within distance two of it.  Fixed vertices keep their
places in it, with one-label domains.

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
has ``k + 1`` members and uses every label once.  Every probe at that span
is cut on the tight cliques (at most ``n`` of them): a branch dies when the
labels left to a tight clique's unplaced members are fewer than those
members, the pigeonhole filter of all-different propagation (Regin, 1994).
The placed members hold distinct labels, which forward checking took from
the others, so that is when some label is held by no member.  The cut
drops only branches without completions, so the colourings found and their
order are the same.

A graph with at most :data:`FAR_PAIR_LIMIT` *far* pairs, at distance three
or more, takes the route far-clique partitions -> path cover numbers ->
label-order probes, and runs no DFS.  The vertices sharing a label are
pairwise far, and two labels in a row hold vertex sets with no edge between
them.  So a colouring is a partition ``P`` of the vertices into blocks of
pairwise far vertices, one label per block, and an ordered list of paths
of the *quotient*, in which two blocks are joined when no edge runs between
them, with a one-label hole between consecutive paths.  The span is the
least ``|P| + pc - 2`` over the partitions, ``pc`` the path cover number of
the quotient (Georges, Mauro and Whittlesey, 1994, on each quotient).  The
partition into singletons starts every such graph: its quotient is the
complement, and its span ``n + pc(complement) - 2`` comes from the cover
number cached on the graph, :attr:`Graph.complement_path_cover_number`.
At diameter two it is the only partition.  Each other quotient asks
:mod:`~lambdacol.graphs` for its cover number, given only when the partition
reaches the best span so far; that module alone decides whether the ``2^n``
DP runs.
Only the numbers are needed: the route hands the span loop that one span and
its probe, so the witness is built vertex by vertex in the same way.  Each
probe walks the labels ``0..k`` in order on each quotient of span ``k``,
placing at each label a quotient neighbour of the block at the label before,
or a hole (:func:`_probe_in_label_order`; the label-order subset search of
Havet, Klazar, Kratochvil, Kratsch and Liedloff, 2011, with label classes of
at most one block), by two rules: a block left at the last label of its
domain goes there, and a state that failed at a label fails at every later
one.  The DFS decides every other graph.  The census asks
:func:`_least_span` for one graph's span up to a ceiling: the same DFS,
one span at a time from the elementary bounds, with no cut and no witness.

Every search, on both routes, runs on one packed state, built once per span
with its masks (:func:`_span_table`, which alone decides which cliques are
tight): an integer of label domains, a field per vertex, and at spans with
tight cliques a second one that holds, per clique and label, the members
that can still take the label.  At the root a vertex of degree ``k - 1``
holds only labels 0 and ``k``.  A label choice narrows each integer by one
shifted mask, and one guard-borrow subtraction per integer finds an empty
field, so a step back restores two integers.  The witness loop fixes
vertices on that state (:func:`_fix`), and each probe starts from the state
it is given: the iterative forward-checking DFS, :func:`_search_masks`, or
on the far-pair route the label-order probe, which reads each block's
domain out of it.
"""

from .graphs import (
    Graph,
    GraphParseError,
    MalformedLineError,
    _Record,
    _bits,
    _complement_masks,
    _max_cliques,
    _path_cover_number,
    _paths_needed,
    _significant_lines,
)

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
    """No colouring at any span the search tried: a solver fault."""


class Colouring(_Record):
    """A normalised total labelling: ``labels[v]`` is the label of vertex v.

    Labels are non-negative integers and the minimum over a non-empty graph
    is 0 (colourings are always presented shifted down to zero).
    """

    labels: tuple

    def __post_init__(self):
        for x in self.labels:
            if type(x) is not int or x < 0:
                raise ValueError(f"labels must be non-negative integers, got {x!r}")
        if self.labels and min(self.labels) != 0:
            raise ValueError("colouring must be normalised: minimum label 0")

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
    distance-two pair with equal labels.  Vertices within distance two are
    adjacent or share a neighbour, so one pass over the edges finds both
    kinds, in time linear in the edges apart from sorting neighbour lists.
    """
    if len(c.labels) != g.n:
        raise ValueError(f"colouring covers {len(c.labels)} vertices, graph has {g.n}")
    lab = c.labels
    nbrs = [[] for _ in range(g.n)]
    bad = []
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
        if abs(lab[u] - lab[v]) < 2:
            bad.append((u, v))
    for vs in nbrs:
        first = {}  # label -> least neighbour holding it
        for v in sorted(vs):
            u = first.setdefault(lab[v], v)
            if u != v:
                bad.append((u, v))
    if not bad:
        return None
    u, v = min(bad)
    return (u, v, 1 if (u, v) in g.edges else 2)


def is_lambda_colouring(g: Graph, c: Colouring) -> bool:
    """Return ``True`` when ``c`` satisfies the distance-two condition on ``g``.

    Gap >= 2 across every edge, distinct labels across every pair at distance
    exactly two; pairs at distance three or more (or disconnected) are free.
    """
    return find_violation(g, c) is None


def holes_of(c: Colouring) -> tuple:
    """Unused labels strictly between 0 and the largest used label."""
    used = set(c.labels)
    return tuple(h for h in range(1, c.span) if h not in used)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class SolveReport(_Record):
    """Result of an exact solve: the span, one optimal witness, its holes."""

    lambda_value: int
    witness: Colouring
    holes: tuple


class PathCoverBound(_Record):
    """What the path-cover number of the complement says about the span.

    ``path_cover`` is the cover number ``t`` of the complement graph and
    ``value`` is ``n + t - 2``, the span of the partition into singletons.
    When ``t`` is at least 2 that is the span (``exact`` is ``True``); when
    the complement has a Hamilton path (``t = 1``) the theorem only bounds
    the span by ``n - 1`` (``exact`` is ``False``).
    """

    path_cover: int
    exact: bool
    value: int


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _square_masks(adj):
    """Adjacency of the square G^2, whose edges are the constrained pairs:
    per vertex, the other vertices within distance two."""
    sq = []
    for v, m in enumerate(adj):
        reach = m
        while m:
            b = m & -m
            m ^= b
            reach |= adj[b.bit_length() - 1]
        sq.append(reach & ~(1 << v))
    return tuple(sq)


def _lower_bound(d1, sq):
    """Best of the three elementary bounds for a graph with >= 1 edge.

    The graph has diameter two when every vertex is within distance two of
    all ``n - 1`` others in the square ``sq``.  :func:`_least_span` starts
    from this alone; :func:`lambda_number` raises it to the distance-two
    clique bound of :func:`_square_cliques`.
    """
    n = len(d1)
    lb = max(m.bit_count() for m in d1) + 1
    lb = max(lb, 2 * (_max_cliques(d1)[0].bit_count() - 1))
    if all(m.bit_count() == n - 1 for m in sq):
        lb = max(lb, n - 1)
    return lb


def _square_cliques(sq):
    """Up to ``n`` maximum cliques of the square ``sq``, as bitmasks.

    A clique of the square is a vertex set pairwise within distance two, so
    its members need distinct labels and the span is at least its size less
    one.  The cap bounds the list on squares with very many maximum cliques.
    """
    return _max_cliques(sq, len(sq))


# ---------------------------------------------------------------------------
# search core (shared with the census)
# ---------------------------------------------------------------------------

def _connected_order(d1, sq):
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
        for u in _bits(sq[v]):
            score[u] += n * n
    return order


def _span_table(d1, sq, k, cliques=()):
    """What every search at span ``k`` reads, and its root state.

    A search state is ``(word, held)``.  ``word`` packs the label domains, a
    field of ``w = k + 2`` bits per vertex: label ``y`` of ``u`` at bit
    ``shift[u] + y = u*w + 1 + y``, over a zero bit that also guards the
    field below.  Labelling v with ``x`` clears ``clear[v] << x``, over v's
    neighbours in the square ``sq``: ``7`` at the foot of the field of each
    neighbour in G (labels ``x-1..x+1`` once shifted) and ``2`` at each
    other's (label ``x``); at ``x = 0`` and ``x = k`` the shift reaches only
    zero bits.  ``high`` sets the guard over every field and ``low`` holds
    every lowest label bit, so some field is empty exactly when subtracting
    ``low`` borrows a guard.  The masks reach placed and fixed vertices too,
    and no search order is needed: forward checking already took every label
    within 1 of such a vertex's label (equal to it, at distance two) from
    the vertices it constrains, so no later step can empty its field.

    The cliques of the square among ``cliques`` with ``k + 1`` members are
    *tight*: each needs every label once.  With some, ``held`` holds, label
    by label (slot ``y + 1`` for label ``y``, over a zero slot), a field per
    tight clique of one bit per member, set while the member's domain holds
    the label, and a guard bit; else it is 0.  Labelling v with ``x``
    clears ``placed[v]`` shifted by ``x`` slots, the same pattern over
    member bits plus v's bit at label ``x``, XORed with ``column[v]``, v's
    bit at every label: so v keeps only its own label.  The placed members'
    labels are gone from the others' domains, so an empty field is exactly a
    clique whose unplaced members' domains hold fewer labels than there are
    of them: the pigeonhole filter of all-different propagation (Regin,
    1994), which cuts only branches without completions.

    The root domains are ``0..k``, but ``{0, k}`` at degree ``k - 1``: the
    closed neighbourhood needs ``k`` distinct labels, and a label
    ``0 < x < k`` on the vertex leaves its neighbours only ``k - 2``.
    """
    n = len(d1)
    w = k + 2
    full = (1 << k + 1) - 1
    every = ((1 << n * w) - 1) // ((1 << w) - 1)  # bit u*w for every u
    pinned = [m.bit_count() == k - 1 for m in d1]
    word = every * 2 * full
    clear = []
    for v, (l1, m) in enumerate(zip(d1, sq)):
        if pinned[v]:
            word ^= (full ^ (1 | 1 << k)) << v * w + 1
        s = 0
        while m:
            b = m & -m
            m ^= b
            s |= (7 if l1 & b else 2) << (b.bit_length() - 1) * w
        clear.append(s)
    held = 0
    cover = None
    tight = [q for q in cliques if q.bit_count() == k + 1]
    if tight:
        # a field of k + 1 member bits and the guard per clique and label
        stride = len(tight) * w
        cols = [0] * n
        for j, q in enumerate(tight):
            for slot, u in enumerate(_bits(q)):
                cols[u] |= 1 << j * w + slot
        slots = sum(1 << y * stride for y in range(1, k + 2))
        ends = 1 << stride | 1 << (k + 1) * stride
        lows = slots * sum(1 << j * w for j in range(len(tight)))
        placed = [sum(cols[u] for u in _bits(a))
                  * (1 | 1 << stride | 1 << 2 * stride)
                  | (sum(cols[u] for u in _bits(b & ~a)) | cols[v]) << stride
                  for v, (a, b) in enumerate(zip(d1, sq))]
        column = [c * slots for c in cols]
        held = sum(c * (ends if p else slots) for c, p in zip(cols, pinned))
        cover = (stride, lows, lows << k + 1, placed, column)
    return (k, range(1, n * w, w), clear, 2 * every, every << w, cover,
            (word, held))


def _search_masks(table, order, state):
    """DFS with forward checking from ``state``; a label list or None.

    Labels the vertices in ``order`` over the :func:`_span_table` ``table``,
    each taking the smallest label left in its field first (a vertex fixed
    by :func:`_fix` has one), with the checks of :func:`_fix` inline; the
    search never reads a placed vertex's field again, so it is not narrowed.
    Returns the first completion, the lexicographically smallest along the
    order.
    """
    k, shift, clear, low, high, cover, _ = table
    full = (1 << k + 1) - 1
    word, held = state
    if cover:
        stride, lows, guards, placed, column = cover
    last = len(order) - 1
    labels = [0] * len(order)
    stack = []
    i = 0
    v = order[0]
    avail = word >> shift[v] & full
    while True:
        if avail:
            b = avail & -avail
            avail ^= b
            x = b.bit_length() - 1
            nword = word & ~(clear[v] << x)
            if (nword | high) - low & high != high:
                continue
            if cover:
                nheld = held & ~(placed[v] << x * stride ^ column[v])
                if (nheld | guards) - lows & guards != guards:
                    continue
            labels[v] = x
            if i == last:
                return labels
            stack.append((word, held, avail))
            word = nword
            if cover:
                held = nheld
            i += 1
            v = order[i]
            avail = word >> shift[v] & full
        elif stack:
            word, held, avail = stack.pop()
            i -= 1
            v = order[i]
        else:
            return None


def _least_span(d1, ceiling):
    """The span of bitmask adjacency ``d1`` (at least one edge) when it is at
    most ``ceiling``, else None.

    The cheapest test goes first: ``None`` when ``max_degree + 1`` passes
    ``ceiling``, before the square is built, then when the elementary bounds
    of :func:`_lower_bound` do, before an order is built.  Then one search
    per span, with no cut and no witness, from those bounds upward along
    :func:`_connected_order`.  ``x -> k - x`` maps colourings of span ``k``
    to colourings (and the root domains of :func:`_span_table` to
    themselves), so the order's first vertex only needs the labels
    ``0..k//2``.  Span ``2n - 2``, which every graph reaches, is never
    searched, and no span past ``ceiling`` is.
    """
    if max(map(int.bit_count, d1)) + 1 > ceiling:
        return None
    sq = _square_masks(d1)
    lo = _lower_bound(d1, sq)
    if lo > ceiling:
        return None
    order = _connected_order(d1, sq)
    top = 2 * len(d1) - 2  # the span of the labelling 0, 2, 4, ...
    for k in range(lo, min(ceiling + 1, top)):
        table = _span_table(d1, sq, k)
        half = (1 << k + 1) - (1 << k // 2 + 1)  # the labels above k // 2
        word = table[-1][0] & ~(half << table[1][order[0]])
        if _search_masks(table, order, (word, 0)) is not None:
            return k
    return top if top <= ceiling else None


def _fix(table, state, v, x):
    """``state`` with v labelled ``x`` and forward-checked, or None when a
    field or, at spans with tight cliques, a clique's coverage is left
    empty (see :func:`_span_table`)."""
    k, shift, clear, low, high, cover, _ = table
    word, held = state
    s = shift[v]
    word = word & ~(clear[v] << x | (1 << k + 1) - 1 << s) | 1 << s + x
    if (word | high) - low & high != high:
        return None
    if cover:
        stride, lows, guards, placed, column = cover
        held &= ~(placed[v] << x * stride ^ column[v])
        if (held | guards) - lows & guards != guards:
            return None
    return word, held


def _probe_in_label_order(comp, dom, k, gaps):
    """A colouring with one label per vertex of ``comp``, or None.

    Two vertices may take consecutive labels exactly when they are adjacent
    in ``comp``, and no two take the same label: the setting of a
    diameter-two graph and the complement, or of a far-clique partition
    and its quotient (:func:`_quotient`).  So the labels ``0..k`` are walked
    in order, each taking an unplaced vertex whose domain ``dom`` (none
    empty) holds it and that is a ``comp`` neighbour of the vertex at the
    label before, or a hole.  A vertex left at the last label of its domain
    goes there: with two, the branch dies, and with one, it is the only
    candidate and no hole is allowed.  A state (vertices placed, vertex or
    hole at the label before) that failed at a label fails at every later
    one, as holes would carry a completion from there back, so ``dead``
    keeps its least failed label.  A branch is also cut when the labels
    left cannot hold the vertices left: these form at least
    :func:`_paths_needed` paths of ``comp``, with a hole between
    consecutive paths.  ``gaps`` maps each set of vertices left to those
    holes, and is shared by every probe on ``comp``.
    """
    n = len(dom)
    full = (1 << n) - 1
    last = [0] * (k + 2)  # the vertices whose domain ends at the label
    for v, m in enumerate(dom):
        last[m.bit_length() - 1] |= 1 << v
    labels = [0] * n
    dead = {}

    def rec(placed, prev, x):
        if placed == full:
            return True
        left = full ^ placed
        must = last[x] & left
        if must & must - 1:
            return False
        key = placed * (n + 1) + prev + 1
        if dead.get(key, k + 1) <= x:
            return False
        # the paths the vertices left form need holes between them
        holes = gaps.get(left)
        if holes is None:
            holes = gaps[left] = _paths_needed(comp, left) - 1
        if left.bit_count() + holes > k + 1 - x:
            return False
        cand = must or left
        if prev >= 0:
            cand &= comp[prev]
        while cand:
            b = cand & -cand
            cand ^= b
            u = b.bit_length() - 1
            if not dom[u] >> x & 1:
                continue
            labels[u] = x
            if rec(placed | b, u, x + 1):
                return True
        if not must and rec(placed, -1, x + 1):
            return True
        dead[key] = x
        return False

    return labels if rec(0, -1, 0) else None


def _lex_least_witness(table, probe):
    """The lexicographically least colouring over the :func:`_span_table`
    ``table`` of span ``k``, or None when there is none.

    Vertex by vertex in id order, labels still open to the vertex are tried
    in ascending order: each is fixed (:func:`_fix`), and
    ``probe(table, state)`` returns a colouring from the fixed state, or
    None.  On the far-pair route that is the label-order probe
    (:func:`_probe_in_label_order`) on each quotient of span ``k`` in turn,
    sharing one ``gaps`` table per quotient; else the DFS along the graph's
    one search order.  Each route builds its probe once per graph, so no
    probe is built per span or builds an order or a table.  Reversal
    ``x -> k - x`` maps colourings to colourings (and the root domains to
    themselves), so vertex 0 only tries the labels ``0..k//2``: when none
    of them extends, there is no colouring.  After that, each vertex only
    tries the labels below that of the last colouring found, so after
    vertex v its prefix through v is the least one that extends, whichever
    completion the probe returned; v is then fixed to that colouring's
    label, which always extends.
    """
    k, shift = table[:2]
    state = table[-1]
    labels = None
    for v, s in enumerate(shift):
        top = k // 2 + 1 if labels is None else labels[v]
        for x in _bits(state[0] >> s & (1 << top) - 1):
            trial = _fix(table, state, v, x)
            if trial is None:
                continue
            got = probe(table, trial)
            if got is not None:
                labels = got
                break
        if labels is None:
            return None
        state = _fix(table, state, v, labels[v])
    return labels


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
    """Span and witness probe, by far-clique partitions.

    A colouring's label classes are pairwise far, so they partition the
    vertices into blocks of :func:`_far_partitions`, each block at its own
    label, and consecutive labels hold blocks joined in the
    :func:`_quotient`.  So the span is the least ``|P| + pc(quotient) - 2``
    over the partitions ``P`` (Georges, Mauro and Whittlesey, 1994, apply to
    each quotient), and a colouring within some domains exists exactly when
    :func:`_probe_in_label_order` finds one on a quotient of span at most
    ``k``, a block's domain the AND of its members'.  Only cover numbers are
    needed.  The partition into singletons starts every graph: its quotient
    is the complement, whose cover number is the one cached on the graph,
    and its span ``n + pc - 2`` is the first ``k``.  Every other quotient
    asks :func:`_path_cover_number` for its number below ``k - |P| + 3``,
    which comes only when the partition reaches span ``k``; ``k`` then
    drops to the partition's span, so every quotient at the least span is
    known exactly.  The probe reads each member's domain out of the fixed
    state of the :func:`_span_table` it is given, which serves only the
    witness search's fixes.
    """
    k = g.n + g.complement_path_cover_number - 2
    spans = []
    for blocks in _far_partitions(far):
        comp = _quotient(d1, blocks)
        if len(blocks) == g.n:
            pc = g.complement_path_cover_number
        else:
            pc = _path_cover_number(comp, k - len(blocks) + 3)
        if pc is not None:  # the partition reaches span ``k`` or beats it
            k = len(blocks) + pc - 2
            spans.append((k, blocks, comp))
    quotients = [([list(_bits(b)) for b in blocks], comp, {})
                 for span, blocks, comp in spans if span == k]

    def probe(table, state):
        k, shift = table[:2]
        full = (1 << k + 1) - 1
        word = state[0]
        for members, comp, gaps in quotients:
            dom = []
            for vs in members:
                m = full
                for v in vs:
                    m &= word >> shift[v]
                if not m:
                    break
                dom.append(m)
            else:
                got = _probe_in_label_order(comp, dom, k, gaps)
                if got is not None:
                    labels = [0] * len(shift)
                    for vs, x in zip(members, got):
                        for v in vs:
                            labels[v] = x
                    return labels
        return None

    return k, probe


# ---------------------------------------------------------------------------
# the solver proper
# ---------------------------------------------------------------------------

def lambda_number(g: Graph) -> SolveReport:
    """Exact span of ``g`` with the lexicographically least optimal witness.

    Raises ``ValueError`` on the empty graph and :class:`CapExceededError`
    above :data:`DEFAULT_SOLVER_CAP` vertices, from ``g.adj_masks``, read
    first so that an edgeless graph past the cap is refused too.
    """
    if g.n == 0:
        raise ValueError("span of the empty graph is undefined")
    d1 = g.adj_masks
    if not g.edges:
        c = Colouring((0,) * g.n)
        return SolveReport(0, c, ())
    n = g.n
    sq = _square_masks(d1)
    far = _complement_masks(sq)
    # each far pair is counted at both of its vertices
    if sum(m.bit_count() for m in far) <= 2 * FAR_PAIR_LIMIT:
        k, probe = _partition_route(g, d1, far)
        spans, cliques = (k,), ()
    else:
        order = _connected_order(d1, sq)
        cliques = _square_cliques(sq)
        start = max(_lower_bound(d1, sq), cliques[0].bit_count() - 1)
        spans = range(start, 2 * n - 1)  # greedy 0,2,4,... always works

        def probe(table, state):
            return _search_masks(table, order, state)
    # the span is the first k at which the witness search succeeds
    for k in spans:
        labels = _lex_least_witness(_span_table(d1, sq, k, cliques), probe)
        if labels is not None:
            break
    else:
        raise SpanSearchError(f"no colouring of span at most {spans[-1]} found")
    c = Colouring(tuple(labels))
    return SolveReport(k, c, holes_of(c))


def lambda_via_path_cover(g: Graph) -> PathCoverBound:
    """Span via the path-cover number of the complement.

    The complement decomposes into ``t`` vertex-disjoint paths but not fewer
    exactly when the span is ``n + t - 2``, provided ``t >= 2``; when the
    complement has a Hamilton path (``t = 1``) the span is only bounded above
    by ``n - 1``.  Raises :class:`CapExceededError` above
    :data:`DEFAULT_SOLVER_CAP` vertices, from ``g.adj_masks``.
    """
    if g.n == 0:
        raise ValueError("span of the empty graph is undefined")
    t = g.complement_path_cover_number
    return PathCoverBound(t, t >= 2, g.n + t - 2)


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
