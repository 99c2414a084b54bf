"""Independent reference implementations used only by the tests.

Everything here is deliberately naive — quadratic loops, full enumeration —
and shares no code with the library, so agreement between the two is
meaningful evidence.  The two exceptions reach their spans by another route
through the library than the code they check: :func:`labelled_census` by
:func:`lambda_number`, and :func:`_min_span_masks` by a loop of its own over
the solver's single-span search.  Sizes are expected to stay tiny.
"""

from itertools import combinations, permutations, product
from math import inf

import numpy as np

from lambdacol import (
    Colouring,
    Graph,
    PartitionShape,
    SpanSearchError,
    lambda_number,
)
from lambdacol.solver import (
    _connected_order,
    _lower_bound,
    _search_masks,
    _span_table,
    _square_masks,
)


def floyd_warshall(g: Graph):
    """All-pairs distances by the classic triple loop."""
    n = g.n
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def max_degree(g: Graph) -> int:
    """Largest vertex degree, counted from the edge list; 0 when edgeless."""
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree, default=0)


def first_violation_by_distances(g: Graph, labels):
    """``(u, v, d)`` for the first pair ``u < v`` breaking the condition.

    Every pair is checked straight from the definition, in lexicographic
    order; ``None`` when the labelling is valid.
    """
    dist = floyd_warshall(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = dist[u][v]
            if d is inf or d >= 3:
                continue
            if abs(labels[u] - labels[v]) + d < 3:
                return (u, v, d)
    return None


def is_valid_by_distances(g: Graph, labels) -> bool:
    """The colouring condition checked straight from the definition."""
    return first_violation_by_distances(g, labels) is None


def brute_lambda(g: Graph) -> int:
    """Exact span by enumerating every label vector, smallest span first."""
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.edges:
        return 0
    k = 1
    while True:
        for labels in product(range(k + 1), repeat=g.n):
            if min(labels) != 0 or max(labels) != k:
                continue
            if is_valid_by_distances(g, labels):
                return k
        k += 1


def brute_path_cover(g: Graph) -> int:
    """Fewest vertex-disjoint paths covering ``g``, via all vertex orders.

    Any partition into paths arises from some ordering broken at consecutive
    non-adjacent pairs, so the minimum over orderings of (breaks + 1) is the
    cover number.
    """
    if g.n == 0:
        return 0
    adj = {e for u, v in g.edges for e in ((u, v), (v, u))}
    best = g.n
    for perm in permutations(range(g.n)):
        breaks = sum(
            1 for a, b in zip(perm, perm[1:]) if (a, b) not in adj
        )
        if breaks + 1 < best:
            best = breaks + 1
            if best == 1:
                return 1
    return best


def partition_path_cover(g: Graph) -> int:
    """Fewest vertex-disjoint paths covering ``g``, over set partitions.

    ``ends[S]`` holds the vertices at which a Hamilton path of the subgraph
    on ``S`` ends.  The cover number of ``S`` is the least ``1 + cover(S -
    T)`` over the subsets ``T`` of ``S`` that hold the least vertex of ``S``
    and have a Hamilton path.  About ``3^n`` steps, so for orders the
    permutations of :func:`brute_path_cover` cannot reach, up to about 11.
    """
    n = g.n
    nbrs = [0] * n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    ends = [0] * (1 << n)
    for s in range(1, 1 << n):
        for v in range(n):
            r = s ^ 1 << v
            if s >> v & 1 and (r == 0 or ends[r] & nbrs[v]):
                ends[s] |= 1 << v
    cover = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        best = n
        t = rest
        while True:  # every subset t of rest, rest itself first
            if ends[t | low]:
                best = min(best, 1 + cover[s ^ t ^ low])
            if not t:
                break
            t = (t - 1) & rest
        cover[s] = best
    return cover[-1]


def reference_valid_shapes(n, t):
    """Valid shapes by filtering the full product space."""
    out = []
    for sizes in product(range(n + 1), repeat=t + 1):
        if sum(sizes) != n:
            continue
        if sizes[0] == 0 or sizes[-1] == 0:
            continue
        if any(a == 0 and b == 0 for a, b in zip(sizes, sizes[1:])):
            continue
        out.append(PartitionShape(sizes))
    return out


def reference_edge_bound(shape) -> int:
    """The shape's matching count, written as an explicit pair filter."""
    s = shape.sizes
    return sum(
        min(s[i], s[j])
        for i, j in combinations(range(len(s)), 2)
        if j - i >= 2
    )


def _int8_compositions(total, length, memo):
    """Every non-negative int8 row of ``length`` entries summing to ``total``."""
    key = (total, length)
    if key not in memo:
        if length == 1:
            memo[key] = np.array([[total]], dtype=np.int8)
        else:
            blocks = []
            for v in range(total + 1):
                rest = _int8_compositions(total - v, length - 1, memo)
                block = np.empty((rest.shape[0], length), dtype=np.int8)
                block[:, 0] = v
                block[:, 1:] = rest
                blocks.append(block)
            memo[key] = np.vstack(blocks)
    return memo[key]


def valid_shape_rows(n, t):
    """Every valid shape for ``(n, t)``, ``n < 128``, as a row of one int8
    matrix: both ends fixed, the middle composed, adjacent holes dropped."""
    memo = {}
    blocks = []
    for c0 in range(1, n):
        for ct in range(1, n - c0 + 1):
            inner = _int8_compositions(n - c0 - ct, t - 1, memo)
            block = np.empty((inner.shape[0], t + 1), dtype=np.int8)
            block[:, 0] = c0
            block[:, 1:t] = inner
            block[:, t] = ct
            blocks.append(block)
    rows = np.vstack(blocks)
    keep = np.ones(len(rows), dtype=bool)
    for i in range(t):
        keep &= ~((rows[:, i] == 0) & (rows[:, i + 1] == 0))
    return rows[keep]


def max_edges_by_rows(n, t):
    """``(largest edge bound, attaining shapes)``, scoring every valid shape
    row at once."""
    rows = valid_shape_rows(n, t)
    bounds = np.zeros(len(rows), dtype=np.int32)
    for i in range(t - 1):
        for j in range(i + 2, t + 1):
            bounds += np.minimum(rows[:, i], rows[:, j])
    value = int(bounds.max())
    return value, frozenset(
        PartitionShape(tuple(int(x) for x in row))
        for row in rows[bounds == value]
    )


def all_graphs(n):
    """Every labelled graph on ``n`` vertices, as Graph objects."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(
            pairs[i] for i in range(len(pairs)) if mask >> i & 1
        )
        yield Graph(n, edges)


def labelled_census(n):
    """{span: max edge count} over every labelled graph on ``n`` vertices.

    Each graph is solved by ``lambda_number``, which starts from the
    distance-two clique bound and takes the path-cover route at diameter
    two; the census under test searches from the elementary bounds alone
    and visits one graph or more per isomorphism class.
    """
    best = {}
    for g in all_graphs(n):
        lam = lambda_number(g).lambda_value if g.edges else 0
        best[lam] = max(best.get(lam, 0), len(g.edges))
    return best


def _min_span_masks(d1):
    """Smallest feasible span for bitmask adjacency with >= 1 edge.

    One :func:`_search_masks` per span upward from the elementary bounds
    alone, each from the root state of :func:`_span_table`.  The loop is
    its own, apart from the census's :func:`_least_span`, and takes no
    shortcut of it (no ceiling, no halving of the first vertex's labels):
    the tests' unpruned census checks the census against it, and the checks
    of the path-cover theorem rely on it staying independent of path covers
    and of the solver's witness loop.
    """
    sq = _square_masks(d1)
    order = _connected_order(d1, sq)
    # greedy labelling 0,2,4,... always works
    for k in range(_lower_bound(d1, sq), 2 * len(d1) - 1):
        table = _span_table(d1, sq, k)
        if _search_masks(table, order, table[-1]) is not None:
            return k
    raise SpanSearchError("span search exceeded the trivial upper bound")


def layered_matching(sizes, injections=None):
    """A layered matching on classes of ``sizes``, numbered class-major.

    ``injections`` maps a pair ``(m, p)`` with ``p >= m + 2`` to distinct
    ranks of the larger class (ties: class ``p``), one per rank of the
    smaller, which joins rank ``i`` of the smaller class to rank
    ``injections[m, p][i]`` of the larger; every other such pair joins equal
    ranks.  Returns ``(graph, class_of)``.
    """
    injections = injections or {}
    class_of = [m for m, size in enumerate(sizes) for _ in range(size)]
    first = [class_of.index(m) if size else None
             for m, size in enumerate(sizes)]
    edges = []
    for m, p in combinations(range(len(sizes)), 2):
        if p - m < 2:
            continue
        small, big = (m, p) if sizes[m] <= sizes[p] else (p, m)
        ranks = injections.get((m, p), range(sizes[small]))
        edges += [(first[small] + i, first[big] + x)
                  for i, x in enumerate(ranks)]
    return Graph.from_edges(len(class_of), edges), tuple(class_of)


def is_layered_matching(g, class_of) -> bool:
    """Layered matching straight from the definition, pair by pair.

    ``class_of[v]`` is the class of vertex v.  Every edge joins classes at
    index distance >= 2, and for every two classes ``A``, ``B`` at index
    distance >= 2 the edges between them number ``min(|A|, |B|)`` with no
    vertex in two of them: a matching saturating the smaller class.
    """
    classes = {}
    for v, m in enumerate(class_of):
        classes.setdefault(m, []).append(v)
    for u, v in g.edges:
        if abs(class_of[u] - class_of[v]) < 2:
            return False
    for a, b in combinations(sorted(classes), 2):
        if b - a < 2:
            continue
        between = [
            (u, v) for u, v in g.edges
            if {class_of[u], class_of[v]} == {a, b}
        ]
        ends = [w for e in between for w in e]
        if len(set(ends)) != len(ends):
            return False
        if len(between) != min(len(classes[a]), len(classes[b])):
            return False
    return True


def standardised_ids(labels):
    """Each vertex's id in the class-major numbering of its colouring.

    Classes are numbered in label order and each class's members are
    ranked by ascending id: sort the vertices by ``(label, id)`` and read
    off positions.
    """
    order = sorted(range(len(labels)), key=lambda v: (labels[v], v))
    ids = [None] * len(labels)
    for position, v in enumerate(order):
        ids[v] = position
    return tuple(ids)


def is_stationary_shape(sizes) -> bool:
    """The shape condition of a stationary partition, from the definition.

    Class sizes pairwise within one, or, at span 3 or 4, one of the
    sporadic patterns below with some ``k`` (read left to right or right to
    left).
    """
    if max(sizes) - min(sizes) <= 1:
        return True
    t, k = len(sizes) - 1, max(sizes)
    patterns = {
        3: [(k, k - 1, k - 2, k), (k - 1, k, k - 2, k),
            (k, k - 2, k, k), (k, k - 3, k, k)],
        4: [(k, k - 2, k, k - 1, k), (k, k - 2, k, k - 2, k),
            (k, k, k - 2, k, k)],
    }.get(t, [])
    return tuple(sizes) in patterns or tuple(sizes[::-1]) in patterns


def reference_colourings(g: Graph, k: int):
    """Every valid labelling with labels in ``0..k``, lexicographically.

    Backtracking over vertex ids with ascending labels.  Each vertex keeps
    the set of labels still allowed to it; a new label is checked against
    every later vertex within distance two, by the distances of
    :func:`floyd_warshall`, and removes the labels it rules out there.
    Yields tuples.
    """
    dist = floyd_warshall(g)
    allowed = [set(range(k + 1)) for _ in range(g.n)]
    labels = []

    def extend(v):
        if v == g.n:
            yield tuple(labels)
            return
        for x in sorted(allowed[v]):
            removed = []
            for u in range(v + 1, g.n):
                d = dist[v][u]
                if d <= 2:
                    ruled_out = {y for y in allowed[u] if abs(x - y) + d < 3}
                    allowed[u] -= ruled_out
                    removed.append((u, ruled_out))
            if all(allowed[u] for u, _ in removed):
                labels.append(x)
                yield from extend(v + 1)
                labels.pop()
            for u, ruled_out in removed:
                allowed[u] |= ruled_out

    return extend(0)


def root_domains(g: Graph, k: int):
    """Label domains at span ``k`` as bitmasks: ``0..k`` for every vertex,
    but ``{0, k}`` for a vertex of degree ``k - 1``, whose closed
    neighbourhood needs ``k`` distinct labels and so leaves it no label
    strictly inside.
    """
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    full = (1 << k + 1) - 1
    return [1 | 1 << k if d == k - 1 else full for d in degree]


def forward_check(dist, dom, v, x):
    """The domain list ``dom`` with v labelled ``x``, or None.

    ``dist`` is the distance matrix of :func:`floyd_warshall` and ``dom`` a
    list of label bitmasks.  v's domain becomes ``{x}``, and every other
    vertex within distance two loses the labels ``y`` that break
    ``|x - y| + d >= 3``: ``x-1..x+1`` at distance one, ``x`` at distance
    two.  None when some domain is left empty.
    """
    dom = list(dom)
    dom[v] = 1 << x
    for u, d in enumerate(dist[v]):
        if u != v and d <= 2:
            dom[u] &= ~((7 << x) >> 1 if d == 1 else 1 << x)
    return None if 0 in dom else dom


def reference_lex_witness(g: Graph, k: int):
    """Lexicographically least valid labelling with labels in ``0..k``.

    The first of :func:`reference_colourings`, or ``None`` when no
    labelling fits in ``0..k``.
    """
    return next(reference_colourings(g, k), None)


def optimal_witness_by_brute_force(g: Graph):
    """Lexicographically least optimal labelling, from scratch."""
    k = brute_lambda(g)
    for labels in product(range(k + 1), repeat=g.n):
        if is_valid_by_distances(g, labels):
            return Colouring(tuple(labels))
    raise AssertionError("no witness at the computed span")
