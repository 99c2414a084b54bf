"""Maximum edge counts for a given order and span, and the classification.

Fix ``n`` and a target span ``t`` with ``n >= t + 1 >= 4``.  Standardisation
reduces "how many edges can an n-vertex graph of span t have" to integer
arithmetic: the answer is the maximum of the shape edge bound over all valid
shapes (standardised graphs on valid shapes do achieve span exactly ``t``).
:func:`max_edges` performs that maximisation — by a dynamic programme over
nested layers of class indices, since the shape space at ``(n, t) = (30, 7)``
alone has several million points — and returns the full attaining set.

The attaining shapes are completely classified:

* ``(t+1) | n``: only the all-equal shape survives;

* otherwise the near-equal (equitable) shapes whose large classes are spread
  out as much as possible (minimum count of adjacent large pairs) always
  attain the maximum;

* for spans 3 and 4 only, a handful of *sporadic* patterns with spread >= 2
  tie them — four one-parameter families at span 3, two at span 4, each
  closed under index reversal.  One further candidate pattern (tag ``h``)
  satisfies every necessary condition yet always falls short by exactly one
  edge; it is excluded.

A graph on the classes of an attaining shape is *stationary* when it is a
layered matching: no edges inside a class or between adjacent classes, and
every noncontiguous class pair joined by a matching saturating the smaller
class, with the shape (or its reversal) equitable or one of the sporadic
patterns.  :func:`build_stationary` builds the rank-aligned one, and
:func:`is_stationary` recognises every one.
:func:`verify_classification` checks the whole story per ``(n, t)`` against
the shape oracle, and — for tiny ``n`` — against a second, fully independent
oracle that solves a graph from every isomorphism class exactly.
"""

from array import array
from enum import Enum
from functools import lru_cache
from itertools import combinations, groupby, permutations, product

from .graphs import CapExceededError, Graph, _Record, _bits
from .solver import _least_span, lambda_number
from .shapes import (
    PartitionShape,
    dual_shape,
    is_valid_shape,
    spread,
)
from .standardise import (
    ColouredPartition,
    StandardisedGraph,
    _is_layered_matching,
    partition_of,
    shape_of,
)

#: Cap on a shape search's work, ``3^(t+1) * n`` subset steps, checked by
#: :func:`max_edges` and :func:`predicted_shapes`.
DEFAULT_MAX_SHAPES = 20_000_000

#: Largest n for the census, checked by :func:`brute_force_graph_census`:
#: n = 8 visits 1,044 classes times 128 neighbourhoods, 133,632 graphs, in
#: about two seconds; n = 9 would visit 12,346 times 256, 3.2 million.
CENSUS_CAP = 8

#: Largest n that :func:`verify_classification` cross-checks against the
#: census.  n = 7 takes a quarter of a second, but is left out so that
#: ``verify`` output and its goldens stay the same: each n = 7 line reads
#: ``census=skip``.
_CENSUS_CHECK_LIMIT = 6


class ClassificationError(RuntimeError):
    """A graph contradicted the classification (a bug in the solver or the
    shape search)."""


def _check_range(n, t):
    for x in (n, t):
        if not isinstance(x, int):
            raise ValueError(f"n and t must be integers, got {x!r}")
    if t < 3:
        raise ValueError(f"need span t >= 3, got {t}")
    if n < t + 1:
        raise ValueError(f"need n >= t + 1 = {t + 1}, got {n}")


def _check_shape_cap(n, t):
    cap = DEFAULT_MAX_SHAPES
    # 3^(t+1) >= 2^(t+1), so the first test settles huge t without the power
    if t + 1 > cap.bit_length() or 3 ** (t + 1) * n > cap:
        raise CapExceededError(
            f"shape search for (n={n}, t={t}) needs 3^{t + 1} * {n} subset "
            f"steps, cap {cap}"
        )


# ---------------------------------------------------------------------------
# the shape search
# ---------------------------------------------------------------------------

def _subset_max(f):
    """``h[S] = max(f[T] for T ⊆ S)``, folding in one index bit at a time."""
    b = 1
    while b < len(f):
        f = [x if not s & b or x > f[s ^ b] else f[s ^ b]
             for s, x in enumerate(f)]
        b *= 2
    return f


def max_edges(n, t):
    """Largest edge count among valid shapes for ``(n, t)``, with the argmax.

    Returns ``(value, frozenset of attaining shapes)``.  Raises
    :class:`CapExceededError` when ``3^(t+1) * n``, a bound on the search's
    subset steps, exceeds :data:`DEFAULT_MAX_SHAPES`.
    """
    _check_range(n, t)
    _check_shape_cap(n, t)
    return _max_edges_cached(n, t)


@lru_cache(maxsize=None)
def _layer_table(t):
    """Span ``t``'s layer rows ``(gain, size, best, below)``, shared by every
    n and grown in place by :func:`_max_edges_cached`."""
    full = 1 << (t + 1)
    gain = [sum((s >> (i + 2)).bit_count() for i in range(t - 1) if s >> i & 1)
            for s in range(full)]  # g(S): pairs of S at distance >= 2
    size = [s.bit_count() for s in range(full)]
    # below[k % (t + 2)][S]: max of best[k][T] over T ⊆ S; zero for k = 0
    return gain, size, array("i", [-1] * full), [[0] * full] * (t + 2)


@lru_cache(maxsize=None)
def _max_edges_cached(n, t):
    # The layer cake.  With layers S_r = {i : c_i > r}, min(c_i, c_j) counts
    # the r with both i and j in S_r, so a shape's edge bound is the sum of
    # g(S_r) over its layers S_0 ⊇ S_1 ⊇ ...  Shapes and chains of non-empty
    # layers with sizes summing to n correspond one to one, and the shape is
    # valid exactly when S_0 holds 0 and t and misses no two adjacent indices.
    # best[m * full + S] is the largest bound of a chain of total size m with
    # top layer S (-1 when |S| > m):
    #     best[m][S] = g(S) + max over non-empty T ⊆ S of best[m - |S|][T],
    # with nothing below S when |S| = m.  Row m does not depend on n, so each
    # span keeps one table per process (_layer_table), built up to the
    # largest n asked so far; a call builds only the rows past its end.  Each
    # row is stored in below before best grows: an interrupt between the two
    # leaves a slot no later row reads, and the next call rebuilds that row.
    gain, size, best, below = _layer_table(t)
    full = len(gain)
    for m in range(len(best) // full, n + 1):
        under = [below[(m - c) % (t + 2)] for c in range(t + 2)]
        row = [gain[s] + under[size[s]][s] if 0 < size[s] <= m else -1
               for s in range(full)]
        below[m % (t + 2)] = _subset_max(row)
        best.extend(row)

    ends, pairs = full >> 1 | 1, (full >> 1) - 1
    tops = [s for s in range(full)
            if s & ends == ends and (s | s >> 1) & pairs == pairs]
    value = max(best[n * full + s] for s in tops)
    # Walk back every chain that attains the value, counting layer
    # memberships into class sizes.
    shapes = set()
    stack = [(n, s, (0,) * (t + 1)) for s in tops
             if best[n * full + s] == value]
    while stack:
        m, s, sizes = stack.pop()
        sizes = tuple(c + (s >> i & 1) for i, c in enumerate(sizes))
        k = m - size[s]
        if k == 0:
            shapes.add(PartitionShape(sizes))
            continue
        need = best[m * full + s] - gain[s]
        sub = s
        while sub:
            if best[k * full + sub] == need:
                stack.append((k, sub, sizes))
            sub = (sub - 1) & s
    return value, frozenset(shapes)


# ---------------------------------------------------------------------------
# predicted attaining shapes
# ---------------------------------------------------------------------------

def _equitable_min_k_shapes(n, t):
    """Near-equal shapes whose adjacent large pairs are fewest possible."""
    b, r = divmod(n, t + 1)
    best_k = None
    best = []
    for pos in combinations(range(t + 1), r):
        k = sum(1 for a, c in zip(pos, pos[1:]) if c == a + 1)
        if best_k is None or k < best_k:
            best_k, best = k, [pos]
        elif k == best_k:
            best.append(pos)
    out = []
    for pos in best:
        chosen = set(pos)
        out.append(PartitionShape(
            tuple(b + 1 if i in chosen else b for i in range(t + 1))
        ))
    return out


#: Sporadic families (span, tag) -> size pattern in a parameter k, as offsets.
#: Pattern value at index i is k + offset.  Only spans 3 and 4 have any.
_SPORADIC_PATTERNS = {
    3: {
        "a": (0, -1, -2, 0),
        "b": (-1, 0, -2, 0),
        "c": (0, -2, 0, 0),
        "d": (0, -3, 0, 0),
    },
    4: {
        "f": (0, -2, 0, -1, 0),
        "g": (0, -2, 0, -2, 0),
        "h": (0, 0, -2, 0, 0),  # never maximal; kept for tag matching only
    },
}


def _sporadic_shape(t, tag, n):
    """The shape of ``tag`` in ``_SPORADIC_PATTERNS[t]`` for ``(n, t)`` if
    the parameter works out, else None.

    With no size negative it is valid: an offset of -2 or -3 makes
    ``k >= 2``, end offsets of 0 or -1 leave the end classes non-empty, and
    no two adjacent offsets are both ``-k``.
    """
    offsets = _SPORADIC_PATTERNS[t][tag]
    base = sum(offsets)
    if (n - base) % (t + 1):
        return None
    k = (n - base) // (t + 1)
    sizes = tuple(k + o for o in offsets)
    if any(s < 0 for s in sizes):
        return None
    return PartitionShape(sizes)


def predicted_shapes(n, t):
    """The attaining-shape set the classification predicts for ``(n, t)``.

    All minimum-K near-equal shapes (for divisible ``n``, the single
    all-equal shape, where no sporadic pattern fits), plus (for spans 3 and
    4) the sporadic patterns that exist at this ``n`` and their reversals —
    excluding tag ``h``, which is stationary but always one edge short of
    the maximum.  Raises
    :class:`CapExceededError` where :func:`max_edges` does, which also bounds
    the ``C(t+1, r) <= 2^(t+1)`` near-equal placements it enumerates.
    """
    _check_range(n, t)
    _check_shape_cap(n, t)
    out = set(_equitable_min_k_shapes(n, t))
    for tag in _SPORADIC_PATTERNS.get(t, {}):
        if tag == "h":
            continue
        s = _sporadic_shape(t, tag, n)
        if s is not None:
            out.add(s)
            out.add(dual_shape(s))
    return frozenset(out)


# ---------------------------------------------------------------------------
# stationary graphs
# ---------------------------------------------------------------------------

class Case(Enum):
    """Which branch of the classification a maximal graph falls under."""

    DIVISIBLE = "DIVISIBLE"
    EQUITABLE_MIN_K = "EQUITABLE_MIN_K"
    SPORADIC = "SPORADIC"
    NOT_MAXIMAL = "NOT_MAXIMAL"


class StationaryType(_Record):
    """Which shape condition a stationary partition matches.

    ``tag`` is ``"EQUITABLE"`` (sizes pairwise within 1) or a sporadic letter
    (``a``–``d`` at span 3, ``f``–``h`` at span 4); ``dual_flag`` records that
    the match was against the reversed shape.
    """

    tag: str
    dual_flag: bool


class ClassificationReport(_Record):
    case: Case
    witness_shape: PartitionShape
    max_edges: int
    stationary: object  # StationaryType | None


def _sporadic_tag_of(shape):
    """Sporadic letter matching this exact orientation, or None."""
    return next((tag for tag in _SPORADIC_PATTERNS.get(shape.t, ())
                 if _sporadic_shape(shape.t, tag, shape.n) == shape), None)


def _stationary_type_of(shape):
    """Tag + orientation for a shape, or None when nothing matches."""
    if spread(shape) <= 1:
        return StationaryType("EQUITABLE", False)
    tag = _sporadic_tag_of(shape)
    if tag is not None:
        return StationaryType(tag, False)
    tag = _sporadic_tag_of(dual_shape(shape))
    if tag is not None:
        return StationaryType(tag, True)
    return None


def build_stationary(shape: PartitionShape):
    """Materialise a graph realising ``shape`` with the stationary edge rules.

    Every noncontiguous class pair gets the matching that joins equal ranks,
    which saturates its smaller class; nothing else: the standardised graph
    of ``shape``.  Returns ``(graph, partition)``; the class map is a valid
    colouring of span exactly the shape's top index.  Raises
    :class:`CapExceededError` above :data:`CONSTRUCTION_CAP`.
    """
    if not is_valid_shape(shape):
        raise ValueError(f"not a valid shape: {shape.sizes}")
    sg = StandardisedGraph(shape)
    return sg.graph(), sg.partition()


def is_stationary(g: Graph, partition: ColouredPartition):
    """Decide the stationary property for ``g`` under ``partition``.

    Returns ``(False, None)`` or ``(True, StationaryType)``.  The partition
    must cover exactly ``g``'s vertices (error otherwise).  Checks, in order:
    the shape discipline (non-empty ends, no adjacent empty classes), the
    edge distribution (no intra-class or adjacent-class edges; noncontiguous
    pairs matched, saturating the smaller class), then the shape condition
    (near-equal, or a sporadic letter on the shape or its reversal).
    """
    if len(partition.class_of) != g.n:
        raise ValueError("partition does not cover exactly the graph's vertices")
    shape = shape_of(partition)
    if not is_valid_shape(shape):
        return False, None
    if not _is_layered_matching(g, partition.class_of, shape):
        return False, None
    st = _stationary_type_of(shape)
    if st is None:
        return False, None
    return True, st


# ---------------------------------------------------------------------------
# classification of a concrete graph
# ---------------------------------------------------------------------------

def classify(g: Graph) -> ClassificationReport:
    """Where ``g`` stands among graphs of its order and span.

    Solves the span exactly, so above :data:`DEFAULT_SOLVER_CAP` vertices
    it raises the solver's :class:`CapExceededError`.  Requires span >= 3
    and ``n >= span + 1``, and reports either ``NOT_MAXIMAL`` or the
    classification case: ``DIVISIBLE`` when ``(span+1) | n``, else
    ``EQUITABLE_MIN_K`` or ``SPORADIC`` according to the witness shape,
    read from the solver's lexicographically least optimal witness.  At
    equality with the maximum that witness's shape meets the edge bound
    exactly, so it attains the maximum and its partition is stationary.  A
    graph with more edges than the maximum, or a maximal one whose witness
    is not stationary or not attaining, raises :class:`ClassificationError`.
    """
    report = lambda_number(g)
    t = report.lambda_value
    mx, argmax = max_edges(g.n, t)
    if g.m > mx:
        raise ClassificationError(
            f"{g.m} edges exceed the maximum {mx} for (n={g.n}, t={t})"
        )
    witness = report.witness
    part = partition_of(g, witness)
    shape = shape_of(part)
    if g.m < mx:
        return ClassificationReport(Case.NOT_MAXIMAL, shape, mx, None)
    ok, st = is_stationary(g, part)
    if not ok or shape not in argmax:
        raise ClassificationError(
            f"the optimal witness of a maximal graph has shape {shape.sizes}, "
            "which is not stationary or not attaining"
        )
    if g.n % (t + 1) == 0:
        case = Case.DIVISIBLE
    elif spread(shape) <= 1:
        case = Case.EQUITABLE_MIN_K
    else:
        case = Case.SPORADIC
    return ClassificationReport(case, shape, mx, st)


# ---------------------------------------------------------------------------
# independent oracle: census over isomorphism classes
# ---------------------------------------------------------------------------

def _canonical_code(adj):
    """Least adjacency code of bitmask adjacency ``adj`` over refined orders.

    Vertices are sorted by an isomorphism invariant, their degree and then
    the sorted degrees of their neighbours, and only the orders that keep
    that sort are tried: every permutation within each run of equal keys.
    An order's code reads the pairs ``(i, j)``, ``i < j``, row by row as
    bits.  An isomorphism maps the tried orders of one graph onto those of
    the other with equal codes, so two graphs share the least code exactly
    when they are isomorphic.
    """
    deg = [m.bit_count() for m in adj]
    key = [(d, sorted(deg[u] for u in _bits(m))) for d, m in zip(deg, adj)]
    ranked = sorted(range(len(adj)), key=key.__getitem__)
    cells = [permutations(c) for _, c in groupby(ranked, key.__getitem__)]
    best = None
    for parts in product(*cells):
        order = [v for part in parts for v in part]
        code = 0
        for i, v in enumerate(order):
            row = adj[v]
            for u in order[i + 1:]:
                code = code << 1 | row >> u & 1
        if best is None or code < best:
            best = code
    return best


def _extensions(n):
    """Graphs on ``n >= 1`` vertices meeting every isomorphism class.

    Each class representative on ``n - 1`` vertices, with vertex ``n - 1``
    added under each of its ``2^(n-1)`` neighbourhoods.  Deleting the last
    vertex of any graph on ``n`` vertices leaves a graph isomorphic to a
    representative, so every graph on ``n`` vertices is isomorphic to one of
    these.
    """
    top = n - 1
    for rep in _graph_classes(top):
        for nbhd in range(1 << top):
            yield tuple(m | (nbhd >> v & 1) << top
                        for v, m in enumerate(rep)) + (nbhd,)


@lru_cache(maxsize=None)
def _graph_classes(n):
    """One bitmask adjacency per isomorphism class of graphs on ``n`` vertices.

    Built up from ``n = 0``: of the graphs :func:`_extensions` gives, one is
    kept per :func:`_canonical_code`.
    """
    if n == 0:
        return ((),)
    classes = {}
    for adj in _extensions(n):
        classes.setdefault(_canonical_code(adj), adj)
    return tuple(classes.values())


def brute_force_graph_census(n):
    """Exact span of every graph on ``n`` vertices, summarised.

    Returns {span: max edge count over graphs attaining that span}, ordered
    by span.  Span and edge count are isomorphism invariants, so it visits
    the graphs of :func:`_extensions`, which meet every isomorphism class:
    each representative on ``n - 1`` vertices (1,044 of them at ``n = 8``)
    with every neighbourhood of one more vertex.  It decides only the graphs
    that could raise a maximum, each by the elementary bounds and searches
    at single spans up to a ceiling (:func:`~lambdacol.solver._least_span`),
    independent of the shape search and of the solver's path-cover and
    distance-two clique theorems.  ``n`` is an int capped at
    :data:`CENSUS_CAP` (133,632 graphs and 11,907 searches at 8, 1,116
    searches at 7, about two seconds at 8).  Results are memoised per
    process.
    """
    if not isinstance(n, int):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n > CENSUS_CAP:
        raise CapExceededError(f"census limited to n <= {CENSUS_CAP}, got {n}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return dict(_census(n))


def _edge_count(adj):
    return sum(map(int.bit_count, adj)) // 2


@lru_cache(maxsize=None)
def _census(n):
    """The dict of :func:`brute_force_graph_census`, memoised per ``n``.

    The graphs go by non-increasing edge count, so the first graph found at
    a span holds that span's maximum: a span is *open* until its first
    graph.  Each graph asks :func:`~lambdacol.solver._least_span` for its
    span up to the greatest open span, its ceiling, and sets that span's
    maximum when the span it gets is open.
    """
    best = {0: 0}  # the edgeless graph, the only one of span 0
    for d1 in sorted(_extensions(n) if n else (), key=_edge_count,
                     reverse=True):
        edges = _edge_count(d1)
        if not edges:
            break
        ceiling = next((k for k in range(2 * n - 2, 0, -1)
                        if k not in best), 0)
        k = _least_span(d1, ceiling)
        if k is not None and k not in best:
            best[k] = edges
    return dict(sorted(best.items()))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerificationReport(_Record):
    """Everything checked for one ``(n, t)`` point.

    ``passed`` covers the classification claims: attaining shapes equal the
    predicted set, near-equal-only for spans >= 5, census agreement when the
    second oracle ran.  The window fields report, separately and as a
    diagnostic, the class-size window shipped with the package, every
    non-empty class in ``[floor(n/(t+1)), floor(n/(t+1)) + 3]``:
    ``inner_ok`` (the lower half) fails for the sporadic shapes (first at
    ``n=9, t=3``), which sit up to 2 below the floor at span 3 and 1 below
    at span 4; ``outer_ok`` is the upper half.  Acceptance criterion 8
    checks the corrected window ``[floor - d_t, floor + 1]`` instead.
    """

    n: int
    t: int
    max_edges: int
    attaining: int
    argmax_equals_predicted: bool
    equitable_only_ok: object  # bool | None (spans < 5)
    census_ok: object  # bool | None (not run)
    inner_ok: bool
    outer_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.argmax_equals_predicted
            and self.equitable_only_ok in (None, True)
            and self.census_ok in (None, True)
        )

    def line(self) -> str:
        def word(x):
            return "skip" if x is None else ("PASS" if x else "FAIL")

        return (
            f"n={self.n} t={self.t} {'PASS' if self.passed else 'FAIL'} "
            f"max={self.max_edges} attaining={self.attaining} "
            f"census={word(self.census_ok)} "
            f"inner={word(self.inner_ok)} outer={word(self.outer_ok)}"
        )


def verify_classification(n, t) -> VerificationReport:
    """Check the classification story at one ``(n, t)`` point.

    Compares the shape oracle's attaining set with :func:`predicted_shapes`;
    for spans >= 5 additionally checks all attaining shapes are near-equal;
    for ``n <= 6`` cross-checks the maximum against the
    census; and evaluates the shipped class-size window (all
    non-empty class sizes within ``[floor(n/(t+1)), floor(n/(t+1)) + 3]``),
    reported separately from ``passed``.  The sporadic shapes break its lower
    half, so ``inner_ok`` is a diagnostic, not a theorem; acceptance
    criterion 8 checks the window the classification actually gives.
    """
    mx, argmax = max_edges(n, t)
    predicted = predicted_shapes(n, t)
    eq_ok = None
    if t >= 5:
        eq_ok = all(spread(s) <= 1 for s in argmax)
    census_ok = None
    if n <= _CENSUS_CHECK_LIMIT:
        census_ok = brute_force_graph_census(n).get(t) == mx
    b = n // (t + 1)
    inner_ok = all(
        min(sz for sz in s.sizes if sz) >= b for s in argmax
    )
    outer_ok = all(max(s.sizes) <= b + 3 for s in argmax)
    return VerificationReport(
        n=n,
        t=t,
        max_edges=mx,
        attaining=len(argmax),
        argmax_equals_predicted=(argmax == predicted),
        equitable_only_ok=eq_ok,
        census_ok=census_ok,
        inner_ok=inner_ok,
        outer_ok=outer_ok,
    )
