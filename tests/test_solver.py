"""Exact solver: known spans, brute-force agreement, witnesses, files."""

import random
import time
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lambdacol import (
    CapExceededError,
    Colouring,
    DuplicateVertexError,
    Graph,
    MalformedLineError,
    MissingVertexError,
    NotNormalisedError,
    SpanSearchError,
    VertexRangeError,
    find_violation,
    format_colouring,
    holes_of,
    is_lambda_colouring,
    lambda_number,
    lambda_via_path_cover,
    parse_colouring,
    path_complement,
    path_cover_number,
)
import lambdacol.extremal as extremal_module
import lambdacol.graphs as graphs_module
import lambdacol.solver as solver_module
from lambdacol.graphs import (
    _bits,
    _complement_masks,
    _end_slots,
    _path_cover_bound,
)
from lambdacol.solver import (
    FAR_PAIR_LIMIT,
    _connected_order,
    _cut_rows,
    _diameter_two,
    _domains,
    _fix,
    _lower_bound,
    _min_span_masks,
    _plan,
    _probe_in_label_order,
    _search_masks,
    _second_neighbourhoods,
    _square_cliques,
)
from oracles import (
    all_graphs,
    brute_lambda,
    first_violation_by_distances,
    is_valid_by_distances,
    optimal_witness_by_brute_force,
    reference_colourings,
    reference_lex_witness,
)
from test_graphs import graphs


def P(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _far_pairs(g):
    """Pairs at distance three or more, or in different components."""
    d1 = g.adj_masks
    d2 = _second_neighbourhoods(d1)
    return sum(g.n - 1 - (a | b).bit_count() for a, b in zip(d1, d2)) // 2


def K(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def C(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def K_ab(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# ---------------------------------------------------------------------------
# known spans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,want", [
    (P(2), 2),
    (P(3), 3),
    (P(4), 3),
    (P(5), 4),
    (C(4), 4),
    (C(5), 4),
    (K(3), 4),
    (K(4), 6),
    (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 5),  # K4 - e
    (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 4),  # star
    (Graph(3, frozenset()), 0),
])
def test_known_spans(g, want):
    assert lambda_number(g).lambda_value == want


@pytest.mark.parametrize("n", range(3, 9))
def test_path_complement_span_is_n(n):
    assert lambda_number(path_complement(n)).lambda_value == n


@pytest.mark.parametrize("a,b", [(7, 7), (5, 9), (8, 8)])
def test_complete_bipartite_span_and_witness(a, b):
    # diameter two with complement K_a + K_b: the path-cover theorem gives
    # span n + 2 - 2; side 0..a-1 takes labels 0..a-1, the other a+1..a+b
    rep = lambda_number(K_ab(a, b))
    assert rep.lambda_value == a + b
    assert rep.witness.labels == tuple(range(a)) + tuple(range(a + 1, a + b + 1))


def test_path_complement_seventeen():
    g = path_complement(17)
    rep = lambda_number(g)
    assert rep.lambda_value == 17
    assert is_valid_by_distances(g, rep.witness.labels)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solver_matches_brute_force_exhaustively(n):
    for g in all_graphs(n):
        if not g.edges:
            assert lambda_number(g).lambda_value == 0
        else:
            assert lambda_number(g).lambda_value == brute_lambda(g)


@given(graphs(max_n=5))
@settings(max_examples=40, deadline=None)
def test_solver_matches_brute_force_random(g):
    if g.edges:
        assert lambda_number(g).lambda_value == brute_lambda(g)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@given(graphs(max_n=6))
@settings(max_examples=80, deadline=None)
def test_witness_is_valid_normalised_and_tight(g):
    rep = lambda_number(g)
    c = rep.witness
    assert is_lambda_colouring(g, c)
    assert min(c.labels) == 0
    assert c.span == rep.lambda_value
    assert rep.holes == holes_of(c)
    # no two consecutive unused labels in an optimal witness
    assert not any(h + 1 in rep.holes for h in rep.holes)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_is_lexicographically_least(n):
    for g in all_graphs(n):
        if not g.edges:
            continue
        assert lambda_number(g).witness == optimal_witness_by_brute_force(g)


def _assert_witness_matches_reference(g):
    rep = lambda_number(g)
    assert rep.witness.labels == reference_lex_witness(g, rep.lambda_value), g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_witness_matches_reference_exhaustively(n):
    for g in all_graphs(n):
        rep = lambda_number(g)
        k = rep.lambda_value
        assert rep.witness.labels == reference_lex_witness(g, k), g
        assert k == 0 or reference_lex_witness(g, k - 1) is None, g


def _random_graphs(kind, count):
    """Seeded G(n, p) graphs: sparse by mean degree 1.5-4.5, dense by p.

    Dense graphs stop at n = 11: beyond that the reference's id-order
    backtracking takes minutes on some of them.
    """
    rng = random.Random(f"{kind}:0")
    for _ in range(count):
        if kind == "sparse":
            n = rng.randint(6, 14)
            p = rng.uniform(1.5, 4.5) / (n - 1)
        else:
            n = rng.randint(6, 11)
            p = rng.uniform(0.55, 0.9)
        pairs = [e for e in combinations(range(n), 2) if rng.random() < p]
        yield Graph.from_edges(n, pairs)


@pytest.mark.parametrize("kind,count", [("sparse", 40), ("dense", 30)])
def test_witness_matches_reference_on_random_graphs(kind, count):
    for g in _random_graphs(kind, count):
        _assert_witness_matches_reference(g)


@pytest.mark.slow
def test_witness_matches_reference_on_every_graph_of_order_six():
    for g in all_graphs(6):
        _assert_witness_matches_reference(g)


def _gnp(n, p, rng):
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _diameter_two_graphs():
    """Seeded diameter-two G(n, p) graphs with 12 to 14 vertices."""
    for seed in (49, 99, 101, 129):
        yield _gnp(14, 0.88, random.Random(seed))
    rng = random.Random("diameter-two:12-14")
    found = 0
    while found < 12:
        g = _gnp(rng.randint(12, 14), rng.uniform(0.6, 0.9), rng)
        d1 = g.adj_masks
        if _diameter_two(g.n, d1, _second_neighbourhoods(d1)):
            found += 1
            yield g


# Spans and lex-least witnesses of _diameter_two_graphs(), in order, as the
# vertex-order DFS probes found them; too large for reference_lex_witness.
DIAMETER_TWO_WITNESSES = [
    (19, (0, 2, 4, 7, 9, 5, 14, 15, 10, 17, 11, 12, 13, 19)),
    (19, (0, 3, 5, 2, 8, 10, 12, 15, 6, 13, 1, 4, 17, 19)),
    (18, (1, 4, 6, 0, 2, 9, 7, 13, 15, 16, 18, 11, 14, 10)),
    (18, (0, 4, 6, 8, 12, 13, 1, 11, 9, 2, 14, 16, 18, 3)),
    (15, (0, 4, 6, 5, 9, 10, 7, 13, 3, 15, 2, 1, 11)),
    (17, (0, 2, 5, 8, 10, 11, 14, 6, 1, 17, 13, 15, 3)),
    (13, (0, 1, 3, 4, 6, 7, 9, 10, 8, 5, 2, 12, 11, 13)),
    (13, (0, 6, 4, 10, 7, 3, 1, 13, 2, 5, 8, 12, 11)),
    (11, (0, 2, 1, 4, 7, 9, 6, 10, 5, 3, 11, 8)),
    (12, (0, 8, 6, 9, 4, 3, 2, 7, 5, 10, 1, 12)),
    (12, (0, 8, 9, 2, 3, 7, 6, 11, 4, 1, 5, 12)),
    (13, (0, 2, 4, 1, 6, 7, 13, 10, 8, 12, 3, 9, 5, 11)),
    (15, (0, 2, 4, 7, 11, 8, 13, 9, 5, 15, 1, 6)),
    (13, (0, 1, 2, 3, 5, 6, 12, 13, 11, 10, 4, 8, 9, 7)),
    (12, (0, 3, 1, 5, 2, 6, 10, 12, 8, 7, 4, 9)),
    (11, (0, 2, 4, 1, 9, 5, 3, 7, 6, 10, 8, 11)),
]


def test_witnesses_of_dense_diameter_two_graphs():
    got = [(rep.lambda_value, rep.witness.labels)
           for rep in map(lambda_number, _diameter_two_graphs())]
    assert got == DIAMETER_TWO_WITNESSES


def test_at_most_one_path_cover_dp_per_graph(monkeypatch):
    # the pathcover and lambda verbs on one graph share the complement's cover
    calls = []
    dp = graphs_module._path_cover_masks
    monkeypatch.setattr(graphs_module, "_path_cover_masks",
                        lambda adj, below: calls.append(adj) or dp(adj, below))
    needed = 0
    for g in _diameter_two_graphs():
        before = len(calls)
        lambda_number(Graph(g.n, g.edges))  # a fresh copy caches no cover
        needed += len(calls) - before
        before = len(calls)
        lambda_via_path_cover(g)
        lambda_number(g)
        assert len(calls) - before <= 1, g
    # lambda_number alone runs the DP on some of them, so it reads the cache
    assert needed > 0


def test_no_path_cover_dp_where_a_bound_settles_the_cover(monkeypatch):
    # K_{9,11}: the complement K_9 + K_11 has two components; the edgeless
    # graph on 20 vertices: an independent set of 20 needs 20 paths
    def refuse(adj, below):
        raise AssertionError("path-cover DP run")

    monkeypatch.setattr(graphs_module, "_path_cover_masks", refuse)
    k9_11 = Graph.from_edges(20, [(i, j) for i in range(9)
                                  for j in range(9, 20)])
    assert lambda_number(k9_11).lambda_value == 20
    assert path_cover_number(Graph(20, frozenset())) == 20


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_path_cover_bound_is_no_weaker_than_the_checks_it_replaced(n):
    # on the complement of every diameter-two graph: the elementary span
    # bound read as a cover bound, and the end slots counted over all of it
    for g in all_graphs(n):
        d1 = g.adj_masks
        if not g.edges or not _diameter_two(n, d1, _second_neighbourhoods(d1)):
            continue
        comp = _complement_masks(d1)
        bound = _path_cover_bound(comp)
        assert bound >= _lower_bound(n, d1, True) - n + 2, g
        assert bound >= max(1, (_end_slots(comp, (1 << n) - 1) + 1) // 2), g


def _fixed_prefixes(d1, d2, dom, v):
    """Every domain list reached by fixing vertices v, v+1, ... in turn."""
    yield v, dom
    if v < len(dom):
        for x in _bits(dom[v]):
            trial = _fix(d1, d2, dom, v, x)
            if trial is not None:
                yield from _fixed_prefixes(d1, d2, trial, v + 1)


@pytest.mark.parametrize("n,above", [(2, 1), (3, 1), (4, 1), (5, 0)])
def test_label_order_probe_agrees_with_the_dfs(n, above):
    # from every prefix the witness search can fix, at the span (where it
    # probes) and up to ``above`` spans higher, each span's probes sharing
    # one end-slot table as ``lambda_number``'s do
    for g in all_graphs(n):
        d1 = g.adj_masks
        d2 = _second_neighbourhoods(d1)
        if not g.edges or not _diameter_two(n, d1, d2):
            continue
        comp = _complement_masks(d1)
        plan = _plan(d1, d2, _connected_order(d1, d2))
        k = lambda_number(g).lambda_value
        for span in range(k, k + above + 1):
            gaps = {}
            for v, dom in _fixed_prefixes(d1, d2, _domains(d1, span), 0):
                want = _search_masks(plan, dom)
                got = _probe_in_label_order(comp, dom, span, gaps)
                assert (got is None) == (want is None), (g, span, dom)
                if got is not None:
                    assert all(dom[u] >> got[u] & 1 for u in range(n))
                    assert is_valid_by_distances(g, got), (g, span, got)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vertices_of_degree_span_minus_one_sit_at_the_ends(n):
    # checked on the reference enumerator, which knows nothing of degrees
    for g in all_graphs(n):
        if not g.edges:
            continue
        k = lambda_number(g).lambda_value
        pinned = [v for v in range(n) if g.adj_masks[v].bit_count() == k - 1]
        for labels in reference_colourings(g, k):
            assert all(labels[v] in (0, k) for v in pinned), (g, labels)


def test_reference_colourings_is_exhaustive_and_lex_ordered():
    # every graph with n <= 4, at its span and one above
    for n in range(1, 5):
        for g in all_graphs(n):
            k = brute_lambda(g)
            for span in (k, k + 1):
                got = list(reference_colourings(g, span))
                want = [
                    labels for labels in product(range(span + 1), repeat=n)
                    if is_valid_by_distances(g, labels)
                ]
                assert got == want, (g, span)


# ---------------------------------------------------------------------------
# validity checking
# ---------------------------------------------------------------------------

@given(graphs(max_n=6), st.data())
@settings(max_examples=80)
def test_validity_agrees_with_definition(g, data):
    labels = data.draw(
        st.tuples(*[st.integers(0, 2 * g.n) for _ in range(g.n)])
    )
    labels = tuple(x - min(labels) for x in labels)
    c = Colouring(labels)
    assert is_lambda_colouring(g, c) == is_valid_by_distances(g, labels)


def test_find_violation_reports_first_pair():
    g = P(4)
    assert find_violation(g, Colouring((0, 1, 3, 0))) == (0, 1, 1)
    assert find_violation(g, Colouring((0, 2, 0, 2))) == (0, 2, 2)
    assert find_violation(g, Colouring((0, 2, 4, 1))) is None
    with pytest.raises(ValueError):
        find_violation(g, Colouring((0, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_find_violation_is_the_first_pair_by_definition(n):
    # only pairs within distance two are visited; the first one is the same
    rng = random.Random(n)
    for g in all_graphs(n):
        for _ in range(8):
            labels = [rng.randrange(n + 2) for _ in range(n)]
            labels = tuple(x - min(labels) for x in labels)
            assert find_violation(g, Colouring(labels)) == \
                first_violation_by_distances(g, labels), (g, labels)


def test_colouring_must_be_normalised():
    with pytest.raises(ValueError):
        Colouring((1, 3))
    with pytest.raises(ValueError):
        Colouring((0, -1))


def test_holes():
    assert holes_of(Colouring((0, 2, 5))) == (1, 3, 4)
    assert holes_of(Colouring((0, 1, 2))) == ()
    assert holes_of(Colouring(())) == ()


# ---------------------------------------------------------------------------
# caps and degenerate inputs
# ---------------------------------------------------------------------------

def test_solver_cap_and_empty():
    with pytest.raises(ValueError):
        lambda_number(Graph(0, frozenset()))
    with pytest.raises(CapExceededError):
        lambda_number(Graph(25, frozenset()))


def test_span_search_past_the_trivial_bound_is_a_typed_error(monkeypatch):
    assert _far_pairs(P(7)) > FAR_PAIR_LIMIT  # so the DFS decides it
    monkeypatch.setattr("lambdacol.solver._search_masks", lambda *a: None)
    with pytest.raises(SpanSearchError):
        lambda_number(P(7))


def test_delta_lower_bound():
    # span >= max_degree + 1: tight on the path, loose on the clique
    assert P(4).max_degree() + 1 == lambda_number(P(4)).lambda_value == 3
    assert K(4).max_degree() + 1 == 4 < lambda_number(K(4)).lambda_value
    assert Graph(3, frozenset()).max_degree() == 0


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_delta_bound_holds(g):
    if g.edges:
        assert lambda_number(g).lambda_value >= g.max_degree() + 1


# ---------------------------------------------------------------------------
# distance-two cliques
# ---------------------------------------------------------------------------

def _square_clique_start(g):
    """The start of the span loop off the diameter-two route."""
    d1 = g.adj_masks
    d2 = _second_neighbourhoods(d1)
    return max(_lower_bound(g.n, d1, _diameter_two(g.n, d1, d2)),
               _square_cliques(d1, d2)[0].bit_count() - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_square_clique_bound_lies_between_the_elementary_bound_and_the_span(n):
    # _min_span_masks searches upward from _lower_bound, so only a start
    # above it needs the search
    raised = 0
    for g in all_graphs(n):
        if g.edges:
            d1 = g.adj_masks
            d2 = _second_neighbourhoods(d1)
            start = _square_clique_start(g)
            lb = _lower_bound(n, d1, _diameter_two(n, d1, d2))
            assert start >= lb, g
            if start > lb:
                raised += 1
                assert start <= _min_span_masks(n, d1, d2), g
    # the first graphs the bound raises have six vertices (72 of them)
    assert raised or n < 6
    if n == 5:
        # nor does the clique bound hold Delta + 1: on this spider it is
        # one below the span, which the elementary bound reaches
        spider = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
        d1 = spider.adj_masks
        d2 = _second_neighbourhoods(d1)
        assert _square_cliques(d1, d2)[0].bit_count() - 1 == 3
        assert _square_clique_start(spider) == 4
        assert lambda_number(spider).lambda_value == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tight_clique_cut_keeps_every_completion(n):
    # at span omega(G^2) - 1 every maximum clique of the square is tight;
    # from every prefix the witness driver can fix, the cut search must
    # return what the plain one does.  The prefixes run down to every
    # completion with all vertices fixed, so none of them is cut either.
    for g in all_graphs(n):
        d1 = g.adj_masks
        d2 = _second_neighbourhoods(d1)
        cliques = _square_cliques(d1, d2)
        k = cliques[0].bit_count() - 1
        plan = _plan(d1, d2, _connected_order(d1, d2))
        cut = _cut_rows(plan, cliques)
        for v, dom in _fixed_prefixes(d1, d2, [(1 << k + 1) - 1] * n, 0):
            assert _search_masks(plan, dom, cut) == _search_masks(plan, dom), \
                (g, dom)


# Bench instance sparse-157 (G(19, d/(n-1)) of the sparse workload, seed 1):
# elementary bound 9, omega(G^2) - 1 = span = 12.
SPARSE_157_EDGES = [
    (0, 2), (0, 5), (0, 10), (1, 6), (1, 7), (1, 13), (1, 15), (1, 18),
    (2, 5), (2, 9), (2, 16), (2, 17), (2, 18), (3, 7), (3, 11), (3, 12),
    (3, 13), (3, 15), (3, 16), (3, 18), (4, 5), (4, 8), (4, 13), (4, 15),
    (4, 17), (5, 12), (6, 7), (6, 8), (6, 10), (6, 11), (6, 12), (6, 13),
    (6, 14), (7, 12), (7, 13), (8, 10), (8, 11), (8, 15), (8, 16), (9, 10),
    (9, 15), (9, 17), (10, 14), (10, 17), (10, 18), (11, 18), (12, 14),
    (12, 17), (13, 14), (13, 18),
]


# Bench instances sparse-314 (G(19, d/(n-1)), sparse seed 1: elementary bound
# 8, omega(G^2) - 1 = 11, span 12) and sparse-134 (G(20, d/(n-1)), seed 9:
# elementary bound 12 = span, omega(G^2) - 1 = 11), the slowest of the sparse
# tail, each with its span and lex-least witness as the solver found them when
# it searched in descending degree order.
SPARSE_314_EDGES = [
    (0, 2), (0, 4), (0, 5), (0, 6), (0, 15), (0, 16), (0, 17), (1, 2), (1, 4),
    (1, 9), (1, 14), (2, 4), (2, 5), (2, 6), (2, 13), (2, 14), (3, 7), (3, 8),
    (3, 15), (3, 16), (3, 17), (4, 10), (4, 11), (4, 16), (5, 9), (5, 12),
    (5, 13), (5, 16), (5, 17), (6, 11), (6, 14), (6, 17), (6, 18), (7, 13),
    (7, 18), (8, 9), (8, 11), (8, 15), (8, 17), (9, 10), (9, 12), (9, 15),
    (9, 18), (10, 13), (10, 16), (10, 18), (11, 13), (11, 14), (14, 17),
    (15, 16),
]
SPARSE_134_EDGES = [
    (0, 2), (0, 11), (0, 13), (1, 8), (1, 14), (1, 16), (1, 17), (1, 18),
    (2, 4), (2, 9), (3, 5), (3, 6), (3, 12), (4, 5), (4, 8), (4, 9), (4, 10),
    (4, 11), (4, 12), (4, 15), (4, 16), (4, 18), (4, 19), (5, 8), (5, 10),
    (5, 13), (5, 15), (6, 7), (6, 16), (6, 17), (7, 9), (7, 14), (7, 18),
    (8, 9), (8, 11), (8, 14), (8, 18), (9, 10), (9, 17), (10, 16), (11, 13),
    (11, 18), (12, 13), (12, 15), (12, 18), (13, 15), (13, 16), (14, 15),
    (16, 17), (16, 19),
]


@pytest.mark.parametrize("n,edges,want", [
    (19, SPARSE_314_EDGES,
     (12, (0, 1, 3, 1, 6, 5, 7, 6, 3, 11, 2, 10, 7, 8, 12, 8, 12, 9, 4))),
    (20, SPARSE_134_EDGES,
     (12, (0, 2, 2, 0, 12, 3, 4, 11, 10, 5, 1, 4, 6, 11, 0, 9, 7, 9, 8, 0))),
], ids=["sparse-314", "sparse-134"])
def test_witnesses_of_the_sparse_tail(n, edges, want):
    rep = lambda_number(Graph.from_edges(n, edges))
    assert (rep.lambda_value, rep.witness.labels) == want


@pytest.mark.parametrize("edges,spans,probes", [
    (SPARSE_157_EDGES, 1, 15),  # span omega(G^2) - 1: every search is cut
    (SPARSE_314_EDGES, 2, 8),  # cut at span 11 only, span 12 uncut
], ids=["sparse-157", "sparse-314"])
def test_one_plan_per_solve_and_no_cut_rows_per_probe(
        monkeypatch, edges, spans, probes):
    # work counters: one order and one set of forward-checking lists per
    # graph, cut rows only for the span with tight cliques, and every witness
    # probe a search over both, counted as the searches past the span loop's
    counts = Counter()
    for name in ("_connected_order", "_plan", "_cut_rows", "_search_masks"):
        def counted(*args, _real=getattr(solver_module, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, counted)
    assert lambda_number(Graph.from_edges(19, edges)).lambda_value == 12
    assert counts["_connected_order"] == counts["_plan"] == 1
    assert counts["_cut_rows"] == 1
    assert counts["_search_masks"] - spans == probes > 0


def _square_clique_graphs():
    """sparse-157, then seeded sparse graphs on 16 to 20 vertices whose
    distance-two clique bound beats the elementary bounds."""
    yield Graph.from_edges(19, SPARSE_157_EDGES)
    rng = random.Random("square-clique:16-20")
    found = 0
    while found < 7:
        n = rng.randint(16, 20)
        g = _gnp(n, rng.uniform(1.5, 4.5) / (n - 1), rng)
        d1 = g.adj_masks
        if _square_clique_start(g) > _lower_bound(
                n, d1, _diameter_two(n, d1, _second_neighbourhoods(d1))):
            found += 1
            yield g


# Spans and lex-least witnesses of _square_clique_graphs(), in order, as the
# solver found them before it had the distance-two clique bound and cut
# (about 40 s for all eight, 30 s of it on sparse-157).
SQUARE_CLIQUE_WITNESSES = [
    (12, (0, 1, 3, 0, 4, 6, 9, 3, 2, 11, 5, 6, 12, 11, 7, 7, 10, 1, 8)),
    (10, (0, 1, 3, 2, 2, 4, 6, 7, 5, 0, 1, 8, 10, 8, 0, 9, 3, 5)),
    (10, (0, 0, 1, 10, 10, 9, 4, 6, 4, 7, 3, 7, 5, 2, 6, 8, 5, 0)),
    (13, (0, 1, 3, 5, 8, 9, 6, 4, 6, 11, 2, 12, 2, 7, 13, 10)),
    (11, (0, 5, 2, 9, 1, 0, 6, 8, 10, 2, 8, 4, 3, 10, 7, 5, 1, 11, 6)),
    (7, (3, 1, 0, 4, 7, 7, 4, 5, 2, 2, 0, 5, 1, 7, 6, 7, 0)),
    (7, (0, 2, 4, 5, 2, 0, 3, 6, 1, 4, 6, 7, 0, 3, 7, 7, 0, 0, 1, 5)),
    (9, (0, 5, 2, 4, 3, 7, 9, 0, 7, 5, 2, 9, 3, 6, 8, 6, 0, 2, 1)),
]


def test_witnesses_of_sparse_graphs_at_the_square_clique_bound():
    found = list(_square_clique_graphs())
    got = [(rep.lambda_value, rep.witness.labels)
           for rep in map(lambda_number, found)]
    assert got == SQUARE_CLIQUE_WITNESSES
    assert [span for span, _ in got] == list(map(_square_clique_start, found))


def test_census_runs_without_the_square_cliques(monkeypatch):
    # the census's spans stay independent of the distance-two clique bound,
    # and its search pays nothing for it
    def refuse(d1, d2):
        raise AssertionError("square cliques searched")

    monkeypatch.setattr(solver_module, "_square_cliques", refuse)
    assert _far_pairs(P(7)) > FAR_PAIR_LIMIT  # so the DFS decides it
    with pytest.raises(AssertionError, match="square cliques"):
        lambda_number(P(7))
    # a fresh cache, so the census runs; monkeypatch restores the old one
    monkeypatch.setattr(extremal_module, "_CENSUS_CACHE", {})
    assert extremal_module.brute_force_graph_census(4) == {
        0: 0, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}


# ---------------------------------------------------------------------------
# the path-cover route
# ---------------------------------------------------------------------------

def test_path_cover_route_checks_the_cap_before_the_complement(monkeypatch):
    def refuse(adj):
        raise AssertionError("complement built before the cap check")

    monkeypatch.setattr(graphs_module, "_complement_masks", refuse)
    # the route does complement through the patched function: C5 has
    # diameter two and is under the cap
    with pytest.raises(AssertionError, match="complement built"):
        lambda_via_path_cover(C(5))
    with pytest.raises(CapExceededError):
        lambda_via_path_cover(Graph(25, frozenset()))


def _diameter_two_graphs_to_the_cap():
    """The first five diameter-two draws for each n in 21..24, in order.

    One ``random.Random(11)`` serves every draw: ``p`` from 0.6..0.9, then
    each pair ``u < v`` in row order kept when ``rng.random() < p``.
    """
    rng = random.Random(11)
    for n in range(21, 25):
        kept = 0
        while kept < 5:
            p = rng.choice([0.6, 0.7, 0.8, 0.9])
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                     if rng.random() < p])
            if _diameter_two(n, g.adj_masks,
                             _second_neighbourhoods(g.adj_masks)):
                kept += 1
                yield g


def _assert_solved_by_the_path_cover(g):
    rep = lambda_number(g)
    assert is_valid_by_distances(g, rep.witness.labels), g
    pc = len(g.complement_path_cover)
    assert rep.lambda_value == g.n + pc - 2 == lambda_via_path_cover(g).value
    return rep.lambda_value


def test_diameter_two_above_twenty_vertices_runs_no_dfs(monkeypatch):
    # the first draw (n 21, p 0.9): the DFS thrashes near span n on it
    def refuse(*args):
        raise AssertionError("DFS run")

    monkeypatch.setattr(solver_module, "_search_masks", refuse)
    g = next(_diameter_two_graphs_to_the_cap())
    assert g.n == 21
    assert _assert_solved_by_the_path_cover(g) == 26


def test_path_cover_route_at_the_cap():
    # 24 vertices; the complement is a Hamilton path
    bound = lambda_via_path_cover(path_complement(23))
    assert (bound.path_cover, bound.exact, bound.value) == (1, False, 23)


@pytest.mark.slow
def test_every_diameter_two_graph_to_the_cap_solves_in_seconds():
    # at most 6.4 s each on 2 cores, most of it the 2^n path-cover DP
    for g in _diameter_two_graphs_to_the_cap():
        start = time.perf_counter()
        _assert_solved_by_the_path_cover(g)
        assert time.perf_counter() - start < 15, g


def _dense_graphs_with_a_pendant_vertex():
    """Four draws for each n in 16, 18, .., 24, dense but not diameter two.

    One ``random.Random(5)`` serves every draw: ``p`` from 0.7..0.9, then
    G(n - 1, p), each pair ``u < v < n - 1`` in row order kept when
    ``rng.random() < p``, plus the edge ``(0, n - 1)``.  They have 0 to 9
    far pairs.
    """
    rng = random.Random(5)
    for n in range(16, 25, 2):
        for _ in range(4):
            p = rng.choice([0.7, 0.8, 0.9])
            edges = [e for e in combinations(range(n - 1), 2)
                     if rng.random() < p]
            yield Graph.from_edges(n, edges + [(0, n - 1)])


def _assert_routed_like_the_dfs(monkeypatch, g, pinned=None):
    """The span of ``_min_span_masks`` and the reference's first colouring
    at it, or the ``pinned`` pair of both, with no DFS when ``g`` has at
    most ``FAR_PAIR_LIMIT`` far pairs."""
    if pinned is None:
        d1 = g.adj_masks
        k = _min_span_masks(g.n, d1, _second_neighbourhoods(d1))
        pinned = (k, reference_lex_witness(g, k))

    def refuse(*args):
        raise AssertionError("DFS run")

    with monkeypatch.context() as patched:
        if _far_pairs(g) <= FAR_PAIR_LIMIT:
            patched.setattr(solver_module, "_search_masks", refuse)
        rep = lambda_number(g)
    assert (rep.lambda_value, rep.witness.labels) == pinned, g


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_partition_route_on_every_small_graph(monkeypatch, n):
    for g in all_graphs(n):
        if g.edges:
            _assert_routed_like_the_dfs(monkeypatch, g)


def test_partition_route_on_random_graphs_with_few_far_pairs(monkeypatch):
    # seeded G(n, p), n 7..10, with 1 to FAR_PAIR_LIMIT far pairs, each
    # count drawn
    rng = random.Random("far-pairs:7-10")
    seen = Counter()
    while len(seen) < FAR_PAIR_LIMIT or sum(seen.values()) < 60:
        g = _gnp(rng.randint(7, 10), rng.uniform(0.3, 0.9), rng)
        far = _far_pairs(g)
        if g.edges and 1 <= far <= FAR_PAIR_LIMIT:
            seen[far] += 1
            _assert_routed_like_the_dfs(monkeypatch, g)


def test_dense_graph_with_a_pendant_vertex_runs_no_dfs(monkeypatch):
    # the second draw (n 16, p 0.8, 3 far pairs): the DFS took about a
    # minute on it, and this span and witness are the ones it found
    g = list(_dense_graphs_with_a_pendant_vertex())[1]
    assert (g.n, _far_pairs(g)) == (16, 3)
    want = (1, 3, 6, 4, 9, 11, 8, 2, 14, 16, 0, 12, 18, 7, 10, 5)
    _assert_routed_like_the_dfs(monkeypatch, g, (18, want))


@pytest.mark.slow
def test_dense_graphs_with_a_pendant_vertex_solve_in_seconds():
    for g in _dense_graphs_with_a_pendant_vertex():
        if g.n <= 20:
            start = time.perf_counter()
            rep = lambda_number(g)
            assert time.perf_counter() - start < 15, g
            assert is_valid_by_distances(g, rep.witness.labels), g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_path_cover_route_agrees_with_solver(n):
    for g in all_graphs(n):
        if not g.edges and g.n == 0:
            continue
        bound = lambda_via_path_cover(g)
        lam = lambda_number(g).lambda_value if g.edges else 0
        if g.edges:
            # the solver starts from the theorem at diameter two; the
            # theorem-free search must land on the same span
            d1 = g.adj_masks
            assert lam == _min_span_masks(n, d1, _second_neighbourhoods(d1)), g
        if bound.exact:
            assert bound.path_cover >= 2
            assert lam == bound.value == g.n + bound.path_cover - 2
        else:
            assert bound.path_cover == 1
            assert lam <= bound.value == g.n - 1


# ---------------------------------------------------------------------------
# colouring files
# ---------------------------------------------------------------------------

def test_parse_colouring_roundtrip():
    c = Colouring((0, 2, 4))
    assert parse_colouring(format_colouring(c), 3) == c
    assert parse_colouring("# note\nc 2 4\nc 0 0\n\nc 1 2\n", 3) == c


def test_parse_colouring_errors():
    with pytest.raises(MalformedLineError):
        parse_colouring("c 0\n", 1)
    with pytest.raises(MalformedLineError):
        parse_colouring("v 0 0\n", 1)
    with pytest.raises(MalformedLineError):
        parse_colouring("c 0 x\n", 1)
    with pytest.raises(MalformedLineError):
        parse_colouring("c 0 -1\n", 1)
    with pytest.raises(VertexRangeError):
        parse_colouring("c 5 0\n", 3)
    with pytest.raises(DuplicateVertexError):
        parse_colouring("c 0 0\nc 0 1\n", 1)
    with pytest.raises(MissingVertexError):
        parse_colouring("c 0 0\n", 2)
    with pytest.raises(NotNormalisedError):
        parse_colouring("c 0 1\nc 1 3\n", 2)
