"""Graph container, files, distances, path covers."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lambdacol import (
    CapExceededError,
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
import lambdacol.graphs as graphs_module
from lambdacol.graphs import (
    _bits,
    _complement_masks,
    _components,
    _greedy_path_count,
    _path_cover_bound,
    _path_cover_masks,
    _path_cover_number,
    _paths_needed,
)
from lambdacol.solver import _square_masks
from oracles import (
    all_graphs,
    brute_path_cover,
    floyd_warshall,
    partition_path_cover,
)


def graphs(max_n=6):
    """Hypothesis strategy: a random labelled graph."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda picks: Graph(
                n,
                frozenset(
                    (u, v)
                    for i, (u, v) in enumerate(
                        (a, b) for a in range(n) for b in range(a + 1, n)
                    )
                    if picks >> i & 1
                ),
            ),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        )
    )


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

def test_graph_validates_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(-1, frozenset())


@pytest.mark.parametrize("n,edges", [
    (3, {(0.0, 1)}),  # accepted, then lambda_number indexed a list by it
    (2.0, set()),
    (3, {("0", "1")}),  # compared with 0 and raised TypeError
])
def test_graph_refuses_non_integer_input(n, edges):
    with pytest.raises(ValueError, match="integer"):
        Graph(n, frozenset(edges))


def test_from_edges_normalises_orientation():
    g = Graph.from_edges(3, [(2, 0), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    # the factory normalises; the same edge twice collapses silently
    assert Graph.from_edges(3, [(0, 1), (1, 0)]).m == 1


def test_adjacency_and_degrees():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert g.adj_masks[1].bit_count() == 3 and g.adj_masks[0].bit_count() == 1
    assert g.max_degree() == 3
    assert g.adj_masks[1] == 0b1101


@given(graphs())
def test_complement_is_an_involution(g):
    assert g.complement().complement() == g


@given(graphs())
def test_complement_edge_count(g):
    assert g.m + g.complement().m == g.n * (g.n - 1) // 2


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

@given(graphs())
def test_distances_match_floyd_warshall(g):
    # the neighbour, square and far masks of u hold the vertices at
    # distance 1, at distance 1 or 2 and at distance 3 or more from u
    ref = floyd_warshall(g)
    d1 = g.adj_masks
    sq = _square_masks(d1)
    far = _complement_masks(sq)
    for u in range(g.n):
        dist = [min(d, 3) for d in ref[u]]
        for want, mask in [({1}, d1[u]), ({1, 2}, sq[u]), ({3}, far[u])]:
            assert list(_bits(mask)) == [v for v in range(g.n)
                                         if dist[v] in want]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_is_connected_agrees_with_distances(n):
    # the components partition the vertices into classes of finite distance
    for g in all_graphs(n):
        ref = floyd_warshall(g)
        comps = list(_components(g.adj_masks))
        assert sum(comps) == (1 << n) - 1, g
        for c in comps:
            u = (c & -c).bit_length() - 1
            assert c == sum(1 << v for v in range(n) if ref[u][v] < math.inf), g


# ---------------------------------------------------------------------------
# path covers
# ---------------------------------------------------------------------------

def test_path_cover_known_values():
    assert path_cover_number(Graph(3, frozenset())) == 3
    assert path_cover_number(Graph.from_edges(3, [(0, 1), (1, 2)])) == 1
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert path_cover_number(k3) == 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert path_cover_number(star) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_path_cover_matches_brute_force_exhaustively(n):
    for g in all_graphs(n):
        assert path_cover_number(g) == brute_path_cover(g)


@pytest.mark.slow
def test_path_cover_matches_brute_force_on_every_graph_of_order_six():
    for g in all_graphs(6):
        assert path_cover_number(g) == brute_path_cover(g), g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_greedy_path_cover_is_an_upper_bound(n):
    for g in all_graphs(n):
        assert brute_path_cover(g) <= _greedy_path_count(g.adj_masks) <= n, g


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5,
                               pytest.param(6, marks=pytest.mark.slow)])
def test_complement_path_cover_is_a_minimum_cover(n):
    # the DP's count and the cached count (greedy or DP), against
    # permutations; the end-slot bound and the bound that accepts greedy
    # covers below the cover number of the complement and of the graph
    # itself
    for g in all_graphs(n):
        comp = g.complement()
        pc = brute_path_cover(comp)
        assert _path_cover_masks(comp.adj_masks, n + 1) == pc, g
        # none with fewer than pc paths
        assert not pc or _path_cover_masks(comp.adj_masks, pc) is None, g
        assert g.complement_path_cover_number == pc, g
        assert not n or _paths_needed(comp.adj_masks, (1 << n) - 1) <= pc, g
        assert _path_cover_bound(comp.adj_masks) <= pc, g
        assert _path_cover_bound(g.adj_masks) <= brute_path_cover(g), g


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5,
                               pytest.param(6, marks=pytest.mark.slow)])
def test_path_cover_number_answers_only_below_its_limit(n):
    for g in all_graphs(n):
        pc = brute_path_cover(g)
        for below in range(1, n + 2):
            want = pc if pc < below else None
            assert _path_cover_number(g.adj_masks, below) == want, (g, below)


def test_path_cover_number_stops_at_the_bound(monkeypatch):
    # K_{9,11}: each path holds at most one more vertex of the larger side
    # than of the smaller, so the bound is 2; at a limit it reaches, neither
    # the greedy walk nor the DP runs
    def refuse(*args):
        raise AssertionError("cover searched past the bound")

    monkeypatch.setattr(graphs_module, "_greedy_path_count", refuse)
    monkeypatch.setattr(graphs_module, "_path_cover_masks", refuse)
    g = Graph.from_edges(20, [(u, v) for u in range(9) for v in range(9, 20)])
    assert _path_cover_bound(g.adj_masks) == 2
    for below in (0, 1, 2):
        assert _path_cover_number(g.adj_masks, below) is None
    with pytest.raises(AssertionError, match="past the bound"):
        _path_cover_number(g.adj_masks, 3)


def test_path_cover_dp_matches_the_partition_oracle_on_larger_graphs():
    # the subset-family DP beyond the orders the permutation oracle reaches
    rng = random.Random(2019)
    for _ in range(30):
        n = rng.randint(7, 11)
        p = rng.uniform(0.1, 0.5)
        g = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        assert _path_cover_masks(g.adj_masks, n + 1) == \
            partition_path_cover(g), g


def test_path_cover_dp_builds_each_level_once(monkeypatch):
    # G(16, 0.225) from random.Random(5), pairs u < v in row order: greedy
    # takes 2 paths and the graph has a Hamilton path, so the DP runs once,
    # asked only for covers below 2, and its loop builds at most
    # ``below - 1`` levels: exactly its first
    rng = random.Random(5)
    g = Graph.from_edges(16, [(u, v) for u in range(16)
                              for v in range(u + 1, 16)
                              if rng.random() < 0.225])
    assert _greedy_path_count(g.adj_masks) == 2
    calls = []
    dp = graphs_module._path_cover_masks

    def counted(adj, below):
        calls.append((below, dp(adj, below)))
        return calls[-1][1]

    monkeypatch.setattr(graphs_module, "_path_cover_masks", counted)
    assert path_cover_number(g) == 1
    assert calls == [(2, 1)]


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_path_cover_matches_brute_force_random(g):
    assert path_cover_number(g) == brute_path_cover(g)


def test_path_cover_cap():
    with pytest.raises(CapExceededError):
        path_cover_number(Graph(25, frozenset()))


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_parse_format_roundtrip():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 3)])
    text = format_graph(g)
    assert text == "p 4 3\ne 0 2\ne 0 3\ne 1 3\n"
    assert parse_graph(text) == g


def test_parse_accepts_comments_and_blanks():
    text = "# a graph\n\np 3 1\n  # mid comment\ne 0 2\n\n"
    assert parse_graph(text) == Graph.from_edges(3, [(0, 2)])


def test_parse_two_field_header_infers_edge_count():
    assert parse_graph("p 4\ne 0 2\ne 0 3\ne 1 3\n") == parse_graph(
        "p 4 3\ne 0 2\ne 0 3\ne 1 3\n"
    )
    assert parse_graph("p 1\n") == Graph(1, frozenset())


def test_parse_error_classes():
    with pytest.raises(MissingHeaderError):
        parse_graph("")
    with pytest.raises(MissingHeaderError):
        parse_graph("e 0 1\n")
    with pytest.raises(MissingHeaderError):
        parse_graph("p x 1\ne 0 1\n")
    with pytest.raises(MissingHeaderError):
        parse_graph("p -2 0\n")
    with pytest.raises(MalformedLineError):
        parse_graph("p 3 2\ne 0 1\n")  # promised 2, found 1
    with pytest.raises(MalformedLineError):
        parse_graph("p 3 1\nedge 0 1\n")
    with pytest.raises(MalformedLineError):
        parse_graph("p 3 1\ne 1 0\n")  # wrong orientation
    with pytest.raises(MalformedLineError, match="endpoints must be integers"):
        parse_graph("p 3 1\ne 0 x\n")
    with pytest.raises(SelfLoopError):
        parse_graph("p 3 1\ne 1 1\n")
    with pytest.raises(EndpointRangeError):
        parse_graph("p 3 1\ne 0 3\n")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("p 3 2\ne 0 1\ne 0 1\n")
    # every specific error is also a GraphParseError
    for bad in ["", "p 3 2\ne 0 1\n", "p 3 1\ne 1 1\n"]:
        with pytest.raises(GraphParseError):
            parse_graph(bad)


@given(graphs())
def test_format_parse_is_identity(g):
    assert parse_graph(format_graph(g)) == g
