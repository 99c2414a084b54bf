"""Rank-aligned standardisation, label-class partitions, layered matchings."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from lambdacol import (
    CONSTRUCTION_CAP,
    CapExceededError,
    ColouredPartition,
    Colouring,
    FamilyAssignment,
    Graph,
    PartitionShape,
    StandardisedGraph,
    build_stationary,
    dual_shape,
    edge_bound,
    edge_standardise,
    family_member,
    is_family_member,
    is_lambda_colouring,
    is_stationary,
    is_valid_shape,
    lambda_number,
    partition_of,
    shape_of,
)
from lambdacol import standardise
from oracles import is_layered_matching, is_stationary_shape, layered_matching
from test_graphs import graphs
from test_shapes import small_valid_shapes


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_of_groups_by_label():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    c = Colouring((2, 0, 3))
    p = partition_of(g, c)
    assert p.t == 3
    assert p.classes == (
        frozenset({1}), frozenset(), frozenset({0}), frozenset({2}),
    )
    assert shape_of(p) == PartitionShape((1, 0, 1, 1))


def test_partition_of_rejects_invalid_colourings():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        partition_of(g, Colouring((0, 1)))


def test_partition_of_refuses_classes_above_the_cap():
    # two labels, but span + 1 classes: refused before one is built
    g = Graph(2, frozenset())
    with pytest.raises(CapExceededError, match="colour classes"):
        partition_of(g, Colouring((0, CONSTRUCTION_CAP)))


def test_coloured_partition_validation():
    with pytest.raises(ValueError, match="span must be non-negative"):
        ColouredPartition(-1, ())
    with pytest.raises(ValueError):
        ColouredPartition(1, (frozenset({0}),))  # wrong class count
    with pytest.raises(ValueError):
        ColouredPartition(
            1, (frozenset({0, 1}), frozenset({1}))
        )  # overlap


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_reversal_reverses_the_classes_and_the_shape():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    c = Colouring((0, 2, 4, 0))
    rev = Colouring(tuple(c.span - x for x in c.labels))
    assert rev == Colouring((4, 2, 0, 4))
    cp, rp = partition_of(g, c), partition_of(g, rev)
    assert rp.classes == cp.classes[::-1]
    assert shape_of(rp) == dual_shape(shape_of(cp))
    assert shape_of(rp) == PartitionShape((1, 0, 1, 0, 2))


@given(graphs(max_n=6))
@settings(max_examples=50, deadline=None)
def test_dual_colouring_stays_valid(g):
    if not g.edges:
        return
    # lambda_number's witness search tries vertex 0 only up to half the
    # span, relying on this reversal
    c = lambda_number(g).witness
    rev = Colouring(tuple(c.span - x for x in c.labels))
    assert is_lambda_colouring(g, rev)


# ---------------------------------------------------------------------------
# the standardised graph
# ---------------------------------------------------------------------------

def test_standardised_vertex_numbering():
    sg = StandardisedGraph(PartitionShape((2, 1, 2, 1)))
    assert sg.vertex(0, 0) == 0
    assert sg.vertex(0, 1) == 1
    assert sg.vertex(2, 1) == 4
    assert sg.vertex(3, 0) == 5
    with pytest.raises(IndexError):
        sg.vertex(1, 1)
    # classes outside 0..t: at the parent, vertex(-1, 0) read class 3 and
    # returned 6, past the last vertex
    for m, i in [(-1, 0), (-1, 1), (4, 0), (-5, 0)]:
        with pytest.raises(IndexError):
            sg.vertex(m, i)
    assert sg.class_labels == (0, 0, 1, 2, 2, 3)


def test_standardised_graph_realises_the_edge_bound():
    sg = StandardisedGraph(PartitionShape((3, 2, 1, 3)))
    g = sg.graph()
    assert g.n == 9
    assert g.m == edge_bound(sg.shape) == 6


def test_standardised_graph_aligns_equal_ranks():
    # classes of 2, 1, 3 and 2 vertices from 0, 2, 3 and 6: the pairs
    # (0, 2), (0, 3) and (1, 3) each join equal ranks
    sg = StandardisedGraph(PartitionShape((2, 1, 3, 2)))
    assert sg.graph().edges == {(0, 3), (1, 4), (0, 6), (1, 7), (2, 6)}


@given(small_valid_shapes())
@settings(max_examples=150, deadline=None)
def test_standardised_graph_properties(s):
    sg = StandardisedGraph(s)
    g = sg.graph()
    assert g.m == edge_bound(s)
    assert (g, sg.class_labels) == layered_matching(s.sizes)
    part = sg.partition()
    assert shape_of(part) == s
    c = Colouring(sg.class_labels)
    assert is_lambda_colouring(g, c)
    assert c.span == s.t


@pytest.mark.parametrize("sizes", [(2, 1, 2), (3,)])
def test_standardised_graph_needs_four_classes(sizes):
    with pytest.raises(ValueError):
        StandardisedGraph(PartitionShape(sizes))


def test_standardised_graph_refuses_class_pairs_above_the_cap():
    # span t has t(t-1)/2 noncontiguous class pairs; t is the largest span
    # within the cap
    t = 3
    while (t + 1) * t // 2 <= CONSTRUCTION_CAP:
        t += 1
    StandardisedGraph(PartitionShape((1,) + (0,) * (t - 1) + (1,)))
    with pytest.raises(CapExceededError, match="class pairs"):
        StandardisedGraph(PartitionShape((1,) + (0,) * t + (1,)))


def test_standardised_graph_refuses_vertices_plus_edges_above_the_cap(
        monkeypatch):
    # four classes, so few class pairs, but k + 1 edges on 2k + 1 vertices
    # for (k, 0, 1, k): the largest k within the cap, then one vertex and
    # one edge more, refused before anything is built
    def refuse(*args):
        raise AssertionError("graph built")

    monkeypatch.setattr(standardise, "Graph", refuse)
    k = (CONSTRUCTION_CAP - 2) // 3
    StandardisedGraph(PartitionShape((k, 0, 1, k)))
    for sizes in [(k, 0, 2, k), (200_000, 1, 1, 200_000)]:
        with pytest.raises(CapExceededError, match="vertices plus edges"):
            build_stationary(PartitionShape(sizes))


# ---------------------------------------------------------------------------
# standardising a coloured graph
# ---------------------------------------------------------------------------

def test_edge_standardise_worked_example():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    c = Colouring((2, 0, 3))
    sg, corr = edge_standardise(g, c)
    assert sg.shape == PartitionShape((1, 0, 1, 1))
    assert corr == (1, 0, 2)
    assert sg.graph().edges == frozenset({(0, 1), (0, 2)})


@given(graphs(max_n=6))
@settings(max_examples=80, deadline=None)
def test_edge_standardise_never_loses_edges(g):
    if not g.edges:
        return
    rep = lambda_number(g)
    if rep.lambda_value < 3:
        return
    c = rep.witness
    sg, corr = edge_standardise(g, c)
    assert edge_bound(sg.shape) >= g.m
    # corr maps each vertex into its own class block, bijectively
    assert sorted(corr) == list(range(g.n))
    for v in range(g.n):
        assert sg.class_labels[corr[v]] == c[v]
    # the standardised graph achieves the same span
    out = sg.graph()
    assert lambda_number(out).lambda_value == rep.lambda_value


def test_edge_standardise_rejects_narrow_or_invalid():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError,
                       match="^standardised graphs need span >= 3, got 2$"):
        edge_standardise(g, Colouring((0, 2)))
    g3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        edge_standardise(g3, Colouring((0, 0, 3)))  # invalid colouring


# ---------------------------------------------------------------------------
# the layered-matching builder and checker, against the oracle
# ---------------------------------------------------------------------------

def _random_injections(rng, sizes):
    out = {}
    for m in range(len(sizes)):
        for p in range(m + 2, len(sizes)):
            lo, hi = sorted((sizes[m], sizes[p]))
            if rng.random() < 0.7:
                out[m, p] = tuple(rng.sample(range(hi), lo))
    return out


def _tampered(rng, g):
    """``g`` with one vertex pair toggled, or one edge's end moved."""
    edges = set(g.edges)
    if edges and rng.random() < 0.5:
        u, v = rng.choice(sorted(edges))
        edges.remove((u, v))
        v = rng.choice([w for w in range(g.n) if w != u])
    else:
        u, v = rng.sample(range(g.n), 2)
    edges ^= {(min(u, v), max(u, v))}
    return Graph(g.n, frozenset(edges))


def test_family_membership_agrees_with_the_oracle():
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        t, l = rng.randint(3, 5), rng.randint(1, 3)
        relabel = list(range((t + 1) * l))
        rng.shuffle(relabel)
        g, class_of = layered_matching((l,) * (t + 1),
                                       _random_injections(rng, (l,) * (t + 1)))
        fa = FamilyAssignment(t, l, class_of)
        # the same member with shuffled vertex ids
        g = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges])
        class_of = [0] * g.n
        for v, m in enumerate(fa.class_of):
            class_of[relabel[v]] = m
        fa = FamilyAssignment(t, l, tuple(class_of))
        if rng.random() < 0.2:
            g = Graph.from_edges(g.n, [
                e for e in combinations(range(g.n), 2) if rng.random() < 0.3
            ])
        elif rng.random() < 0.7:
            g = _tampered(rng, g)
        want = is_layered_matching(g, fa.class_of)
        assert is_family_member(g, fa) == want, (g, fa)
        seen.add(want)
    assert seen == {False, True}


def test_stationary_edge_condition_agrees_with_the_oracle():
    rng = random.Random(12)
    seen = set()
    for _ in range(400):
        t = rng.randint(3, 5)
        shape = PartitionShape(tuple(rng.randint(0, 3) for _ in range(t + 1)))
        if not is_valid_shape(shape):
            continue
        shape_ok = is_stationary_shape(shape.sizes)
        aligned, part = build_stationary(shape)
        assert is_stationary(aligned, part)[0] == shape_ok, shape
        g, class_of = layered_matching(shape.sizes,
                                       _random_injections(rng, shape.sizes))
        assert is_layered_matching(g, class_of)
        if rng.random() < 0.7:
            g = _tampered(rng, g)
        want = is_layered_matching(g, class_of)
        assert is_stationary(g, part)[0] == (want and shape_ok), (g, part)
        if shape_ok:
            seen.add(want)
    assert seen == {False, True}


def test_family_member_is_the_stationary_build_of_the_equal_shape():
    for t in range(3, 7):
        for l in range(1, 5):
            g, fa = family_member(t, l)
            h, part = build_stationary(PartitionShape((l,) * (t + 1)))
            assert g == h
            assert fa.class_of == tuple(
                m for m, cl in enumerate(part.classes) for _ in cl
            )
