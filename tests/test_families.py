"""Canonical constructions and the universal embedding."""

import pytest
from hypothesis import given, settings, strategies as st

from lambdacol import (
    Colouring,
    EmbeddingConsistencyError,
    FamilyAssignment,
    Graph,
    embed_universal,
    family_member,
    is_family_member,
    is_lambda_colouring,
    lambda_number,
    path_complement,
)
from lambdacol import families
from oracles import all_graphs, floyd_warshall, layered_matching
from test_graphs import graphs


# ---------------------------------------------------------------------------
# the path complement
# ---------------------------------------------------------------------------

def test_path_complement_base_case():
    g = path_complement(3)
    assert g.n == 4
    assert g.edges == frozenset({(0, 2), (0, 3), (1, 3)})


@pytest.mark.parametrize("n", range(3, 11))
def test_path_complement_is_complement_of_a_path(n):
    g = path_complement(n)
    path = Graph.from_edges(n + 1, [(i, i + 1) for i in range(n)])
    assert g == path.complement()
    assert g.m == (n + 1) * n // 2 - n


def test_path_complement_rejects_small_n():
    with pytest.raises(ValueError, match="^need t >= 3, got 2$"):
        path_complement(2)


@pytest.mark.parametrize("n", range(4, 9))
def test_path_complement_has_diameter_two(n):
    d = floyd_warshall(path_complement(n))
    assert all(
        d[u][v] in (1, 2)
        for u in range(n + 1) for v in range(u + 1, n + 1)
    )


def test_path_complement_three_has_one_far_pair():
    d = floyd_warshall(path_complement(3))
    far = [
        (u, v)
        for u in range(4) for v in range(u + 1, 4)
        if d[u][v] not in (1, 2)
    ]
    assert far == [(1, 2)]


# ---------------------------------------------------------------------------
# the layered family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [3, 4, 5])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_family_member_counts_and_membership(t, l):
    g, fa = family_member(t, l)
    assert g.n == (t + 1) * l
    assert g.m == t * (t - 1) // 2 * l
    assert is_family_member(g, fa)
    c = Colouring(fa.class_of)
    assert is_lambda_colouring(g, c)
    assert c.span == t


@pytest.mark.parametrize("t,l", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
def test_family_member_span_is_t(t, l):
    g, _ = family_member(t, l)
    assert lambda_number(g).lambda_value == t


def test_family_member_custom_matchings():
    # a member other than the rank-aligned one, built by the oracle
    perm = {(0, 2): (1, 0), (1, 3): (1, 0)}
    g, class_of = layered_matching((2,) * 4, perm)
    fa = FamilyAssignment(3, 2, class_of)
    assert is_family_member(g, fa)
    assert (0, 5) in g.edges  # class 0 rank 0 -> class 2 rank 1
    aligned, aligned_fa = family_member(3, 2)
    assert g != aligned and fa == aligned_fa
    assert lambda_number(g).lambda_value == 3
    # sigma itself, not its inverse: 0 -> 1, 1 -> 2, 2 -> 0 into class 2
    g, _ = layered_matching((3,) * 4, {(0, 2): (1, 2, 0)})
    assert {(0, 7), (1, 8), (2, 6)} <= g.edges


def test_family_member_rejects_a_span_below_three(monkeypatch):
    # one message for every t < 3, before the size cap's arithmetic (which
    # read t = -2000 as -1999 vertices plus 2001000 edges) or any shape
    def refuse(*args):
        raise AssertionError("sized or built")

    for name in ("_check_member_size", "PartitionShape", "StandardisedGraph"):
        monkeypatch.setattr(families, name, refuse)
    for t in (2, 0, -5, -2000):
        with pytest.raises(ValueError, match=f"^need t >= 3, got {t}$"):
            family_member(t, 1)


@pytest.mark.parametrize("t", [3, 10**6])
def test_family_member_refuses_width_zero_before_building(monkeypatch, t):
    # a shape of t + 1 empty classes would be built before the assignment
    # refused the width: at t = 10**9 that tuple alone is about 8 GB
    def refuse(*args):
        raise AssertionError("shape built")

    monkeypatch.setattr(families, "PartitionShape", refuse)
    monkeypatch.setattr(families, "StandardisedGraph", refuse)
    with pytest.raises(ValueError, match="need l >= 1, got 0"):
        family_member(t, 0)


@pytest.mark.parametrize("t, l, message", [
    (3.0, 1, "need t >= 3, got 3.0"),
    ("3", 1, "need t >= 3, got '3'"),
    (None, 1, "need t >= 3, got None"),
    (3, 2.0, "need l >= 1, got 2.0"),
    (3, "2", "need l >= 1, got '2'"),
])
def test_constructions_refuse_a_non_int_span_or_width(monkeypatch, t, l,
                                                      message):
    # named in the message, before the size cap's arithmetic (which raised a
    # raw TypeError on these) or any shape
    def refuse(*args):
        raise AssertionError("sized or built")

    for name in ("_check_member_size", "PartitionShape", "StandardisedGraph"):
        monkeypatch.setattr(families, name, refuse)
    builds = [lambda: family_member(t, l)]
    if l == 1:
        builds.append(lambda: path_complement(t))
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_membership_detects_tampering():
    g, fa = family_member(3, 2)
    # an intra-class edge
    bad = Graph(g.n, g.edges | {(0, 1)})
    assert not is_family_member(bad, fa)
    # a consecutive-class edge (class 0 = {0,1}, class 1 = {2,3})
    bad = Graph(g.n, g.edges | {(0, 2)})
    assert not is_family_member(bad, fa)
    # a missing matching edge
    some = next(iter(g.edges))
    assert not is_family_member(Graph(g.n, g.edges - {some}), fa)


def test_membership_rejects_size_mismatch():
    g, fa = family_member(3, 1)
    with pytest.raises(ValueError):
        is_family_member(Graph(5, g.edges), fa)


def test_assignment_validation():
    with pytest.raises(ValueError, match="need t >= 3"):
        FamilyAssignment(2, 1, (0, 1, 2))
    with pytest.raises(ValueError, match="need l >= 1"):
        FamilyAssignment(3, 0, ())
    with pytest.raises(ValueError):
        FamilyAssignment(3, 1, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        FamilyAssignment(3, 1, (0, 1, 2, 4))  # class out of range
    with pytest.raises(ValueError):
        FamilyAssignment(3, 2, (0, 0, 0, 1, 1, 2, 2, 3))  # uneven classes


# ---------------------------------------------------------------------------
# the universal embedding
# ---------------------------------------------------------------------------

def test_embed_worked_example():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    c = Colouring((2, 0, 3))
    host, fa, injection = embed_universal(g, c)
    assert injection == (0, 1, 2)
    assert host.n == 4 and host.m == 3
    assert fa.class_of == (2, 0, 3, 1)
    assert host.edges == g.edges | {(2, 3)}
    assert is_family_member(host, fa)
    assert g.n <= host.n and g.edges <= host.edges


def _assert_good_embedding(g, c):
    host, fa, injection = embed_universal(g, c)
    assert is_family_member(host, fa)
    assert g.n <= host.n and g.edges <= host.edges
    # originals keep their ids, classes agree with labels
    assert injection == tuple(range(g.n))
    for v in range(g.n):
        assert fa.class_of[v] == c[v]
    # every original edge survives in the host
    assert g.edges <= host.edges


@pytest.mark.parametrize("n", [3, 4])
def test_embed_every_small_graph(n):
    for g in all_graphs(n):
        if not g.edges:
            continue
        rep = lambda_number(g)
        if rep.lambda_value < 3:
            continue
        _assert_good_embedding(g, rep.witness)


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_embed_random_graphs_with_optimal_witness(g):
    if not g.edges:
        return
    rep = lambda_number(g)
    if rep.lambda_value < 3:
        return
    _assert_good_embedding(g, rep.witness)


def test_embed_accepts_suboptimal_colourings():
    # P3 at span 4 (optimal is 3): embedding works for any valid colouring
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    c = Colouring((4, 0, 2))
    host, fa, _ = embed_universal(g, c)
    assert is_family_member(host, fa)
    assert host.n == 5
    assert g.n <= host.n and g.edges <= host.edges


@pytest.mark.parametrize("check", ["is_family_member"])
def test_embed_raises_when_an_identity_fails(monkeypatch, check):
    # typed errors, not asserts, so the checks survive python -O
    monkeypatch.setattr(families, check, lambda *args: False)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(EmbeddingConsistencyError):
        embed_universal(g, Colouring((2, 0, 3)))


def test_embed_rejects_invalid_or_narrow_colourings():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        embed_universal(g, Colouring((0, 0, 0)))  # invalid
    k2 = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        embed_universal(k2, Colouring((0, 2)))  # span 2 < 3


@given(graphs(max_n=5))
@settings(max_examples=40, deadline=None)
def test_delta_bound_on_all_enumerated(g):
    if g.edges:
        assert g.max_degree() + 1 <= lambda_number(g).lambda_value
