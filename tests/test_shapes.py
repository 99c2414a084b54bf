"""Shape functionals and the delete/insert transforms."""

import random
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lambdacol import (
    PartitionShape,
    adjacent_max_pairs,
    delete_max,
    dual_shape,
    edge_bound,
    format_shape,
    insert_min,
    is_valid_shape,
    max_classes,
    min_classes,
    parse_shape,
    prohibited_zone,
    spread,
)
from lambdacol import shapes
from oracles import reference_edge_bound, reference_valid_shapes


@cache
def small_valid_shapes():
    """Hypothesis strategy: a valid shape with 4..6 classes, entries <= 5."""
    pool = sorted(
        (
            s
            for length in (4, 5, 6)
            for s in map(PartitionShape, product(range(6), repeat=length))
            if is_valid_shape(s) and s.n >= s.t + 1
        ),
        key=lambda s: (s.t, s.n, s.sizes),
    )
    return st.sampled_from(pool)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_partition_shape_validation():
    with pytest.raises(ValueError):
        PartitionShape(())
    with pytest.raises(ValueError):
        PartitionShape((1, -1, 1, 1))
    s = PartitionShape((3, 2, 1, 3))
    assert s.t == 3 and s.n == 9
    assert s.sizes == (3, 2, 1, 3)


def test_parse_format_shape():
    assert parse_shape("3,2,1,3") == PartitionShape((3, 2, 1, 3))
    assert format_shape(PartitionShape((1, 0, 1, 1))) == "1,0,1,1"
    with pytest.raises(ValueError):
        parse_shape("3,,1")
    with pytest.raises(ValueError):
        parse_shape("a,b")


def test_is_valid_shape():
    assert is_valid_shape(PartitionShape((1, 1, 1, 1)))
    assert is_valid_shape(PartitionShape((2, 0, 2, 2)))
    assert not is_valid_shape(PartitionShape((0, 1, 1, 1)))  # empty end
    assert not is_valid_shape(PartitionShape((1, 1, 1, 0)))
    assert not is_valid_shape(PartitionShape((1, 0, 0, 1)))  # adjacent holes
    assert not is_valid_shape(PartitionShape((1, 1, 1)))  # too short


# ---------------------------------------------------------------------------
# functionals: frozen values and the reference oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes,want", [
    ((3, 2, 1, 3), 6),
    ((1, 1, 1, 1), 3),
    ((2, 2, 1, 2, 1), 8),
    ((1, 0, 1, 1), 2),
    ((2, 2, 2, 2), 6),
])
def test_edge_bound_frozen(sizes, want):
    assert edge_bound(PartitionShape(sizes)) == want


def test_edge_bound_needs_four_classes():
    with pytest.raises(ValueError):
        edge_bound(PartitionShape((1, 1)))


@pytest.mark.parametrize("sizes,want", [
    ((2, 2, 1, 2), 1),
    ((3, 2, 3, 2, 3), 0),
    ((2, 2, 2, 2), 3),
    ((1, 2, 2, 1), 1),
])
def test_adjacent_max_pairs_frozen(sizes, want):
    assert adjacent_max_pairs(PartitionShape(sizes)) == want


@given(small_valid_shapes())
def test_edge_bound_matches_reference(s):
    assert edge_bound(s) == reference_edge_bound(s)


def test_edge_bound_takes_no_min_per_noncontiguous_pair(monkeypatch):
    # 2,000 classes make about 2 M noncontiguous pairs but 1,999
    # contiguous ones; ``min`` is counted through the module's globals
    rng = random.Random("edge-bound:2000")
    s = PartitionShape(tuple(rng.randint(0, 50) for _ in range(2000)))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 2000:
            raise AssertionError("min taken per noncontiguous pair")
        return min(*args)

    monkeypatch.setattr(shapes, "min", counted, raising=False)
    got = edge_bound(s)
    monkeypatch.undo()
    assert got == reference_edge_bound(s)


def test_spread_and_extremes():
    s = PartitionShape((3, 2, 1, 3))
    assert spread(s) == 2
    assert max_classes(s) == frozenset({0, 3})
    assert min_classes(s) == frozenset({2})
    assert spread(PartitionShape((2, 2, 2, 2))) == 0


def test_prohibited_zone():
    s = PartitionShape((3, 2, 1, 3))
    assert prohibited_zone(s, 0) == frozenset({1})
    assert prohibited_zone(s, 3) == frozenset({2})
    assert prohibited_zone(s, 1) == frozenset({0, 2})
    assert prohibited_zone(s, 2) == frozenset({1, 3})
    with pytest.raises(IndexError):
        prohibited_zone(s, 4)


@given(small_valid_shapes())
def test_dual_is_an_involution_preserving_functionals(s):
    d = dual_shape(s)
    assert dual_shape(d) == s
    assert edge_bound(d) == edge_bound(s)
    assert adjacent_max_pairs(d) == adjacent_max_pairs(s)
    assert spread(d) == spread(s)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_delete_max_frozen_example():
    s = PartitionShape((3, 2, 1, 3))
    out = delete_max(s, 0)
    assert out == PartitionShape((2, 2, 1, 3))
    assert edge_bound(out) == 5


def test_insert_min_frozen_example():
    s = PartitionShape((3, 2, 1, 3))
    out = insert_min(s, 2)
    assert out == PartitionShape((3, 2, 2, 3))
    assert edge_bound(out) == 7


def test_delete_max_rejects_non_max_index():
    s = PartitionShape((3, 2, 1, 3))
    with pytest.raises(ValueError):
        delete_max(s, 1)
    with pytest.raises(ValueError, match="at least 4 classes"):
        delete_max(PartitionShape((2, 1, 2)), 0)


def test_insert_min_rejects_non_min_index():
    s = PartitionShape((3, 2, 1, 3))
    with pytest.raises(ValueError, match="not a min class"):
        insert_min(s, 0)
    with pytest.raises(ValueError, match="at least 4 classes"):
        insert_min(PartitionShape((2, 1, 2)), 1)


def test_delete_max_rejects_invalidating_deletions():
    # deleting the lone end vertex would empty an end class
    with pytest.raises(ValueError, match="consecutive holes|end class"):
        delete_max(PartitionShape((1, 0, 1, 1)), 0)
    # creating two adjacent holes
    with pytest.raises(ValueError, match="consecutive holes|end class"):
        delete_max(PartitionShape((1, 0, 1, 0, 1)), 2)


@given(small_valid_shapes())
@settings(max_examples=300)
def test_delete_identity_everywhere(s):
    mx = max_classes(s)
    for a in mx:
        try:
            out = delete_max(s, a)
        except ValueError:
            continue
        drop = len(mx) - 1 - len(mx & prohibited_zone(s, a))
        assert edge_bound(s) - edge_bound(out) == drop


@given(small_valid_shapes())
@settings(max_examples=300)
def test_insert_identity_everywhere(s):
    mn = min_classes(s)
    for b in mn:
        out = insert_min(s, b)
        gain = (s.t + 1) - len(mn | prohibited_zone(s, b))
        assert edge_bound(out) - edge_bound(s) == gain


@given(small_valid_shapes())
@settings(max_examples=200)
def test_transforms_preserve_validity_and_total(s):
    for a in max_classes(s):
        try:
            out = delete_max(s, a)
        except ValueError:
            continue
        assert is_valid_shape(out) and out.n == s.n - 1
    for b in min_classes(s):
        out = insert_min(s, b)
        assert is_valid_shape(out) and out.n == s.n + 1


# ---------------------------------------------------------------------------
# valid shapes agree with the reference filter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,t,count", [(4, 3, 7), (5, 3, 16)])
def test_valid_shape_counts_frozen(n, t, count):
    shapes = reference_valid_shapes(n, t)
    assert len(shapes) == count
    assert shapes == sorted(shapes, key=lambda s: s.sizes)


@pytest.mark.parametrize("n,t", [
    (4, 3), (5, 3), (8, 3), (9, 3), (5, 4), (8, 4), (6, 5), (9, 5),
])
def test_valid_shapes_match_reference(n, t):
    # is_valid_shape over the whole product space, against the filter
    assert [
        PartitionShape(sizes) for sizes in product(range(n + 1), repeat=t + 1)
        if sum(sizes) == n and is_valid_shape(PartitionShape(sizes))
    ] == reference_valid_shapes(n, t)
