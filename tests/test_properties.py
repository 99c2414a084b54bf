"""Cross-cutting invariants, exercised with hypothesis and small sweeps."""

import pytest
from hypothesis import given, settings

from lambdacol import (
    StandardisedGraph,
    build_stationary,
    delete_max,
    dual_shape,
    edge_bound,
    insert_min,
    is_lambda_colouring,
    lambda_number,
    max_classes,
    max_edges,
    min_classes,
    predicted_shapes,
    prohibited_zone,
    spread,
)
from test_shapes import small_valid_shapes


# ---------------------------------------------------------------------------
# the composite transform identity (delete from a max, insert into a min)
# ---------------------------------------------------------------------------

def _composite_identity_holds(s):
    """Check the predicted gain of insert-after-delete on every (A, B)."""
    t = s.t
    mx, mn = max_classes(s), min_classes(s)
    checked = 0
    for a in mx:
        try:
            d = delete_max(s, a)
        except ValueError:
            continue
        mn_after = min_classes(d)
        for b in mn_after:
            out = insert_min(d, b)
            predicted = (
                t + 2
                + len(mx & prohibited_zone(s, a))
                + len(mn_after & prohibited_zone(s, b))
                - (len(mx) + len(mn_after) + len(prohibited_zone(s, b)))
            )
            assert edge_bound(out) - edge_bound(s) == predicted, (s, a, b)
            checked += 1
    return checked


@given(small_valid_shapes())
@settings(max_examples=250)
def test_composite_transform_identity(s):
    _composite_identity_holds(s)


def test_composite_identity_on_a_known_shape():
    # (3,2,1,3) attains the maximum at n = 9, so delete-then-insert cannot
    # gain: index 0 down, index 2 up lands on (2,2,2,3) with the same bound
    from lambdacol import PartitionShape
    s = PartitionShape((3, 2, 1, 3))
    d = delete_max(s, 0)
    out = insert_min(d, 2)
    assert out == PartitionShape((2, 2, 2, 3))
    assert edge_bound(out) == edge_bound(s) == 6
    assert _composite_identity_holds(s) > 0


# ---------------------------------------------------------------------------
# necessary conditions on wide attaining shapes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_wide_attaining_shapes_pass_the_screens(t):
    for n in range(t + 1, 26):
        _, am = max_edges(n, t)
        for s in am:
            if spread(s) < 2:
                continue
            # wide attaining shapes only happen at spans 3 and 4
            assert s.t in (3, 4), s
            mx, mn = max_classes(s), min_classes(s)
            assert len(mn) in (1, 2), s
            if len(mx) + len(mn) == s.t:
                assert all(not (mx & prohibited_zone(s, a)) for a in mx), s
                assert all(not (mn & prohibited_zone(s, b)) for b in mn), s
            if len(mx) + len(mn) == s.t + 1:
                for a in mx:
                    for b in mn:
                        assert (
                            1
                            + len(mx & prohibited_zone(s, a))
                            + len(mn & prohibited_zone(s, b))
                            <= len(prohibited_zone(s, b))
                        ), (s, a, b)


# ---------------------------------------------------------------------------
# standardised graphs meet their shape bound exactly
# ---------------------------------------------------------------------------

@given(small_valid_shapes())
@settings(max_examples=40, deadline=None)
def test_standardised_graph_span_is_exactly_t(s):
    if s.n > 13:
        return
    g = StandardisedGraph(s).graph()
    assert lambda_number(g).lambda_value == s.t


@pytest.mark.parametrize("n,t", [(6, 3), (8, 3), (9, 3), (8, 4), (10, 4)])
def test_attaining_shapes_realise_the_maximum_with_correct_span(n, t):
    value, am = max_edges(n, t)
    for s in am:
        g, part = build_stationary(s)
        assert g.m == value
        rep = lambda_number(g)
        assert rep.lambda_value == t


# ---------------------------------------------------------------------------
# predictions are closed under reversal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [3, 4, 5])
def test_predicted_sets_are_self_dual(t):
    for n in range(t + 1, 24):
        pred = predicted_shapes(n, t)
        assert {dual_shape(s) for s in pred} == pred


@pytest.mark.parametrize("t", [3, 4])
def test_attaining_sets_are_self_dual(t):
    for n in range(t + 1, 24):
        _, am = max_edges(n, t)
        assert {dual_shape(s) for s in am} == am


# ---------------------------------------------------------------------------
# every valid shape's bound is realised by some graph of that exact span
# ---------------------------------------------------------------------------

@given(small_valid_shapes())
@settings(max_examples=30, deadline=None)
def test_shape_bound_is_tight_for_small_shapes(s):
    if s.n > 12:
        return
    g, part = build_stationary(s)
    assert g.m == edge_bound(s)
    rep = lambda_number(g)
    assert rep.lambda_value == s.t
