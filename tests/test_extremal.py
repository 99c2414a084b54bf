"""Maximum edge counts, predictions, stationarity, classification, census."""

import os
import random
import re
import subprocess
import sys
import time
from functools import lru_cache
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings

from lambdacol import (
    CENSUS_CAP,
    CapExceededError,
    Case,
    ClassificationError,
    Colouring,
    Graph,
    PartitionShape,
    brute_force_graph_census,
    build_stationary,
    classify,
    dual_shape,
    edge_bound,
    is_lambda_colouring,
    is_stationary,
    is_valid_shape,
    lambda_number,
    max_edges,
    partition_of,
    predicted_shapes,
    shape_of,
    spread,
    verify_classification,
)
from lambdacol import extremal as extremal_module, solver as solver_module
from lambdacol.extremal import (
    _SPORADIC_PATTERNS,
    _extensions,
    _graph_classes,
    _layer_table,
    _max_edges_cached,
    _sporadic_shape,
)
from oracles import (
    _min_span_masks,
    labelled_census,
    layered_matching,
    max_edges_by_rows,
    reference_valid_shapes,
    valid_shape_rows,
)
from test_shapes import small_valid_shapes

#: The classification sweep's grid: (t, largest n) per span.
SWEEP_GRID = [(3, 20), (4, 25), (5, 30), (6, 30), (7, 30)]
SWEEP_POINTS = [(n, t) for t, hi in SWEEP_GRID for n in range(t + 1, hi + 1)]
#: Largest n of scripts/classification_sweep.py's attaining = predicted check.
WIDE_N = 100
#: The row oracle, memoised so that tests in this file score each point once.
rows_oracle = lru_cache(maxsize=None)(max_edges_by_rows)


def S(*sizes):
    return PartitionShape(sizes)


# ---------------------------------------------------------------------------
# the maximum and its attaining set (frozen values)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,t,want", [
    (4, 3, 3), (5, 3, 3), (6, 3, 4), (7, 3, 5), (8, 3, 6), (9, 3, 6),
    (5, 4, 6), (6, 4, 6), (7, 4, 7), (8, 4, 9), (9, 4, 10), (13, 4, 15),
    (6, 5, 10), (12, 5, 20),
])
def test_max_edges_frozen_values(n, t, want):
    value, _ = max_edges(n, t)
    assert value == want


def test_max_edges_attaining_sets_frozen():
    _, am = max_edges(4, 3)
    assert am == {S(1, 1, 1, 1)}
    _, am = max_edges(8, 3)
    assert am == {S(2, 2, 2, 2)}
    _, am = max_edges(8, 4)
    assert am == {S(2, 1, 2, 1, 2)}
    _, am = max_edges(9, 3)
    assert len(am) == 10
    assert S(3, 2, 1, 3) in am and S(3, 1, 2, 3) in am
    assert S(3, 2, 2, 2) in am
    _, am = max_edges(6, 4)
    assert S(2, 0, 2, 0, 2) in am and len(am) == 6


def test_max_edges_maximises_over_valid_shapes():
    for n, t in [(6, 3), (9, 3), (8, 4), (10, 4)]:
        value, am = max_edges(n, t)
        everything = reference_valid_shapes(n, t)
        assert value == max(edge_bound(s) for s in everything)
        assert am == frozenset(
            s for s in everything if edge_bound(s) == value
        )


def test_max_edges_range_and_cap():
    with pytest.raises(ValueError):
        max_edges(3, 3)
    with pytest.raises(ValueError):
        max_edges(5, 2)
    with pytest.raises(CapExceededError):
        max_edges(13, 12)  # 3^13 * 13 = 20,726,199 steps


def test_max_edges_cap_is_checked_before_any_work(monkeypatch):
    # the cap is the work 3^(t+1) * n, exact at the boundary
    monkeypatch.setattr("lambdacol.extremal.DEFAULT_MAX_SHAPES", 3 ** 4 * 8)
    assert max_edges(8, 3)[0] == 6
    monkeypatch.setattr("lambdacol.extremal.DEFAULT_MAX_SHAPES", 3 ** 4 * 8 - 1)
    with pytest.raises(CapExceededError):
        max_edges(8, 3)
    monkeypatch.undo()
    # a span far past the cap is refused without computing 3^(t+1)
    with pytest.raises(CapExceededError):
        max_edges(10 ** 12, 10 ** 12 - 1)


def test_max_edges_beyond_the_old_int8_range():
    # t = 3 and 4 | n: only the all-equal shape, with n - n/4 edges
    assert max_edges(200, 3) == (150, frozenset({S(50, 50, 50, 50)}))
    # 26 per noncontiguous pair; the sporadic (27,25,27,25,27) ties
    value, am = max_edges(131, 4)
    assert value == 6 * 26 and am == predicted_shapes(131, 4)
    assert S(27, 25, 27, 25, 27) in am


@pytest.mark.parametrize("n,t", [(6, 3), (9, 3), (7, 4), (10, 4), (8, 5)])
def test_vectorised_rows_agree_with_generator(n, t):
    # the row oracle below enumerates exactly the valid shapes
    rows = {tuple(int(x) for x in r) for r in valid_shape_rows(n, t)}
    assert rows == {s.sizes for s in reference_valid_shapes(n, t)}


@pytest.mark.parametrize("t,hi", SWEEP_GRID)
def test_layer_dp_agrees_with_the_row_oracle_on_the_sweep_grid(t, hi):
    for n in range(t + 1, hi + 1):
        assert max_edges(n, t) == rows_oracle(n, t), (n, t)


def _cold_shape_search():
    _max_edges_cached.cache_clear()
    _layer_table.cache_clear()


def _rows_built(t):
    gain, _, best, _ = _layer_table(t)
    return len(best) // len(gain) - 1  # row 0 is the empty chain


def test_call_order_cannot_change_an_answer():
    # past the grid at t = 3, up to the row oracle's int8 limit
    points = SWEEP_POINTS + [(40, 3), (80, 3), (127, 3)]
    want = {p: rows_oracle(*p) for p in points}
    by_t = [[p for p in points if p[1] == t] for t, _ in SWEEP_GRID]
    shuffled = sorted(points)
    random.Random(20261018).shuffle(shuffled)
    orders = {
        "descending n": sorted(points, key=lambda p: -p[0]),
        "shuffled": shuffled,
        "alternating t": [p for row in zip_longest(*by_t) for p in row if p],
    }
    for name, order in orders.items():
        assert sorted(order) == sorted(points), name
        _cold_shape_search()
        for p in order:
            assert max_edges(*p) == want[p], (name, p)


def test_layer_rows_are_built_once_per_span():
    _cold_shape_search()
    answers = [max_edges(*p) for p in SWEEP_POINTS]
    # one row per m <= the largest n of each span, not sum(n) = 1,850
    assert sum(_rows_built(t) for t, _ in SWEEP_GRID) == 135
    assert [max_edges(*p) for p in SWEEP_POINTS] == answers
    # without the memo, largest n first: every call reads rows already built
    _max_edges_cached.cache_clear()
    assert [max_edges(*p) for p in SWEEP_POINTS[::-1]] == answers[::-1]
    assert sum(_rows_built(t) for t, _ in SWEEP_GRID) == 135


def test_a_refused_shape_search_builds_no_rows():
    _cold_shape_search()
    max_edges(37, 11)  # 3^12 * 37 = 19,663,317 steps, inside the cap
    assert _rows_built(11) == 37
    with pytest.raises(CapExceededError):
        max_edges(38, 11)  # 3^12 * 38 = 20,194,758 steps
    assert _rows_built(11) == 37


@pytest.mark.parametrize("stored", [False, True])
def test_an_interrupted_row_build_leaves_a_usable_table(monkeypatch, stored):
    # a deadline alarm or ^C may land between row 3's store in below and
    # its append to best, either before or after the store
    gain, size, best, below = _layer_table.__wrapped__(4)

    class Interrupted(list):
        armed = True

        def __setitem__(self, i, row):
            if self.armed and i == 3:
                self.armed = False
                if stored:
                    super().__setitem__(i, row)
                raise KeyboardInterrupt
            super().__setitem__(i, row)

    table = gain, size, best, Interrupted(below)
    monkeypatch.setattr("lambdacol.extremal._layer_table", lambda t: table)
    _max_edges_cached.cache_clear()
    with pytest.raises(KeyboardInterrupt):
        max_edges(20, 4)
    assert len(best) // len(gain) == 3  # row 0 and rows 1, 2
    assert max_edges(20, 4) == rows_oracle(20, 4)
    _max_edges_cached.cache_clear()


def test_importing_the_package_loads_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lambdacol; "
         "print(lambdacol.__file__, 'numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert Path(out[0]).resolve().is_relative_to(Path(src).resolve())
    assert out[1] == "False"


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def test_predicted_divisible_is_the_equal_shape():
    assert predicted_shapes(8, 3) == {S(2, 2, 2, 2)}
    assert predicted_shapes(10, 4) == {S(2, 2, 2, 2, 2)}
    assert predicted_shapes(12, 5) == {S(2, 2, 2, 2, 2, 2)}


def test_predicted_9_3_full_set():
    # four equitable min-K shapes and six sporadic ones
    want = {
        S(3, 2, 2, 2), S(2, 3, 2, 2), S(2, 2, 3, 2), S(2, 2, 2, 3),
        S(3, 2, 1, 3), S(3, 1, 2, 3),  # type a and its reversal
        S(2, 3, 1, 3), S(3, 1, 3, 2),  # type b and its reversal
        S(3, 0, 3, 3), S(3, 3, 0, 3),  # type d and its reversal
    }
    assert predicted_shapes(9, 3) == want


def test_predicted_5_3_full_set():
    want = {
        S(2, 1, 1, 1), S(1, 2, 1, 1), S(1, 1, 2, 1), S(1, 1, 1, 2),
        S(2, 1, 0, 2), S(2, 0, 1, 2),  # type a and its reversal
        S(1, 2, 0, 2), S(2, 0, 2, 1),  # type b and its reversal
    }
    assert predicted_shapes(5, 3) == want


def test_predicted_shapes_shares_the_shape_search_cap():
    # C(27, 15) near-equal placements: refused from the arguments alone
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="cap 20000000"):
        predicted_shapes(150, 26)
    assert time.perf_counter() - start < 1.0
    # the same boundary as max_edges: 3^12 * 37 is inside, 3^13 * 13 is not
    assert len(predicted_shapes(37, 11)) == 12
    with pytest.raises(CapExceededError):
        predicted_shapes(13, 12)


def test_sporadic_patterns_respect_residues():
    # type c exists only when n = 4k - 2
    assert _sporadic_shape(3, "c", 6) == S(2, 0, 2, 2)
    assert _sporadic_shape(3, "c", 7) is None
    assert _sporadic_shape(3, "d", 9) == S(3, 0, 3, 3)
    assert _sporadic_shape(3, "d", 5) is None  # (1,-2,..) out of range
    assert _sporadic_shape(4, "f", 12) == S(3, 1, 3, 2, 3)
    assert _sporadic_shape(4, "g", 11) == S(3, 1, 3, 1, 3)
    assert _sporadic_shape(4, "h", 13) == S(3, 3, 1, 3, 3)
    assert set(_SPORADIC_PATTERNS) == {3, 4}  # no sporadic families at t 5+


def test_every_sporadic_shape_is_valid():
    # _sporadic_shape checks no validity past non-negative sizes: every
    # pattern's offsets must keep its shapes valid wherever they exist
    for t, patterns in _SPORADIC_PATTERNS.items():
        for tag in patterns:
            shapes = [s for n in range(201)
                      if (s := _sporadic_shape(t, tag, n)) is not None]
            assert shapes, (t, tag)
            for s in shapes:
                assert is_valid_shape(s), (t, tag, s)


def test_h_is_never_predicted():
    for n in range(5, 40):
        for s in predicted_shapes(n, 4):
            k = max(s.sizes)
            assert s.sizes != (k, k, k - 2, k, k)


# With the next test, the whole of scripts/classification_sweep.py's wide
# check: every t <= 10 and n <= 100, 748 points.
@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_predicted_equals_attaining(t):
    for n in range(t + 1, WIDE_N + 1):
        value, am = max_edges(n, t)
        assert am == predicted_shapes(n, t), (n, t)


@pytest.mark.parametrize("t", [7, 8, 9, 10])
def test_predicted_equals_attaining_at_large_spans(t):
    for n in range(t + 1, WIDE_N + 1):
        assert max_edges(n, t)[1] == predicted_shapes(n, t), (n, t)


# ---------------------------------------------------------------------------
# stationary graphs
# ---------------------------------------------------------------------------

@given(small_valid_shapes())
@settings(max_examples=120, deadline=None)
def test_build_stationary_canonical(s):
    g, part = build_stationary(s)
    assert g.m == edge_bound(s)
    assert shape_of(part) == s


def test_is_stationary_accepts_another_matching():
    s = S(2, 1, 2, 2)
    g, _ = layered_matching(s.sizes, {(0, 2): (1, 0)})
    aligned, part = build_stationary(s)
    assert g != aligned
    assert g.m == edge_bound(s)
    ok, st = is_stationary(g, part)
    assert ok and st.tag == "EQUITABLE"


def test_build_stationary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_stationary(S(0, 1, 1, 1))


def test_is_stationary_tags():
    cases = [
        (S(2, 2, 2, 2), "EQUITABLE", False),
        (S(3, 2, 1, 3), "a", False),
        (S(3, 1, 2, 3), "a", True),
        (S(2, 3, 1, 3), "b", False),
        (S(3, 1, 3, 2), "b", True),
        (S(2, 0, 2, 2), "c", False),
        (S(2, 2, 0, 2), "c", True),
        (S(3, 0, 3, 3), "d", False),
        (S(3, 2, 3, 1, 3), "f", True),
        (S(2, 0, 2, 0, 2), "g", False),
        (S(3, 3, 1, 3, 3), "h", False),
    ]
    for shape, tag, flag in cases:
        g, part = build_stationary(shape)
        ok, st = is_stationary(g, part)
        assert ok, shape
        assert (st.tag, st.dual_flag) == (tag, flag), shape


def test_is_stationary_rejects_unmatched_spread():
    # valid shape, spread 2, but no sporadic letter fits
    g, part = build_stationary(S(3, 1, 1, 3))
    ok, st = is_stationary(g, part)
    assert not ok and st is None


def test_is_stationary_detects_edge_tampering():
    g, part = build_stationary(S(2, 2, 2, 2))
    v0 = sorted(part.classes[0])
    v1 = sorted(part.classes[1])
    # intra-class edge
    bad = Graph(g.n, g.edges | {(v0[0], v0[1])})
    assert is_stationary(bad, part) == (False, None)
    # adjacent-class edge
    e = (min(v0[0], v1[0]), max(v0[0], v1[0]))
    bad = Graph(g.n, g.edges | {e})
    assert is_stationary(bad, part) == (False, None)
    # broken matching (smaller side no longer saturated)
    some = next(iter(g.edges))
    bad = Graph(g.n, g.edges - {some})
    assert is_stationary(bad, part) == (False, None)


def test_is_stationary_rejects_double_partner():
    # classes {0},{1},{2,3},{4}: vertex 0 gets two partners in class 2,
    # while every class-gap stays noncontiguous
    from lambdacol import ColouredPartition
    part = ColouredPartition(3, (0, 1, 2, 2, 3))
    g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 4)])
    assert is_stationary(g, part) == (False, None)


def test_is_stationary_rejects_an_empty_end_class():
    # the edges of S(1, 1, 1, 1) on classes that leave class 0 empty: the
    # shape discipline fails before any edge is read
    from lambdacol import ColouredPartition
    g, _ = build_stationary(S(1, 1, 1, 1))
    part = ColouredPartition(4, (1, 2, 3, 4))
    assert is_stationary(g, part) == (False, None)


def test_is_stationary_requires_cover():
    g, part = build_stationary(S(1, 1, 1, 1))
    with pytest.raises(ValueError):
        is_stationary(Graph(5, g.edges), part)


def test_classify_raises_when_a_maximal_witness_is_not_stationary(monkeypatch):
    # equality in the edge bound makes the witness stationary; a witness
    # that is not means the solver or the shape search is broken
    monkeypatch.setattr("lambdacol.extremal.is_stationary",
                        lambda g, part: (False, None))
    g, _ = build_stationary(S(2, 2, 2, 2))
    with pytest.raises(ClassificationError, match="not stationary"):
        classify(g)


# ---------------------------------------------------------------------------
# classification of concrete graphs
# ---------------------------------------------------------------------------

def test_classify_divisible():
    g, _ = build_stationary(S(1, 1, 1, 1))
    rep = classify(g)
    assert rep.case == Case.DIVISIBLE
    assert rep.max_edges == 3
    assert rep.stationary.tag == "EQUITABLE"


def test_classify_equitable():
    # the 4-clique complement construction plus an isolated vertex
    from lambdacol import path_complement
    g3 = path_complement(3)
    rep = classify(Graph(5, g3.edges))
    assert rep.case == Case.EQUITABLE_MIN_K
    assert rep.witness_shape == S(2, 1, 1, 1)
    assert rep.max_edges == 3


def test_classify_sporadic():
    g, _ = build_stationary(S(2, 0, 2, 2))
    rep = classify(g)
    assert rep.case == Case.SPORADIC
    assert rep.witness_shape == S(2, 0, 2, 2)
    assert rep.stationary.tag == "c"


def test_classify_witness_shape_can_differ_from_construction():
    # the type-a graph also admits an equitable optimal partition, and the
    # deterministic lexicographic witness finds that one first
    g, _ = build_stationary(S(3, 2, 1, 3))
    rep = classify(g)
    assert rep.case == Case.EQUITABLE_MIN_K
    assert rep.witness_shape == S(3, 2, 2, 2)
    assert rep.max_edges == 6


def test_classify_not_maximal():
    rep = classify(Graph.from_edges(4, [(0, 1), (1, 2)]))
    assert rep.case == Case.NOT_MAXIMAL
    assert rep.max_edges == 3
    assert rep.stationary is None


def test_classify_raises_when_a_graph_beats_the_maximum(monkeypatch):
    # more edges than the shape maximum means the solver or the shape search
    # is broken: a typed error, which python -O keeps
    monkeypatch.setattr("lambdacol.extremal.max_edges",
                        lambda n, t: (2, frozenset()))
    with pytest.raises(ClassificationError, match="3 edges exceed"):
        classify(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


def test_classify_rejects_out_of_scope_graphs():
    with pytest.raises(ValueError, match="^need span t >= 3, got 2$"):
        classify(Graph.from_edges(2, [(0, 1)]))
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(ValueError):
        classify(k4)  # span 6 needs n >= 7


@given(small_valid_shapes())
@settings(max_examples=30, deadline=None)
def test_classify_stationary_graphs_of_attaining_shapes(s):
    if s.n > 12:
        return
    value, am = max_edges(s.n, s.t)
    g, _ = build_stationary(s)
    rep = classify(g)
    if s in am:
        assert rep.case != Case.NOT_MAXIMAL
        assert rep.witness_shape in am
    else:
        assert rep.case == Case.NOT_MAXIMAL


# ---------------------------------------------------------------------------
# the census and verification
# ---------------------------------------------------------------------------

def test_census_frozen_4():
    assert brute_force_graph_census(4) == {0: 0, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}


def test_census_frozen_5():
    assert brute_force_graph_census(5) == {
        0: 0, 2: 2, 3: 3, 4: 6, 5: 7, 6: 8, 7: 9, 8: 10,
    }


def test_census_frozen_6():
    assert brute_force_graph_census(6) == {
        0: 0, 2: 3, 3: 4, 4: 6, 5: 10,
        6: 11, 7: 12, 8: 13, 9: 14, 10: 15,
    }


@pytest.mark.parametrize("n", range(6))
def test_census_agrees_with_every_labelled_graph(n):
    assert brute_force_graph_census(n) == labelled_census(n)


#: Isomorphism classes of graphs on 1..6 vertices (OEIS A000088).
CLASS_COUNTS = [1, 2, 4, 11, 34, 156]


def test_graph_class_counts():
    assert [len(_graph_classes(n)) for n in range(1, 7)] == CLASS_COUNTS


def test_graph_class_counts_match_the_atlas():
    nx = pytest.importorskip("networkx")
    atlas = [g.number_of_nodes() for g in nx.graph_atlas_g()]
    assert [atlas.count(n) for n in range(1, 7)] == CLASS_COUNTS


def test_census_cap():
    with pytest.raises(CapExceededError):
        brute_force_graph_census(9)


@pytest.mark.parametrize("n", [2.5, 3.0, 9.5, "4", None])
def test_census_refuses_a_non_int_order(n):
    # before the cap check, so 9.5 is a plain ValueError too
    with pytest.raises(ValueError, match=re.escape(f"got {n!r}")) as exc:
        brute_force_graph_census(n)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("check", [max_edges, predicted_shapes,
                                   verify_classification])
@pytest.mark.parametrize("n, t, bad", [(10.5, 3, 10.5), (10, 3.0, 3.0),
                                       (10, "3", "3")])
def test_shape_search_refuses_a_non_int_order_or_span(check, n, t, bad):
    # not a TypeError from the arithmetic on n and t
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")) as exc:
        check(n, t)
    assert type(exc.value) is ValueError


def _unpruned_census(n):
    """{span: max edges}, every extension graph solved by _min_span_masks."""
    best = {0: 0}
    for d1 in _extensions(n) if n else ():
        edges = sum(m.bit_count() for m in d1) // 2
        if edges:
            lam = _min_span_masks(d1)
            best[lam] = max(best.get(lam, 0), edges)
    return dict(sorted(best.items()))


@pytest.mark.parametrize(
    "n", [*range(8), pytest.param(8, marks=pytest.mark.slow)])
def test_census_equals_the_unpruned_census(n):
    census = brute_force_graph_census(n)
    assert census == _unpruned_census(n)
    assert list(census) == sorted(census)


def test_census_at_8_equals_the_shape_maximum():
    assert CENSUS_CAP == 8
    census = brute_force_graph_census(8)
    assert [census.get(t) for t in range(3, 8)] == [
        max_edges(8, t)[0] for t in range(3, 8)] == [6, 9, 11, 15, 21]


def test_census_at_7_skips_most_searches(monkeypatch):
    # work counters: a graph whose degrees leave no span open builds no
    # square and no bound, one whose elementary bounds leave none builds no
    # order, and the others are searched from the lower bound upwards, never
    # at 2n - 2 nor past the greatest open span: 13,364 searches at 7
    # without the skips
    names = ("_search_masks", "_lower_bound", "_connected_order")
    calls = dict.fromkeys(names, 0)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(solver_module, name,
                            counted(name, getattr(solver_module, name)))
    for n, want in [(6, (169, 225, 162)), (7, (1_116, 1_800, 1_093))]:
        calls.update(dict.fromkeys(names, 0))
        monkeypatch.setattr(extremal_module, "_census", lru_cache(
            maxsize=None)(extremal_module._census.__wrapped__))
        brute_force_graph_census(n)
        assert tuple(calls.values()) == want, n


def test_census_never_reports_span_one():
    for n in (2, 3, 4, 5):
        assert 1 not in brute_force_graph_census(n)


def test_verify_frozen_9_3():
    rep = verify_classification(9, 3)
    assert rep.passed
    assert rep.max_edges == 6 and rep.attaining == 10
    assert rep.argmax_equals_predicted
    assert rep.census_ok is None and rep.equitable_only_ok is None
    # (3,2,1,3) and its reversal (3,1,2,3) have a class below floor(9/4)
    assert rep.inner_ok is False
    assert rep.outer_ok is True
    assert rep.line() == (
        "n=9 t=3 PASS max=6 attaining=10 census=skip inner=FAIL outer=PASS"
    )


def test_verify_with_census():
    rep = verify_classification(5, 3)
    assert rep.passed and rep.census_ok is True
    assert rep.line() == (
        "n=5 t=3 PASS max=3 attaining=8 census=PASS inner=PASS outer=PASS"
    )


def test_verify_equitable_only_for_large_spans():
    rep = verify_classification(12, 5)
    assert rep.equitable_only_ok is True and rep.passed
