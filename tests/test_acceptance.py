"""The acceptance gate: one test per shipped claim, with explicit budgets.

Each test prints a single ``ACCEPTANCE <k>: PASS/FAIL`` line (visible under
``pytest -s``) and then asserts.  Criterion 8 checks the class-size window
the classification gives, ``[floor(n/(t+1)) - d_t, floor(n/(t+1)) + 1]``
with ``d_t`` = 2 at span 3, 1 at span 4 and 0 from span 5, and proves on a
hand-built graph that the shipped lower bound ``floor(n/(t+1))`` is false at
span 3; see the README.
"""

import random
import time
from itertools import combinations, product
from math import ceil, comb

from lambdacol import (
    ColouredPartition,
    Graph,
    brute_force_graph_census,
    build_stationary,
    delete_max,
    edge_bound,
    embed_universal,
    family_member,
    insert_min,
    is_family_member,
    is_lambda_colouring,
    lambda_number,
    lambda_via_path_cover,
    max_classes,
    max_edges,
    min_classes,
    path_complement,
    prohibited_zone,
    spread,
    verify_classification,
    PartitionShape,
)
from lambdacol.extremal import _sporadic_shape
from oracles import (
    _min_span_masks,
    all_graphs,
    brute_lambda,
    is_valid_by_distances,
    layered_matching,
    max_degree,
)


def _finish(num, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = (
        f"ACCEPTANCE {num}: {verdict} — {detail} "
        f"[{elapsed:.1f}s of {budget:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_construction_counts():
    started = time.perf_counter()
    for n in range(3, 11):
        g = path_complement(n)
        assert g.n == n + 1
        assert g.m == comb(n + 1, 2) - n
    for t in range(3, 7):
        for l in range(1, 4):
            g, fa = family_member(t, l)
            assert g.n == (t + 1) * l
            assert g.m == comb(t, 2) * l
    _finish(
        1, True,
        "vertex/edge counts for the path complement (n=3..10) and the "
        "layer family (t=3..6, l=1..3)",
        started, 1.0,
    )


def test_criterion_2_construction_spans():
    started = time.perf_counter()
    for n in range(3, 9):
        assert lambda_number(path_complement(n)).lambda_value == n
    rng = random.Random(20260822)
    solved = 0
    for t in (3, 4, 5):
        for l in (1, 2, 3):
            members = [family_member(t, l)]
            for _ in range(5):
                injections = {
                    (m, p): tuple(rng.sample(range(l), l))
                    for m in range(t - 1)
                    for p in range(m + 2, t + 1)
                }
                g, class_of = layered_matching((l,) * (t + 1), injections)
                members.append((g, ColouredPartition(t, class_of)))
            for g, fa in members:
                assert is_family_member(g, fa)
                assert lambda_number(g).lambda_value == t
                solved += 1
    _finish(
        2, True,
        f"span n for the path complement (n=3..8); span t for {solved} "
        "family members (canonical + 5 random matchings each, t=3..5, l=1..3)",
        started, 30.0,
    )


def test_criterion_3_embedding_and_degree_bound():
    started = time.perf_counter()
    embedded = 0
    bounded = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            if not g.edges:
                continue
            rep = lambda_number(g)
            assert max_degree(g) + 1 <= rep.lambda_value
            bounded += 1
            if rep.lambda_value < 3:
                continue
            host, fa, injection = embed_universal(g, rep.witness)
            assert injection == tuple(range(g.n))
            assert is_family_member(host, fa)
            assert g.n <= host.n and g.edges <= host.edges
            assert g.edges <= host.edges
            for v in range(g.n):
                assert fa.class_of[v] == rep.witness[v]
            embedded += 1
    _finish(
        3, True,
        f"universal embedding verified for all {embedded} graphs on <= 5 "
        f"vertices with span >= 3; degree bound held on all {bounded} "
        "graphs with an edge",
        started, 600.0,
    )


def _valid_tuples(t, top):
    for sizes in product(range(top + 1), repeat=t + 1):
        if sizes[0] == 0 or sizes[-1] == 0:
            continue
        if any(a == 0 and b == 0 for a, b in zip(sizes, sizes[1:])):
            continue
        yield PartitionShape(sizes)


def test_criterion_4_transform_identities():
    started = time.perf_counter()
    shapes = deletions = insertions = composites = closed_forms = 0
    for t in (3, 4, 5):
        for s in _valid_tuples(t, 5):
            shapes += 1
            m_s = edge_bound(s)
            mx, mn = max_classes(s), min_classes(s)
            for a in mx:
                try:
                    d = delete_max(s, a)
                except ValueError:
                    continue
                drop = len(mx) - 1 - len(mx & prohibited_zone(s, a))
                assert m_s - edge_bound(d) == drop, (s, a)
                deletions += 1
                if spread(s) >= 2:
                    mn_after = min_classes(d)
                    for b in mn_after:
                        out = insert_min(d, b)
                        predicted = (
                            t + 2
                            + len(mx & prohibited_zone(s, a))
                            + len(mn_after & prohibited_zone(s, b))
                            - (len(mx) + len(mn_after)
                               + len(prohibited_zone(s, b)))
                        )
                        assert edge_bound(out) - m_s == predicted, (s, a, b)
                        composites += 1
            for b in mn:
                out = insert_min(s, b)
                gain = (t + 1) - len(mn | prohibited_zone(s, b))
                assert edge_bound(out) - m_s == gain, (s, b)
                insertions += 1
            width = spread(s)
            if width <= 1:
                b_, r_ = divmod(s.n, t + 1)
                if width == 1:
                    from lambdacol import adjacent_max_pairs
                    want = (
                        b_ * comb(t, 2) + comb(r_, 2) - adjacent_max_pairs(s)
                    )
                else:
                    want = b_ * comb(t, 2)
                assert m_s == want, s
                closed_forms += 1
    _finish(
        4, True,
        f"delete/insert/composite identities and the near-equal closed form "
        f"checked on all {shapes} shapes with entries <= 5 (t=3,4,5): "
        f"{deletions} deletions, {insertions} insertions, "
        f"{composites} composites, {closed_forms} closed forms",
        started, 60.0,
    )


def test_criterion_5_census_agrees_with_shape_maximum():
    started = time.perf_counter()
    points = []
    for n in (4, 5, 6):
        census = brute_force_graph_census(n)
        for t in range(3, n):
            value, _ = max_edges(n, t)
            assert census.get(t) == value, (n, t, census.get(t), value)
            points.append((n, t))
    _finish(
        5, True,
        f"the census maximum equals the shape-search maximum "
        f"at every point {points}",
        started, 300.0,
    )


def test_criterion_5_census_seven():
    started = time.perf_counter()
    census = brute_force_graph_census(7)
    for t in range(3, 7):
        value, _ = max_edges(7, t)
        assert census.get(t) == value, (t, census.get(t), value)
    _finish(
        5, True,
        f"n=7 census agrees with the shape maximum for t=3..6: "
        f"{ {t: census[t] for t in range(3, 7)} }",
        started, 3600.0,
    )


def test_criterion_6_classification_sweep():
    started = time.perf_counter()
    points = 0
    for t, lo, hi in [(3, 4, 20), (4, 5, 25), (5, 6, 30), (6, 7, 30), (7, 8, 30)]:
        for n in range(lo, hi + 1):
            rep = verify_classification(n, t)
            assert rep.passed, rep.line()
            assert rep.outer_ok, rep.line()
            points += 1
    # the near-miss pattern is never optimal
    h_checked = 0
    for n in range(5, 41):
        h = _sporadic_shape(4, "h", n)
        if h is None:
            continue
        value, _ = max_edges(n, 4)
        assert edge_bound(h) < value, (n, h.sizes)
        h_checked += 1
    _finish(
        6, True,
        f"attaining shapes equal predictions at {points} points "
        "(t=3 n<=20, t=4 n<=25, t=5..7 n<=30; spans >= 5 near-equal only); "
        f"the (k,k,k-2,k,k) pattern fell short at all {h_checked} sizes",
        started, 120.0,
    )


def test_criterion_7_path_cover_theorem():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            d1 = [0] * n
            m = mask
            while m:
                b = m & -m
                m ^= b
                u, v = pairs[b.bit_length() - 1]
                d1[u] |= 1 << v
                d1[v] |= 1 << u
            if mask == 0:
                lam = 0
            else:
                lam = _min_span_masks(d1)
            comp = frozenset(
                pairs[i] for i in range(len(pairs)) if not mask >> i & 1
            )
            bound = lambda_via_path_cover(Graph(n, comp).complement())
            if bound.exact:
                assert lam == bound.value == n + bound.path_cover - 2, (n, mask)
            else:
                assert bound.path_cover == 1 and lam <= n - 1, (n, mask)
            checked += 1
    _finish(
        7, True,
        f"span = n + cover - 2 whenever the complement needs >= 2 paths, "
        f"span <= n - 1 otherwise, on all {checked} graphs with n <= 6",
        started, 600.0,
    )


def test_criterion_8_attaining_class_sizes_stay_in_the_window():
    started = time.perf_counter()
    # The shipped lower window floor(n/(t+1)) is false at span 3: the
    # edge-maximal graph P4 + P3 + P2 on 9 vertices has a span-3 colouring
    # with a class of size 1 < floor(9/4) = 2.
    p4, p3, p2 = [(0, 1), (1, 2), (2, 3)], [(4, 5), (5, 6)], [(7, 8)]
    g = Graph.from_edges(9, p4 + p3 + p2)
    labels = (1, 3, 0, 2, 0, 3, 1, 0, 3)
    assert is_valid_by_distances(g, labels)
    # A vertex of degree 2 forces span >= 3 (its neighbours are at distance
    # 2 from each other and 1 from it); the P3 component alone shows it.
    assert max_degree(g) == 2
    assert brute_lambda(Graph.from_edges(3, [(0, 1), (1, 2)])) == 3
    assert max(labels) == 3
    # Span 3 means maximum degree <= 2 and no path or cycle on >= 5
    # vertices, so every component is a path on <= 4 vertices and the graph
    # has at most n - ceil(n/4) edges; this one has exactly that many.
    assert g.m == max_edges(9, 3)[0] == 9 - ceil(9 / 4)
    sizes = tuple(labels.count(c) for c in range(4))
    assert sizes == (3, 2, 1, 3) and min(sizes) < 9 // 4

    # The window the classification gives.  Writing each attaining shape as
    # class sizes k + offset, every shape is equitable (classes floor or
    # floor + 1) or one of the sporadic families of spans 3 and 4, where
    # k = floor + 1 is the largest class:
    #   t = 3: a (k, k-1, k-2, k), b (k-1, k, k-2, k) and c (k, k-2, k, k)
    #          reach floor - 1, and d (k, k-3, k, k) reaches floor - 2;
    #   t = 4: f (k, k-2, k, k-1, k) and g (k, k-2, k, k-2, k) reach
    #          floor - 1;
    #   t >= 5: equitable only.
    below_floor = {3: 2, 4: 1}
    above_floor = 1
    bad = []
    for t, lo, hi in [(3, 4, 20), (4, 5, 25), (5, 6, 30), (6, 7, 30), (7, 8, 30)]:
        for n in range(lo, hi + 1):
            floor = n // (t + 1)
            _, am = max_edges(n, t)
            for s in am:
                low = min(sz for sz in s.sizes if sz)
                if not (floor - below_floor.get(t, 0) <= low
                        and max(s.sizes) <= floor + above_floor):
                    bad.append((n, t, s.sizes))
    ok = not bad
    detail = (
        "every non-empty class of every attaining shape lies in "
        "[floor(n/(t+1)) - d_t, floor(n/(t+1)) + 1] with d_3 = 2, d_4 = 1 "
        "and d_t = 0 for t >= 5; P4 + P3 + P2 (n=9, t=3, classes (3,2,1,3)) "
        "refutes the shipped lower bound floor(n/(t+1))"
        if ok else
        f"window fails for {len(bad)} attaining shapes, first at "
        f"n={bad[0][0]}, t={bad[0][1]}, shape {bad[0][2]}"
    )
    _finish(8, ok, detail, started, 120.0)
