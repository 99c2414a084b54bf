"""Seeded inputs of the three workloads.

Every input is plain text, built here without the library, so that a change
to ``lambdacol`` can never change what the benchmark feeds it.  The same seed
gives the same texts; :func:`digest` fingerprints them so that two runs can
show they solved the same inputs.

Why these workloads:

* ``sparse`` — G(n, d/(n-1)) with n in 12..20 and mean degree d in 1.5..4.5,
  run through the ``lambda``, ``check``, ``standardise`` and ``embed`` verbs.
  The feasibility and witness DFS take nearly all the time, with a heavy
  tail; the path-cover DP and the shape search never run.
* ``dense`` — about 80 % G(n, p) with n in 10..14 and p in 0.55..0.9, plus
  relabelled path complements and layer-family members of known span, each
  solved by the path-cover theorem and by the DFS.  This is the diameter-two
  regime, where the path-cover DP and the Hamilton-path-like DFS at
  k >= n - 1 share the time.
* ``sweep`` — the classification grid of ``scripts/classification_sweep.py``
  in seeded order after the labelled census for n <= 6.  The shape search and
  the census take nearly all the time; the solver only runs small searches.

Random graphs are drawn cell by cell from a fixed grid of (n, degree) or
(n, p) cells, each round visiting every cell once in seeded order, and a run
holds whole rounds, so that runs with different seeds hold the same mix of
sizes and densities and differ only in the graphs drawn.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

# (n, mean degree): degrees 1.75, 2.25, ..., 4.25 cover 1.5..4.5.
SPARSE_CELLS = [(n, 1.75 + 0.5 * i) for n in range(12, 21) for i in range(6)]

# (n, edge probability): 0.575, 0.625, ..., 0.875 cover 0.55..0.9.
DENSE_CELLS = [(n, 0.575 + 0.05 * i) for n in range(10, 15) for i in range(7)]
PATH_COMPLEMENT_SPANS = range(8, 14)
# (span t, class width l) of the layer-family members, 8 to 14 vertices,
# taken FAMILY_PER_ROUND at a time in turn.
FAMILY_SHAPES = [(3, 2), (4, 2), (3, 3), (5, 2), (6, 2)]
FAMILY_PER_ROUND = 3
DENSE_ROUND = len(DENSE_CELLS) + len(PATH_COMPLEMENT_SPANS) + FAMILY_PER_ROUND

ROUND_SIZE = {"sparse": len(SPARSE_CELLS), "dense": DENSE_ROUND}

SWEEP_RANGES = [(3, 20), (4, 25), (5, 30), (6, 30), (7, 30)]
CENSUS_ORDERS = range(1, 7)


@dataclass(frozen=True)
class Instance:
    """One unit of work: an input text and what its answer must satisfy.

    ``kind`` selects the calls made on it; ``expect`` holds facts known from
    how the input was built (a span, or the grid point of a sweep item).
    """

    id: str
    kind: str
    text: str
    expect: dict


def graph_text(n, edges) -> str:
    """The ``p``/``e`` file format, edges sorted."""
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def _gnp(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted((perm[u], perm[v]))) for u, v in edges]


def sparse(seed, rounds):
    rng = random.Random(f"sparse:{seed}")
    out = []
    for _ in range(rounds):
        cells = list(SPARSE_CELLS)
        rng.shuffle(cells)
        for n, d in cells:
            text = graph_text(n, _gnp(rng, n, d / (n - 1)))
            out.append(Instance(f"sparse-{len(out)}", "sparse", text, {}))
    return out


def path_complement_edges(k):
    """Complement of the path 0-1-...-k: k + 1 vertices, span k."""
    return [(u, v) for u in range(k + 1) for v in range(u + 2, k + 1)]


def family_member_edges(rng, t, l):
    """A width-``l`` layer-family member of span ``t`` with seeded matchings."""
    edges = []
    for m in range(t + 1):
        for p in range(m + 2, t + 1):
            perm = list(range(l))
            rng.shuffle(perm)
            edges += [(m * l + i, p * l + perm[i]) for i in range(l)]
    return edges


def _dense_round(rng, r):
    items = [("gnp", cell) for cell in DENSE_CELLS]
    items += [("path_complement", k) for k in PATH_COMPLEMENT_SPANS]
    items += [("family_member",
               FAMILY_SHAPES[(r * FAMILY_PER_ROUND + j) % len(FAMILY_SHAPES)])
              for j in range(FAMILY_PER_ROUND)]
    rng.shuffle(items)
    return items


def dense(seed, rounds):
    rng = random.Random(f"dense:{seed}")
    out = []
    for r in range(rounds):
        for kind, arg in _dense_round(rng, r):
            expect = {}
            if kind == "gnp":
                n, p = arg
                edges = _gnp(rng, n, p)
            elif kind == "path_complement":
                n = arg + 1
                edges = _relabel(rng, n, path_complement_edges(arg))
                expect = {"span": arg}
            else:
                t, l = arg
                n = (t + 1) * l
                edges = _relabel(rng, n, family_member_edges(rng, t, l))
                expect = {"span": t}
            text = graph_text(n, edges)
            out.append(Instance(f"dense-{len(out)}", "dense", text, expect))
    return out


def sweep_points():
    return [(n, t) for t, hi in SWEEP_RANGES for n in range(t + 1, hi + 1)]


def sweep(seed, pass_index):
    """One cold pass: the census for n <= 6, then the grid in seeded order."""
    rng = random.Random(f"sweep:{seed}:{pass_index}")
    points = sweep_points()
    rng.shuffle(points)
    out = [Instance(f"census-{n}", "census", f"census {n}\n", {"n": n})
           for n in CENSUS_ORDERS]
    out += [Instance(f"point-{n}-{t}", "point", f"point {n} {t}\n",
                     {"n": n, "t": t})
            for n, t in points]
    return out


def digest(passes) -> str:
    """SHA-256 over every input text of a run, in order."""
    h = hashlib.sha256()
    for instances in passes:
        for inst in instances:
            h.update(json.dumps(asdict(inst), sort_keys=True).encode())
    return h.hexdigest()
