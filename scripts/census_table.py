#!/usr/bin/env python3
"""Tabulate the exact span census against the shape-search maximum.

Usage: census_table.py [--max-n N]

For each n up to the limit (default 6; at most the census cap, 8), run the
census, which decides the span of a graph from every isomorphism class
wherever it could raise a maximum, and print the largest edge count per span
next to the valid-shape maximum where the theory applies (3 <= t < n).
"""

import argparse
import sys
import time

from lambdacol import CENSUS_CAP, brute_force_graph_census, max_edges


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6,
                    choices=range(2, CENSUS_CAP + 1), metavar="N",
                    help=f"largest n to tabulate, 2..{CENSUS_CAP}")
    args = ap.parse_args()
    mismatches = 0
    for n in range(2, args.max_n + 1):
        started = time.perf_counter()
        census = brute_force_graph_census(n)
        elapsed = time.perf_counter() - started
        print(f"# n={n} ({elapsed:.1f}s)")
        for t in sorted(census):
            row = f"n={n} t={t} census={census[t]}"
            if 3 <= t < n:
                value, shapes = max_edges(n, t)
                tick = "ok" if value == census[t] else "MISMATCH"
                row += f" shapes={value} {tick} attaining={len(shapes)}"
                if tick != "ok":
                    mismatches += 1
            print(row)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
