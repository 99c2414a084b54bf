#!/usr/bin/env python3
"""Sweep the classification over a grid and print one verify line per point.

Usage: classification_sweep.py

Covers the documented ranges (t=3 to n=20, t=4 to n=25, t=5..7 to n=30) and
cross-checks against the census for n <= 6.
Then checks, more widely (every t <= 10 and n <= 100), that the attaining
shapes equal the predicted ones, printing a line only for a point that
fails.  A nonzero exit means some point failed.
"""

import argparse
import sys
import time

from lambdacol import max_edges, predicted_shapes, verify_classification

RANGES = [(3, 20), (4, 25), (5, 30), (6, 30), (7, 30)]
#: Largest span and order of the attaining-equals-predicted check.
WIDE = (10, 100)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    started = time.perf_counter()
    failures = 0
    for t, hi in RANGES:
        for n in range(t + 1, hi + 1):
            rep = verify_classification(n, t)
            print(rep.line())
            if not rep.passed:
                failures += 1
    t_max, n_max = WIDE
    for t in range(3, t_max + 1):
        for n in range(t + 1, n_max + 1):
            if max_edges(n, t)[1] != predicted_shapes(n, t):
                print(f"n={n} t={t} FAIL attaining shapes differ from "
                      f"the predicted ones")
                failures += 1
    elapsed = time.perf_counter() - started
    print(f"# done in {elapsed:.1f}s, {failures} failing points",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
