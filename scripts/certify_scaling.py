#!/usr/bin/env python3
"""Time round_weights on disjoint triangles at weight 1/2 as their count doubles.

Every triangle is a bad support cycle with no edge to another, so the
rounding designates one vertex per triangle and the ledger holds t cycles;
certifying that they are pairwise independent is then the largest part of
the work.  A linear rounding and certification grows about x2 per doubling;
the script prints the best-of-N time per size, with the garbage collector
off, and the ratio to the previous size.
"""

import argparse
import timeit
from fractions import Fraction

from kmajority import build_graph, round_weights


def triangles(t: int):
    pairs = [(3 * c + i, 3 * c + (i + 1) % 3) for c in range(t) for i in range(3)]
    return build_graph(3 * t, pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triangles", type=int, nargs="+", default=[1000, 2000, 4000, 8000])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    half = Fraction(1, 2)
    print(f"{'t':>7} {'m':>7} {'ledger':>7} {'best_s':>9} {'ratio':>6}")
    previous = None
    for t in args.triangles:
        graph = triangles(t)
        weights = [half] * graph.edge_count
        ledger = len(round_weights(graph, weights).exceptional)
        # timeit switches the cyclic garbage collector off while timing.
        samples = timeit.repeat(
            lambda: round_weights(graph, weights), repeat=args.repeats, number=1
        )
        best = min(samples)
        ratio = f"{best / previous:6.2f}" if previous else f"{'-':>6}"
        print(f"{t:>7} {graph.edge_count:>7} {ledger:>7} {best:>9.4f} {ratio}")
        previous = best
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
