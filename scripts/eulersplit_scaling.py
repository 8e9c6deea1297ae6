#!/usr/bin/env python3
"""Time balanced_bicolouring on disjoint unions of K5 as the copy count doubles.

Each K5 is 4-regular with 10 edges, so every component is walked as its own
Euler circuit.  A linear split grows about x2 per doubling; the script prints
the best-of-N time per size, with the garbage collector off, and the ratio to
the previous size.
"""

import argparse
import timeit

from kmajority import balanced_bicolouring, build_graph


def k5_union(copies: int):
    pairs = [
        (5 * c + i, 5 * c + j) for c in range(copies) for i in range(5) for j in range(i + 1, 5)
    ]
    return build_graph(5 * copies, pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--copies", type=int, nargs="+", default=[1000, 2000, 4000])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"{'copies':>7} {'m':>7} {'best_s':>9} {'ratio':>6}")
    previous = None
    for copies in args.copies:
        graph = k5_union(copies)
        # timeit switches the cyclic garbage collector off while timing, so a
        # collection over the whole union does not land in one size's samples.
        samples = timeit.repeat(lambda: balanced_bicolouring(graph), repeat=args.repeats, number=1)
        best = min(samples)
        ratio = f"{best / previous:6.2f}" if previous else f"{'-':>6}"
        print(f"{copies:>7} {graph.edge_count:>7} {best:>9.4f} {ratio}")
        previous = best
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
