#!/usr/bin/env python3
"""Time eliminate_bad_components on disjoint unions of K13 as the copy count doubles.

An Euler split of K13 leaves two 6-regular colour classes with 39 edges
each, both bad for the k=3 small-k scheme, and one flip per copy repairs
them.  A linear elimination grows about x2 per doubling; the script prints
the best-of-N time per size, with the garbage collector off, and the ratio
to the previous size.
"""

import argparse
import timeit

from kmajority import balanced_bicolouring, build_graph, eliminate_bad_components


def k13_union(copies: int):
    pairs = [
        (13 * c + i, 13 * c + j) for c in range(copies) for i in range(13) for j in range(i + 1, 13)
    ]
    return build_graph(13 * copies, pairs)


def six_regular_odd(verts, degs, edge_count):
    return edge_count % 2 == 1 and all(degs[v] == 6 for v in verts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--copies", type=int, nargs="+", default=[25, 50, 100, 200])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"{'copies':>7} {'m':>7} {'flips':>6} {'best_s':>9} {'ratio':>6}")
    previous = None
    for copies in args.copies:
        graph = k13_union(copies)
        bic = balanced_bicolouring(graph)
        _, (_, flips) = eliminate_bad_components(graph, bic, six_regular_odd)
        # timeit switches the cyclic garbage collector off while timing, so a
        # collection over the whole union does not land in one size's samples.
        samples = timeit.repeat(
            lambda: eliminate_bad_components(graph, bic, six_regular_odd),
            repeat=args.repeats,
            number=1,
        )
        best = min(samples)
        ratio = f"{best / previous:6.2f}" if previous else f"{'-':>6}"
        print(f"{copies:>7} {graph.edge_count:>7} {flips:>6} {best:>9.4f} {ratio}")
        previous = best
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
