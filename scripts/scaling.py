#!/usr/bin/env python3
"""Time one layer as its input doubles in size.

* ``eulersplit``: ``balanced_bicolouring`` on unions of K5.  Each K5 is
  4-regular with 10 edges, so every component is walked as its own Euler
  circuit.
* ``eliminate``: ``eliminate_bad_components`` on unions of K13.  An Euler
  split of K13 leaves two 6-regular colour classes with 39 edges each, both
  bad for the k=3 small-k scheme, and one flip per copy repairs them
  (column ``flips``).
* ``certify``: ``round_weights`` at weight 1/2 on unions of K3 (``t``
  triangles).  Every triangle is a bad support cycle with no edge to another,
  so the ledger holds t cycles (column ``ledger``); certifying that they are
  pairwise independent is then the largest part of the work.
* ``kernel``: ``round_weights`` at weight 5/18 on
  ``random_min_degree_graph(n, 18, seed=1)``, the first round of the general
  scheme at k=3.  The graph is 18-regular with 9n edges.  Two Euler passes,
  each linear, leave about 30% of the edges fractional, at mean degree about
  5; most of the time goes to the walk kernel's moves on what is left, whose
  walks grow with n.
* ``smallk``: ``colour_small_k`` at k=4 on
  ``random_min_degree_graph(n, 16, seed=1)``, which is 16-regular with 8n
  edges.  Every vertex needs 3 more edges to reach S_4; at the default sizes
  ``raise_to_sk`` finds them all among the graph's own non-edges, so no copy
  is lifted.  The column ``lifted`` counts the edges of the graph
  that ``colour_sk_graph`` colours.
* ``parse``: ``parse_graph`` of ``format_graph(random_min_degree_graph(n, 18,
  seed=1))``, the text of the ``kernel`` graph, 9n edge lines.
* ``lift``: ``raise_to_sk(split_high_degree(g, 3)[0], 3)``, the S_3
  reductions of the k=3 small-k scheme, on unions of K10 and K20 (one of
  each per copy, 235 edges).  K10 is 9-regular and needs 2 more edges per
  vertex, which no non-edge supplies, so it is lifted with 2 fresh copies
  (x3); K20's degree-19 vertices are hubs, split into parts of degree 10
  and 9 before the lift.  The column ``lifted`` counts the lifted graph's
  edges.

The first three layers and ``lift`` time disjoint unions of cliques as the
copy count doubles, the other three a random graph as n doubles.  A linear layer grows
about x2 per doubling.  Each of the N repeats times every size once, in
turn, with the garbage collector off, so a swing in the host's speed hits
all sizes of a repeat alike; the script prints each size's best time and
its ratio to the previous size's.
"""

import argparse
import timeit
from fractions import Fraction

from kmajority import (
    balanced_bicolouring,
    build_graph,
    colour_small_k,
    eliminate_bad_components,
    format_graph,
    parse_graph,
    raise_to_sk,
    random_min_degree_graph,
    round_weights,
    split_high_degree,
)


def clique_union(sizes, copies: int):
    """``copies`` disjoint copies of one K_s for each s in ``sizes``."""
    pairs = []
    base = 0
    for _ in range(copies):
        for size in sizes:
            pairs.extend((base + i, base + j) for i in range(size) for j in range(i + 1, size))
            base += size
    return build_graph(base, pairs)


def six_regular(v, d):
    return d == 6


def eulersplit(graph):
    return lambda: balanced_bicolouring(graph), None


def eliminate(graph):
    bic = balanced_bicolouring(graph)
    _, (_, flips) = eliminate_bad_components(graph, bic, six_regular)
    return lambda: eliminate_bad_components(graph, bic, six_regular), flips


def certify(graph):
    weights = [Fraction(1, 2)] * graph.edge_count
    ledger = len(round_weights(graph, weights).exceptional)
    return lambda: round_weights(graph, weights), ledger


def kernel(graph):
    weights = [Fraction(5, 18)] * graph.edge_count
    return lambda: round_weights(graph, weights), None


def smallk(graph):
    split, _ = split_high_degree(graph, 4)
    lifted, _ = raise_to_sk(split, 4)
    return lambda: colour_small_k(graph, 4), lifted.edge_count


def parse(graph):
    text = format_graph(graph)
    return lambda: parse_graph(text), None


def lift(graph):
    lifted, _ = raise_to_sk(split_high_degree(graph, 3)[0], 3)
    return lambda: raise_to_sk(split_high_degree(graph, 3)[0], 3), lifted.edge_count


def cliques(*sizes):
    return lambda copies: clique_union(sizes, copies)


# layer -> (graph of a size, default sizes, size column, counted column, setup)
LAYERS = {
    "eulersplit": (cliques(5), [1000, 2000, 4000], "copies", None, eulersplit),
    "eliminate": (cliques(13), [25, 50, 100, 200], "copies", "flips", eliminate),
    "certify": (cliques(3), [1000, 2000, 4000, 8000], "t", "ledger", certify),
    "kernel": (
        lambda n: random_min_degree_graph(n, 18, seed=1),
        [250, 500, 1000, 2000],
        "n",
        None,
        kernel,
    ),
    "smallk": (
        lambda n: random_min_degree_graph(n, 16, seed=1),
        [250, 500, 1000, 2000],
        "n",
        "lifted",
        smallk,
    ),
    "parse": (
        lambda n: random_min_degree_graph(n, 18, seed=1),
        [500, 1000, 2000, 4000],
        "n",
        None,
        parse,
    ),
    "lift": (cliques(10, 20), [25, 50, 100, 200], "copies", "lifted", lift),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument(
        "--sizes", type=int, nargs="+",
        help="copy counts, or vertex counts for kernel, smallk and parse (default per layer)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    make_graph, default_sizes, label, counted, setup = LAYERS[args.layer]

    def row(first, m, count, best, ratio):
        count_cell = f" {count:>{len(counted) + 1}}" if counted else ""
        return f"{first:>7} {m:>7}{count_cell} {best:>9} {ratio:>6}"

    print(row(label, "m", counted, "best_s", "ratio"))
    sizes = args.sizes or default_sizes
    graphs = [make_graph(size) for size in sizes]
    setups = [setup(graph) for graph in graphs]
    best = [float("inf")] * len(sizes)
    for _ in range(args.repeats):
        for i, (run, _) in enumerate(setups):
            # timeit switches the cyclic garbage collector off while timing, so
            # a collection over the whole graph does not land in one sample.
            best[i] = min(best[i], timeit.timeit(run, number=1))
    previous = None
    for size, graph, (_, count), time in zip(sizes, graphs, setups, best):
        ratio = f"{time / previous:.2f}" if previous else "-"
        print(row(size, graph.edge_count, count, f"{time:.4f}", ratio))
        previous = time
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
