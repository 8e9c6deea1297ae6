"""Hypothesis strategies shared across the test modules."""

from fractions import Fraction

import hypothesis.strategies as st

from kmajority import Graph, build_graph


@st.composite
def graphs(draw, min_vertices=1, max_vertices=8, max_edges=16) -> Graph:
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=min(max_edges, len(pairs)))
                  ) if pairs else set()
    return build_graph(n, sorted(chosen))


def edge_subsets(graph: Graph):
    """Sets of the graph's edge ids."""
    m = graph.edge_count
    return st.sets(st.sampled_from(range(m))) if m else st.just(set())


@st.composite
def graphs_with_weights(draw, max_vertices=7, max_denominator=6):
    graph = draw(graphs(min_vertices=2, max_vertices=max_vertices))
    weights = [
        draw(
            st.integers(0, max_denominator).flatmap(
                lambda q: st.builds(
                    Fraction, st.integers(0, max(q, 1)), st.just(max(q, 1))
                )
            )
        )
        for _ in range(graph.edge_count)
    ]
    return graph, weights


@st.composite
def colourings(draw, graph: Graph, max_colours=4):
    c = draw(st.integers(1, max_colours))
    values = tuple(
        draw(st.integers(1, c)) for _ in range(graph.edge_count)
    )
    return values, c


def _fractional_weights():
    return st.integers(2, 6).flatmap(
        lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))
    )


@st.composite
def odd_cycle_shapes(draw, max_cycles=3):
    """Odd cycles joined by paths or sharing one vertex, with pendant stems.

    These are the supports whose moves carry +-2 steps (dumbbells,
    figure-eights, lollipops).  Weights are strictly fractional, so no edge
    leaves the support before the first move, and mix denominators per edge.
    """
    pairs: list[tuple[int, int]] = []
    count = 1
    anchor = 0

    def path_from(start, length):
        nonlocal count
        for _ in range(length):
            pairs.append((start, count))
            start = count
            count += 1
        return start

    for _ in range(draw(st.integers(1, max_cycles))):
        length = draw(st.sampled_from([3, 5, 7]))
        ring = [anchor] + list(range(count, count + length - 1))
        count += length - 1
        pairs.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
        if draw(st.booleans()):
            path_from(draw(st.sampled_from(ring)), draw(st.integers(1, 3)))
        anchor = draw(st.sampled_from(ring))
        if draw(st.booleans()):  # joined by a path, else the next cycle shares anchor
            anchor = path_from(anchor, draw(st.integers(1, 3)))
    graph = build_graph(count, pairs)
    weights = [draw(_fractional_weights()) for _ in range(graph.edge_count)]
    return graph, weights


@st.composite
def disjoint_unions(draw, max_parts=12) -> Graph:
    """Many small components under shuffled vertex labels and edge order.

    Parts are random small graphs, odd cycles (all degrees even, oddly many
    edges, so the Euler split must place a bad vertex) and isolated vertices.
    """
    parts: list[tuple[int, list[tuple[int, int]]]] = []
    for _ in range(draw(st.integers(1, max_parts))):
        kind = draw(st.sampled_from(["graph", "odd_cycle", "isolated"]))
        if kind == "graph":
            g = draw(graphs(min_vertices=2, max_vertices=6, max_edges=10))
            parts.append((g.vertex_count, list(g.edges)))
        elif kind == "odd_cycle":
            length = draw(st.sampled_from([3, 5, 7]))
            parts.append((length, [(i, (i + 1) % length) for i in range(length)]))
        else:
            parts.append((1, []))
    return _shuffled_union(draw, parts)


@st.composite
def degree_window_unions(draw, k: int, max_parts=3) -> Graph:
    """Disjoint unions of near-cliques with every degree in [k^2, 2k^2).

    Each part is K_n (k^2 < n <= 2k^2) minus drawn edges, each removed only
    while both ends keep degree at least k^2, so the degrees, and the number
    of edges each needs to reach S_k, mix within a part.
    """
    ksq = k * k
    parts: list[tuple[int, list[tuple[int, int]]]] = []
    for _ in range(draw(st.integers(1, max_parts))):
        n = draw(st.integers(ksq + 1, min(2 * ksq, ksq + 8)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        degree = [n - 1] * n
        kept = set(pairs)
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=2 * n)):
            if (u, v) in kept and degree[u] > ksq and degree[v] > ksq:
                kept.remove((u, v))
                degree[u] -= 1
                degree[v] -= 1
        parts.append((n, sorted(kept)))
    return _shuffled_union(draw, parts)


def _shuffled_union(draw, parts: list[tuple[int, list[tuple[int, int]]]]) -> Graph:
    """The disjoint union of (vertex count, edges) parts, with drawn vertex
    labels and edge order."""
    n = sum(count for count, _ in parts)
    labels = draw(st.permutations(range(n)))
    pairs = []
    base = 0
    for count, edges in parts:
        pairs.extend((labels[base + u], labels[base + v]) for u, v in edges)
        base += count
    return build_graph(n, draw(st.permutations(pairs)))
