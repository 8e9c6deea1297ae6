"""Hypothesis strategies shared across the test modules."""

from fractions import Fraction

import hypothesis.strategies as st

from kmajority import Graph, build_graph, is_bipartite, random_min_degree_graph, sk_degrees


@st.composite
def graphs(draw, min_vertices=1, max_vertices=8, max_edges=16, min_edges=0) -> Graph:
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=min_edges,
                          max_size=min(max_edges, len(pairs)))) if pairs else set()
    return build_graph(n, sorted(chosen))


def edge_subsets(graph: Graph):
    """Sets of the graph's edge ids."""
    m = graph.edge_count
    return st.sets(st.sampled_from(range(m))) if m else st.just(set())


@st.composite
def split_labels(draw, graph: Graph, max_classes=4) -> list[int]:
    """A class label per edge of ``graph`` for a labelled Euler split, -1 on
    about one edge in five.

    Up to ``max_classes`` class names, not 0, 1, ... but drawn from 0..99,
    and the labels come from one drawn ``Random``, which keeps them varied
    under the derandomized ``ci`` profile.
    """
    rng = draw(st.randoms(use_true_random=False))
    names = rng.sample(range(100), rng.randint(1, max_classes))
    return [rng.choice(names) if rng.random() < 0.8 else -1 for _ in range(graph.edge_count)]


@st.composite
def graphs_with_weights(draw, max_vertices=7, max_denominator=6):
    """A graph with a weight p/q in [0, 1] per edge, q at most ``max_denominator``.

    The weights come from one drawn ``Random``, which keeps them varied under
    the derandomized ``ci`` profile, where per-edge ``st.integers`` draws
    tend to repeat a few simple values.
    """
    graph = draw(graphs(min_vertices=2, max_vertices=max_vertices))
    rng = draw(st.randoms(use_true_random=False))
    weights = []
    for _ in range(graph.edge_count):
        q = max(rng.randint(0, max_denominator), 1)
        weights.append(Fraction(rng.randint(0, q), q))
    return graph, weights


@st.composite
def colourings(draw, graph: Graph, max_colours=4):
    """A colour count c and a colour in 1..c per edge, from one drawn ``Random``
    (as in :func:`graphs_with_weights`): half the time uniform over a drawn c,
    else each edge in a shuffled order takes, of all ``max_colours`` colours,
    one least used at its busier end, so each vertex's colours stay even and
    the majority check can pass.  The ``Random`` is seeded by hypothesis,
    which keeps its values varied under the derandomized ``ci`` profile.
    """
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.5:
        c = rng.randint(1, max_colours)
        return tuple(rng.randint(1, c) for _ in range(graph.edge_count)), c
    c = max_colours
    counts = [[0] * (c + 1) for _ in range(graph.vertex_count)]
    values = [0] * graph.edge_count
    for e in rng.sample(range(graph.edge_count), graph.edge_count):
        u, v = graph.edges[e]
        load = [max(counts[u][a], counts[v][a]) for a in range(1, c + 1)]
        least = min(load)
        values[e] = rng.choice([a for a in range(1, c + 1) if load[a - 1] == least])
        counts[u][values[e]] += 1
        counts[v][values[e]] += 1
    return tuple(values), c


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
def many_odd_cycles(draw, max_cycles=12):
    """Many vertex-disjoint odd cycles at weight 1/2, some joined by edges.

    Every cycle is a bad support cycle, so each one that no integral joining
    edge merges away puts a vertex in the rounding ledger.  Joining edges
    weigh 0, 1/2 or 1 (a half-weight one makes a dumbbell of its two
    cycles); vertex labels and edge order are drawn.
    """
    half = Fraction(1, 2)
    lengths = draw(st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=max_cycles))
    labels = draw(st.permutations(range(sum(lengths))))
    weighted: dict[tuple[int, int], Fraction] = {}
    rings: list[list[int]] = []
    base = 0
    for length in lengths:
        ring = labels[base:base + length]
        base += length
        rings.append(ring)
        for i in range(length):
            u, v = ring[i], ring[(i + 1) % length]
            weighted[(min(u, v), max(u, v))] = half
    if len(rings) > 1:
        for _ in range(draw(st.integers(0, len(rings)))):
            pick = st.sampled_from(range(len(rings)))
            a, b = draw(st.lists(pick, min_size=2, max_size=2, unique=True))
            u, v = draw(st.sampled_from(rings[a])), draw(st.sampled_from(rings[b]))
            weight = draw(st.sampled_from([Fraction(0), Fraction(1), half]))
            weighted.setdefault((min(u, v), max(u, v)), weight)
    pairs = draw(st.permutations(sorted(weighted)))
    return build_graph(len(labels), pairs), [weighted[p] for p in pairs]


@st.composite
def simple_weights(draw):
    """A graph with an odd cycle and simple weights: each edge 0, 1/2 or 1,
    or one weight p/q (q <= 6) on every edge, as the schemes' stripping
    rounds use.

    Halves on whole cycles reach bad-cycle resolution; one weight such as
    1/3 or 2/3 everywhere reaches the exact-sum cases of the condition-(ii)
    repair, and odd cycles that are all 1/2 or more without being bad.
    :func:`graphs_with_weights` rarely draws either.  Graphs are
    non-bipartite :func:`graphs`, :func:`odd_cycle_shapes` and
    :func:`many_odd_cycles`, which may also keep their own weights (halves,
    joined by 0, 1/2 or 1); the rest come from one ``Random``.
    """
    kind = draw(st.sampled_from(["graph", "shapes", "cycles"]))
    if kind == "graph":
        graph = draw(graphs(min_vertices=3).filter(lambda g: not is_bipartite(g)))
    else:
        graph, weights = draw(odd_cycle_shapes() if kind == "shapes" else many_odd_cycles())
    rng = draw(st.randoms(use_true_random=False))
    style = rng.choice(["own", "halves", "uniform"] if kind == "cycles" else ["halves", "uniform"])
    if style == "own":
        return graph, weights
    if style == "halves":
        half = Fraction(1, 2)
        return graph, [rng.choice((Fraction(0), half, half, Fraction(1))) for _ in graph.edges]
    q = rng.randint(2, 6)
    return graph, [Fraction(rng.randint(1, q - 1), q)] * graph.edge_count


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
        parts.append((n, _near_clique(draw, n, ksq, 2 * n)))
    return _shuffled_union(draw, parts)


@st.composite
def needy_clique_unions(draw, k: int, max_parts=4) -> Graph:
    """Disjoint unions of two or more parts, K_n and K_n minus at most two
    edges, k^2 < n <= k^2 + 3, each degree kept at least k^2.

    These parts are left short by fills of their own: a clique has no
    non-edge, and a near-clique too few.  So ``raise_to_sk`` either joins
    vertices of different parts or attaches gadgets to them.
    """
    ksq = k * k
    parts = []
    for _ in range(draw(st.integers(2, max_parts))):
        n = draw(st.integers(ksq + 1, ksq + 3))
        parts.append((n, _near_clique(draw, n, ksq, 2)))
    return _shuffled_union(draw, parts)


@st.composite
def needy_cliques_in_regular_graphs(draw, k: int) -> Graph:
    """:func:`join_needy_clique` on a random r-regular graph, r in S_k, and
    an even clique size s in [k^2, 2k^2) outside S_k, under shuffled labels.

    Only the clique's vertices need degree, and they are pairwise adjacent,
    so no join meets any of it: the whole need is left to the lift's
    leftover path, whatever the graph's size.
    """
    ksq = k * k
    r = draw(st.sampled_from(sk_degrees(k)))
    s = draw(st.sampled_from([s for s in range(ksq, 2 * ksq) if s % 2 == 0 and s % k != k - 1]))
    n = draw(st.integers(2 * s + r, 2 * s + r + 20))  # a greedy matching has over n/4 edges
    base = random_min_degree_graph(n + n * r % 2, r, seed=draw(st.integers(0, 1000)))
    g = join_needy_clique(base, s)
    return _shuffled_union(draw, [(g.vertex_count, list(g.edges))])


def join_needy_clique(base: Graph, s: int) -> Graph:
    """``base`` minus a matching of s/2 edges, the first disjoint ones in edge
    order, plus K_s on fresh vertices n..n+s-1, the i-th joined to the i-th
    matched end: each matched end keeps its degree, and each clique vertex
    has degree s."""
    matched: list[int] = []
    dropped = set()
    for u, v in base.edges:
        if len(dropped) < s // 2 and u not in matched and v not in matched:
            matched += (u, v)
            dropped.add((u, v))
    n = base.vertex_count
    pairs = [e for e in base.edges if e not in dropped]
    pairs += [(n + i, n + j) for i in range(s) for j in range(i + 1, s)]
    pairs += [(v, n + i) for i, v in enumerate(matched)]
    return build_graph(n + s, pairs)


def _near_clique(draw, n: int, ksq: int, removals: int) -> list[tuple[int, int]]:
    """K_n minus up to ``removals`` drawn edges, each removed only while both
    ends keep degree at least k^2."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    degree = [n - 1] * n
    kept = set(pairs)
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=removals)):
        if (u, v) in kept and degree[u] > ksq and degree[v] > ksq:
            kept.remove((u, v))
            degree[u] -= 1
            degree[v] -= 1
    return sorted(kept)


@st.composite
def hub_unions(draw, k: int, max_hubs=3) -> Graph:
    """A :func:`degree_window_unions` graph, enlarged to at least 2k^2
    vertices, plus a few hubs of degree at least 2k^2.

    Each hub joins a drawn set of the vertices before it, earlier hubs
    included, so the split step meets hubs and the vertices they push past
    2k^2 alike; every degree stays at least k^2.
    """
    top = 2 * k * k
    g = draw(degree_window_unions(k))
    n, pairs = g.vertex_count, list(g.edges)
    while n < top:
        more = draw(degree_window_unions(k))
        pairs.extend((u + n, v + n) for u, v in more.edges)
        n += more.vertex_count
    for _ in range(draw(st.integers(1, max_hubs))):
        degree = draw(st.integers(top, min(n, top + k * k)))
        pairs.extend((u, n) for u in draw(st.permutations(range(n)))[:degree])
        n += 1
    return _shuffled_union(draw, [(n, pairs)])


def circulant_edges(n: int, d: int) -> list[tuple[int, int]]:
    """The d-regular circulant on Z_n: steps 1..d/2, plus n/2 when d is odd
    (n even when d is odd, d < n); K_n is the case d = n - 1."""
    edges = [(i, (i + step) % n) for step in range(1, d // 2 + 1) for i in range(n)]
    return edges + [(i, i + n // 2) for i in range(n // 2 if d % 2 else 0)]


@st.composite
def regular_unions(draw, shapes: list[tuple[int, int]], max_parts=4) -> Graph:
    """Shuffled disjoint unions of circulants whose (n, d) are drawn from ``shapes``."""
    chosen = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=max_parts))
    return _shuffled_union(draw, [(n, circulant_edges(n, d)) for n, d in chosen])


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
