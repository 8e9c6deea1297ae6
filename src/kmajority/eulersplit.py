"""Balanced two-colourings of edges via Euler circuits.

Per connected component, each colour lands on at most ``ceil(d(u)/2)`` of the
edges at every vertex ``u``.  A component whose degrees are all even but whose
edge count is odd cannot avoid one lopsided vertex: its designated "bad
vertex" ends with ``d/2 + 1`` red and ``d/2 - 1`` blue edges, and every other
vertex splits exactly evenly.

The construction joins one auxiliary vertex to all odd-degree vertices of a
component, walks an Euler circuit from it (or from the bad vertex), and
colours the traversal alternately; the auxiliary edges only consume parity
slots and are discarded.

A split may cover only a subset of a graph's edges, whose ids go through
the graph module's one subset check.  Degrees, components and bad vertices
are then those of the subset: one int list per vertex, built per call, holds
the subset's own edge ids in increasing order, and both the graph module's
one component search and the walk run on these lists, with the graph's
``xor_ends`` for the far ends.  The sides stay indexed by the graph's edge
ids, ``-1`` outside the subset.  The result is the split of
``edge_subgraph(graph, edges)`` mapped back to the graph's ids, without
building that subgraph.  A call still costs O(n + m) whatever the subset's
size: it copies ``xor_ends`` and allocates ``used`` and ``side`` over the m
edge ids plus n auxiliary ones, keeps n incidence lists, cursors and
degrees, and the component search scans every vertex with a ``seen`` list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import SelectorExhaustedError
from .graph import Graph, _checked_edge_ids, _components, hierholzer_circuit
from .graph import components  # noqa: F401 - unused here, but perfbench/tracer.py wraps it

BLUE = 0
RED = 1


@dataclass(frozen=True)
class Bicolouring:
    """Edge sides (0 = blue, 1 = red, -1 = not split) and the bad vertices."""

    side: tuple[int, ...]
    bad_vertices: tuple[int, ...]


def balanced_bicolouring(
    graph: Graph,
    admissible: Optional[Callable[[int, int], bool]] = None,
    edges: Optional[Iterable[int]] = None,
) -> Bicolouring:
    """Split every component's edges into blue and red, balanced per vertex.

    ``edges`` restricts the split to those edge ids of ``graph`` (all edges
    when ``None``); an id listed twice or outside the graph is an
    :class:`InputError`.  ``side`` has one entry per edge of ``graph``,
    ``-1`` for an edge outside the subset.  A component that forces a bad
    vertex (all degrees even, odd edge count) designates its least vertex v
    with ``admissible(v, d)``, d being v's degree among the split edges, or
    its least vertex when ``admissible`` is ``None``.  With no admissible
    vertex it raises :class:`SelectorExhaustedError`, which callers treat as
    a breach of their theorem's hypotheses.  The bad vertex always receives
    its surplus edge in red.
    """
    m = graph.edge_count
    aux = graph.vertex_count
    if edges is None:
        incident = graph.incident
    else:
        # Each list keeps the graph's increasing edge-id order, so the walk
        # takes the edges the subgraph of the subset would, in its order.
        incident = [[] for _ in range(aux)]
        ends = graph.edges
        for e in _checked_edge_ids(graph, edges):
            u, v = ends[e]
            incident[u].append(e)
            incident[v].append(e)
    # One cursor list (plus an auxiliary vertex), one far-end list and one
    # used array serve every component: components share no vertex or edge,
    # so only the auxiliary vertex's cursor is reset, and auxiliary edges
    # take fresh ids m, m+1, ... across them, their far ends appended to
    # ``xor_ends``.  Being larger than every edge id of the graph, they come
    # last at each vertex, as they would in the subgraph.
    xor_ends = list(graph.xor_ends)
    cursors = [iter(a) for a in incident]
    cursors.append(iter(()))
    degree = list(map(len, incident))
    used = [False] * (m + aux)
    side: list[int] = [-1] * (m + aux)  # auxiliary edges' entries are cut off at the end
    bad: list[int] = []
    aux_edges = m
    for comp in _components(incident, graph.xor_ends):
        if not degree[comp[0]]:  # a vertex no split edge touches
            continue
        odd = [v for v in comp if degree[v] % 2]
        if odd:
            cursors[aux] = iter(range(aux_edges, aux_edges + len(odd)))
            for v in odd:
                cursors[v] = iter((*incident[v], aux_edges))
                xor_ends.append(aux ^ v)
                aux_edges += 1
            start = aux
        elif sum(degree[v] for v in comp) // 2 % 2 == 1:
            u = next((v for v in comp if admissible is None or admissible(v, degree[v])), None)
            if u is None:
                raise SelectorExhaustedError(
                    f"no admissible bad vertex in component starting at {comp[0]}"
                )
            bad.append(u)
            start = u
        else:
            start = comp[0]
        circuit = hierholzer_circuit(start, cursors, xor_ends, used)
        for e in circuit[0::2]:
            side[e] = RED
        for e in circuit[1::2]:
            side[e] = BLUE
    return Bicolouring(tuple(side[:m]), tuple(sorted(bad)))
