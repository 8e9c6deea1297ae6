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

A split may cover only a subset of a graph's edges.  Degrees, components and
bad vertices are then those of the subset, the walk runs on the graph's own
adjacency with every other edge marked used beforehand, and the sides stay
indexed by the graph's edge ids, ``-1`` outside the subset.  The result is
the split of ``edge_subgraph(graph, edges)`` mapped back to the graph's ids,
without building that subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import InputError, SelectorExhaustedError
from .graph import Graph, components, hierholzer_circuit

BLUE = 0
RED = 1

#: Given a component's sorted vertex tuple, return the chosen bad vertex or
#: ``None`` when no listed vertex is admissible.
BadSelector = Callable[[tuple[int, ...]], Optional[int]]


@dataclass(frozen=True)
class Bicolouring:
    """Edge sides (0 = blue, 1 = red, -1 = not split) and the bad vertices."""

    side: tuple[int, ...]
    bad_vertices: tuple[int, ...]


def balanced_bicolouring(
    graph: Graph,
    bad_selector: Optional[BadSelector] = None,
    edges: Optional[Iterable[int]] = None,
) -> Bicolouring:
    """Split every component's edges into blue and red, balanced per vertex.

    ``edges`` restricts the split to those edge ids of ``graph`` (all edges
    when ``None``); an id listed twice or outside the graph is an
    :class:`InputError`.  ``side`` has one entry per edge of ``graph``,
    ``-1`` for an edge outside the subset.  ``bad_selector`` is consulted
    only for components that force a bad vertex (all degrees even, odd edge
    count); returning ``None`` raises :class:`SelectorExhaustedError`, which
    callers treat as a breach of their theorem's hypotheses.  Without a
    selector the least vertex is designated.  The bad vertex always receives
    its surplus edge in red.
    """
    m = graph.edge_count
    aux = graph.vertex_count
    edges = range(m) if edges is None else list(edges)
    comps = components(graph, edges)
    # One cursor list (the walk's adjacency, plus an auxiliary vertex) and
    # one used array serve every component: components share no vertex or
    # edge, so only the auxiliary vertex's cursor is reset, and auxiliary
    # edges take fresh ids m, m+1, ... across them.  Being larger than every
    # edge id of the graph, they come last at each vertex, as they would in
    # the subgraph of the subset.
    cursors = [iter(a) for a in graph.adjacency]
    cursors.append(iter(()))
    degree = [0] * aux
    used = [True] * m + [False] * aux
    ends = graph.edges
    for e in edges:
        if not used[e]:
            raise InputError(f"edge id {e} is listed twice")
        used[e] = False
        u, v = ends[e]
        degree[u] += 1
        degree[v] += 1
    side: list[int] = [-1] * (m + aux)  # auxiliary edges' entries are cut off at the end
    bad: list[int] = []
    aux_edges = m
    for comp in comps:
        degree_sum = sum(degree[v] for v in comp)
        if not degree_sum:
            continue
        odd = [v for v in comp if degree[v] % 2 == 1]
        if odd:
            joins = [(v, aux_edges + j) for j, v in enumerate(odd)]
            cursors[aux] = iter(joins)
            for v, e in joins:
                cursors[v] = iter(graph.adjacency[v] + ((aux, e),))
            aux_edges += len(odd)
            start = aux
        elif degree_sum // 2 % 2 == 1:
            u = comp[0] if bad_selector is None else bad_selector(comp)
            if u is None:
                raise SelectorExhaustedError(
                    f"no admissible bad vertex in component starting at {comp[0]}"
                )
            bad.append(u)
            start = u
        else:
            start = comp[0]
        circuit = hierholzer_circuit(start, cursors, used)
        for e in circuit[0::2]:
            side[e] = RED
        for e in circuit[1::2]:
            side[e] = BLUE
    return Bicolouring(tuple(side[:m]), tuple(sorted(bad)))
