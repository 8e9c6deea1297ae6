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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import SelectorExhaustedError
from .graph import Graph, components, hierholzer_circuit

BLUE = 0
RED = 1

#: Given a component's sorted vertex tuple, return the chosen bad vertex or
#: ``None`` when no listed vertex is admissible.
BadSelector = Callable[[tuple[int, ...]], Optional[int]]


@dataclass(frozen=True)
class Bicolouring:
    """Edge sides (0 = blue, 1 = red) and the designated bad vertices."""

    side: tuple[int, ...]
    bad_vertices: tuple[int, ...]


def balanced_bicolouring(graph: Graph, bad_selector: Optional[BadSelector] = None) -> Bicolouring:
    """Split every component's edges into blue and red, balanced per vertex.

    ``bad_selector`` is consulted only for components that force a bad vertex
    (all degrees even, odd edge count); returning ``None`` raises
    :class:`SelectorExhaustedError`, which callers treat as a breach of their
    theorem's hypotheses.  Without a selector the least vertex is designated.
    The bad vertex always receives its surplus edge in red.
    """
    m = graph.edge_count
    side: list[int] = [-1] * m
    bad: list[int] = []
    aux = graph.vertex_count
    # One augmented adjacency, pointer and used array serve every component:
    # components share no vertex or edge, so only the auxiliary vertex's slot
    # is reset, and auxiliary edges take fresh ids m, m+1, ... across them.
    adjacency: list = [*graph.adjacency, ()]
    pointer = [0] * (aux + 1)
    used = [False] * (m + aux)
    aux_edges = m
    for comp in components(graph):
        degree_sum = sum(len(graph.adjacency[v]) for v in comp)
        if not degree_sum:
            continue
        odd = [v for v in comp if len(graph.adjacency[v]) % 2 == 1]
        if odd:
            adjacency[aux] = [(v, aux_edges + j) for j, v in enumerate(odd)]
            for v, e in adjacency[aux]:
                adjacency[v] = graph.adjacency[v] + ((aux, e),)
            aux_edges += len(odd)
            pointer[aux] = 0
            start = aux
        elif degree_sum // 2 % 2 == 1:
            if bad_selector is None:
                u = comp[0]
            else:
                u = bad_selector(comp)
                if u is None:
                    raise SelectorExhaustedError(
                        f"no admissible bad vertex in component starting at {comp[0]}"
                    )
            bad.append(u)
            start = u
        else:
            start = comp[0]
        circuit = hierholzer_circuit(adjacency, start, pointer, used)
        for pos, e in enumerate(circuit):
            if e < m:
                side[e] = RED if pos % 2 == 0 else BLUE
    return Bicolouring(tuple(side), tuple(sorted(bad)))
