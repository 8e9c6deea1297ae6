"""Balanced two-colourings of edges via Euler circuits.

Per connected component, each colour lands on at most ``ceil(d(u)/2)`` of the
edges at every vertex ``u``.  A component whose degrees are all even but whose
edge count is odd cannot avoid one lopsided vertex: its designated "bad
vertex" ends with ``d/2 + 1`` red and ``d/2 - 1`` blue edges, and every other
vertex splits exactly evenly.

The construction joins one auxiliary vertex to all odd-degree vertices of a
class and walks one Euler circuit from it through every component that has
one; each other component is all even, and is walked from its least vertex
(or from its bad vertex).  Each circuit is coloured alternately; the
auxiliary edges only consume parity slots and are discarded.

One call splits every class of an edge labelling, as a level of the small-k
and refined schemes needs: each class is split as ``edge_subgraph`` of its
edges would be, in the graph's ids.  Classes are walked in increasing order
over the graph's vertex ids, on edge lists, cursors, ``used``, ``side`` and a
copy of ``xor_ends`` allocated once per call, each class setting and
clearing only its own entries: O(n + m) whatever the labelling, with no
component search and no table of classes by vertices, plus the sorts of the
class names and of each class's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import InputError, SelectorExhaustedError
from .graph import Graph, hierholzer_circuit
from .graph import components  # noqa: F401 - unused here, but perfbench/tracer.py wraps it

BLUE = 0
RED = 1


@dataclass(frozen=True)
class Bicolouring:
    """Edge sides (0 = blue, 1 = red, -1 = not split) and the bad vertices,
    as sorted (class, vertex) pairs."""

    side: tuple[int, ...]
    bad_vertices: tuple[tuple[int, int], ...]


def balanced_bicolouring(
    graph: Graph,
    admissible: Optional[Callable[[int, int, int], bool]] = None,
    labels: Optional[Sequence[int]] = None,
) -> Bicolouring:
    """Split every class's components into blue and red, balanced per vertex.

    ``labels[e]`` is edge e's class, ``-1`` (and side ``-1``) for an edge
    that is not split; every edge is in class 0 when ``labels`` is ``None``,
    and a list of the wrong length is an :class:`InputError`.  One circuit
    splits every component of class c that has an odd-degree vertex, so a
    union is not split as its components are alone; a component whose degrees
    are all even is.  When its edge count is odd it forces a bad vertex: its
    least vertex v with ``admissible(c, v, d)``, d being v's degree in class
    c, or its least vertex when ``admissible`` is ``None``.  With no
    admissible vertex it raises :class:`SelectorExhaustedError`, which
    callers treat as a breach of their theorem's hypotheses.  The bad vertex
    always receives its surplus edge in red.
    """
    m, n = graph.edge_count, graph.vertex_count
    if labels is None:
        classes: dict[int, Sequence[int]] = {0: range(m)}
    elif len(labels) != m:
        raise InputError(f"{len(labels)} labels for {m} edges")
    else:
        classes = {}
        for e, c in enumerate(labels):
            if c >= 0:
                try:
                    classes[c].append(e)
                except KeyError:
                    classes[c] = [e]
    ends = graph.edges
    # While class c is walked, ``incident[v]`` holds its edges at v in order
    # (None where it has none) and ``touched`` its vertices in order.  An
    # auxiliary vertex n joins the class's odd vertices by edges m, m+1, ...:
    # larger than every edge id, they come last at each vertex, as in the
    # class's own subgraph, and each class reuses them.
    incident: list[Optional[Sequence[int]]] = [None] * n
    xor_ends = [*graph.xor_ends, *[0] * n]
    cursors: list[Iterator[int]] = [iter(())] * (n + 1)
    used = [False] * (m + n)
    side: list[int] = [-1] * (m + n)  # auxiliary edges' entries are cut off at the end
    bad: list[tuple[int, int]] = []
    for c in sorted(classes):
        edges = classes[c]
        if len(edges) == m:
            incident[:] = graph.incident
            cursors[:n] = map(iter, incident)
            touched = [v for v in range(n) if incident[v]]
        else:
            touched = []
            for e in edges:
                u, v = ends[e]
                at = incident[u]
                if at is None:
                    incident[u] = at = [e]
                    cursors[u] = iter(at)
                    touched.append(u)
                else:
                    at.append(e)
                at = incident[v]
                if at is None:
                    incident[v] = at = [e]
                    cursors[v] = iter(at)
                    touched.append(v)
                else:
                    at.append(e)
            touched.sort()
        # The walk from n splits every component that has an odd vertex; each
        # one left is walked from its least vertex, whose first edge is unused.
        odd = [v for v in touched if len(incident[v]) % 2]
        cursors[n] = iter(range(m, m + len(odd)))
        used[m : m + len(odd)] = [False] * len(odd)
        for e, v in enumerate(odd, m):
            cursors[v] = iter((*incident[v], e))
            xor_ends[e] = n ^ v
        for v in (n, *touched):
            if v < n and used[incident[v][0]]:
                continue
            circuit = hierholzer_circuit(v, cursors, xor_ends, used)
            if v < n and len(circuit) % 2:
                if admissible is not None and not admissible(c, v, len(incident[v])):
                    # Walk the component again from its least admissible vertex.
                    comp = sorted({u for e in circuit for u in ends[e]})
                    for u in comp:
                        cursors[u] = iter(incident[u])
                    for e in circuit:
                        used[e] = False
                    v = next((u for u in comp[1:] if admissible(c, u, len(incident[u]))), -1)
                    if v < 0:
                        raise SelectorExhaustedError(
                            f"no admissible bad vertex in the class-{c} component of {comp[0]}"
                        )
                    circuit = hierholzer_circuit(v, cursors, xor_ends, used)
                bad.append((c, v))
            for e in circuit[0::2]:
                side[e] = RED
            for e in circuit[1::2]:
                side[e] = BLUE
        for v in touched:  # dropping the cursors leaves the collector nothing to scan
            incident[v] = cursors[v] = None
    return Bicolouring(tuple(side[:m]), tuple(sorted(bad)))
