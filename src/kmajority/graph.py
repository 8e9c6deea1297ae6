"""Simple-graph core: construction, components, bipartiteness, Euler circuits.

Graphs are immutable values with dense integer vertex and edge indices.
Every traversal below iterates vertices in increasing index order and
incident edges in increasing edge-index order, so all derived structures
(components, circuits) are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from operator import xor
from typing import Iterable, Iterator, Sequence

from .errors import BuildError, InputError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``incident[v]`` holds v's edge ids in increasing order, and
    ``xor_ends[e]`` is ``u ^ v`` for edge e = (u, v), so the far end of e
    from v is ``xor_ends[e] ^ v``.  Instances are safe to share between
    concurrent tasks; all operations in this package treat them as
    read-only.  ``xor_ends`` and the degrees are computed once, when the
    graph is built.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    incident: tuple[tuple[int, ...], ...]
    xor_ends: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _degrees: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "xor_ends", tuple(starmap(xor, self.edges)))
        object.__setattr__(self, "_degrees", tuple(map(len, self.incident)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def min_degree(self) -> int:
        return min(self._degrees, default=0)

    def max_degree(self) -> int:
        return max(self._degrees, default=0)


def build_graph(vertex_count: int, edge_pairs: Iterable[Edge]) -> Graph:
    """Validate ``edge_pairs`` and assemble a :class:`Graph`.

    Raises :class:`BuildError` naming the offending pair on a self-loop,
    a duplicate edge, or a vertex index out of range.
    """
    if vertex_count < 0:
        raise BuildError(f"vertex count must be nonnegative, got {vertex_count}")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for u, v in edge_pairs:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise BuildError(f"edge ({u}, {v}) has a vertex index outside 0..{vertex_count - 1}")
        if u == v:
            raise BuildError(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise BuildError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    return _assemble(vertex_count, edges)


def _assemble(vertex_count: int, edges: Sequence[Edge]) -> Graph:
    """The one place incidence lists are built; callers guarantee a simple graph.

    Derived graphs whose edges are simple by construction (subsets, lifts,
    renamings into disjoint parts) come here without re-validation.
    """
    incident: list[list[int]] = [[] for _ in range(vertex_count)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    return Graph(vertex_count, tuple(edges), tuple(map(tuple, incident)))


def _checked_edge_ids(graph: Graph, edges: Iterable[int]) -> list[int]:
    """``edges`` sorted, after an :class:`InputError` for an id outside the
    graph or listed twice; the one check of every edge subset."""
    edges = sorted(edges)
    if edges and not (0 <= edges[0] and edges[-1] < graph.edge_count):
        raise InputError(f"edge indices must lie in 0..{graph.edge_count - 1}")
    for e, after in zip(edges, edges[1:]):
        if e == after:
            raise InputError(f"edge id {e} is listed twice")
    return edges


def components(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    incident, ends = graph.incident, graph.xor_ends
    seen = [False] * graph.vertex_count
    found = []
    for root in range(graph.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        block = [root]
        for v in block:  # grows while it is read: a breadth-first search
            for e in incident[v]:
                u = ends[e] ^ v
                if not seen[u]:
                    seen[u] = True
                    block.append(u)
        block.sort()
        found.append(tuple(block))
    return tuple(found)


def is_bipartite(graph: Graph) -> bool:
    """Whether a breadth-first 2-colouring of every component succeeds."""
    incident, ends = graph.incident, graph.xor_ends
    side = [-1] * graph.vertex_count
    for root in range(graph.vertex_count):
        if side[root] >= 0:
            continue
        side[root] = 0
        block = [root]
        for v in block:  # grows while it is read: a breadth-first search
            for e in incident[v]:
                u = ends[e] ^ v
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    block.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def hierholzer_circuit(
    start: int, cursors: list[Iterator[int]], xor_ends: Sequence[int], used: list[bool]
) -> list[int]:
    """Eulerian circuit over per-vertex edge-id cursors.

    ``cursors[v]`` iterates over v's edge ids in increasing order, and
    yields only the ids not tried yet; ``xor_ends[e] ^ v`` is the far end
    of edge e from v.  Returns the edge ids in traversal order starting
    (and ending) at ``start``, always taking the unused incident edge with
    the least id.  ``cursors``, ``xor_ends`` and ``used[e]`` are
    caller-owned, so one set can serve many disjoint components, and may
    cover auxiliary edge ids past the graph's: the walk only advances the
    cursors and marks the edges it reaches.  An edge already marked used
    is never walked, so a caller can restrict the walk to a subset of the
    edges.  The caller guarantees the even-degree and connectivity
    preconditions for the edges left unused.
    """
    # Extend the trail along v's least unused edge; a stuck v closes a
    # sub-circuit, so the trail's last edge is emitted and v steps back.
    trail: list[int] = []
    out: list[int] = []
    v = start
    while True:
        for e in cursors[v]:
            if not used[e]:
                used[e] = True
                trail.append(e)
                v ^= xor_ends[e]
                break
        else:
            if not trail:
                break
            e = trail.pop()
            out.append(e)
            v ^= xor_ends[e]
    out.reverse()
    return out


def edge_subgraph(graph: Graph, edge_indices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the same vertex set keeping ``edge_indices``.

    Returns the subgraph and the map new edge index -> original edge index
    (edges kept in increasing original order).  A subset of a simple graph's
    edges is simple, so only the indices are checked (:class:`InputError`);
    an index listed more than once is kept once.
    """
    kept = _checked_edge_ids(graph, set(edge_indices))
    sub = _assemble(graph.vertex_count, [graph.edges[e] for e in kept])
    return sub, tuple(kept)
