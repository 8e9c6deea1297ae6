"""Simple-graph core: construction, components, bipartiteness, Euler circuits.

Graphs are immutable values with dense integer vertex and edge indices.
Every traversal below iterates vertices in increasing index order and
incident edges in increasing edge-index order, so all derived structures
(components, witnesses, circuits) are reproducible byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BuildError, InputError, PreconditionError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``adjacency[v]`` holds ``(neighbour, edge_index)`` pairs in increasing
    edge-index order.  Instances are safe to share between concurrent tasks;
    all operations in this package treat them as read-only.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)


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
    """The one place adjacency is built; callers guarantee a simple graph.

    Derived graphs whose edges are simple by construction (subsets, disjoint
    copies, renamings into disjoint parts) come here without re-validation.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for e, (u, v) in enumerate(edges):
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    return Graph(vertex_count, tuple(edges), tuple(map(tuple, adjacency)))


def _checked_edge_ids(graph: Graph, edges: Iterable[int]) -> list[int]:
    """``edges`` as a list, after an :class:`InputError` for an id outside the graph."""
    edges = list(edges)
    if edges and not (0 <= min(edges) and max(edges) < graph.edge_count):
        raise InputError(f"edge indices must lie in 0..{graph.edge_count - 1}")
    return edges


def components(
    graph: Graph, edges: Optional[Iterable[int]] = None
) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by least vertex.

    With ``edges``, the components of the spanning subgraph that keeps only
    those edge ids: the same blocks as ``components(edge_subgraph(graph,
    edges)[0])``, a vertex none of them touches being a block of its own,
    without building the subgraph.
    """
    n = graph.vertex_count
    adjacency = graph.adjacency
    if edges is None:
        keep = [True] * graph.edge_count
    else:
        keep = [False] * graph.edge_count
        for e in _checked_edge_ids(graph, edges):
            keep[e] = True
    seen = [False] * n
    out: list[tuple[int, ...]] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        block = [root]
        for v in block:  # grows while it is read: a breadth-first search
            for u, e in adjacency[v]:
                if not seen[u] and keep[e]:
                    seen[u] = True
                    block.append(u)
        block.sort()
        out.append(tuple(block))
    return tuple(out)


@dataclass(frozen=True)
class BipartiteCheck:
    """Either a proper 2-side labelling or an odd-cycle witness.

    ``sides[v]`` is 0/1 when the graph is bipartite, else ``odd_cycle`` holds
    an odd closed edge sequence (consecutive edges share a vertex).
    """

    sides: Optional[tuple[int, ...]]
    odd_cycle: Optional[tuple[int, ...]]

    @property
    def bipartite(self) -> bool:
        return self.sides is not None


def is_bipartite(graph: Graph) -> BipartiteCheck:
    """BFS 2-colouring; on failure returns an odd cycle through the conflict edge."""
    side = [-1] * graph.vertex_count
    parent_edge: list[int] = [-1] * graph.vertex_count
    parent: list[int] = [-1] * graph.vertex_count
    depth = [0] * graph.vertex_count
    for root in range(graph.vertex_count):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u, e in graph.adjacency[v]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    parent[u] = v
                    parent_edge[u] = e
                    depth[u] = depth[v] + 1
                    queue.append(u)
                elif side[u] == side[v] and e != parent_edge[v]:
                    return BipartiteCheck(None, _odd_cycle(v, u, e, parent, parent_edge, depth))
    return BipartiteCheck(tuple(side), None)


def _odd_cycle(v: int, u: int, conflict_edge: int, parent, parent_edge, depth) -> tuple[int, ...]:
    # Walk both endpoints up to their lowest common ancestor in the BFS forest.
    left, right = [], []
    a, b = v, u
    while depth[a] > depth[b]:
        left.append(parent_edge[a])
        a = parent[a]
    while depth[b] > depth[a]:
        right.append(parent_edge[b])
        b = parent[b]
    while a != b:
        left.append(parent_edge[a])
        right.append(parent_edge[b])
        a, b = parent[a], parent[b]
    # Edge sequence v..lca, lca..u, then the closing conflict edge.
    return tuple(left + right[::-1] + [conflict_edge])


def hierholzer_circuit(
    start: int, cursors: list[Iterator[tuple[int, int]]], used: list[bool]
) -> list[int]:
    """Eulerian circuit over per-vertex adjacency cursors.

    ``cursors[v]`` iterates over v's ``(neighbour, edge id)`` pairs in
    increasing edge-id order, and yields only the pairs not tried yet.
    Returns the edge ids in traversal order starting (and ending) at
    ``start``, always taking the unused incident edge with the least id.
    ``cursors`` and ``used[e]`` are caller-owned, so one pair can serve many
    disjoint components: the walk only advances the cursors and marks the
    edges it reaches.  An edge already marked used is never walked, so a
    caller can restrict the walk to a subset of the edges.  The caller
    guarantees the even-degree and connectivity preconditions for the edges
    left unused.
    """
    vertex_stack = [start]
    edge_stack: list[int] = []
    out: list[int] = []
    while vertex_stack:
        # Extend the trail along the least unused edge until it is stuck;
        # the stuck vertex closes a sub-circuit, so its edge is emitted.
        v = vertex_stack[-1]
        while True:
            for u, e in cursors[v]:
                if not used[e]:
                    break
            else:
                break
            used[e] = True
            vertex_stack.append(u)
            edge_stack.append(e)
            v = u
        vertex_stack.pop()
        if edge_stack:
            out.append(edge_stack.pop())
    out.reverse()
    return out


def eulerian_circuit(graph: Graph, start: Optional[int] = None) -> tuple[int, ...]:
    """Closed trail through every edge exactly once, as an edge-index sequence.

    Requires at least one edge, all degrees even, and all edges in one
    component; otherwise raises :class:`PreconditionError`.
    """
    if graph.edge_count == 0:
        raise PreconditionError("eulerian circuit needs at least one edge")
    odd = [v for v in range(graph.vertex_count) if graph.degree(v) % 2]
    if odd:
        raise PreconditionError(f"odd-degree vertices present: {odd[:4]}")
    active = [v for v in range(graph.vertex_count) if graph.degree(v) > 0]
    # Every vertex of an edge's component has an edge, so the edges are
    # connected exactly when the first active vertex reaches all the others.
    if len(next(c for c in components(graph) if c[0] == active[0])) != len(active):
        raise PreconditionError("graph edges are not connected")
    if start is None:
        start = active[0]
    elif graph.degree(start) == 0:
        raise InputError(f"start vertex {start} has no incident edges")
    circuit = hierholzer_circuit(
        start, [iter(a) for a in graph.adjacency], [False] * graph.edge_count
    )
    assert len(circuit) == graph.edge_count
    return tuple(circuit)


def edge_subgraph(graph: Graph, edge_indices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the same vertex set keeping ``edge_indices``.

    Returns the subgraph and the map new edge index -> original edge index
    (edges kept in increasing original order).  A subset of a simple graph's
    edges is simple, so only the indices are checked (:class:`InputError`).
    """
    kept = _checked_edge_ids(graph, sorted(set(edge_indices)))
    sub = _assemble(graph.vertex_count, [graph.edges[e] for e in kept])
    return sub, tuple(kept)


def circuit_vertices(graph: Graph, circuit: Sequence[int]) -> list[int]:
    """Vertex sequence visited by an edge circuit (first vertex repeated last)."""
    if not circuit:
        return []
    if len(circuit) == 1:
        raise InputError("a closed trail in a simple graph has at least 3 edges")
    a = set(graph.edges[circuit[0]])
    b = set(graph.edges[circuit[1]])
    shared = a & b
    first = (a - shared).pop() if a - shared else shared.pop()
    order = [first]
    for e in circuit:
        u, v = graph.edges[e]
        order.append(v if order[-1] == u else u)
    return order
