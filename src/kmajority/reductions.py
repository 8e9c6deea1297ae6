"""Degree-confining graph transforms and colouring pull-back.

Two reductions let the small-k colouring schemes assume every degree lies in

    S_k = { i : k^2 <= i < 2k^2, i = k-1 (mod k) }

without losing generality:

* :func:`split_high_degree` replaces each vertex of degree >= 2k^2 by several
  vertices of degree in [k^2, 2k^2), partitioning its incident edges; every
  edge keeps its id.
* :func:`raise_to_sk` lifts each component that needs it: it adds the fewest
  fresh copies (at most 3 for k <= 4) and joins the copies of every vertex by
  a small regular circulant, so every degree gains at most k-1, lands in S_k
  and keeps its majority cap: floor(d_new/k) = floor(d_old/k).  The input's
  edges keep their ids and the new edges follow them.

So edge e of the original graph is edge e of either transformed graph, and
:func:`pull_back_colouring` keeps the first m colours of a valid colouring of
the transformed graph; the result stays valid thanks to the cap arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import EdgeColouring
from .errors import InputError, InternalInvariantError, PreconditionError
from .graph import Edge, Graph, _assemble, components


def sk_degrees(k: int) -> tuple[int, ...]:
    """The admissible degree set S_k in increasing order."""
    return tuple(i for i in range(k * k, 2 * k * k) if i % k == k - 1)


@dataclass(frozen=True)
class SplitTrace:
    """Vertex-splitting record: new vertex -> origin."""

    origin: tuple[int, ...]


@dataclass(frozen=True)
class LiftTrace:
    """Lift record: the most fresh copies of any component (0: unchanged)."""

    copies: int


def split_high_degree(graph: Graph, k: int) -> tuple[Graph, SplitTrace]:
    """Split every vertex of degree >= 2k^2 into parts of degree in [k^2, 2k^2).

    A vertex of degree n*k^2 + d (with k^2 <= d < 2k^2) becomes n+1 vertices
    taking d, k^2, ..., k^2 of its incident edges, assigned in increasing
    neighbour order.  Edges keep their indices; only endpoints are renamed.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    ksq = k * k
    if graph.min_degree() < ksq:
        raise PreconditionError(f"minimum degree {graph.min_degree()} below k^2 = {ksq}")
    origin: list[int] = []
    first_part: list[int] = [0] * graph.vertex_count
    part_of_edge: dict[tuple[int, int], int] = {}  # (vertex, edge) -> part offset
    for v in range(graph.vertex_count):
        first_part[v] = len(origin)
        d_v = graph.degree(v)
        if d_v < 2 * ksq:
            origin.append(v)
            continue
        parts = (d_v - ksq) // ksq  # degree = parts*k^2 + head with k^2 <= head < 2k^2
        head = d_v - parts * ksq
        origin.extend([v] * (parts + 1))
        for rank, (_, e) in enumerate(sorted(graph.adjacency[v], key=lambda item: item[0])):
            part_of_edge[(v, e)] = 0 if rank < head else 1 + (rank - head) // ksq
    new_edges = []
    for e, (u, v) in enumerate(graph.edges):
        nu = first_part[u] + part_of_edge.get((u, e), 0)
        nv = first_part[v] + part_of_edge.get((v, e), 0)
        new_edges.append((nu, nv))
    # Parts of one vertex are distinct new vertices, so no loop or parallel
    # edge can appear: the renamed edges skip re-validation.
    out = _assemble(len(origin), new_edges)
    if out.max_degree() >= 2 * ksq or out.min_degree() < ksq:
        raise InternalInvariantError("split left a degree outside [k^2, 2k^2)")
    return out, SplitTrace(tuple(origin))


def raise_to_sk(graph: Graph, k: int) -> tuple[Graph, LiftTrace]:
    """Lift every degree into S_k by joining fresh copies of each component.

    A vertex of degree d needs t = (k-1-d) mod k more edges, which keeps its
    cap: floor((d+t)/k) = floor(d/k).  A component whose t are all 0 is left
    as it is.  Any other component gets the fewest copies c for which every
    t-regular simple graph on c vertices exists (c > max t, and c even when
    some t is odd), and the c copies of each vertex v are joined by the
    t_v-regular circulant on Z_c with steps 1..floor(t_v/2), plus c/2 when
    t_v is odd.  The input keeps all its vertex and edge indices; fresh
    copies and their joining edges follow in order of each component's least
    vertex.  Restricted to k <= 4, so c <= 4.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    if k > 4:
        raise InputError(f"lifting is limited to k <= 4 (size guard), got k = {k}")
    ksq = k * k
    if graph.min_degree() < ksq:
        raise PreconditionError(f"minimum degree {graph.min_degree()} below k^2 = {ksq}")
    if graph.max_degree() >= 2 * ksq:
        raise PreconditionError(f"maximum degree {graph.max_degree()} not below 2k^2 = {2 * ksq}")
    need = [(k - 1 - d) % k for d in graph.degrees()]
    if not any(need):
        return graph, LiftTrace(0)
    comps = components(graph)
    owner = [0] * graph.vertex_count
    rank = [0] * graph.vertex_count  # position of a vertex within its component
    for i, comp in enumerate(comps):
        for r, v in enumerate(comp):
            owner[v] = i
            rank[v] = r
    comp_edges: list[list[Edge]] = [[] for _ in comps]
    for u, v in graph.edges:
        comp_edges[owner[u]].append((rank[u], rank[v]))
    edges = list(graph.edges)
    vertex_count = graph.vertex_count
    copies = 0
    for comp, local_edges in zip(comps, comp_edges):
        top = max(need[v] for v in comp)
        if top == 0:
            continue
        c = top + 1
        if c % 2 and any(need[v] % 2 for v in comp):
            c += 1
        copies = max(copies, c - 1)
        # The t-regular circulant on Z_c, for each t: steps 1..t/2 and c/2.
        circulant = [
            [(i, (i + step) % c) for step in range(1, t // 2 + 1) for i in range(c)]
            + [(i, i + c // 2) for i in range(c // 2 if t % 2 else 0)]
            for t in range(c)
        ]
        # Fresh copy i of the component's r-th vertex is bases[i - 1] + r.
        bases = range(vertex_count, vertex_count + (c - 1) * len(comp), len(comp))
        vertex_count = bases[-1] + len(comp)
        for base in bases:
            edges.extend([(base + a, base + b) for a, b in local_edges])
        for r, v in enumerate(comp):
            if need[v]:
                ring = [v, *range(bases[0] + r, vertex_count, len(comp))]  # the c copies of v
                edges.extend([(ring[i], ring[j]) for i, j in circulant[need[v]]])
    # Copies are disjoint and each circulant joins copies of one vertex by
    # distinct steps, so the lifted graph is simple by construction.
    lifted = _assemble(vertex_count, edges)
    if not set(sk_degrees(k)).issuperset(lifted.degrees()):
        raise InternalInvariantError(f"lift left a degree outside S_{k}")
    return lifted, LiftTrace(copies)


def pull_back_colouring(colouring: EdgeColouring, graph: Graph) -> EdgeColouring:
    """The colouring of ``graph`` that a colouring of a graph transformed from
    it induces: both reductions keep every edge id, so its first m colours."""
    m = graph.edge_count
    if len(colouring.colours) < m:
        raise InputError(f"colouring has {len(colouring.colours)} edges, graph has {m}")
    return EdgeColouring(colouring.colours[:m], colouring.colour_count)
