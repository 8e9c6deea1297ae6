"""Degree-confining graph transforms and colouring pull-back.

The small-k colouring schemes may assume every degree lies in

    S_k = { i : k^2 <= i < 2k^2, i = k-1 (mod k) }

A vertex of degree d in [k^2, 2k^2) needs t = (k-1-d) mod k more edges to
reach S_k, and keeps its majority cap: floor((d+t)/k) = floor(d/k).
:func:`split_high_degree` splits each vertex of degree >= 2k^2 into parts of
degree in [k^2, 2k^2); :func:`raise_to_sk` joins non-adjacent vertices of one
component that both need degree, then meets the rest of the need with fresh
copies of each component (at most 3 for k <= 4).  Each step keeps its
input's edge ids and appends its new edges, so
:func:`pull_back_colouring` keeps the first m colours.  They stay valid: a
colour's count at v in G is at most its count in the supergraph, which is at
most floor(d'/k) = floor(d/k) (the caps of a split vertex's parts sum to at
most its own).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

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
    A graph with no such vertex comes back as the same object.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    ksq = k * k
    if graph.min_degree() < ksq:
        raise PreconditionError(f"minimum degree {graph.min_degree()} below k^2 = {ksq}")
    if graph.max_degree() < 2 * ksq:
        return graph, SplitTrace(tuple(range(graph.vertex_count)))
    incident, ends = graph.incident, graph.xor_ends
    origin: list[int] = []
    first_part: list[int] = [0] * graph.vertex_count
    # Part offsets of each edge's first and second end; part 0 is the default.
    part_u = [0] * graph.edge_count
    part_v = [0] * graph.edge_count
    for v in range(graph.vertex_count):
        first_part[v] = len(origin)
        d_v = graph.degree(v)
        if d_v < 2 * ksq:
            origin.append(v)
            continue
        parts = (d_v - ksq) // ksq  # degree = parts*k^2 + head with k^2 <= head < 2k^2
        head = d_v - parts * ksq
        origin.extend([v] * (parts + 1))
        # Neighbours are distinct: the edges in neighbour order.
        for rank, e in enumerate(sorted(incident[v], key=lambda e: ends[e] ^ v)[head:]):
            if graph.edges[e][0] == v:
                part_u[e] = 1 + rank // ksq
            else:
                part_v[e] = 1 + rank // ksq
    new_edges = [
        (first_part[u] + pu, first_part[v] + pv)
        for (u, v), pu, pv in zip(graph.edges, part_u, part_v)
    ]
    # Parts of one vertex are distinct new vertices, so no loop or parallel
    # edge can appear: the renamed edges skip re-validation.
    out = _assemble(len(origin), new_edges)
    if out.max_degree() >= 2 * ksq or out.min_degree() < ksq:
        raise InternalInvariantError("split left a degree outside [k^2, 2k^2)")
    return out, SplitTrace(tuple(origin))


def _copy_count(needs: list[int]) -> int:
    """Copies of a component that :func:`raise_to_sk` joins (1: none): the fewest
    c carrying a t-regular simple graph for every need t."""
    c = max(needs, default=0) + 1
    if c % 2 and any(t % 2 for t in needs):
        c += 1
    return c


def _fill(comp: tuple[int, ...], need: list[int], graph: Graph, marked: list[int]) -> list[Edge]:
    """The edges joining non-adjacent vertices of ``comp`` that both need degree.

    Each vertex in turn takes the lowest later vertices of its component that
    still need degree and are not its neighbours (a linked list: O(n + m +
    nk)); the few left short, pairwise adjacent, then trade for new edges.
    The edges are kept, and taken off ``need``, only if they lower the
    component's copy count, so the lift never grows; else none is returned.
    ``marked`` is one mark per vertex, shared by all components.
    """
    incident, ends = graph.incident, graph.xor_ends
    order = [v for v in comp if need[v]]
    before = [need[v] for v in order]
    new: list[Edge] = []
    after = list(range(1, len(order) + 1))  # after[i]: next listed position
    for i, v in enumerate(order):
        if not need[v]:  # met by earlier vertices, and off the list
            continue
        for e in incident[v]:
            marked[ends[e] ^ v] = v
        prev, j = i, after[i]
        while need[v] and j < len(order):
            w = order[j]
            if marked[w] != v:
                new.append((v, w))
                need[v] -= 1
                need[w] -= 1
                if not need[w]:
                    after[prev] = j = after[j]
                    continue
            prev, j = j, after[j]
    short = [v for v in order if need[v]]
    for v, u in product(short, repeat=2):
        while new and need[v] and need[u] > (u == v) and _swap_in(new, graph, v, u):
            need[v] -= 1
            need[u] -= 1
    if new and _copy_count([need[v] for v in order]) < _copy_count(before):
        return new
    for v, t in zip(order, before):
        need[v] = t
    return []


def _swap_in(new: list[Edge], graph: Graph, v: int, u: int) -> bool:
    """Trade a new edge ab, a not next to v and b not next to u, for va and ub
    (a linear scan); whether one was found."""
    incident, ends = graph.incident, graph.xor_ends
    near = {x: {x, *(ends[e] ^ x for e in incident[x])} for x in (v, u)}
    for x, y in chain(new, (ab[::-1] for ab in new)):
        if x in near:
            near[x].add(y)
    for i, ab in enumerate(new):
        for a, b in (ab, ab[::-1]):
            if a not in near[v] and b not in near[u] and a != u and b != v:
                new[i] = (v, a)
                new.append((u, b))
                return True
    return False


def raise_to_sk(graph: Graph, k: int) -> tuple[Graph, LiftTrace]:
    """Lift every degree into S_k: fill within each component, then join
    fresh copies of it.

    A component first gains the edges :func:`_fill` keeps among its own
    non-edges.  One whose needs t are then all 0 is left as it is.  Any
    other gets c = :func:`_copy_count` copies, and the c copies of each
    vertex v are joined by the t_v-regular circulant on Z_c with steps
    1..floor(t_v/2), plus c/2 when t_v is odd.  The input keeps all its
    vertex and edge indices; the kept fill edges follow in component order,
    then fresh copies and their joining edges in order of each component's
    least vertex.  Restricted to k <= 4, so c <= 4.
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
    if not any(need):  # in S_k as it came
        return graph, LiftTrace(0)
    comps = components(graph)
    marked = [-1] * graph.vertex_count  # marked[u] == v: u is a neighbour of v
    fills = [_fill(comp, need, graph, marked) for comp in comps]
    edges = list(chain(graph.edges, *fills))
    if not any(need):  # in S_k once filled
        return _assemble(graph.vertex_count, edges), LiftTrace(0)
    owner = [0] * graph.vertex_count
    rank = [0] * graph.vertex_count  # position of a vertex within its component
    for i, comp in enumerate(comps):
        for r, v in enumerate(comp):
            owner[v] = i
            rank[v] = r
    comp_edges: list[list[Edge]] = [[] for _ in comps]
    for u, v in edges:
        comp_edges[owner[u]].append((rank[u], rank[v]))
    vertex_count = graph.vertex_count
    copies = 0
    for comp, local_edges in zip(comps, comp_edges):
        c = _copy_count([need[v] for v in comp])
        if c == 1:
            continue
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
    # Fill edges join non-adjacent vertices once each, copies are disjoint
    # and each circulant joins copies of one vertex by distinct steps, so the
    # lifted graph is simple by construction.
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
