"""Degree-confining graph transforms and colouring pull-back.

The small-k colouring schemes may assume every degree lies in

    S_k = { i : k^2 <= i < 2k^2, i = k-1 (mod k) }

A vertex of degree d in [k^2, 2k^2) needs t = (k-1-d) mod k more edges to
reach S_k, and keeps its majority cap: floor((d+t)/k) = floor(d/k).
:func:`split_high_degree` splits each vertex of degree >= 2k^2 into parts of
degree in [k^2, 2k^2); :func:`raise_to_sk` joins non-adjacent vertices that
both need degree, then meets what is left with fresh gadgets of at most
k^2+k+1 vertices, whatever the input's size.  Each step keeps its input's
edge ids and appends its new edges, so
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
from .graph import Edge, Graph, _assemble


def sk_degrees(k: int) -> tuple[int, ...]:
    """The admissible degree set S_k in increasing order."""
    return tuple(i for i in range(k * k, 2 * k * k) if i % k == k - 1)


@dataclass(frozen=True)
class LiftTrace:
    """Lift record: the number of gadgets attached (0: none)."""

    copies: int


def split_high_degree(graph: Graph, k: int) -> Graph:
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
        return graph
    incident, ends = graph.incident, graph.xor_ends
    vertex_count = 0
    first_part: list[int] = [0] * graph.vertex_count
    # Part offsets of each edge's first and second end; part 0 is the default.
    part_u = [0] * graph.edge_count
    part_v = [0] * graph.edge_count
    for v in range(graph.vertex_count):
        first_part[v] = vertex_count
        d_v = graph.degree(v)
        if d_v < 2 * ksq:
            vertex_count += 1
            continue
        parts = (d_v - ksq) // ksq  # degree = parts*k^2 + head with k^2 <= head < 2k^2
        head = d_v - parts * ksq
        vertex_count += parts + 1
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
    out = _assemble(vertex_count, new_edges)
    if out.max_degree() >= 2 * ksq or out.min_degree() < ksq:
        raise InternalInvariantError("split left a degree outside [k^2, 2k^2)")
    return out


def _fill(order: list[int], need: list[int], graph: Graph) -> list[Edge]:
    """The edges joining non-adjacent vertices of ``order`` that both need
    degree, each taken off ``need``: each vertex in turn takes the lowest
    later listed vertices still in need and not its neighbours (a linked
    list: O(n + m + nk)); those left short, pairwise adjacent and so fewer
    than 2k^2, trade new edges for two (:func:`_swap_in`).
    """
    incident, ends = graph.incident, graph.xor_ends
    marked = [-1] * graph.vertex_count  # marked[u] == v: u is a neighbour of v
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
    if not short:
        return new
    # Each short vertex's closed neighbourhood, new edges included.
    near = {x: {x, *(ends[e] ^ x for e in incident[x])} for x in short}
    for x, y in chain(new, (ab[::-1] for ab in new)):
        if x in near:
            near[x].add(y)
    for v, u in product(short, repeat=2):
        while need[v] and need[u] > (u == v) and _swap_in(new, near, v, u):
            need[v] -= 1
            need[u] -= 1
    return new


def _swap_in(new: list[Edge], near: dict[int, set[int]], v: int, u: int) -> bool:
    """Trade a new edge ab, a not near v and b not near u, for va and ub; whether
    one was found.  Only edges at vertices near v or u, < k each, can fail."""
    for i, ab in enumerate(new):
        for a, b in (ab, ab[::-1]):
            if a not in near[v] and b not in near[u] and a != u and b != v:
                new[i] = (v, a)
                new.append((u, b))
                near[v].add(a)
                near[u].add(b)
                return True
    return False


def raise_to_sk(graph: Graph, k: int) -> tuple[Graph, LiftTrace]:
    """Lift every degree into S_k: join needy vertices, then attach gadgets.

    One :func:`_fill` joins needy, non-adjacent vertices over the whole graph
    in vertex order (vertices of different components are never adjacent).
    The T units of need it leaves sit at pairwise adjacent vertices, so T <
    2k^2(k-1); they go, in vertex order, to fresh gadgets of at most k^2+k
    attached vertices each, an even number a in all but the last.  A gadget
    is K_N minus R, with D = k^2+k-1 (odd, in S_k) and N = D+1+(a mod 2): R
    is a perfect matching of the attached vertices when a is even, and else
    a path whose inner vertices are the attached ones plus a perfect matching
    of the other N-a-2 (a < N).  Each attached vertex takes one edge from a
    vertex left short, so every gadget vertex has degree D, and the lift has
    m + (F + D G)/2 edges for a total need F and G gadget vertices, G at
    most 101 (k = 4).  The input keeps its ids; joins, then gadgets follow.
    A graph already in S_k comes back as the same object.  Restricted to
    k <= 4.
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
    order = [v for v, t in enumerate(need) if t]
    edges = list(chain(graph.edges, _fill(order, need, graph)))
    stubs = [v for v in order for _ in range(need[v])]  # one per unit of need left
    size, vertex_count = ksq + k, graph.vertex_count  # size = D + 1, even
    for start in range(0, len(stubs), size):
        attached = stubs[start : start + size]
        a, odd, base = len(attached), len(attached) % 2, vertex_count
        vertex_count += size + odd
        # R as the set of i whose edge (i, i+1) it holds: a perfect matching of
        # the attached 0..a-1, or the path 0..a+1 through the attached 1..a
        # and a perfect matching of a+2..N-1.
        low = {*range(a + 1), *range(a + 2, size, 2)} if odd else set(range(0, a, 2))
        edges.extend(zip(attached, range(base + odd, base + odd + a)))
        gadget = range(vertex_count - base)
        edges.extend((base + i, base + j) for i in gadget for j in gadget[i + 1 :] if j > i + 1 or i not in low)
    # Joins and trades link non-adjacent vertices once each, and gadgets are fresh
    # vertices, each attached once: simple by construction.
    lifted = _assemble(vertex_count, edges)
    if not set(sk_degrees(k)).issuperset(lifted.degrees()):
        raise InternalInvariantError(f"lift left a degree outside S_{k}")
    return lifted, LiftTrace(-(-len(stubs) // size))


def pull_back_colouring(colouring: EdgeColouring, graph: Graph) -> EdgeColouring:
    """The colouring of ``graph`` that a colouring of a graph transformed from
    it induces: both reductions keep every edge id, so its first m colours."""
    m = graph.edge_count
    if len(colouring.colours) < m:
        raise InputError(f"colouring has {len(colouring.colours)} edges, graph has {m}")
    return EdgeColouring(colouring.colours[:m], colouring.colour_count)
