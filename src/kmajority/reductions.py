"""Degree-confining graph transforms and colouring pull-back.

The small-k colouring schemes may assume every degree lies in

    S_k = { i : k^2 <= i < 2k^2, i = k-1 (mod k) }

A vertex of degree d in [k^2, 2k^2) needs t = (k-1-d) mod k more edges to
reach S_k, and keeps its majority cap: floor((d+t)/k) = floor(d/k).
:func:`split_high_degree` splits each vertex of degree >= 2k^2 into parts of
degree in [k^2, 2k^2); :func:`raise_to_sk` joins non-adjacent vertices that
both need degree, of one component or of two, then meets what is left with
fresh copies of a component (at most 3 for k <= 4).  Each step keeps its
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
from .graph import Edge, Graph, _assemble, _components, components


def sk_degrees(k: int) -> tuple[int, ...]:
    """The admissible degree set S_k in increasing order."""
    return tuple(i for i in range(k * k, 2 * k * k) if i % k == k - 1)


@dataclass(frozen=True)
class LiftTrace:
    """Lift record: the most fresh copies of any component (0: unchanged)."""

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


def _copy_count(needs: list[int]) -> int:
    """Copies of a component that :func:`raise_to_sk` joins (1: none): the fewest
    c carrying a t-regular simple graph for every need t."""
    c = max(needs, default=0) + 1
    if c % 2 and any(t % 2 for t in needs):
        c += 1
    return c


def _fill(order: list[int], need: list[int], graph: Graph, marked: list[int]) -> list[Edge]:
    """The edges joining non-adjacent vertices of ``order`` that both need
    degree, each taken off ``need``: each vertex in turn takes the lowest
    later listed vertices still in need and not its neighbours (a linked
    list: O(n + m + nk)); those left short, pairwise adjacent and so fewer
    than 2k^2, trade new edges for two (:func:`_swap_in`).  ``marked`` is
    one mark per vertex.
    """
    incident, ends = graph.incident, graph.xor_ends
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


def _own_fill(comp: tuple[int, ...], need: list[int], graph: Graph, marked: list[int]) -> list[Edge]:
    """:func:`_fill` within one component, kept only if it lowers the
    component's copy count, so its lift never grows; else undone."""
    before = [need[v] for v in comp]
    new = _fill([v for v in comp if need[v]], need, graph, marked)
    if new and _copy_count([need[v] for v in comp]) < _copy_count(before):
        return new
    for v, t in zip(comp, before):
        need[v] = t
    return []


def raise_to_sk(graph: Graph, k: int) -> tuple[Graph, LiftTrace]:
    """Lift every degree into S_k: join needy vertices across components,
    then copy the components left short.

    With two components or more, one :func:`_fill` joins needy vertices of
    all but, when the total need is odd, the smallest of odd need.  A filled
    component whose needs are all met keeps its joins: its m + T/2 edges
    are no more than its parts lifted apart (c copies of m edges and need T
    lift to c(m + T/2)).  At most one is left short (short vertices are
    pairwise adjacent); it drops its joins, and each of its input
    components, like the one set aside or a lone one, keeps its
    :func:`_own_fill`, then gets c = :func:`_copy_count` copies, those of v
    joined by the t_v-regular circulant on Z_c (steps 1..t_v/2, and c/2 if
    t_v is odd).  The input keeps its ids; joins, own fills, then copies
    follow by least vertex.  Restricted to k <= 4, so c <= 4.
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
    owner = [0] * graph.vertex_count  # component 0 is the default
    for i in range(1, len(comps)):
        for v in comps[i]:
            owner[v] = i
    alone, order = {0}, []  # a graph of one component has nothing to join
    if len(comps) > 1:
        odd = [i for i, comp in enumerate(comps) if sum(need[v] for v in comp) % 2]
        alone = {min(odd, key=lambda i: len(comps[i]))} if len(odd) % 2 else set()
        order = [v for v, t in enumerate(need) if t and owner[v] not in alone]
    before = need[:]
    marked = [-1] * graph.vertex_count  # marked[u] == v: u is a neighbour of v
    joins = _fill(order, need, graph, marked) if order else []
    if any(need[v] for v in order):  # the one filled component left short drops its joins
        links: list[list[int]] = [[] for _ in comps]  # joins, as edges between input components
        for e, (u, v) in enumerate(joins):
            links[owner[u]].append(e)
            links[owner[v]].append(e)
        ends, short = [owner[u] ^ owner[v] for u, v in joins], {owner[v] for v in order if need[v]}
        found = _components(links, ends, range(len(comps)), [False] * len(comps))
        alone.update(*(block for block in found if short.intersection(block)))
        joins = [(u, v) for u, v in joins if owner[u] not in alone]
        need = [before[v] if owner[v] in alone else t for v, t in enumerate(need)]
    lone = sorted(alone)
    edges = list(chain(graph.edges, joins, *(_own_fill(comps[i], need, graph, marked) for i in lone)))
    if not any(need):  # in S_k once filled
        return _assemble(graph.vertex_count, edges), LiftTrace(0)
    lifts = {i: c for i in lone if (c := _copy_count([need[v] for v in comps[i]])) > 1}
    rank = [0] * graph.vertex_count  # position of a vertex within its component
    for r, v in chain.from_iterable(enumerate(comps[i]) for i in lifts):
        rank[v] = r
    comp_edges: dict[int, list[Edge]] = {i: [] for i in lifts}
    for u, v in edges:
        if owner[u] in comp_edges:
            comp_edges[owner[u]].append((rank[u], rank[v]))
    vertex_count = graph.vertex_count
    for i, c in lifts.items():
        comp, local_edges = comps[i], comp_edges[i]
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
    # Joins and fills join non-adjacent vertices once each, copies are disjoint and
    # each circulant joins copies of one vertex by distinct steps: simple by construction.
    lifted = _assemble(vertex_count, edges)
    if not set(sk_degrees(k)).issuperset(lifted.degrees()):
        raise InternalInvariantError(f"lift left a degree outside S_{k}")
    return lifted, LiftTrace(max(lifts.values()) - 1)


def pull_back_colouring(colouring: EdgeColouring, graph: Graph) -> EdgeColouring:
    """The colouring of ``graph`` that a colouring of a graph transformed from
    it induces: both reductions keep every edge id, so its first m colours."""
    m = graph.edge_count
    if len(colouring.colours) < m:
        raise InputError(f"colouring has {len(colouring.colours)} edges, graph has {m}")
    return EdgeColouring(colouring.colours[:m], colouring.colour_count)
