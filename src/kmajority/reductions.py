"""Degree-confining graph transforms and colouring pull-back.

The small-k colouring schemes may assume every degree lies in

    S_k = { i : k^2 <= i < 2k^2, i = k-1 (mod k) }

A vertex of degree d in [k^2, 2k^2) needs t = (k-1-d) mod k more edges to
reach S_k, and keeps its majority cap: floor((d+t)/k) = floor(d/k).
:func:`split_high_degree` splits each vertex of degree >= 2k^2 into parts of
degree in [k^2, 2k^2); :func:`raise_to_sk` joins non-adjacent vertices that
both need degree, trades joins along augmenting paths where a vertex is left
short, then meets what is left with fresh gadgets of at most k^2+k+1
vertices, whatever the input's size.  Each step keeps its input's
edge ids and appends its new edges, so
:func:`pull_back_colouring` keeps the first m colours.  They stay valid: a
colour's count at v in G is at most its count in the supergraph, which is at
most floor(d'/k) = floor(d/k) (the caps of a split vertex's parts sum to at
most its own).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    degree, each taken off ``need``.

    First each vertex in turn takes the lowest later listed vertices still in
    need and not its neighbours (a linked list: O(n + m + nk)).  Those left
    short are pairwise adjacent or joined, so fewer than 2k^2 (the first of
    them is adjacent or joined to all the others, and its degree plus need is
    below 2k^2), with fewer than 2k^2(k-1) units of need.  Then each short
    vertex in order runs one :func:`_augment` per unit it still needs, until
    one fails; a failed search is not retried, and with no join made none
    runs.  A search costs O(n + m) for a fixed k, so the fill stays linear.
    """
    incident, ends = graph.incident, graph.xor_ends
    # marked[u] == v: u is a neighbour of v; :func:`_augment` reuses the list.
    marked: list[object] = [-1] * graph.vertex_count
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
    if not short or not new:
        return new
    # Every listed vertex now has a join or is short; joined[v][w]: the place
    # in ``new`` of the join vw.
    joined: dict[int, dict[int, int]] = {v: {} for v in order}
    for i, (v, w) in enumerate(new):
        joined[v][w] = joined[w][v] = i
    # Each short vertex with its neighbours and itself.
    near = {t: {t, *[ends[e] ^ t for e in incident[t]]} for t in short}
    for s in short:
        while need[s] and _augment(s, order, need, new, joined, near, graph, marked):
            pass
    return new


def _augment(s: int, order: list[int], need: list[int], new: list[Edge],
             joined: dict[int, dict[int, int]], near: dict[int, set[int]], graph: Graph,
             marked: list[object]) -> bool:
    """Flip one alternating path s - a = b - ... - t and take a unit off the
    need of s and of t; whether one was flipped.

    "-" is a free pair (not adjacent, not joined) and "=" a join.  The path
    ends at a short vertex t other than s, or at s while s needs 2.  It runs
    breadth-first from s.  Each outer vertex b (s, or the far end of a join
    from an inner vertex) stamps itself, its neighbours and its joins in
    ``marked``, and takes as inner, in order, every listed vertex neither
    stamped nor reached yet (a linked list), save the vertices that can end
    a path.  Each inner vertex's joins lead to new outer vertices, and the
    first one free to an end closes the path.  A vertex is inner at most once
    and outer at most once, so a search costs O(n + m).  Flipping makes the
    free pairs joins, each in the place of a dropped one; only s and t gain
    degree.  A vertex reached from s first neither takes s as inner nor
    closes a path at s, either of which would repeat the path's first pair;
    a path that repeats another pair, through an odd cycle of joins, ends
    the search.
    """
    incident, ends = graph.incident, graph.xor_ends
    ends_at = [t for t in near if need[t] > (t == s)]
    if not ends_at:  # s alone needs one more: no path can end
        return False
    end = len(order)
    nxt = [*range(1, end + 1), 0]  # nxt[end] heads the unreached list
    inner: dict[int, int] = {}  # inner vertex -> the outer vertex that reached it
    outer = {s: s}  # outer vertex -> the inner vertex that reached it
    first = {s: s}  # outer vertex -> the first inner vertex on its path
    queue = [s]
    for b in queue:
        stamp = marked[b] = object()
        for e in incident[b]:
            marked[ends[e] ^ b] = stamp
        for w in joined[b]:
            marked[w] = stamp
        if first[b] == b:  # b - s would repeat the path's first pair
            marked[s] = stamp
        prev, p = end, nxt[end]
        while p < end:
            a = order[p]
            if marked[a] is stamp or need[a] > (a == s):
                prev, p = p, nxt[p]
                continue
            nxt[prev] = p = nxt[p]
            inner[a] = b
            f = a if b == s else first[b]
            for w in joined[a]:
                if w in outer:
                    continue
                outer[w] = a
                first[w] = f
                for t in ends_at:
                    if w not in near[t] and w not in joined[t] and (t != s or f != w):
                        return _flip(s, w, t, need, new, joined, inner, outer)
                queue.append(w)
    return False


def _flip(s: int, w: int, t: int, need: list[int], new: list[Edge], joined: dict[int, dict[int, int]],
          inner: dict[int, int], outer: dict[int, int]) -> bool:
    """Flip the path s - ... = w - t that ``inner`` and ``outer`` record, unless
    it repeats a pair; whether it was flipped.  Each free pair takes the place
    in ``new`` of a dropped join, the last one a new place."""
    free, drop = [(w, t)], []
    while w != s:
        a = outer[w]
        drop.append((a, w))
        w = inner[a]
        free.append((w, a))
    # A path with one join or none repeats no pair.
    if len(drop) > 1 and len({frozenset(pair) for pair in free + drop}) < len(free) + len(drop):
        return False
    places = []
    for a, b in drop:
        places.append(joined[a].pop(b))
        del joined[b][a]
    places.append(len(new))
    new.append(free[-1])
    for i, (a, b) in zip(places, free):
        new[i] = a, b
        joined[a][b] = joined[b][a] = i
    need[s] -= 1
    need[t] -= 1
    return True


def raise_to_sk(graph: Graph, k: int) -> tuple[Graph, LiftTrace]:
    """Lift every degree into S_k: join needy vertices, then attach gadgets.

    One :func:`_fill` joins needy, non-adjacent vertices over the whole graph
    in vertex order (vertices of different components are never adjacent),
    then meets what need it can by augmenting paths over its joins
    (:func:`_augment`), in linear time.  Need is left only where the total is
    odd or where no path of that search reaches; the T units left sit at
    pairwise adjacent or joined vertices, so T < 2k^2(k-1).  They go, in
    vertex order, to fresh gadgets of at most k^2+k attached vertices each, an
    even number a in all but the last.  A gadget is K_N minus R, with D =
    k^2+k-1 (odd, in S_k) and N = D+1+(a mod 2): R is a perfect matching of
    the attached vertices when a is even, and else a path whose inner
    vertices are the attached ones plus a perfect matching of the other N-a-2
    (a < N).  Each attached vertex takes one edge from a vertex left short, so
    every gadget vertex has degree D, and the lift has m + (F + D G)/2 edges
    for a total need F and G gadget vertices, G at most 101 (k = 4).  The
    input keeps its ids; joins, then gadgets follow.  A graph already in S_k
    comes back as the same object.  Restricted to k <= 4.
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
    # Joins link non-adjacent vertices once each, and gadgets are fresh
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
