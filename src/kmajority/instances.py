"""Lower-bound constructions, random test graphs, and the exhaustive oracle.

The two constructions witness that the schemes' degree thresholds cannot be
relaxed much: a complete bipartite graph minus one edge (minimum degree
k^2 - k - 1) defeats any (k+1)-colouring by a pigeonhole count, and a
complete graph minus a Hamilton cycle plus an apex (minimum degree k^2 - 1)
defeats it by a parity argument.  The backtracking oracle certifies such
infeasibility exactly at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .colouring import EdgeColouring, check_majority
from .errors import InputError, InternalInvariantError
from .graph import Graph, _assemble, build_graph


def bipartite_lower_bound(k: int) -> Graph:
    """K_{k^2-k, k^2-k} minus one edge; minimum degree k^2 - k - 1.

    Vertices with degree k^2 - k - 1 admit at most k - 2 same-coloured edges,
    so k + 1 colours cover at most k^2 - k - 2 of their edges: too few.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    a = k * k - k
    edges = [
        (left, a + right)
        for left in range(a)
        for right in range(a)
        if not (left == 0 and right == 0)
    ]
    return build_graph(2 * a, edges)


def general_lower_bound(k: int) -> Graph:
    """Complete graph on k^2 + 1 vertices minus a Hamilton cycle, plus an apex.

    Yields k^2 + 1 vertices of degree k^2 - 1 and one of degree k^2 + 1.  In
    any valid colouring some colour class would have odd degree sum
    (k^2+1)(k-1) + k, which is impossible.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    core = k * k + 1
    apex = core
    edges = []
    for u in range(core):
        for v in range(u + 1, core):
            if v - u == 1 or (u == 0 and v == core - 1):
                continue  # Hamilton cycle 0-1-...-core-1-0 removed
            edges.append((u, v))
    edges.extend((v, apex) for v in range(core))
    return build_graph(core + 1, edges)


def random_min_degree_graph(
    n: int,
    min_degree: int,
    bipartite: bool = False,
    seed: int = 0,
    extra_edges: int = 0,
) -> Graph:
    """Random simple graph with minimum degree >= ``min_degree``.

    Bipartite graphs take ``n/2`` vertices per side (n must be even, each
    side at least ``min_degree``) and overlay ``min_degree`` random perfect
    matchings, so the base is exactly regular.  General graphs pair stubs of
    a configuration model, rejecting loops and duplicates.  ``extra_edges``
    random non-edges are added on top; asking for more than the base leaves
    is an :class:`InputError`.  Deterministic in ``seed``.
    """
    if min_degree < 0 or extra_edges < 0:
        raise InputError("min_degree and extra_edges must be nonnegative")
    rng = random.Random(seed)
    if bipartite:
        if n % 2:
            raise InputError(f"bipartite generation needs an even vertex count, got {n}")
        a = n // 2
        if a < min_degree:
            raise InputError(f"side size {a} below requested minimum degree {min_degree}")
        edges = {(u, a + w) for u, w in _bipartite_regular(a, min_degree, rng)}
        _add_non_edges(edges, extra_edges, a, a, rng)
        return _assemble(n, sorted(edges))

    if n <= min_degree:
        raise InputError(f"need more than {min_degree} vertices, got {n}")
    pairs = _configuration_model(n, min_degree, rng)
    _add_non_edges(pairs, extra_edges, n, 0, rng)
    return _assemble(n, sorted(pairs))


def _add_non_edges(
    edges: set[tuple[int, int]], count: int, size: int, offset: int, rng: random.Random
) -> None:
    """Add ``count`` random non-edges (u, v), u < v, to ``edges``.

    Each draw takes u from ``range(size)`` and v from ``offset +
    range(size)``: any pair of ``range(size)`` at offset 0, a left-right
    pair at offset ``size``.  An edge takes the first of 500 draws that is a
    non-edge, or else the ``rng.randrange(len(rest))``-th of the ``rest`` of
    the non-edges in sorted order, so every extra edge is placed.
    """
    slot_count = size * size if offset else size * (size - 1) // 2
    if count > slot_count - len(edges):
        raise InputError(
            f"{count} extra edges asked for, but only {slot_count - len(edges)} non-edges exist"
        )
    for _ in range(count):
        for _attempt in range(500):
            u = rng.randrange(size)
            v = offset + rng.randrange(size)
            key = (u, v) if u < v else (v, u)
            if u != v and key not in edges:
                break
        else:
            rest = [
                (u, v)
                for u in range(size)
                for v in range(max(u + 1, offset), offset + size)
                if (u, v) not in edges
            ]
            key = rest[rng.randrange(len(rest))]
        edges.add(key)


def _bipartite_regular(a: int, d: int, rng: random.Random) -> set[tuple[int, int]]:
    """Exactly d-regular bipartite pairing of two sides of size a (local ids).

    A pairing that leaves only pairs which are already edges after the
    leftover rounds is a dead end, resampled wholesale: at seed 1, 5 of
    the 6 pairings of ``large_graphs``' bipartite instance end so.  Once
    no left-right pair of the leftover stubs is a non-edge, no later round
    can add one, so the rounds left only shuffle ``ro`` (as each would)
    before the restart: the random stream, and so every graph, is the same
    as when every round pairs.
    """
    if d == 0:
        return set()
    if d > a - d:
        sparse = _bipartite_regular(a, a - d, rng)
        return {(u, w) for u in range(a) for w in range(a) if (u, w) not in sparse}
    left = [v for v in range(a) for _ in range(d)]
    right = [v for v in range(a) for _ in range(d)]
    while True:
        rng.shuffle(left)
        rng.shuffle(right)
        edges: set[tuple[int, int]] = set()
        lo: list[int] = []
        ro: list[int] = []
        for u, w in zip(left, right):
            if (u, w) in edges:
                lo.append(u)
                ro.append(w)
            else:
                edges.add((u, w))
        for rounds_left in range(50, 0, -1):
            if not lo:
                return edges
            rights = set(ro)
            if all((u, w) in edges for u in set(lo) for w in rights):
                for _ in range(rounds_left):
                    rng.shuffle(ro)
                break
            rng.shuffle(ro)
            still_l: list[int] = []
            still_r: list[int] = []
            for u, w in zip(lo, ro):
                if (u, w) in edges:
                    still_l.append(u)
                    still_r.append(w)
                else:
                    edges.add((u, w))
            lo, ro = still_l, still_r
        # Dead end: resample wholesale.


def _configuration_model(n: int, d: int, rng: random.Random) -> set[tuple[int, int]]:
    """Random d-regular-ish edge set (vertex 0 takes one extra stub if n*d is odd).

    Dense targets (d above half the graph) are built as complements of sparse
    ones; random pairing would mostly collide otherwise.
    """
    if d > n - 1 - d:
        sparse = _pair_stubs(n, n - 1 - d, rng, drop_on_odd=True)
        return {
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse
        }
    return _pair_stubs(n, d, rng, drop_on_odd=False)


def _pair_stubs(n: int, d: int, rng: random.Random, drop_on_odd: bool) -> set[tuple[int, int]]:
    """Pair d stubs per vertex into distinct edges, rejecting loops/duplicates.

    An odd stub total either drops one stub of vertex 0 (complement use: its
    final degree rises by one) or adds one there (direct use, same effect).
    Stubs a pairing rejects are re-paired among themselves for up to 50
    rounds; a pairing still left with stubs then is a dead end, resampled
    wholesale.  Dead ends are common: at seed 1, 283 of the 523 pairings of
    ``threshold_sweep`` (n = 14) end so, and 42 of 90 of ``many_components``.
    In 13,829 of ``threshold_sweep``'s 14,518 leftover rounds no pairing
    could add an edge: the stubs left sat on two adjacent vertices (9,597
    rounds), on one vertex (4,185) or on three (47).  Once no two distinct
    leftover vertices are non-adjacent, the rounds left only shuffle
    ``leftover`` (as each would) before the restart: the random stream, and
    so every graph, is the same as when every round pairs.
    """
    stubs = [v for v in range(n) for _ in range(d)]
    if len(stubs) % 2:
        if drop_on_odd:
            stubs.remove(0)
        else:
            stubs.append(0)
    if not stubs:
        return set()
    while True:
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        leftover: list[int] = []
        it = iter(stubs)
        for u, v in zip(it, it):
            key = (u, v) if u < v else (v, u)
            if u == v or key in edges:
                leftover.extend((u, v))
            else:
                edges.add(key)
        for rounds_left in range(50, 0, -1):
            if not leftover:
                return edges
            ends = sorted(set(leftover))
            if all((u, v) in edges for i, u in enumerate(ends) for v in ends[i + 1 :]):
                for _ in range(rounds_left):
                    rng.shuffle(leftover)
                break
            rng.shuffle(leftover)
            still: list[int] = []
            it = iter(leftover)
            for u, v in zip(it, it):
                key = (u, v) if u < v else (v, u)
                if u == v or key in edges:
                    still.extend((u, v))
                else:
                    edges.add(key)
            leftover = still
        # Dead end: resample wholesale.


@dataclass(frozen=True)
class SearchOutcome:
    """Oracle result: a verified colouring, or exhaustion evidence.

    ``colouring is None`` means no colouring was found; with
    ``limit_hit=False`` that certifies none exists for the given colour
    count.  ``node_count`` counts applied edge-colour assignments.
    """

    colouring: Optional[EdgeColouring]
    node_count: int
    limit_hit: bool

    @property
    def found(self) -> bool:
        return self.colouring is not None


def exhaustive_search(
    graph: Graph, k: int, colour_count: int, node_limit: int = 10**8
) -> SearchOutcome:
    """Backtracking search for a 1/k-majority colouring with ``colour_count`` colours.

    Edges are assigned in non-increasing order of min-endpoint degree (ties by
    index), each the lowest colour under the caps ``floor(d/k)`` at both ends:
    bit c-1 of the bitmask ``free[v]`` is set while v's room counter for
    colour c is positive, so the candidates are ``free[u] & free[v]`` above
    the colour last tried, lowest set bit first.  The first edge is fixed to
    colour 1 (colours are interchangeable).  If ``colour_count *
    floor(delta/k) < delta``, or a vertex of degree 1..k-1 has cap 0, a vertex
    cannot cover its edges and the search is settled with ``node_count = 0``.
    Only colours up to min(c, m) are tried: a later one would only repeat a
    fresh colour's failure, so the outcome and ``node_count`` are as over all
    c, except that a vertex of degree 1..k-1 is settled sooner.
    """
    if colour_count < 1:
        raise InputError(f"colour count must be positive, got {colour_count}")
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    if node_limit < 0:
        raise InputError(f"node limit must be nonnegative, got {node_limit}")
    m = graph.edge_count
    degrees = graph.degrees()
    delta = graph.min_degree()
    if colour_count * (delta // k) < delta or any(0 < d < k for d in degrees):
        return SearchOutcome(None, 0, False)

    edges = graph.edges
    low = [min(degrees[u], degrees[v]) for u, v in edges]
    order = sorted(range(m), key=low.__getitem__, reverse=True)  # stable: ties by index
    us = [edges[e][0] for e in order]
    vs = [edges[e][1] for e in order]
    width = min(colour_count, m)
    room = [[d // k] * (width + 1) for d in degrees]  # room[v][c]: edges v may add in colour c
    free = [(1 << width) - 1] * graph.vertex_count
    chosen = [0] * m  # colour currently applied at each position, 0 = none
    nodes = pos = 0
    while pos < m:
        u, v = us[pos], vs[pos]
        candidates = free[u] & free[v] & (-1 << chosen[pos])
        if candidates:
            if nodes >= node_limit:
                return SearchOutcome(None, nodes, True)
            nodes += 1
            bit = candidates & -candidates
            c = bit.bit_length()
            chosen[pos] = c
            at = room[u]
            at[c] -= 1
            if not at[c]:
                free[u] ^= bit
            at = room[v]
            at[c] -= 1
            if not at[c]:
                free[v] ^= bit
            pos += 1
            continue
        chosen[pos] = 0
        pos -= 1
        if pos == 0:  # the first edge keeps colour 1
            return SearchOutcome(None, nodes, False)
        u, v = us[pos], vs[pos]
        c = chosen[pos]
        bit = 1 << (c - 1)
        room[u][c] += 1
        free[u] |= bit
        room[v][c] += 1
        free[v] |= bit
    colouring = EdgeColouring(tuple(c for _, c in sorted(zip(order, chosen))), colour_count)
    verdict = check_majority(graph, colouring, k)
    if not verdict.passed:
        raise InternalInvariantError(f"oracle produced invalid colouring: {verdict.witness}")
    return SearchOutcome(colouring, nodes, False)
