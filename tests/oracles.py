"""Independent test-side oracles.

Everything here re-derives expected behaviour from first principles
(enumeration, brute force) without touching the library's own certification
paths, so tests cross-check two independent routes: a colouring's colour
counts per vertex, the general scheme's round bounds, a vertex splitting's
origins and an S_k lift's contract are counted here from the graphs and the
colouring, not read back from the library's results; whether joins alone can
meet an S_k lift's needs is settled by exhaustive search.  The last section holds
the entry points into the library's rounding and Euler kernels that only the
tests call: kernel and pendant directions, with the live adjacency, a
move's coefficients and the edge removal they are built from and the
zero-sum check ``_assert_zero_sums`` that a kernel direction passes, an
exact push of one move, the condition-(ii) repair on its own, vertex sums and
whole-graph Euler circuits.
The sections before it check the refined scheme's bucket invariant at each
Euler split the scheme makes, keep two references for a labelled Euler
split (one class at a time through ``edge_subgraph``, and one walked by the
reference Hierholzer walk, one circuit per class for its components with
odd vertices), check each move of the rounding kernel's Euler passes, and
keep the exhaustive oracle's plain backtracking loop, the random
generator's samplers that pair in every leftover round and the graph
reader's line-by-line loop as references.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from kmajority import (
    BLUE,
    RED,
    Bicolouring,
    EdgeColouring,
    FormatError,
    Graph,
    InputError,
    InternalInvariantError,
    PreconditionError,
    SelectorExhaustedError,
    balanced_bicolouring,
    build_graph,
    rounding,
    schemes,
)
from kmajority.graph import components, edge_subgraph, hierholzer_circuit
from kmajority.graphio import _check_vertex_bound, _read_header
from kmajority.rounding import (
    _TERMINAL,
    _enforce_ii_int,
    _int_sums,
    _next_move,
    _scaled_weights,
)

Edges = tuple[tuple[int, int], ...]


def neighbour_pairs(graph: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex, its ``(neighbour, edge id)`` pairs in increasing edge id.

    Built from ``graph.edges`` alone, so the references below stay
    independent of the library's incidence layout.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    for e, (u, v) in enumerate(graph.edges):
        pairs[u].append((v, e))
        pairs[v].append((u, e))
    return pairs


def _canonical(n: int, edges: Edges) -> tuple[int, Edges]:
    """Least edge tuple over degree-preserving relabellings (iso-invariant)."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(degree[v], []).append(v)
    slots: dict[int, list[int]] = {d: [] for d in classes}
    position = 0
    mapping_base = [0] * n
    ordered = sorted(classes)
    for d in ordered:
        slots[d] = list(range(position, position + len(classes[d])))
        position += len(classes[d])
    best: Edges | None = None
    for perms in product(*(permutations(slots[d]) for d in ordered)):
        relabel = mapping_base[:]
        for d, perm in zip(ordered, perms):
            for v, slot in zip(classes[d], perm):
                relabel[v] = slot
        image = tuple(
            sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges)
        )
        if best is None or image < best:
            best = image
    assert best is not None
    return n, best


def connected_graphs(max_edges: int) -> list[Graph]:
    """All connected graphs with 1..max_edges edges, up to isomorphism.

    Grown edge by edge: every connected graph arises from a connected
    predecessor by adding a chord or attaching a new leaf.
    """
    seed = _canonical(2, ((0, 1),))
    seen = {seed}
    frontier = [seed]
    out = [seed]
    for _ in range(2, max_edges + 1):
        grown: list[tuple[int, Edges]] = []
        for n, edges in frontier:
            eset = set(edges)
            candidates = [
                (n, edges + ((u, v),))
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in eset
            ]
            candidates.extend((n + 1, edges + ((u, n),)) for u in range(n))
            for cand_n, cand_edges in candidates:
                key = _canonical(cand_n, cand_edges)
                if key not in seen:
                    seen.add(key)
                    grown.append(key)
        out.extend(grown)
        frontier = grown
    return [build_graph(n, list(edges)) for n, edges in out]


def weight_maps(m: int, max_denominator: int):
    """Every map from m edges into the rationals of [0,1] with small denominator."""
    values = sorted(
        {
            Fraction(p, q)
            for q in range(1, max_denominator + 1)
            for p in range(0, q + 1)
        }
    )
    return product(values, repeat=m)


def simple_cycles(graph: Graph) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """All simple cycles as (vertex set, edge tuple); edge-subset brute force."""
    out = []
    adjacency = neighbour_pairs(graph)
    for size in range(3, graph.edge_count + 1):
        for subset in combinations(range(graph.edge_count), size):
            degree: dict[int, int] = {}
            for e in subset:
                for v in graph.edges[e]:
                    degree[v] = degree.get(v, 0) + 1
            if any(d != 2 for d in degree.values()) or len(degree) != size:
                continue
            # connected 2-regular with as many vertices as edges: one cycle
            verts = set(degree)
            start = next(iter(verts))
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u, e in adjacency[v]:
                    if e in subset and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen == verts:
                out.append((frozenset(verts), subset))
    return out


def brute_sums(graph: Graph, values) -> list[Fraction]:
    sums = [Fraction(0)] * graph.vertex_count
    for e, (u, v) in enumerate(graph.edges):
        sums[u] += values[e]
        sums[v] += values[e]
    return sums


def check_conditions(graph: Graph, z, x) -> bool:
    """Conditions (i)-(iii) for an assignment x, by direct definition.

    (iii) is the existence of a pairwise-independent family of odd cycles
    with integral weight sums, one through each excess vertex.
    """
    sums_z = brute_sums(graph, z)
    sums_x = brute_sums(graph, x)
    for v in range(graph.vertex_count):
        if not (sums_z[v] - 1 < sums_x[v] <= sums_z[v] + 1):
            return False
    for e, (u, v) in enumerate(graph.edges):
        if x[e] == 0 and sums_x[u] < sums_z[u] and sums_x[v] < sums_z[v]:
            return False
    excess = [v for v in range(graph.vertex_count) if sums_x[v] == sums_z[v] + 1]
    if not excess:
        return True
    cycles = simple_cycles(graph)
    candidates = []
    for v in excess:
        fitting = [
            verts
            for verts, eseq in cycles
            if v in verts
            and len(eseq) % 2 == 1
            and all(sums_z[u].denominator == 1 for u in verts)
        ]
        if not fitting:
            return False
        candidates.append(fitting)
    adjacent = {
        frozenset((u, v)) for u, v in graph.edges
    }
    for family in product(*candidates):
        ok = True
        for a, b in combinations(range(len(family)), 2):
            va, vb = family[a], family[b]
            if va & vb or any(
                frozenset((p, q)) in adjacent for p in va for q in vb
            ):
                ok = False
                break
        if ok:
            return True
    return False


def check_certificate(graph: Graph, z, x, ledger) -> bool:
    """Conditions (i)-(iii) with the ledger as the condition-(iii) witness.

    Unlike :func:`check_conditions` this never searches for cycles, so it
    scales to the full random corpus; the library must hand over valid ones.
    """
    sums_z = brute_sums(graph, z)
    sums_x = brute_sums(graph, x)
    for v in range(graph.vertex_count):
        if not (sums_z[v] - 1 < sums_x[v] <= sums_z[v] + 1):
            return False
    for e, (u, v) in enumerate(graph.edges):
        if x[e] == 0 and sums_x[u] < sums_z[u] and sums_x[v] < sums_z[v]:
            return False
    excess = {v for v in range(graph.vertex_count) if sums_x[v] == sums_z[v] + 1}
    if {v for v, _ in ledger} != excess or len(ledger) != len(excess):
        return False
    families: list[set[int]] = []
    for v, eseq in ledger:
        if len(eseq) % 2 == 0 or len(eseq) < 3:
            return False
        verts: list[int] = []
        previous = set(graph.edges[eseq[0]]) - set(graph.edges[eseq[1]])
        if len(previous) != 1:
            return False
        at = previous.pop()
        for e in eseq:
            a, b = graph.edges[e]
            if at not in (a, b):
                return False
            verts.append(at)
            at = b if at == a else a
        if at != verts[0] or v not in verts:
            return False
        if any(sums_z[u].denominator != 1 for u in verts):
            return False
        families.append(set(verts))
    claimed = {}
    for index, verts in enumerate(families):
        for u in verts:
            if u in claimed:
                return False
            claimed[u] = index
    for a, b in graph.edges:
        ia, ib = claimed.get(a), claimed.get(b)
        if ia is not None and ib is not None and ia != ib:
            return False
    return True


class AssignmentOracle:
    """Enumerates all 2^m assignments of one graph, vectorising (i) and (ii).

    ``bulk(scale, z_maps)`` precomputes, for every weight map at once, which
    assignments pass conditions (i) and (ii); condition (iii) is then checked
    per assignment.  ``scale`` must clear all weight denominators.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        m, n = graph.edge_count, graph.vertex_count
        bits = np.arange(1 << m, dtype=np.int64)
        self.assign = ((bits[:, None] >> np.arange(m)) & 1).astype(np.int16)
        incidence = np.zeros((m, n), dtype=np.int16)
        for e, (u, v) in enumerate(graph.edges):
            incidence[e, u] = 1
            incidence[e, v] = 1
        self.x_sums = self.assign @ incidence
        self.cycles = simple_cycles(graph)
        self.adjacent = {frozenset((u, v)) for u, v in graph.edges}

    def bulk(self, scale: int, z_maps) -> "BulkValidity":
        m, n = self.graph.edge_count, self.graph.vertex_count
        z_scaled = np.empty((len(z_maps), m), dtype=np.int64)
        for row, z in enumerate(z_maps):
            z_scaled[row] = [int(w * scale) for w in z]
        incidence = np.zeros((m, n), dtype=np.int64)
        for e, (u, v) in enumerate(self.graph.edges):
            incidence[e, u] = 1
            incidence[e, v] = 1
        z_sums = z_scaled @ incidence  # (maps, n)
        xs = self.x_sums.astype(np.int64) * scale  # (assignments, n)
        ok = (
            (xs[None, :, :] > z_sums[:, None, :] - scale)
            & (xs[None, :, :] <= z_sums[:, None, :] + scale)
        ).all(axis=2)
        for e, (u, v) in enumerate(self.graph.edges):
            deficient = (xs[None, :, u] < z_sums[:, None, u]) & (
                xs[None, :, v] < z_sums[:, None, v]
            )
            np.logical_and(ok, ~((self.assign[None, :, e] == 0) & deficient), out=ok)
        return BulkValidity(self, scale, z_sums, xs, ok)

    def excess_coverable(self, excess, z_int) -> bool:
        candidates = []
        for v in excess:
            fitting = [
                verts
                for verts, eseq in self.cycles
                if v in verts and len(eseq) % 2 == 1 and all(z_int[u] for u in verts)
            ]
            if not fitting:
                return False
            candidates.append(fitting)
        for family in product(*candidates):
            ok = True
            for a, b in combinations(range(len(family)), 2):
                va, vb = family[a], family[b]
                if va & vb or any(
                    frozenset((p, q)) in self.adjacent for p in va for q in vb
                ):
                    ok = False
                    break
            if ok:
                return True
        return False


class BulkValidity:
    """Per-map views over the precomputed (i)/(ii) matrix of one graph."""

    def __init__(self, oracle: AssignmentOracle, scale, z_sums, xs, ok):
        self.oracle = oracle
        self.scale = scale
        self.z_sums = z_sums
        self.xs = xs
        self.ok = ok

    def _satisfies_iii(self, row: int, index: int) -> bool:
        excess = np.nonzero(self.xs[index] == self.z_sums[row] + self.scale)[0]
        if not len(excess):
            return True
        z_int = self.z_sums[row] % self.scale == 0
        return self.oracle.excess_coverable(excess, z_int)

    def is_valid(self, row: int, x: tuple[int, ...]) -> bool:
        """Does assignment ``x`` satisfy (i)-(iii) for weight map ``row``?"""
        index = 0
        for e, bit in enumerate(x):
            index |= bit << e
        return bool(self.ok[row, index]) and self._satisfies_iii(row, index)

    def any_valid(self, row: int) -> bool:
        """Does some assignment satisfy (i)-(iii) for weight map ``row``?"""
        for index in np.nonzero(self.ok[row])[0]:
            if self._satisfies_iii(row, int(index)):
                return True
        return False


def colour_counts(graph: Graph, colouring: EdgeColouring) -> list[list[int]]:
    """Per vertex v, ``counts[v][i]``: the edges of colour i + 1 at v."""
    counts = [[0] * colouring.colour_count for _ in range(graph.vertex_count)]
    for (u, v), colour in zip(graph.edges, colouring.colours):
        counts[u][colour - 1] += 1
        counts[v][colour - 1] += 1
    return counts


def side_counts(graph: Graph, bicolouring: Bicolouring) -> list[list[int]]:
    """Per-vertex [blue, red] incidence counts."""
    counts = [[0, 0] for _ in range(graph.vertex_count)]
    for e, s in enumerate(bicolouring.side):
        u, v = graph.edges[e]
        counts[u][s] += 1
        counts[v][s] += 1
    return counts


def assert_balanced(graph: Graph, bicolouring: Bicolouring) -> None:
    """Check the Euler-split invariants of a split of every edge in one
    class: every vertex within ceil(d/2) per side, and each bad vertex at
    exactly d/2 + 1 red."""
    counts = side_counts(graph, bicolouring)
    bad = {v for _, v in bicolouring.bad_vertices}
    for v in range(graph.vertex_count):
        d = graph.degree(v)
        blue, red = counts[v]
        if blue + red != d:
            raise InternalInvariantError(f"vertex {v}: {blue}+{red} != degree {d}")
        if v in bad:
            if d % 2 or red != d // 2 + 1:
                raise InternalInvariantError(
                    f"bad vertex {v}: degree {d}, red {red} (expected {d // 2 + 1})"
                )
        elif max(blue, red) > (d + 1) // 2:
            raise InternalInvariantError(
                f"vertex {v}: colour count {max(blue, red)} exceeds ceil({d}/2)"
            )


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


def bipartite_check(graph: Graph) -> BipartiteCheck:
    """Reference BFS 2-colouring with a witness either way: the sides, or an
    odd cycle through the conflict edge.  ``graph.is_bipartite`` must agree."""
    adjacency = neighbour_pairs(graph)
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
            for u, e in adjacency[v]:
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


def walk_vertices(graph: Graph, walk: Sequence[int]) -> list[int]:
    """The vertices of the closed walk ``walk`` (edge ids), one per edge:
    ``walk[i]`` joins vertex i to vertex i + 1, and the last edge returns to
    the first vertex.  Asserts that each edge continues from the vertex
    reached and that the walk closes, from one end of its first edge."""
    for start in graph.edges[walk[0]]:
        order = [start]
        for e in walk:
            u, v = graph.edges[e]
            if order[-1] not in (u, v):
                break
            order.append(u + v - order[-1])
        else:
            if order[-1] == start:
                return order[:-1]
    raise AssertionError(f"edges {list(walk)} are not a closed walk")


def hierholzer_reference(adjacency, start: int, pointer: list[int], used: list[bool]) -> list[int]:
    """Reference Hierholzer walk: one stack step per loop turn.

    Each turn either takes the least unused edge at the top vertex or, when
    there is none, pops that vertex and emits its edge.  Same contract as
    ``graph.hierholzer_circuit``, which must return the same circuit.
    """
    vertex_stack = [start]
    edge_stack: list[int] = []
    out: list[int] = []
    while vertex_stack:
        v = vertex_stack[-1]
        adj = adjacency[v]
        i = pointer[v]
        while i < len(adj) and used[adj[i][1]]:
            i += 1
        pointer[v] = i
        if i == len(adj):
            vertex_stack.pop()
            if edge_stack:
                out.append(edge_stack.pop())
        else:
            u, e = adj[i]
            used[e] = True
            vertex_stack.append(u)
            edge_stack.append(e)
    out.reverse()
    return out


def lift_violations(graph: Graph, lifted: Graph, k: int) -> list[str]:
    """What breaks the S_k lift contract of ``lifted`` over ``graph``, read
    from the two edge lists alone (empty when the contract holds).

    The lift is simple, its first m edges are the input's, it raises each
    input vertex v by exactly its need t_v = (k-1-d_v) mod k, and every
    degree is in S_k.  Its size is bounded whatever the input's: needy
    vertices left short once non-adjacent ones are joined are pairwise
    adjacent, so fewer than 2k^2 (a clique of degree below 2k^2), and leave
    at most T = 2k^2(k-1) units of need.  Gadgets taking up to k^2+k of
    them, on k^2+k fresh vertices (one more in the last), then add at most
    F = ceil(T/(k^2+k))(k^2+k) + 1 fresh vertices, each of degree below
    2k^2, so the lift has at most m + (sum of t_v)/2 + F(2k^2-1)/2 edges.
    """
    n, m, ksq = graph.vertex_count, graph.edge_count, k * k
    allowed = {i for i in range(ksq, 2 * ksq) if i % k == k - 1}
    found = []
    if len({frozenset(e) for e in lifted.edges}) < lifted.edge_count or any(u == v for u, v in lifted.edges):
        found.append("the lift is not simple")
    if lifted.edges[:m] != graph.edges:
        found.append("the first m edges are not the input's")
    degree = [0] * max(n, lifted.vertex_count)
    for u, v in lifted.edges:
        degree[u] += 1
        degree[v] += 1
    need = [(k - 1 - d) % k for d in graph.degrees()]
    raised = [v for v in range(n) if degree[v] != graph.degree(v) + need[v]]
    if raised:
        found.append(f"vertices not raised by exactly their need: {raised[:5]}")
    outside = [v for v, d in enumerate(degree) if d not in allowed]
    if outside:
        found.append(f"degrees outside S_{k}: {outside[:5]}")
    fresh_max = -(-2 * ksq * (k - 1) // (ksq + k)) * (ksq + k) + 1
    if lifted.vertex_count - n > fresh_max:
        found.append(f"{lifted.vertex_count - n} fresh vertices, above {fresh_max}")
    if 2 * (lifted.edge_count - m) > sum(need) + fresh_max * (2 * ksq - 1):
        found.append(f"{lifted.edge_count} edges, above the bound")
    return found


def full_join(graph: Graph, need: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """Joins that meet every need exactly, or None when there are none: pairs
    of non-adjacent vertices, each pair used once, with each vertex v in
    need[v] of them.  An exact backtracking search, for n <= 16: the least
    vertex still in need is joined to each later one that can take a join in
    turn, and a vertex with fewer possible partners than need fails at once.
    """
    n = graph.vertex_count
    if n > 16:
        raise ValueError(f"full_join is exhaustive, for n <= 16; got n = {n}")
    if sum(need) % 2:
        return None
    blocked = [{v} for v in range(n)]  # each vertex, its neighbours and its joins
    for u, v in graph.edges:
        blocked[u].add(v)
        blocked[v].add(u)
    left, joins = list(need), []

    def search() -> bool:
        needy = [v for v in range(n) if left[v]]
        if not needy:
            return True
        if any(left[v] > sum(u not in blocked[v] for u in needy) for v in needy):
            return False
        v = needy[0]
        for u in needy[1:]:
            if u not in blocked[v]:
                blocked[v].add(u)
                blocked[u].add(v)
                left[v] -= 1
                left[u] -= 1
                joins.append((v, u))
                if search():
                    return True
                joins.pop()
                left[v] += 1
                left[u] += 1
                blocked[v].discard(u)
                blocked[u].discard(v)
        return False

    return joins if search() else None


def general_round_violations(
    graph: Graph, colouring: EdgeColouring, k: int, rounds: int
) -> list[tuple[int, int]]:
    """Every (round i, vertex v) at which the first ``rounds`` weighted rounds
    of a general-scheme colouring break a round bound, recounted from the
    colours alone: round i coloured the colour-i edges and left those of
    colour above i, so with delta the least degree, ``k * count_i(v) <= d(v)``
    and ``k * delta * #{colours > i}(v) <= d(v) * (k * delta - i * delta + 2 *
    i * k)``.  The general scheme makes k rounds, the refined scheme m.
    """
    delta = graph.min_degree()
    violations = []
    for v, row in enumerate(colour_counts(graph, colouring)):
        d = graph.degree(v)
        for i in range(1, rounds + 1):
            if k * row[i - 1] > d or k * delta * sum(row[i:]) > d * (k * delta - i * delta + 2 * i * k):
                violations.append((i, v))
    return violations


def split_origin(graph: Graph, split: Graph) -> tuple[int, ...]:
    """Each vertex of ``split``, a vertex splitting of ``graph``, mapped to the
    vertex it came from, read off the edges: the split keeps edge ids and each
    edge's end order.  Asserts that every new vertex has an edge and that all
    its edges agree on its origin.
    """
    assert split.edge_count == graph.edge_count
    origin: list[Optional[int]] = [None] * split.vertex_count
    for (a, b), ends in zip(split.edges, graph.edges):
        for new, old in zip((a, b), ends):
            assert origin[new] in (None, old), f"vertex {new} comes from {origin[new]} and {old}"
            origin[new] = old
    assert None not in origin, "a split vertex with no edge"
    return tuple(origin)


def split_high_degree_reference(graph: Graph, k: int) -> tuple[int, Edges, tuple[int, ...]]:
    """Reference vertex splitting through a (vertex, edge) -> part dict.

    A vertex of degree at least 2k^2 becomes parts: the first takes its
    first ``head`` edges in neighbour order, each later part the next k^2,
    head being what leaves the rest a multiple of k^2 with k^2 <= head <
    2k^2.  Returns the vertex count, the renamed edges by edge id, and each
    new vertex's origin.
    """
    ksq = k * k
    adjacency = neighbour_pairs(graph)
    origin: list[int] = []
    first_part: list[int] = []
    part_of_edge: dict[tuple[int, int], int] = {}
    for v in range(graph.vertex_count):
        first_part.append(len(origin))
        d = graph.degree(v)
        parts = 0 if d < 2 * ksq else (d - ksq) // ksq
        head = d - parts * ksq
        origin.extend([v] * (parts + 1))
        by_neighbour = sorted(adjacency[v], key=lambda item: item[0])
        for rank, (_, e) in enumerate(by_neighbour):
            part_of_edge[(v, e)] = 0 if rank < head else 1 + (rank - head) // ksq
    edges = tuple(
        (first_part[u] + part_of_edge[(u, e)], first_part[v] + part_of_edge[(v, e)])
        for e, (u, v) in enumerate(graph.edges)
    )
    return len(origin), edges, tuple(origin)


def _colour_components(graph: Graph, side, colour: int):
    """Components of one colour class by least vertex: (vertices, degrees, edges)."""
    adjacency = neighbour_pairs(graph)
    label = [-1] * graph.vertex_count
    out = []
    for root in range(graph.vertex_count):
        if label[root] >= 0 or all(side[e] != colour for _, e in adjacency[root]):
            continue
        label[root] = root
        block, stack = [root], [root]
        while stack:
            v = stack.pop()
            for u, e in adjacency[v]:
                if side[e] == colour and label[u] < 0:
                    label[u] = root
                    block.append(u)
                    stack.append(u)
        block.sort()
        degs = {v: sum(side[e] == colour for _, e in adjacency[v]) for v in block}
        out.append((tuple(block), degs, sum(degs.values()) // 2))
    return out


def eliminate_by_full_recompute(
    graph: Graph, bicolouring: Bicolouring, bad_vertex, pick_vertex=None
):
    """Reference bad-component elimination that recomputes every
    monochromatic component of both colours after each flip.  A component
    is bad when its edge count is odd and ``bad_vertex(v, d)`` holds at each
    of its vertices, d being v's degree in the component."""
    side = list(bicolouring.side)
    adjacency = neighbour_pairs(graph)

    def bad_list():
        return [
            (colour, (verts, degs, edge_count))
            for colour in (0, 1)
            for verts, degs, edge_count in _colour_components(graph, side, colour)
            if edge_count % 2 == 1 and all(bad_vertex(v, degs[v]) for v in verts)
        ]

    bads = bad_list()
    initial, flips = len(bads), 0
    while bads:
        colour, (verts, degs, _) = bads[0]
        v = verts[0] if pick_vertex is None else pick_vertex(verts, degs)
        if v is None:
            raise InternalInvariantError("no admissible flip vertex in a bad component")
        neighbours = sorted(u for u, e in adjacency[v] if side[e] == colour)
        if len(neighbours) < 2:
            raise InternalInvariantError(f"flip vertex {v} has fewer than two neighbours")
        u1, u2 = neighbours[:2]
        other = 1 - colour
        inside = {v}
        for info in _colour_components(graph, side, other):
            if v in info[0]:
                inside = set(info[0])
        target = u1 if u1 not in inside else u2 if u2 not in inside else u1
        edge = next(e for u, e in adjacency[v] if u == target and side[e] == colour)
        side[edge] = other
        flips += 1
        remaining = bad_list()
        if len(remaining) >= len(bads):
            raise InternalInvariantError("bad-component count failed to decrease")
        bads = remaining
    return Bicolouring(tuple(side), bicolouring.bad_vertices), (initial, flips)


# ---------------------------------------------------------------------------
# The refined scheme's bucket invariant
# ---------------------------------------------------------------------------


@contextmanager
def refined_bucket_checks(levels: int) -> Iterator[list[int]]:
    """Check every Euler split that ``colour_refined`` makes within the block.

    The scheme's docstring proves that every bucket component with an edge
    holds a vertex that is not special.  ``schemes.balanced_bicolouring`` is
    replaced by a wrapper that asserts, for each class of the level's split
    (a bucket: the edges of one label) and each of its components that has
    an edge, that it has more than ``levels`` vertices and that the scheme's
    bad-vertex rule admits one of them for that class.  The components and
    degrees are read from ``edge_subgraph`` of the bucket's edges, which
    shares the graph's vertex ids.  Yields the sizes of the components
    checked, so a caller can see that the checks ran.
    """
    original = schemes.balanced_bicolouring
    sizes: list[int] = []

    def checked(graph: Graph, admissible=None, labels=None) -> Bicolouring:
        assert labels is not None and admissible is not None
        for c in sorted(set(labels) - {-1}):
            bucket, _ = edge_subgraph(graph, [e for e, label in enumerate(labels) if label == c])
            for comp in components(bucket):
                if len(comp) == 1:  # a lone vertex has no edge
                    continue
                where = f"the class-{c} component of vertex {comp[0]} ({len(comp)} vertices)"
                assert len(comp) > levels, f"{where} has at most {levels} vertices"
                admitted = any(admissible(c, v, bucket.degree(v)) for v in comp)
                assert admitted, f"every vertex of {where} is special"
                sizes.append(len(comp))
        return original(graph, admissible, labels)

    schemes.balanced_bicolouring = checked
    try:
        yield sizes
    finally:
        schemes.balanced_bicolouring = original


def split_each_class(graph: Graph, admissible, labels: Sequence[int]) -> Bicolouring:
    """Reference labelled Euler split: each class in increasing order split
    alone as ``edge_subgraph`` of its edges, by one whole-graph
    ``balanced_bicolouring`` call, and mapped back to the graph's edge ids;
    the bad vertices become (class, vertex) pairs.  A class with no
    admissible bad vertex raises as the call on its subgraph does."""
    side = [-1] * graph.edge_count
    bad = []
    for c in sorted(set(labels) - {-1}):
        sub, emap = edge_subgraph(graph, [e for e, label in enumerate(labels) if label == c])
        rule = None if admissible is None else lambda _, v, d: admissible(c, v, d)
        try:
            alone = balanced_bicolouring(sub, rule)
        except SelectorExhaustedError as exc:
            raise SelectorExhaustedError(str(exc).replace("class-0", f"class-{c}")) from None
        for j, s in enumerate(alone.side):
            side[emap[j]] = s
        bad.extend((c, v) for _, v in alone.bad_vertices)
    return Bicolouring(tuple(side), tuple(sorted(bad)))


def euler_split_reference(graph: Graph, admissible=None, labels=None) -> Bicolouring:
    """Reference Euler split, with ``balanced_bicolouring``'s contract, from
    ``hierholzer_reference`` and a search of its own.

    Each class in increasing order is walked on its own adjacency lists
    (every edge is class 0 when ``labels`` is None).  One auxiliary vertex
    n, joined to the class's odd-degree vertices in vertex order by edges
    m, m+1, ..., is walked first, which covers every component that has an
    odd vertex.  Then each component it did not reach, by least vertex, is
    walked from its least vertex, or, when its edge count is odd, from its
    least admissible vertex, its bad vertex.  Each circuit is red, blue, ...
    from its first edge, and auxiliary edges are dropped.
    """
    m, n = graph.edge_count, graph.vertex_count
    labels = [0] * m if labels is None else labels
    side = [-1] * m
    bad = []
    for c in sorted(set(labels) - {-1}):
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for e, (u, v) in enumerate(graph.edges):
            if labels[e] == c:
                adjacency[u].append((v, e))
                adjacency[v].append((u, e))
        odd = [v for v in range(n) if len(adjacency[v]) % 2]
        for e, v in enumerate(odd, m):
            adjacency[v].append((n, e))
            adjacency[n].append((v, e))
        pointer, used = [0] * (n + 1), [False] * (m + len(odd))
        circuits = [hierholzer_reference(adjacency, n, pointer, used)] if odd else []
        seen = [False] * n
        for e in circuits[0] if odd else ():
            if e < m:
                for v in graph.edges[e]:
                    seen[v] = True
        for root in range(n):
            if seen[root] or not adjacency[root]:
                continue
            seen[root] = True
            comp, stack = [], [root]
            while stack:
                v = stack.pop()
                comp.append(v)
                for u, _ in adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comp.sort()
            start = comp[0]
            if sum(len(adjacency[v]) for v in comp) // 2 % 2:
                start = next(
                    (v for v in comp if admissible is None or admissible(c, v, len(adjacency[v]))), -1
                )
                if start < 0:
                    raise SelectorExhaustedError(
                        f"no admissible bad vertex in the class-{c} component of {comp[0]}"
                    )
                bad.append((c, start))
            circuits.append(hierholzer_reference(adjacency, start, pointer, used))
        for circuit in circuits:
            for i, e in enumerate(circuit):
                if e < m:
                    side[e] = BLUE if i % 2 else RED
    return Bicolouring(tuple(side), tuple(sorted(bad)))


# ---------------------------------------------------------------------------
# The rounding kernel's Euler-pass moves
# ---------------------------------------------------------------------------


@contextmanager
def euler_move_checks() -> Iterator[list[list[int]]]:
    """Check every move that the rounding kernel's Euler passes make within the block.

    ``rounding._euler_trails`` is replaced by a wrapper that asserts, for each
    trail of a pass, that its edges are live and distinct (within the trail
    and across the pass's trails), that it is a closed trail (each edge
    shares an end with the next, and the last returns to where the first
    left) and that its length is even; the +1/-1 move along it is then
    checked to sum to zero at every vertex.  Yields the trails checked, so a
    caller can see that the checks ran.
    """
    original = rounding._euler_trails
    checked_trails: list[list[int]] = []

    def checked(graph, nbr, live, used, cursors):
        trails = original(graph, nbr, live, used, cursors)
        edges = graph.edges
        taken: set[int] = set()
        for trail in trails:
            assert len(trail) >= 4 and len(trail) % 2 == 0, f"trail {trail} is not even"
            for e in trail:
                u, v = edges[e]
                assert nbr[u].get(e) == v and nbr[v].get(e) == u, f"edge {e} is not live"
                assert e not in taken, f"edge {e} is used twice in one pass"
                taken.add(e)
            first, second = set(edges[trail[0]]), set(edges[trail[1]])
            assert len(first - second) == 1, f"trail {trail} does not start a walk"
            start = at = (first - second).pop()
            sums: dict[int, int] = {}
            for i, e in enumerate(trail):
                a, b = edges[e]
                assert at in (a, b), f"trail {trail} breaks at edge {e}"
                sign = 1 if i % 2 == 0 else -1
                sums[a] = sums.get(a, 0) + sign
                sums[b] = sums.get(b, 0) + sign
                at = b if at == a else a
            assert at == start, f"trail {trail} is not closed"
            assert not any(sums.values()), f"move along {trail} has a nonzero vertex sum"
        checked_trails.extend(trails)
        return trails

    rounding._euler_trails = checked
    try:
        yield checked_trails
    finally:
        rounding._euler_trails = original


# ---------------------------------------------------------------------------
# The exhaustive oracle's reference loop
# ---------------------------------------------------------------------------


def exhaustive_search_reference(graph: Graph, k: int, colour_count: int, node_limit: int):
    """The oracle's backtracking over all ``colour_count`` colours, unbounded.

    The same edge order, the same caps and the same node counting as
    ``exhaustive_search``, with one counter per vertex and colour.  Returns
    ``(colours or None, node_count, limit_hit)``.
    """
    m = graph.edge_count
    delta = graph.min_degree()
    if m == 0:
        return (), 0, False
    if colour_count * (delta // k) < delta:
        return None, 0, False
    caps = [graph.degree(v) // k for v in range(graph.vertex_count)]
    order = sorted(
        range(m), key=lambda e: (-min(graph.degree(w) for w in graph.edges[e]), e)
    )
    counts = [[0] * (colour_count + 1) for _ in range(graph.vertex_count)]
    chosen = [0] * m
    nodes = pos = 0
    while pos < m:
        u, v = graph.edges[order[pos]]
        limit = 1 if pos == 0 else colour_count
        for colour in range(chosen[pos] + 1, limit + 1):
            if counts[u][colour] < caps[u] and counts[v][colour] < caps[v]:
                if nodes >= node_limit:
                    return None, nodes, True
                nodes += 1
                counts[u][colour] += 1
                counts[v][colour] += 1
                chosen[pos] = colour
                pos += 1
                break
        else:
            chosen[pos] = 0
            pos -= 1
            if pos < 0:
                return None, nodes, False
            u, v = graph.edges[order[pos]]
            counts[u][chosen[pos]] -= 1
            counts[v][chosen[pos]] -= 1
    colours = [0] * m
    for p, e in enumerate(order):
        colours[e] = chosen[p]
    return tuple(colours), nodes, False


# ---------------------------------------------------------------------------
# The random generator's reference samplers
# ---------------------------------------------------------------------------


def random_min_degree_graph_reference(
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
    random non-edges are added on top.  Deterministic in ``seed``.

    The generator as it was before its samplers skipped the leftover rounds
    that cannot add an edge: every one of the 50 rounds pairs, and the edges
    are re-validated through ``build_graph``.  ``extra_edges`` gives up on an
    edge after 500 missed draws, so it can return fewer than asked.
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
        edges = {(u, a + w) for u, w in _bipartite_regular_reference(a, min_degree, rng)}
        for _ in range(extra_edges):
            for _attempt in range(500):
                u = rng.randrange(a)
                v = a + rng.randrange(a)
                if (u, v) not in edges:
                    edges.add((u, v))
                    break
        return build_graph(n, sorted(edges))

    if n <= min_degree:
        raise InputError(f"need more than {min_degree} vertices, got {n}")
    pairs = _configuration_model_reference(n, min_degree, rng)
    for _ in range(extra_edges):
        for _attempt in range(500):
            u = rng.randrange(n)
            v = rng.randrange(n)
            key = (min(u, v), max(u, v))
            if u != v and key not in pairs:
                pairs.add(key)
                break
    return build_graph(n, sorted(pairs))


def _bipartite_regular_reference(a: int, d: int, rng: random.Random) -> set[tuple[int, int]]:
    """Exactly d-regular bipartite pairing of two sides of size a (local ids)."""
    if d == 0:
        return set()
    if d > a - d:
        sparse = _bipartite_regular_reference(a, a - d, rng)
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
        for _round in range(50):
            if not lo:
                return edges
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


def _configuration_model_reference(n: int, d: int, rng: random.Random) -> set[tuple[int, int]]:
    """Random d-regular-ish edge set (vertex 0 takes one extra stub if n*d is odd).

    Dense targets (d above half the graph) are built as complements of sparse
    ones; random pairing would mostly collide otherwise.
    """
    if d > n - 1 - d:
        sparse = _pair_stubs_reference(n, n - 1 - d, rng, drop_on_odd=True)
        return {
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse
        }
    return _pair_stubs_reference(n, d, rng, drop_on_odd=False)


def _pair_stubs_reference(
    n: int, d: int, rng: random.Random, drop_on_odd: bool
) -> set[tuple[int, int]]:
    """Pair d stubs per vertex into distinct edges, rejecting loops/duplicates.

    An odd stub total either drops one stub of vertex 0 (complement use: its
    final degree rises by one) or adds one there (direct use, same effect).
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
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                leftover.extend((u, v))
            else:
                edges.add(key)
        for _round in range(50):
            if not leftover:
                return edges
            rng.shuffle(leftover)
            still: list[int] = []
            it = iter(leftover)
            for u, v in zip(it, it):
                key = (min(u, v), max(u, v))
                if u == v or key in edges:
                    still.extend((u, v))
                else:
                    edges.add(key)
            leftover = still
        # Dead end (e.g. last two stubs on one vertex): resample wholesale.


# ---------------------------------------------------------------------------
# The graph reader's line-by-line reference
# ---------------------------------------------------------------------------


def parse_graph_reference(text: str) -> Graph:
    """``parse_graph`` one content line at a time, then one pair at a time.

    The header is read as the library reads it.  Each edge line is split and
    converted on its own, and each pair is checked in order, so every
    :class:`FormatError` names the first offending line or pair.
    """
    lines = (
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    )
    header_no, n, m = _read_header(lines, "graph <n> <m>")
    if n < 0:
        raise FormatError(f"line {header_no}: vertex count must be nonnegative, got {n}")
    _check_vertex_bound(n, m, len(text), f"line {header_no}: declares")
    pairs = []
    for number, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {number}: expected '<u> <v>', got {line!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise FormatError(f"line {number}: non-integer endpoint in {line!r}") from None
        if len(pairs) > m:
            raise FormatError(f"line {number}: more than the declared {m} edges")
    if len(pairs) != m:
        raise FormatError(f"declared {m} edges but found {len(pairs)}")
    seen = set()
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) has a vertex index outside 0..{n - 1}")
        if u == v:
            raise FormatError(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        incident[u].append(e)
        incident[v].append(e)
    return Graph(n, tuple(pairs), tuple(map(tuple, incident)))


# ---------------------------------------------------------------------------
# Test-side entry points into the library's rounding and Euler kernels
# ---------------------------------------------------------------------------


def vertex_sums(graph: Graph, values) -> list:
    sums: list = [0] * graph.vertex_count
    for e, (u, v) in enumerate(graph.edges):
        value = values[e]
        sums[u] += value
        sums[v] += value
    return sums


def eulerian_circuit(graph: Graph, start=None) -> tuple[int, ...]:
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
        start, [iter(a) for a in graph.incident], graph.xor_ends, [False] * graph.edge_count
    )
    assert len(circuit) == graph.edge_count
    return tuple(circuit)


def _live_adjacency(graph: Graph, live: Iterable[int]) -> list[dict[int, int]]:
    """Per vertex, live edge -> other end; ``live`` ascending keeps dicts ordered."""
    nbr: list[dict[int, int]] = [{} for _ in range(graph.vertex_count)]
    edges = graph.edges
    for e in live:
        u, v = edges[e]
        nbr[u][e] = v
        nbr[v][e] = u
    return nbr


def move_coefficients(walk: Sequence[int], lo: int, hi: int) -> dict[int, int]:
    """A kernel move's coefficient per edge: +1/-1 alternating along ``walk``,
    doubled on ``walk[lo:hi]`` (a lollipop stem or a dumbbell path)."""
    direction = {e: (2 if lo <= i < hi else 1) * (-1) ** i for i, e in enumerate(walk)}
    assert len(direction) == len(walk), f"move {walk} lists an edge twice"
    return direction


def push_move(walk: Sequence[int], lo: int, hi: int, values, base: int, top: int):
    """One push of the move ``(walk, lo, hi)`` on exact values, as a reference.

    ``values`` maps each edge of the move to a ``Fraction`` in (0, 1).  In
    each direction, the least step that takes an edge to 0 or 1 is found
    with the number of edges it takes there; the direction taking more
    wins, ties going to +.  Returns the pushed values and the top the
    kernel must reach: ``top`` if the step is a multiple of
    ``1 / (base << top)``, else ``top + 1``.
    """
    coeffs = move_coefficients(walk, lo, hi)
    least = {}
    for sign in (1, -1):
        slacks = [(1 - values[e] if sign * a > 0 else values[e]) / abs(a) for e, a in coeffs.items()]
        least[sign] = (min(slacks), slacks.count(min(slacks)))
    sign = 1 if least[1][1] >= least[-1][1] else -1
    step = sign * least[sign][0]
    if (step * (base << top)).denominator != 1:
        top += 1
    assert (step * (base << top)).denominator == 1
    return {e: values[e] + a * step for e, a in coeffs.items()}, top


def _drop(edges: Sequence[tuple[int, int]], nbr: Sequence[dict[int, int]], e: int) -> None:
    u, v = edges[e]
    del nbr[u][e]
    del nbr[v][e]


def _component_adjacency(graph: Graph, support, component):
    """Sorted component and its support adjacency, or ``None`` if not connected."""
    comp = sorted(component)
    inside = set(comp)
    live = [e for e in sorted(set(support)) if inside.issuperset(graph.edges[e])]
    nbr = _live_adjacency(graph, live)
    connected = bool(comp) and bool(nbr[comp[0]]) and (
        tuple(comp) in components(edge_subgraph(graph, live)[0])
    )
    return comp, nbr if connected else None


def _walk_from(graph: Graph, nbr, start: int):
    pos = [-1] * graph.vertex_count
    pos[start] = 0
    return _next_move(nbr, [start], [], pos)


def _assert_zero_sums(graph: Graph, direction: dict) -> None:
    sums: dict = {}
    for e, coeff in direction.items():
        u, v = graph.edges[e]
        sums[u] = sums.get(u, 0) + coeff
        sums[v] = sums.get(v, 0) + coeff
    broken = {v: s for v, s in sums.items() if s}
    if broken:
        raise InternalInvariantError(f"direction does not cancel at vertices {broken}")
    if not direction:
        raise InternalInvariantError("direction has empty support")


def find_kernel_direction(graph: Graph, support, component):
    """Zero-sum direction on a support component, or ``None``.

    A direction exists exactly when the component contains an even cycle or
    two distinct cycles.  Leaves are pruned first, so the walk kernel meets
    only kernel moves: an even cycle alternates +1/-1, and two odd cycles
    combine through an even closed walk.  Vertex sums of the result vanish
    everywhere, so adding any multiple to the edge values leaves all weight
    sums unchanged.
    """
    comp, nbr = _component_adjacency(graph, support, component)
    if nbr is None:
        raise InputError("component is not connected in the given support")
    leaves = [v for v in comp if len(nbr[v]) == 1]
    while leaves:
        v = leaves.pop()
        if len(nbr[v]) == 1:
            e, u = next(iter(nbr[v].items()))
            _drop(graph.edges, nbr, e)
            if len(nbr[u]) == 1:
                leaves.append(u)
    start = next((v for v in comp if nbr[v]), None)
    if start is None:
        return None
    kind, *move = _walk_from(graph, nbr, start)
    if kind == _TERMINAL:
        return None
    direction = move_coefficients(*move)
    _assert_zero_sums(graph, direction)
    return direction


def pendant_direction(graph: Graph, support, component):
    """Direction whose sums vanish at every degree->=2 vertex of the component.

    Requires the component (a tree, or a tree plus one odd cycle) to contain
    both a leaf and an internal vertex; realised by the walk kernel from the
    least leaf as a leaf-to-leaf alternating path or as a leaf-to-cycle
    "lollipop", halved so that its stem is +-1 and its cycle +-1/2.
    """
    comp, nbr = _component_adjacency(graph, support, component)
    if nbr is None:
        raise InternalInvariantError("component is not connected in the given support")
    leaves = [v for v in comp if len(nbr[v]) == 1]
    internal = {v for v in comp if len(nbr[v]) >= 2}
    if not leaves or not internal:
        raise InternalInvariantError("pendant direction needs a leaf and an internal vertex")
    _, *move = _walk_from(graph, nbr, leaves[0])
    direction: dict = move_coefficients(*move)
    if any(abs(c) == 2 for c in direction.values()):
        direction = {e: Fraction(c, 2) for e, c in direction.items()}
    sums = dict.fromkeys(internal, 0)
    for e, coeff in direction.items():
        for v in graph.edges[e]:
            if v in sums:
                sums[v] += coeff
    broken = {v: total for v, total in sums.items() if total}
    if broken:
        raise InternalInvariantError(f"direction does not cancel at vertices {broken}")
    return direction


def enforce_condition_ii(graph: Graph, z, x) -> list[Fraction]:
    """Flip edges between strictly deficient endpoints to 1 until none remain.

    Each flip raises both endpoint sums by one, so (i) keeps holding strictly
    there and no new deficiency appears; one pass over the edges therefore
    suffices, and at most one flip per edge happens.
    """
    ids = range(graph.edge_count)
    scale, zl = _scaled_weights(z, ids)
    for e, value in enumerate(x):
        if value not in (0, 1):
            raise InputError(f"x({e}) = {value} is not 0/1; repair runs after rounding")
    xi = [int(value) for value in x]
    _enforce_ii_int(graph, ids, scale, _int_sums(graph, zl, ids), xi)
    return [Fraction(value) for value in xi]
