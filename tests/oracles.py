"""Independent test-side oracles.

Everything here re-derives expected behaviour from first principles
(enumeration, brute force) without touching the library's own certification
paths, so tests cross-check two independent routes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from kmajority import Bicolouring, Graph, InternalInvariantError, build_graph

Edges = tuple[tuple[int, int], ...]


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
                for u, e in graph.adjacency[v]:
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


def side_counts(graph: Graph, bicolouring: Bicolouring) -> list[list[int]]:
    """Per-vertex [blue, red] incidence counts."""
    counts = [[0, 0] for _ in range(graph.vertex_count)]
    for e, s in enumerate(bicolouring.side):
        u, v = graph.edges[e]
        counts[u][s] += 1
        counts[v][s] += 1
    return counts


def assert_balanced(graph: Graph, bicolouring: Bicolouring) -> None:
    """Check the Euler-split invariants: every vertex within ceil(d/2) per
    side, and each bad vertex at exactly d/2 + 1 red."""
    counts = side_counts(graph, bicolouring)
    bad = set(bicolouring.bad_vertices)
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


def doubling_lift(graph: Graph, k: int) -> Graph:
    """Reference lift into S_k: double the whole graph until every degree fits.

    Each round joins every vertex whose degree is not yet in S_k to its twin
    in a fresh copy of the whole graph, so every component ends with
    2^rounds copies.
    """
    allowed = {i for i in range(k * k, 2 * k * k) if i % k == k - 1}
    current = graph
    while any(d not in allowed for d in current.degrees()):
        n = current.vertex_count
        edges = list(current.edges)
        edges.extend((u + n, v + n) for u, v in current.edges)
        edges.extend((v, v + n) for v in range(n) if current.degree(v) not in allowed)
        current = build_graph(2 * n, edges)
    return current


def _colour_components(graph: Graph, side, colour: int):
    """Components of one colour class by least vertex: (vertices, degrees, edges)."""
    label = [-1] * graph.vertex_count
    out = []
    for root in range(graph.vertex_count):
        if label[root] >= 0 or all(side[e] != colour for _, e in graph.adjacency[root]):
            continue
        label[root] = root
        block, stack = [root], [root]
        while stack:
            v = stack.pop()
            for u, e in graph.adjacency[v]:
                if side[e] == colour and label[u] < 0:
                    label[u] = root
                    block.append(u)
                    stack.append(u)
        block.sort()
        degs = {v: sum(side[e] == colour for _, e in graph.adjacency[v]) for v in block}
        out.append((tuple(block), degs, sum(degs.values()) // 2))
    return out


def eliminate_by_full_recompute(graph: Graph, bicolouring: Bicolouring, is_bad, pick_vertex=None):
    """Reference bad-component elimination that recomputes every
    monochromatic component of both colours after each flip."""
    side = list(bicolouring.side)

    def bad_list():
        return [
            (colour, info)
            for colour in (0, 1)
            for info in _colour_components(graph, side, colour)
            if is_bad(*info)
        ]

    bads = bad_list()
    initial, flips = len(bads), 0
    while bads:
        colour, (verts, degs, _) = bads[0]
        v = verts[0] if pick_vertex is None else pick_vertex(verts, degs)
        if v is None:
            raise InternalInvariantError("no admissible flip vertex in a bad component")
        neighbours = sorted(u for u, e in graph.adjacency[v] if side[e] == colour)
        if len(neighbours) < 2:
            raise InternalInvariantError(f"flip vertex {v} has fewer than two neighbours")
        u1, u2 = neighbours[:2]
        other = 1 - colour
        inside = {v}
        for info in _colour_components(graph, side, other):
            if v in info[0]:
                inside = set(info[0])
        target = u1 if u1 not in inside else u2 if u2 not in inside else u1
        edge = next(e for u, e in graph.adjacency[v] if u == target and side[e] == colour)
        side[edge] = other
        flips += 1
        remaining = bad_list()
        if len(remaining) >= len(bads):
            raise InternalInvariantError("bad-component count failed to decrease")
        bads = remaining
    return Bicolouring(tuple(side), bicolouring.bad_vertices), (initial, flips)
