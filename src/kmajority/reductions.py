"""Degree-confining graph transforms and colouring pull-back.

Two reductions let the small-k colouring schemes assume every degree lies in

    S_k = { i : k^2 <= i < 2k^2, i = k-1 (mod k) }

without losing generality:

* :func:`split_high_degree` replaces each vertex of degree >= 2k^2 by several
  vertices of degree in [k^2, 2k^2), partitioning its incident edges; the edge
  set is carried over by a bijection.
* :func:`raise_to_sk` repeatedly doubles the graph, joining each vertex whose
  degree is not yet in S_k to its twin; every degree gains at most k-1 and
  keeps its majority cap: floor(d_new/k) = floor(d_old/k).

:func:`pull_back_colouring` maps a valid colouring of the transformed graph
back to the original, which stays valid thanks to the cap arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .colouring import EdgeColouring
from .errors import InputError, InternalInvariantError, PreconditionError
from .graph import Graph, _assemble


def sk_degrees(k: int) -> tuple[int, ...]:
    """The admissible degree set S_k in increasing order."""
    return tuple(i for i in range(k * k, 2 * k * k) if i % k == k - 1)


@dataclass(frozen=True)
class SplitTrace:
    """Vertex-splitting record: new vertex -> origin, new edge -> original edge."""

    origin: tuple[int, ...]
    edge_bijection: tuple[int, ...]


@dataclass(frozen=True)
class LiftTrace:
    """Doubling record: number of rounds and the original-edge embedding."""

    copies: int
    embedding: tuple[int, ...]


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
    return out, SplitTrace(tuple(origin), tuple(range(graph.edge_count)))


def raise_to_sk(graph: Graph, k: int) -> tuple[Graph, LiftTrace]:
    """Double the graph until every degree lies in S_k.

    Each round joins every vertex with d not in S_k to its twin in a fresh
    copy, raising d by one; at most k-1 rounds are needed.  The first copy
    keeps all original vertex and edge indices, so the embedding is the
    identity on the input's edges.  Restricted to k <= 4: the blow-up is
    2^(k-1)-fold.
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
    allowed = set(sk_degrees(k))
    current = graph
    copies = 0
    while any(d not in allowed for d in current.degrees()):
        if copies >= k - 1:
            raise InternalInvariantError("more than k-1 doubling rounds required")
        n = current.vertex_count
        edges = list(current.edges)
        edges.extend((u + n, v + n) for u, v in current.edges)
        edges.extend(
            (v, v + n) for v in range(n) if current.degree(v) not in allowed
        )
        current = _assemble(2 * n, edges)  # two disjoint copies plus twin edges: simple
        copies += 1
    return current, LiftTrace(copies, tuple(range(graph.edge_count)))


def pull_back_colouring(
    colouring: EdgeColouring, trace: Union[SplitTrace, LiftTrace]
) -> EdgeColouring:
    """Map a colouring of the transformed graph back through one trace."""
    if isinstance(trace, SplitTrace):
        if len(colouring.colours) != len(trace.edge_bijection):
            raise InputError(
                f"colouring has {len(colouring.colours)} edges, trace expects "
                f"{len(trace.edge_bijection)}"
            )
        out = [0] * len(trace.edge_bijection)
        for new_e, orig_e in enumerate(trace.edge_bijection):
            out[orig_e] = colouring.colours[new_e]
        return EdgeColouring(tuple(out), colouring.colour_count)
    if isinstance(trace, LiftTrace):
        if trace.embedding and max(trace.embedding) >= len(colouring.colours):
            raise InputError("trace embedding points outside the colouring")
        return EdgeColouring(
            tuple(colouring.colours[e] for e in trace.embedding), colouring.colour_count
        )
    raise InputError(f"unknown trace type {type(trace).__name__}")
