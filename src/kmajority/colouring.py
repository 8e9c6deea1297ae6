"""Edge colourings and the 1/k-majority verifier.

A colouring with ``c`` colours satisfies the 1/k-majority rule when every
vertex ``v`` sees each colour on at most ``floor(d(v)/k)`` incident edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .graph import Graph


@dataclass(frozen=True)
class EdgeColouring:
    """Total map edge index -> colour id in ``1..colour_count``."""

    colours: tuple[int, ...]
    colour_count: int


@dataclass(frozen=True)
class MajorityVerdict:
    """Outcome of :func:`check_majority`.

    ``counts[v][i]`` is the number of colour-``i+1`` edges at vertex ``v``.
    ``witness`` is the first violation in (vertex, colour) lexicographic
    order as ``(vertex, colour, count, cap)``; present iff the check fails.
    """

    passed: bool
    counts: tuple[tuple[int, ...], ...]
    witness: Optional[tuple[int, int, int, int]]


def check_majority(graph: Graph, colouring: EdgeColouring, k: int) -> MajorityVerdict:
    """Exact incidence counts against the caps ``floor(d(v)/k)``."""
    if k < 2:
        raise InputError(f"majority parameter k must be at least 2, got {k}")
    if len(colouring.colours) != graph.edge_count:
        raise InputError(
            f"colouring covers {len(colouring.colours)} edges, graph has {graph.edge_count}"
        )
    c = colouring.colour_count
    if c < 1:
        raise InputError("colour count must be positive")
    counts = [[0] * c for _ in range(graph.vertex_count)]
    for e, colour in enumerate(colouring.colours):
        if not 1 <= colour <= c:
            raise InputError(f"edge {e} has colour {colour} outside 1..{c}")
        u, v = graph.edges[e]
        counts[u][colour - 1] += 1
        counts[v][colour - 1] += 1
    witness = None
    for v in range(graph.vertex_count):
        cap = graph.degree(v) // k
        for i in range(c):
            if counts[v][i] > cap:
                witness = (v, i + 1, counts[v][i], cap)
                break
        if witness:
            break
    return MajorityVerdict(witness is None, tuple(tuple(row) for row in counts), witness)
