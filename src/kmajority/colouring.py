"""Edge colourings and the 1/k-majority verifier.

A colouring with ``c`` colours satisfies the 1/k-majority rule when every
vertex ``v`` sees each colour on at most ``floor(d(v)/k)`` incident edges.
"""

from __future__ import annotations

from collections import Counter
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
    """Outcome of :func:`check_majority`: ``witness`` is the first violation
    in (vertex, colour) lexicographic order as ``(vertex, colour, count,
    cap)``; present iff the check fails."""

    passed: bool
    witness: Optional[tuple[int, int, int, int]]


def check_majority(graph: Graph, colouring: EdgeColouring, k: int) -> MajorityVerdict:
    """Exact incidence counts against the caps ``floor(d(v)/k)``, in O(n + m).

    The tally's keys ``v * c + colour - 1`` run through the (vertex, colour)
    pairs in lexicographic order, in a list when ``n * c <= n + 2m``, else in
    a ``Counter``, so the least key over its cap is the first violation.
    """
    if k < 2:
        raise InputError(f"majority parameter k must be at least 2, got {k}")
    colours = colouring.colours
    if len(colours) != graph.edge_count:
        raise InputError(
            f"colouring covers {len(colours)} edges, graph has {graph.edge_count}"
        )
    c = colouring.colour_count
    if c < 1:
        raise InputError("colour count must be positive")
    if colours and not (1 <= min(colours) and max(colours) <= c):
        e, colour = next((e, a) for e, a in enumerate(colours) if not 1 <= a <= c)
        raise InputError(f"edge {e} has colour {colour} outside 1..{c}")
    n, ends = graph.vertex_count, graph.edges
    caps = [d // k for d in graph.degrees()]
    if n * c <= n + 2 * len(colours):  # a table of every key is O(n + m), and faster
        tally: list[int] | Counter = [0] * (n * c)
        for (u, v), colour in zip(ends, colours):
            tally[u * c + colour - 1] += 1
            tally[v * c + colour - 1] += 1
        pairs = enumerate(tally)
    else:  # an absurd colour count: only the keys that occur
        tally = Counter([u * c + colour - 1 for (u, _), colour in zip(ends, colours)])
        tally.update([v * c + colour - 1 for (_, v), colour in zip(ends, colours)])
        pairs = tally.items()
    first = min((key for key, count in pairs if count > caps[key // c]), default=-1)
    v, i = divmod(first, c)
    witness = (v, i + 1, tally[first], caps[v]) if first >= 0 else None
    return MajorityVerdict(witness is None, witness)
