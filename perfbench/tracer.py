"""Spans and counters around calls into kmajority's layers.

The traced run replaces library names with timing wrappers in the namespace
of the module that calls them (``kmajority.schemes`` imports ``round_weights``
by name, so ``schemes.round_weights`` is what gets wrapped), inside this
process only.  ``Tracer.installed`` restores every name on exit, so untraced
passes measure the unwrapped code.

Each wrapper is one span.  A span's self time is its duration minus the
durations of the spans it directly encloses; a layer's busy time sums only
its outermost spans, so nested calls within one layer
(``colour_auto`` -> ``colour_small_k`` -> ``colour_sk_graph``) count once.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from kmajority import colouring, eulersplit, graphio, instances, schemes

Counter = Optional[Callable[[tuple, object], dict[str, float]]]


def _rounding(args, result):
    return {"edges": args[0].edge_count, "exceptional": len(result.exceptional)}


def _eulersplit(args, result):
    return {"edges": args[0].edge_count, "bad_vertices": len(result.bad_vertices)}


def _eliminate(args, result):
    initial, flips = result[1]
    return {"initial_bad": initial, "flips": flips}


def _raise(args, result):
    lifted, trace = result
    return {"copies": trace.copies, "edges_in": args[0].edge_count, "edges_out": lifted.edge_count}


def _oracle(args, result):
    return {"nodes": result.node_count, "limit_hits": int(result.limit_hit)}


#: (module whose name is wrapped, attribute, span name "<layer>.<call>", counters).
PATCHES: tuple[tuple[object, str, str, Counter], ...] = (
    (schemes, "round_weights", "rounding.round_weights", _rounding),
    (schemes, "balanced_bicolouring", "eulersplit.balanced_bicolouring", _eulersplit),
    (schemes, "colour_auto", "schemes.colour_auto", None),
    (schemes, "colour_bipartite", "schemes.colour_bipartite", None),
    (schemes, "colour_general_2k2", "schemes.colour_general_2k2", None),
    (schemes, "colour_refined", "schemes.colour_refined", None),
    (schemes, "colour_small_k", "schemes.colour_small_k", None),
    (schemes, "colour_sk_graph", "schemes.colour_sk_graph", None),
    (schemes, "eliminate_bad_components", "schemes.eliminate", _eliminate),
    (schemes, "split_high_degree", "reductions.split", None),
    (schemes, "raise_to_sk", "reductions.raise", _raise),
    (schemes, "pull_back_colouring", "reductions.pull_back", None),
    (schemes, "edge_subgraph", "graph.edge_subgraph", None),
    (schemes, "components", "graph.components", None),
    (eulersplit, "components", "graph.components", None),
    (schemes, "is_bipartite", "graph.is_bipartite", None),
    (schemes, "check_majority", "colouring.check_majority", None),
    (instances, "check_majority", "colouring.check_majority", None),
    (colouring, "check_majority", "colouring.check_majority", None),
    (graphio, "parse_graph", "graphio.parse", None),
    (graphio, "format_colouring", "graphio.format", None),
    (instances, "exhaustive_search", "instances.oracle", _oracle),
)

LAYERS = ("rounding", "eulersplit", "schemes", "reductions", "graph", "colouring", "graphio", "instances")


class Tracer:
    """In-memory totals of the spans and counters of one traced pass.

    ``totals`` keys: ``<span>.calls``, ``<span>.busy_s``, ``<span>.<counter>``,
    ``<layer>.busy_s`` and ``<layer>.self_s``.
    """

    def __init__(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []  # per open span: time its direct children took
        self._open: defaultdict[str, int] = defaultdict(int)  # open spans per layer

    def _wrap(self, span: str, fn: Callable, counter: Counter) -> Callable:
        layer = span.split(".", 1)[0]
        totals, children, open_spans = self.totals, self._children, self._open

        def traced(*args, **kwargs):
            children.append(0.0)
            open_spans[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                open_spans[layer] -= 1
                covered = children.pop()
                if children:
                    children[-1] += duration
                totals[span + ".calls"] += 1
                totals[span + ".busy_s"] += duration
                totals[layer + ".self_s"] += duration - covered
                if not open_spans[layer]:
                    totals[layer + ".busy_s"] += duration
            if counter is not None:
                for key, value in counter(args, result).items():
                    totals[f"{span}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every name in ``PATCHES`` for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
        try:
            for (module, attr, fn), (_, _, span, counter) in zip(originals, PATCHES):
                setattr(module, attr, self._wrap(span, fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
