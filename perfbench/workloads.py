"""The benchmark's workloads and the one operation all of them time.

Every instance is generated from the workload seed and serialised to text.
The operation parses that text, colours the graph, serialises the colouring
and re-verifies it against the generated graph: ``kmajority colour`` without
disk I/O, plus the oracle fallback of ``kmajority sweep`` when the dispatcher
finds no applicable scheme.

The library is always reached through module attributes
(``schemes.colour_refined``, ``graphio.parse_graph``, ...), so the traced run
can wrap those names and see every call the operation makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from kmajority import colouring, graphio, instances, schemes
from kmajority.graph import Graph, build_graph

#: Node budget of the oracle fallback.  At 200,000 (the default of
#: ``scripts/sweep_conjecture.py``) about one k=3, delta=8 graph in 200 runs out
#: of budget (searches of up to 411k nodes were seen); this budget leaves room
#: while bounding one search to seconds.
ORACLE_NODE_LIMIT = 10_000_000
LIMIT_HIT = "oracle node limit hit"

#: large_graphs: (label, k, vertices, minimum degree, bipartite, forced scheme).
#: Each graph is exactly regular, so m is the same for every seed, and the
#: work of an operation moves with the seed by a few per cent.  The two
#: general sizes (m = 630 and 360) give rounding's growth in m.
LARGE_GRAPHS = (
    ("general_m630", 3, 70, 18, False, "colour_general_2k2"),
    ("general_m360", 3, 40, 18, False, "colour_general_2k2"),
    ("refined_m504", 4, 36, 28, False, "colour_refined"),
    ("bipartite_m480", 4, 80, 12, True, "colour_bipartite"),
    ("small_k_m160", 4, 20, 16, False, "colour_small_k"),
)

#: many_components: ``UNIONS`` unions of each kind.  A clique union holds
#: copies of each of K10, K12, K15 and K20 (m = 812), a random union n=14
#: components (m ~ 800).  The seed shuffles labels and draws the random
#: components; the mix of component shapes stays fixed, so the work per pass
#: barely moves with the seed.
UNIONS = 4
CLIQUE_SIZES = (10, 12, 15, 20)
CLIQUE_COPIES = 2
RANDOM_COMPONENTS = 12

#: threshold_sweep: (k, minimum degree) cells around k^2, trials per cell, n.
SWEEP_CELLS = tuple((k, delta) for k in (2, 3) for delta in (k * k - 1, k * k, k * k + 1))
SWEEP_TRIALS = 40
SWEEP_VERTICES = 14


@dataclass(frozen=True)
class Instance:
    """One input: the generated graph, its text, and how to colour it."""

    label: str
    k: int
    scheme: str  # attribute name in kmajority.schemes
    graph: Graph
    text: str


def _instance(label: str, k: int, scheme: str, graph: Graph) -> Instance:
    return Instance(label, k, scheme, graph, graphio.format_graph(graph))


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _shuffled_union(parts: list[Graph], rng: random.Random) -> Graph:
    """Disjoint union with vertex labels shuffled over the whole range.

    Shuffling interleaves the components' vertices, as in a graph read from
    a file, instead of leaving each component on a contiguous index block.
    """
    n = sum(part.vertex_count for part in parts)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    offset = 0
    for part in parts:
        for u, v in part.edges:
            a, b = labels[offset + u], labels[offset + v]
            edges.append((a, b) if a < b else (b, a))
        offset += part.vertex_count
    return build_graph(n, sorted(edges))


def _large_graphs(rng: random.Random) -> list[Instance]:
    return [
        _instance(
            label,
            k,
            scheme,
            instances.random_min_degree_graph(n, delta, bipartite=bipartite, seed=_seed(rng)),
        )
        for label, k, n, delta, bipartite, scheme in LARGE_GRAPHS
    ]


def _many_components(rng: random.Random) -> list[Instance]:
    # K10 is 9-regular (lifted twice), K12 is 11-regular (already in S_3),
    # K15 is 14-regular with 105 edges (the odd "aside" path) and K20 has
    # degree-19 hubs that split_high_degree must split.
    out = []
    for _ in range(UNIONS):
        cliques = _shuffled_union([_complete(n) for n in CLIQUE_SIZES] * CLIQUE_COPIES, rng)
        randoms = _shuffled_union(
            [
                instances.random_min_degree_graph(14, 9, seed=_seed(rng), extra_edges=i % 9)
                for i in range(RANDOM_COMPONENTS)
            ],
            rng,
        )
        out.append(_instance("cliques", 3, "colour_small_k", cliques))
        out.append(_instance("random_n14", 3, "colour_small_k", randoms))
    return out


def _threshold_sweep(rng: random.Random) -> list[Instance]:
    return [
        _instance(
            f"k{k}_delta{delta}",
            k,
            "colour_auto",
            instances.random_min_degree_graph(SWEEP_VERTICES, delta, seed=_seed(rng)),
        )
        for k, delta in SWEEP_CELLS
        for _ in range(SWEEP_TRIALS)
    ]


def build(workload: str, seed: int) -> list[Instance]:
    """Generate and serialise the workload's instances; same seed, same list."""
    makers = {
        "large_graphs": _large_graphs,
        "many_components": _many_components,
        "threshold_sweep": _threshold_sweep,
    }
    return makers[workload](random.Random(f"{workload}:{seed}"))


def run_op(inst: Instance) -> Optional[str]:
    """Colour one instance end to end; ``None`` when the result verified, else why not.

    A certified "no colouring exists" from the oracle is a valid answer.
    """
    graph = graphio.parse_graph(inst.text)
    found, _ = getattr(schemes, inst.scheme)(graph, inst.k)
    if found is None:  # below every scheme's threshold: fall back to the oracle
        outcome = instances.exhaustive_search(
            graph, inst.k, inst.k + 1, node_limit=ORACLE_NODE_LIMIT
        )
        if outcome.limit_hit:
            return LIMIT_HIT
        found = outcome.colouring
        if found is None:
            return None
    graphio.format_colouring(found)
    verdict = colouring.check_majority(inst.graph, found, inst.k)
    if found.colour_count != inst.k + 1 or not verdict.passed:
        return f"invalid colouring of {inst.label}: {verdict.witness}"
    return None
