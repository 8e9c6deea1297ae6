"""Constructive 1/k-majority (k+1)-edge-colouring schemes.

Four algorithms, each re-verified with :func:`check_majority` before
returning, plus a dispatcher choosing the strongest applicable one:

* :func:`colour_bipartite` - optimal for bipartite graphs, minimum degree
  k(k-1): strips colour classes with constant weights 1/(k+1), ..., 1/2.
* :func:`colour_general_2k2` - any graph with minimum degree 2k^2: strips k
  classes with tuned rational weights, leftover edges form the last class.
* :func:`colour_refined` - minimum degree (3/2)k^2 + (1/2)km + (1/2)k where
  k = 2^n + m - 1: m weighted rounds, then n levels of balanced Euler
  bisection assign binary colour vectors, with "special" vertices barred
  from absorbing a second surplus on the same prefix chain.
* :func:`colour_small_k` - k in {2, 3, 4} at the conjectured-optimal bound
  k^2, via degree reduction to S_k and colour-class surgery that eliminates
  unsplittable monochromatic components.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .colouring import EdgeColouring, MajorityVerdict, check_majority
from .errors import InputError, InternalInvariantError, PreconditionError
from .eulersplit import BLUE, RED, Bicolouring, balanced_bicolouring
from .graph import Graph, components, edge_subgraph, is_bipartite
from .reductions import pull_back_colouring, raise_to_sk, split_high_degree
from .rounding import round_weights


@dataclass(frozen=True)
class RoundStat:
    """Per-round degree statistics of one weighted stripping round."""

    index: int
    weight: Fraction
    class_size: int
    max_class_degree: int
    max_residual_degree: int
    class_slack: Optional[Fraction]
    residual_slack: Optional[Fraction]
    exceptional: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class SchemeReport:
    """What a scheme did: parameters, per-round statistics, final verdict."""

    algorithm: str
    k: int
    levels: Optional[int] = None
    head_rounds: Optional[int] = None
    alphas: tuple[Fraction, ...] = ()
    rounds: tuple[RoundStat, ...] = ()
    elimination: Optional[tuple[int, int]] = None  # (initial bad components, flips)
    rule_a_max_size: Optional[int] = None
    verdict: Optional[MajorityVerdict] = None

    def params_json(self) -> dict:
        return {
            "n": self.levels,
            "m": self.head_rounds,
            "alpha": [f"{a.numerator}/{a.denominator}" for a in self.alphas],
        }

    def rounds_json(self) -> list[dict]:
        return [
            {
                "index": r.index,
                "weight": f"{r.weight.numerator}/{r.weight.denominator}",
                "class_size": r.class_size,
                "exceptional": [[v, list(cycle)] for v, cycle in r.exceptional],
            }
            for r in self.rounds
        ]


SchemeOutcome = tuple[EdgeColouring, SchemeReport]


def general_alphas(delta: int, k: int) -> tuple[Fraction, ...]:
    """Stripping weights for the general scheme at actual minimum degree delta."""
    dk = Fraction(delta, k)
    alphas = tuple((dk - 1) / (delta - (i - 1) * (dk - 2)) for i in range(1, k + 1))
    for a in alphas:
        if not 0 < a <= 1:
            raise InternalInvariantError(f"stripping weight {a} outside (0, 1]")
    return alphas


def refined_parameters(k: int) -> tuple[int, int, Fraction]:
    """(n, m, minimum-degree bound) with k = 2^n + m - 1, 0 <= m < 2^n."""
    n = (k + 1).bit_length() - 1
    m = k + 1 - (1 << n)
    bound = Fraction(3 * k * k + k * m + k, 2)
    return n, m, bound


def _verify(graph: Graph, colours: Sequence[int], k: int) -> tuple[EdgeColouring, MajorityVerdict]:
    colouring = EdgeColouring(tuple(colours), k + 1)
    verdict = check_majority(graph, colouring, k)
    if not verdict.passed:
        raise InternalInvariantError(f"scheme output failed verification: {verdict.witness}")
    return colouring, verdict


def _strip_round(
    graph: Graph, remaining: list[int], weight: Fraction
) -> tuple[list[int], list[int], tuple]:
    """One application of the rounding lemma with a constant weight.

    Returns (chosen original edges, residual original edges, ledger).
    """
    sub, emap = edge_subgraph(graph, remaining)
    result = round_weights(sub, [weight] * sub.edge_count)
    chosen = [emap[j] for j in range(sub.edge_count) if result.x[j] == 1]
    residual = [emap[j] for j in range(sub.edge_count) if result.x[j] == 0]
    ledger = tuple(
        (v, tuple(emap[j] for j in cycle)) for v, cycle in result.exceptional
    )
    return chosen, residual, ledger


def _degree_in(graph: Graph, edges: Sequence[int]) -> list[int]:
    deg = [0] * graph.vertex_count
    for e in edges:
        u, v = graph.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def _general_rounds(
    graph: Graph, k: int, delta: int, round_count: int
) -> tuple[list[list[int]], list[int], list[RoundStat], tuple[Fraction, ...]]:
    """First ``round_count`` weighted rounds of the general scheme.

    Asserts, exactly in rationals and for every vertex v with d(v) = beta*delta:
    the class degree stays <= beta*delta/k and the residual degree stays
    <= beta*(delta - i*(delta/k - 2)).
    """
    alphas = general_alphas(delta, k)[:round_count]
    degrees = graph.degrees()
    dk = Fraction(delta, k)
    remaining = list(range(graph.edge_count))
    classes: list[list[int]] = []
    stats: list[RoundStat] = []
    for i, alpha in enumerate(alphas, start=1):
        chosen, remaining, ledger = _strip_round(graph, remaining, alpha)
        class_deg = _degree_in(graph, chosen)
        residual_deg = _degree_in(graph, remaining)
        class_slack = Fraction(0)
        residual_slack = Fraction(0)
        for v in range(graph.vertex_count):
            beta = Fraction(degrees[v], delta)
            class_slack = max(class_slack, class_deg[v] - beta * dk)
            residual_slack = max(
                residual_slack, residual_deg[v] - beta * (delta - i * (dk - 2))
            )
        if class_slack > 0 or residual_slack > 0:
            raise InternalInvariantError(
                f"round {i} degree bound violated "
                f"(class slack {class_slack}, residual slack {residual_slack})"
            )
        classes.append(chosen)
        stats.append(
            RoundStat(
                index=i,
                weight=alpha,
                class_size=len(chosen),
                max_class_degree=max(class_deg, default=0),
                max_residual_degree=max(residual_deg, default=0),
                class_slack=class_slack,
                residual_slack=residual_slack,
                exceptional=ledger,
            )
        )
    return classes, remaining, stats, alphas


# ---------------------------------------------------------------------------
# Bipartite scheme
# ---------------------------------------------------------------------------


def colour_bipartite(graph: Graph, k: int) -> SchemeOutcome:
    """Optimal (k+1)-colouring of a bipartite graph with min degree k(k-1).

    For i = k+1 down to 2, one rounding pass with constant weight 1/i carves
    colour class i out of the remaining edges; class 1 takes the leftover.
    Bipartiteness keeps every rounding ledger empty, which pins each class
    degree into the window that yields the floor(d/k) caps.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    if not is_bipartite(graph).bipartite:
        raise PreconditionError("graph is not bipartite")
    delta = graph.min_degree()
    if delta < k * (k - 1):
        raise PreconditionError(f"minimum degree {delta} below k(k-1) = {k * (k - 1)}")
    colours = [1] * graph.edge_count
    remaining = list(range(graph.edge_count))
    stats: list[RoundStat] = []
    for i in range(k + 1, 1, -1):
        weight = Fraction(1, i)
        chosen, remaining, ledger = _strip_round(graph, remaining, weight)
        if ledger:
            raise InternalInvariantError("bipartite rounding produced exceptional vertices")
        for e in chosen:
            colours[e] = i
        class_deg = _degree_in(graph, chosen)
        stats.append(
            RoundStat(
                index=k + 2 - i,
                weight=weight,
                class_size=len(chosen),
                max_class_degree=max(class_deg, default=0),
                max_residual_degree=max(_degree_in(graph, remaining), default=0),
                class_slack=None,
                residual_slack=None,
                exceptional=(),
            )
        )
    colouring, verdict = _verify(graph, colours, k)
    report = SchemeReport(
        algorithm="bipartite",
        k=k,
        alphas=tuple(Fraction(1, i) for i in range(k + 1, 1, -1)),
        rounds=tuple(stats),
        verdict=verdict,
    )
    return colouring, report


# ---------------------------------------------------------------------------
# General scheme (minimum degree 2k^2)
# ---------------------------------------------------------------------------


def colour_general_2k2(graph: Graph, k: int) -> SchemeOutcome:
    """(k+1)-colouring of any graph with minimum degree at least 2k^2."""
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    delta = graph.min_degree()
    if delta < 2 * k * k:
        raise PreconditionError(f"minimum degree {delta} below 2k^2 = {2 * k * k}")
    classes, leftover, stats, alphas = _general_rounds(graph, k, delta, k)
    colours = [k + 1] * graph.edge_count
    for i, chosen in enumerate(classes, start=1):
        for e in chosen:
            colours[e] = i
    colouring, verdict = _verify(graph, colours, k)
    report = SchemeReport(
        algorithm="general",
        k=k,
        alphas=alphas,
        rounds=tuple(stats),
        verdict=verdict,
    )
    return colouring, report


# ---------------------------------------------------------------------------
# Refined scheme (binary vectors over the leftover graph)
# ---------------------------------------------------------------------------


def colour_refined(graph: Graph, k: int) -> SchemeOutcome:
    """(k+1)-colouring at minimum degree (3/2)k^2 + (1/2)km + (1/2)k.

    After m weighted rounds, the leftover graph is coloured with binary
    vectors of length n, one coordinate per level.  Each level splits every
    prefix-class component evenly (rule b), except components whose vertices
    all carry an earlier surplus - those are finished with zeros at once
    (rule a).  A forced bad vertex becomes "special" for its extended prefix
    and is never chosen again along that chain.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    n_levels, m_rounds, bound = refined_parameters(k)
    delta = graph.min_degree()
    if delta < bound:
        raise PreconditionError(f"minimum degree {delta} below {bound}")
    classes, leftover, stats, alphas = _general_rounds(graph, k, delta, m_rounds)
    colours = [0] * graph.edge_count
    for i, chosen in enumerate(classes, start=1):
        for e in chosen:
            colours[e] = i

    bits: dict[int, list[int]] = {e: [0] * n_levels for e in leftover}
    determined: set[int] = set()
    special: dict[int, set[str]] = {}
    rule_a_max = 0

    def special_for_prefix(v: int, prefix: str) -> bool:
        marks = special.get(v)
        if not marks:
            return False
        return any(prefix[:j] in marks for j in range(1, len(prefix) + 1))

    for level in range(1, n_levels + 1):
        buckets: dict[str, list[int]] = {}
        for e in leftover:
            if e in determined:
                continue
            prefix = "".join(str(b) for b in bits[e][: level - 1])
            buckets.setdefault(prefix, []).append(e)
        for prefix in sorted(buckets):
            # The bucket's own subgraph keeps each bucket's cost in its size,
            # not the whole graph's; rule (b) splits a subset of it in place.
            sub, emap = edge_subgraph(graph, buckets[prefix])
            rule_b: list[int] = []
            for comp in components(sub):
                comp_edges = sorted({j for v in comp for _, j in sub.adjacency[v]})
                if not comp_edges:
                    continue
                if all(special_for_prefix(v, prefix) for v in comp):
                    if len(comp) > n_levels:
                        raise InternalInvariantError(
                            f"rule-(a) component has {len(comp)} vertices > n = {n_levels}"
                        )
                    rule_a_max = max(rule_a_max, len(comp))
                    for j in comp_edges:
                        determined.add(emap[j])  # remaining coordinates stay 0
                else:
                    rule_b.extend(comp_edges)
            if not rule_b:
                continue

            def selector(comp: tuple[int, ...], _prefix: str = prefix) -> Optional[int]:
                for v in comp:
                    if not special_for_prefix(v, _prefix):
                        return v
                return None

            bic = balanced_bicolouring(sub, selector, rule_b)
            for j in rule_b:
                bits[emap[j]][level - 1] = bic.side[j]  # blue -> 0, red -> 1
            for u in bic.bad_vertices:
                special.setdefault(u, set()).add(prefix + "1")

    for e in leftover:
        value = 0
        for b in bits[e]:
            value = (value << 1) | b
        colours[e] = m_rounds + 1 + value

    _assert_refined_claim(graph, colours, leftover, k, n_levels, m_rounds)
    colouring, verdict = _verify(graph, colours, k)
    report = SchemeReport(
        algorithm="refined",
        k=k,
        levels=n_levels,
        head_rounds=m_rounds,
        alphas=alphas,
        rounds=tuple(stats),
        rule_a_max_size=rule_a_max,
        verdict=verdict,
    )
    return colouring, report


def _assert_refined_claim(
    graph: Graph,
    colours: Sequence[int],
    leftover: Sequence[int],
    k: int,
    n_levels: int,
    m_rounds: int,
) -> None:
    """Every vector colour obeys count_alpha(v) <= (d_H(v) - 1)/2^n + 3/2."""
    d_h = _degree_in(graph, leftover)
    counts: dict[tuple[int, int], int] = {}
    for e in leftover:
        c = colours[e]
        for v in graph.edges[e]:
            counts[(v, c)] = counts.get((v, c), 0) + 1
    two_n = 1 << n_levels
    for (v, c), count in counts.items():
        if count > Fraction(d_h[v] - 1, two_n) + Fraction(3, 2):
            raise InternalInvariantError(
                f"vector-colour bound fails at vertex {v}, colour {c}: "
                f"{count} > ({d_h[v]}-1)/{two_n} + 3/2"
            )


# ---------------------------------------------------------------------------
# Bad-component elimination (shared by the small-k schemes)
# ---------------------------------------------------------------------------

BadComponentPredicate = Callable[[tuple[int, ...], dict[int, int], int], bool]
FlipVertexPicker = Callable[[tuple[int, ...], dict[int, int]], Optional[int]]


MonoComponent = tuple[tuple[int, ...], dict[int, int], int]


def _mono_component(
    graph: Graph, side: Sequence[int], colour: int, root: int, seen: list[bool]
) -> MonoComponent:
    """The component of ``root`` in one colour class: (sorted vertices,
    degrees within, edge count).  Marks its vertices in ``seen``."""
    seen[root] = True
    block = [root]
    degree: dict[int, int] = {}
    queue = [root]
    while queue:
        v = queue.pop()
        d = 0
        for u, e in graph.adjacency[v]:
            if side[e] == colour:
                d += 1
                if not seen[u]:
                    seen[u] = True
                    block.append(u)
                    queue.append(u)
        degree[v] = d
    block.sort()
    degs = {v: degree[v] for v in block}
    return tuple(block), degs, sum(degs.values()) // 2


def _has_colour(graph: Graph, side: Sequence[int], colour: int, v: int) -> bool:
    return any(side[e] == colour for _, e in graph.adjacency[v])


def _mono_components(graph: Graph, side: Sequence[int], colour: int) -> list[MonoComponent]:
    """Components of one colour class, ordered by least vertex."""
    seen = [False] * graph.vertex_count
    return [
        _mono_component(graph, side, colour, root, seen)
        for root in range(graph.vertex_count)
        if not seen[root] and _has_colour(graph, side, colour, root)
    ]


def eliminate_bad_components(
    graph: Graph,
    bicolouring: Bicolouring,
    is_bad: BadComponentPredicate,
    pick_vertex: Optional[FlipVertexPicker] = None,
) -> tuple[Bicolouring, tuple[int, int]]:
    """Recolour single edges until no monochromatic component is "bad".

    In the chosen bad component, a vertex v and two of its neighbours u1, u2
    are located; the edge to whichever u_i lies outside v's other-colour
    component is flipped (v-u1 when both lie inside).  Each flip must strictly
    decrease the number of bad components over both colours, else an
    :class:`InternalInvariantError` signals a hypothesis breach.  Bad
    components are taken blue before red, then by least vertex.

    A flip only touches the components of its two endpoints, so only those
    are traversed again: the time is linear in the size of the components
    flipped in, not in the number of bad components times the graph.

    Returns the repaired bicolouring and (initial bad count, flips done).
    """
    side = list(bicolouring.side)
    seen = [False] * graph.vertex_count

    def component(colour: int, root: int) -> Optional[MonoComponent]:
        """Root's component in ``colour`` (None without such an edge); resets ``seen``."""
        if not _has_colour(graph, side, colour, root):
            return None
        info = _mono_component(graph, side, colour, root, seen)
        for v in info[0]:
            seen[v] = False
        return info

    # (colour, least vertex) -> component, for every bad component.
    bads: dict[tuple[int, int], MonoComponent] = {}
    for colour in (BLUE, RED):
        for info in _mono_components(graph, side, colour):
            if is_bad(*info):
                bads[(colour, info[0][0])] = info
    queue = list(bads)
    heapq.heapify(queue)
    initial = len(bads)
    flips = 0
    while bads:
        while queue[0] not in bads:
            heapq.heappop(queue)
        colour, least = queue[0]
        verts, degs, _ = bads[(colour, least)]
        v = verts[0] if pick_vertex is None else pick_vertex(verts, degs)
        if v is None:
            raise InternalInvariantError("no admissible flip vertex in a bad component")
        neighbours = sorted(u for u, e in graph.adjacency[v] if side[e] == colour)
        if len(neighbours) < 2:
            raise InternalInvariantError(f"flip vertex {v} has fewer than two neighbours")
        u1, u2 = neighbours[0], neighbours[1]
        other = 1 - colour
        around_v = component(other, v)
        inside = set(around_v[0]) if around_v else {v}
        if u1 not in inside:
            target = u1
        elif u2 not in inside:
            target = u2
        else:
            target = u1
        # The flip splits at most the bad component in its colour and merges
        # at most the components of v and target in the other colour.
        count = len(bads)
        del bads[(colour, least)]
        if around_v:
            bads.pop((other, around_v[0][0]), None)
        if target not in inside:
            around_target = component(other, target)
            if around_target:
                bads.pop((other, around_target[0][0]), None)
        edge = next(e for u, e in graph.adjacency[v] if u == target and side[e] == colour)
        side[edge] = other
        flips += 1
        split_v = component(colour, v)
        split_target = None if target in split_v[0] else component(colour, target)
        for c, info in ((other, component(other, v)), (colour, split_v), (colour, split_target)):
            if info is not None and is_bad(*info):
                bads[(c, info[0][0])] = info
                heapq.heappush(queue, (c, info[0][0]))
        if len(bads) >= count:
            raise InternalInvariantError("bad-component count failed to decrease")
    return Bicolouring(tuple(side), bicolouring.bad_vertices), (initial, flips)


# ---------------------------------------------------------------------------
# Small-k schemes (k = 2, 3, 4 at the conjectured threshold k^2)
# ---------------------------------------------------------------------------


def _refuse(_comp: tuple[int, ...]) -> Optional[int]:
    return None


def _no_vertex(_v: int, _half_degree: int) -> bool:
    return False


def _split_half_into(
    graph: Graph,
    edge_ids: list[int],
    colour_pair: tuple[int, int],
    colours: list[int],
    admissible: Callable[[int, int], bool],
) -> None:
    """Euler-split ``edge_ids`` of ``graph`` and write the two final colours.

    A component that forces a bad vertex takes its least vertex v with
    ``admissible(v, d)``, d being v's degree among ``edge_ids``.
    """
    degree: list[int] = []

    def selector(comp: tuple[int, ...]) -> Optional[int]:
        if not degree:  # counted once, and only if some component forces a bad vertex
            degree.extend(_degree_in(graph, edge_ids))
        return next((v for v in comp if admissible(v, degree[v])), None)

    side = balanced_bicolouring(graph, selector, edge_ids).side
    blue, red = colour_pair
    for e in edge_ids:
        colours[e] = blue if side[e] == BLUE else red


def _colour_sk2(graph: Graph) -> tuple[list[int], dict]:
    """Majority 3-edge-colouring for degrees in S_2 = {5, 7}."""
    chosen, rest, _ = _strip_round(graph, list(range(graph.edge_count)), Fraction(1, 3))
    colours = [0] * graph.edge_count
    for e in chosen:
        colours[e] = 3
    # Every leftover component has an odd-degree vertex or is 4-regular with
    # an even edge count, so no bad vertex may ever be requested.
    _split_half_into(graph, rest, (1, 2), colours, _no_vertex)
    return colours, {"alphas": (Fraction(1, 3),), "elimination": None}


def _six_regular_odd(verts: tuple[int, ...], degs: dict[int, int], edge_count: int) -> bool:
    return edge_count % 2 == 1 and all(degs[v] == 6 for v in verts)


def _colour_sk3(graph: Graph) -> tuple[list[int], dict]:
    """1/3-majority 4-edge-colouring for degrees in S_3 = {11, 14, 17}."""
    degrees = graph.degrees()
    # Set aside the 14-regular components with oddly many (7 per vertex) edges.
    aside_of = [False] * graph.vertex_count
    for comp in components(graph):
        if len(comp) % 2 == 1 and all(degrees[v] == 14 for v in comp):
            for v in comp:
                aside_of[v] = True
    main_edges: list[int] = []
    aside_edges: list[int] = []
    for e, (u, _) in enumerate(graph.edges):
        (aside_edges if aside_of[u] else main_edges).append(e)
    colours = [0] * graph.edge_count
    elimination = (0, 0)
    if main_edges:
        bic = balanced_bicolouring(graph, _refuse, main_edges)
        bic, elimination = eliminate_bad_components(graph, bic, _six_regular_odd)
        for colour_side, pair in ((BLUE, (1, 2)), (RED, (3, 4))):
            half_ids = [e for e, side in enumerate(bic.side) if side == colour_side]
            _split_half_into(graph, half_ids, pair, colours, lambda v, d: d == 8)
    if aside_edges:
        # 14-regular components with oddly many edges: any bad vertex will do,
        # and afterwards every monochromatic component has an odd-degree vertex.
        bic = balanced_bicolouring(graph, None, aside_edges)
        for colour_side, pair in ((BLUE, (1, 2)), (RED, (3, 4))):
            half_ids = [e for e, side in enumerate(bic.side) if side == colour_side]
            _split_half_into(graph, half_ids, pair, colours, _no_vertex)
    return colours, {"alphas": (), "elimination": elimination}


def _colour_sk4(graph: Graph) -> tuple[list[int], dict]:
    """1/4-majority 5-edge-colouring for degrees in S_4 = {19, 23, 27, 31}."""
    degrees = graph.degrees()
    chosen, rest, _ = _strip_round(graph, list(range(graph.edge_count)), Fraction(1, 5))
    colours = [0] * graph.edge_count
    for e in chosen:
        colours[e] = 1
    d_h = _degree_in(graph, rest)

    def first_split_bad(comp: tuple[int, ...]) -> Optional[int]:
        for v in comp:
            if d_h[v] in (18, 22):
                return v
        return None

    bic = balanced_bicolouring(graph, first_split_bad, rest)

    def is_bad(verts: tuple[int, ...], degs: dict[int, int], edge_count: int) -> bool:
        if edge_count % 2 == 0:
            return False
        return all(
            (degs[v] == 10 and degrees[v] == 23) or (degs[v] == 8 and degrees[v] == 19)
            for v in verts
        )

    def pick(verts: tuple[int, ...], degs: dict[int, int]) -> Optional[int]:
        # Prefer a degree-10 vertex that was not a first-split bad vertex.
        for v in verts:
            if degs[v] == 10 and d_h[v] == 19:
                return v
        for v in verts:
            if degs[v] == 10:
                return v
        return None

    bic, elimination = eliminate_bad_components(graph, bic, is_bad, pick)

    def second_split_bad(v: int, d: int) -> bool:
        return (d == 10 and degrees[v] == 27) or (d == 12 and degrees[v] == 31)

    for colour_side, pair in ((BLUE, (2, 3)), (RED, (4, 5))):
        half_ids = [e for e, side in enumerate(bic.side) if side == colour_side]
        _split_half_into(graph, half_ids, pair, colours, second_split_bad)
    return colours, {"alphas": (Fraction(1, 5),), "elimination": elimination}


def colour_sk_graph(graph: Graph, k: int) -> SchemeOutcome:
    """Colour a graph whose every degree already lies in S_k (k in {2, 3, 4})."""
    if k not in (2, 3, 4):
        raise InputError(f"small-k scheme supports k in {{2, 3, 4}}, got {k}")
    from .reductions import sk_degrees

    allowed = set(sk_degrees(k))
    outside = [v for v in range(graph.vertex_count) if graph.degree(v) not in allowed]
    if outside:
        raise PreconditionError(
            f"vertices with degree outside S_{k}: {outside[:5]}"
        )
    colours, info = {2: _colour_sk2, 3: _colour_sk3, 4: _colour_sk4}[k](graph)
    colouring, verdict = _verify(graph, colours, k)
    report = SchemeReport(
        algorithm="small-k",
        k=k,
        alphas=info["alphas"],
        elimination=info["elimination"],
        verdict=verdict,
    )
    return colouring, report


def colour_small_k(graph: Graph, k: int) -> SchemeOutcome:
    """(k+1)-colouring at the conjectured-optimal minimum degree k^2, k <= 4.

    Reduces to degrees in S_k (vertex splitting, then a per-component lift),
    colours the reduced graph, and pulls the colouring back through both
    traces.
    """
    if k not in (2, 3, 4):
        raise InputError(f"small-k scheme supports k in {{2, 3, 4}}, got {k}")
    if graph.min_degree() < k * k:
        raise PreconditionError(
            f"minimum degree {graph.min_degree()} below k^2 = {k * k}"
        )
    split_graph, split_trace = split_high_degree(graph, k)
    lifted, lift_trace = raise_to_sk(split_graph, k)
    reduced_colouring, reduced_report = colour_sk_graph(lifted, k)
    colouring = pull_back_colouring(
        pull_back_colouring(reduced_colouring, lift_trace), split_trace
    )
    final, verdict = _verify(graph, colouring.colours, k)
    report = SchemeReport(
        algorithm="small-k",
        k=k,
        alphas=reduced_report.alphas,
        elimination=reduced_report.elimination,
        verdict=verdict,
    )
    return final, report


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def colour_auto(graph: Graph, k: int) -> tuple[Optional[EdgeColouring], SchemeReport]:
    """First applicable scheme: bipartite, small-k, refined, then general.

    Returns ``(None, report)`` with algorithm ``below-threshold`` when no
    theorem's minimum-degree hypothesis holds; callers may fall through to
    the exhaustive oracle.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    delta = graph.min_degree()
    if is_bipartite(graph).bipartite and delta >= k * (k - 1):
        return colour_bipartite(graph, k)
    if k <= 4 and delta >= k * k:
        return colour_small_k(graph, k)
    _, _, refined_bound = refined_parameters(k)
    if delta >= refined_bound:
        return colour_refined(graph, k)
    if delta >= 2 * k * k:
        return colour_general_2k2(graph, k)
    return None, SchemeReport(algorithm="below-threshold", k=k)
