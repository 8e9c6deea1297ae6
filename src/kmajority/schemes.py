"""Constructive 1/k-majority (k+1)-edge-colouring schemes.

Four algorithms, each re-verified with :func:`check_majority` before
returning.  :data:`SCHEMES` holds their hypotheses in the order the
dispatcher :func:`colour_auto` tries them; it never reaches ``general``
(the refined bound is at most 2k^2), which runs only when forced:

* :func:`colour_bipartite` - optimal for bipartite graphs, minimum degree
  k(k-1): strips colour classes with constant weights 1/(k+1), ..., 1/2.
* :func:`colour_general_2k2` - any graph with minimum degree 2k^2: strips k
  classes with tuned rational weights, leftover edges form the last class.
* :func:`colour_refined` - minimum degree (3/2)k^2 + (1/2)km + (1/2)k where
  k = 2^n + m - 1: m weighted rounds, then n levels of balanced Euler
  bisection assign binary colour vectors, one split of every prefix bucket
  per level, with "special" vertices barred from absorbing a second surplus
  on the same prefix chain.
* :func:`colour_small_k` - k in {2, 3, 4} at the conjectured-optimal bound
  k^2, via degree reduction to S_k and colour-class surgery that eliminates
  unsplittable monochromatic components.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .colouring import EdgeColouring, MajorityVerdict, check_majority
from .errors import InputError, InternalInvariantError, PreconditionError
from .eulersplit import BLUE, RED, Bicolouring, balanced_bicolouring
from .graph import Graph, is_bipartite
from .graph import components, edge_subgraph  # noqa: F401 - unused here, but perfbench/tracer.py wraps them
from .reductions import pull_back_colouring, raise_to_sk, sk_degrees, split_high_degree
from .rounding import round_weights


@dataclass(frozen=True)
class RoundStat:
    """One weighted stripping round, as the report prints it."""

    index: int
    weight: Fraction
    class_size: int
    exceptional: tuple[tuple[int, tuple[int, ...]], ...] = ()


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


def _finish(graph: Graph, colours: Sequence[int], report: SchemeReport) -> SchemeOutcome:
    """Verify ``colours`` against the 1/k-majority caps; return them with the verdict."""
    colouring = EdgeColouring(tuple(colours), report.k + 1)
    verdict = check_majority(graph, colouring, report.k)
    if not verdict.passed:
        raise InternalInvariantError(f"scheme output failed verification: {verdict.witness}")
    return colouring, replace(report, verdict=verdict)


def _strip_rounds(
    graph: Graph, weights: Sequence[Fraction], round_colours: Sequence[int], colours: list[int]
) -> tuple[list[int], tuple[RoundStat, ...]]:
    """Weighted stripping rounds, each one application of the rounding lemma:
    round i rounds the edges that earlier rounds left, with constant weight
    ``weights[i-1]``, and writes ``round_colours[i-1]`` into ``colours`` on the
    edges it chose.  Returns the edges no round chose and the round statistics.
    """
    remaining = list(range(graph.edge_count))
    stats: list[RoundStat] = []
    for i, (weight, colour) in enumerate(zip(weights, round_colours), start=1):
        result = round_weights(graph, [weight] * graph.edge_count, remaining)
        x = result.x
        chosen = [e for e in remaining if x[e] == 1]
        remaining = [e for e in remaining if x[e] == 0]
        for e in chosen:
            colours[e] = colour
        stats.append(RoundStat(i, weight, len(chosen), result.exceptional))
    return remaining, tuple(stats)


def _degree_in(graph: Graph, edges: Sequence[int]) -> list[int]:
    deg = [0] * graph.vertex_count
    for e in edges:
        u, v = graph.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def _general_rounds(
    graph: Graph, k: int, round_count: int, colours: list[int]
) -> tuple[list[int], tuple[RoundStat, ...], tuple[Fraction, ...]]:
    """First ``round_count`` weighted rounds of the general scheme at the
    graph's minimum degree delta; round i writes colour i into ``colours``.

    Asserts, exactly over integers and for every vertex v with d(v) = beta*delta,
    that the class degree stays <= beta*delta/k and the residual degree <=
    beta*(delta - i*(delta/k - 2)), recounting both from ``colours``, where
    the edges the rounds leave hold 0 or k + 1.  Returns the residual edges,
    the per-round statistics and the weights.
    """
    delta = graph.min_degree()
    alphas = general_alphas(delta, k)[:round_count]
    leftover, stats = _strip_rounds(graph, alphas, range(1, round_count + 1), colours)
    counts = [0] * (graph.vertex_count * round_count)  # at v * round_count + i - 1
    for (u, v), colour in zip(graph.edges, colours):
        if 0 < colour <= round_count:
            counts[u * round_count + colour - 1] += 1
            counts[v * round_count + colour - 1] += 1
    kd = k * delta
    for v, d in enumerate(graph.degrees()):
        residual = d
        for i, count in enumerate(counts[v * round_count : (v + 1) * round_count], start=1):
            residual -= count
            # beta*delta/k = d/k; beta*(delta - i*(delta/k - 2)) = d*(kd - i*delta + 2ik)/kd
            if k * count > d or kd * residual > d * (kd - i * delta + 2 * i * k):
                raise InternalInvariantError(
                    f"round {i} degree bound fails at vertex {v}: class degree {count}, "
                    f"residual degree {residual}, degree {d}"
                )
    return leftover, stats, alphas


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
    _require("bipartite", graph, k)
    colours = [1] * graph.edge_count
    alphas = tuple(Fraction(1, i) for i in range(k + 1, 1, -1))
    _, stats = _strip_rounds(graph, alphas, range(k + 1, 1, -1), colours)
    if any(r.exceptional for r in stats):
        raise InternalInvariantError("bipartite rounding produced exceptional vertices")
    return _finish(graph, colours, SchemeReport("bipartite", k, alphas=alphas, rounds=stats))


# ---------------------------------------------------------------------------
# General scheme (minimum degree 2k^2)
# ---------------------------------------------------------------------------


def colour_general_2k2(graph: Graph, k: int) -> SchemeOutcome:
    """(k+1)-colouring of any graph with minimum degree at least 2k^2.

    Runs only when forced: :func:`colour_auto` tries the refined scheme first,
    whose bound (3k^2 + km + k)/2 is at most 2k^2 as m = k + 1 - 2^n <= k - 1.
    """
    _require("general", graph, k)
    colours = [k + 1] * graph.edge_count
    _, stats, alphas = _general_rounds(graph, k, k, colours)
    return _finish(graph, colours, SchemeReport("general", k, alphas=alphas, rounds=stats))


# ---------------------------------------------------------------------------
# Refined scheme (binary vectors over the leftover graph)
# ---------------------------------------------------------------------------


def colour_refined(graph: Graph, k: int) -> SchemeOutcome:
    """(k+1)-colouring at minimum degree (3/2)k^2 + (1/2)km + (1/2)k.

    After m weighted rounds, the leftover graph H is coloured with binary
    vectors of length n, one coordinate per level: each level makes one
    balanced Euler split whose classes are the prefix buckets, so degrees,
    components and bad vertices are each bucket's own, in the graph's vertex
    and edge ids.  A forced bad vertex becomes
    "special" for its extended prefix and is never chosen again along that
    chain.  Every bucket component with an edge holds a vertex that is not
    special, so the bad-vertex rule always admits one:

    * :func:`_general_rounds` asserts class degree <= d(v)/k in each round, so
      d_H(v) >= delta*(k - m)/k = delta*(2^n - 1)/k, as k + 1 = 2^n + m.
    * A balanced split leaves every vertex at least D/2 - 1 of its D edges on
      each side, so at level l <= n every vertex has degree at least
      d_H/2^(l-1) - 2 >= delta/k - 2 >= (3k + 1)/2 - 2 in every bucket.
    * A bucket component C at level l has at most l - 1 special vertices, at
      most one per earlier level j: C lies inside one component of the
      level-j bucket, and each component designates at most one bad vertex.
    * C has at least (3k + 1)/2 - 1 > log2(k + 1) - 1 >= l - 1 vertices.
    """
    _require("refined", graph, k)
    n_levels, m_rounds, _ = refined_parameters(k)
    colours = [0] * graph.edge_count
    leftover, stats, alphas = _general_rounds(graph, k, m_rounds, colours)

    # vector[e] holds a leftover edge's vector so far, most significant bit
    # first, and -1 on the rounds' edges; it labels each edge with its bucket.
    vector = [-1 if c else 0 for c in colours]
    special: dict[int, set[tuple[int, int]]] = {}  # v -> {(j, j-bit prefix ending in 1)}

    def admissible(prefix: int, v: int, d: int) -> bool:
        """Whether no mark (j, bits) of v begins the (``level`` - 1)-bit ``prefix``."""
        return not any(prefix >> (level - 1 - j) == bits for j, bits in special.get(v, ()))

    for level in range(1, n_levels + 1):
        bic = balanced_bicolouring(graph, admissible, vector)
        vector = [p << 1 | s if p >= 0 else -1 for p, s in zip(vector, bic.side)]  # blue -> 0
        for prefix, u in bic.bad_vertices:
            special.setdefault(u, set()).add((level, prefix << 1 | 1))

    for e in leftover:
        colours[e] = vector[e] + m_rounds + 1

    _assert_refined_claim(graph, colours, leftover, n_levels, k + 1)
    report = SchemeReport(
        "refined", k, levels=n_levels, head_rounds=m_rounds, alphas=alphas, rounds=stats
    )
    return _finish(graph, colours, report)


def _assert_refined_claim(
    graph: Graph, colours: Sequence[int], leftover: Sequence[int], n_levels: int, c: int
) -> None:
    """Every vector colour obeys count_alpha(v) <= (d_H(v) - 1)/2^n + 3/2.

    Counts are kept as :func:`check_majority` keeps them, at ``v * c +
    colour - 1`` for c colours, and the least failing key is reported.
    """
    d_h = _degree_in(graph, leftover)
    counts = [0] * (graph.vertex_count * c)
    ends = graph.edges
    for e in leftover:
        u, v = ends[e]
        colour = colours[e] - 1
        counts[u * c + colour] += 1
        counts[v * c + colour] += 1
    two_n = 1 << n_levels
    # count <= (d_H(v) - 1)/2^n + 3/2, multiplied through by 2 * 2^n and floored
    caps = [(2 * (d - 1) + 3 * two_n) // (2 * two_n) for d in d_h]
    first = next((key for key, count in enumerate(counts) if count > caps[key // c]), -1)
    if first >= 0:
        v, colour = divmod(first, c)
        raise InternalInvariantError(
            f"vector-colour bound fails at vertex {v}, colour {colour + 1}: "
            f"{counts[first]} > ({d_h[v]}-1)/{two_n} + 3/2"
        )


# ---------------------------------------------------------------------------
# Bad-component elimination (shared by the small-k schemes)
# ---------------------------------------------------------------------------

BadVertexPredicate = Callable[[int, int], bool]
FlipVertexPicker = Callable[[Sequence[int], Sequence[int]], Optional[int]]


def eliminate_bad_components(
    graph: Graph,
    bicolouring: Bicolouring,
    bad_vertex: BadVertexPredicate,
    pick_vertex: Optional[FlipVertexPicker] = None,
) -> tuple[Bicolouring, tuple[int, int]]:
    """Recolour single edges until no monochromatic component is "bad".

    A monochromatic component is bad when its edge count is odd and
    ``bad_vertex(v, d)`` holds at every vertex v of it, d being v's degree
    in the component's colour.  Edges of side ``-1`` belong to neither
    colour.  In the chosen bad component, a vertex v and two of its
    neighbours u1, u2 are located; the edge to whichever u_i lies outside v's
    other-colour component is flipped (v-u1 when both lie inside).  The flip
    vertex is the component's least, or ``pick_vertex(verts, degree)`` given
    its sorted vertices and the colour's degree list.  Each flip must
    strictly decrease the number of bad components over both colours, else
    an :class:`InternalInvariantError` signals a hypothesis breach.  Bad
    components are taken blue before red, then by least vertex.

    The first scan searches each colour only from vertices where
    ``bad_vertex`` holds and leaves a search at the first vertex where it
    fails, so a component is built only when it can be bad.  A flip only
    touches the components of its two endpoints, so only those are traversed
    again: the time is linear in the graph plus the size of the components
    flipped in, not in the number of bad components times the graph.

    Returns the repaired bicolouring and (initial bad count, flips done).
    """
    side = list(bicolouring.side)
    n = graph.vertex_count
    # Both colours' degrees in one pass, kept current by every flip; the
    # last list takes side -1.
    degrees = ([0] * n, [0] * n, [0] * n)
    for (u, v), s in zip(graph.edges, side):
        degrees[s][u] += 1
        degrees[s][v] += 1
    incident, ends = graph.incident, graph.xor_ends
    stamp = [-1] * n  # the number of the last search that reached each vertex
    searches = 0

    def component(colour: int, root: int, since: int = -1) -> Optional[list[int]]:
        """Root's component in ``colour``, sorted.  With ``since`` >= 0, the
        number of a scan's first search, None at a vertex where ``bad_vertex``
        fails or that an earlier search of the scan reached."""
        nonlocal searches
        searches += 1
        stamp[root] = searches
        degree = degrees[colour]
        block = [root]
        for v in block:  # grows while it is read: a breadth-first search
            for e in incident[v]:
                if side[e] == colour and stamp[u := ends[e] ^ v] != searches:
                    if since >= 0 and (stamp[u] >= since or not bad_vertex(u, degree[u])):
                        return None
                    stamp[u] = searches
                    block.append(u)
        block.sort()
        return block

    def is_bad(colour: int, verts: list[int]) -> bool:
        degree = degrees[colour]
        return sum(degree[v] for v in verts) // 2 % 2 == 1 and all(
            bad_vertex(v, degree[v]) for v in verts
        )

    # (colour, least vertex) -> sorted vertices, for every bad component.
    bads: dict[tuple[int, int], list[int]] = {}
    for colour in (BLUE, RED):
        degree, since = degrees[colour], searches + 1
        for root in range(n):
            if stamp[root] < since and degree[root] and bad_vertex(root, degree[root]):
                block = component(colour, root, since)
                if block is not None and sum(degree[v] for v in block) // 2 % 2 == 1:
                    bads[(colour, root)] = block
    queue = list(bads)
    heapq.heapify(queue)
    initial = len(bads)
    flips = 0
    while bads:
        while queue[0] not in bads:
            heapq.heappop(queue)
        colour, least = queue[0]
        verts = bads[(colour, least)]
        v = verts[0] if pick_vertex is None else pick_vertex(verts, degrees[colour])
        if v is None:
            raise InternalInvariantError("no admissible flip vertex in a bad component")
        neighbours = sorted(ends[e] ^ v for e in incident[v] if side[e] == colour)
        if len(neighbours) < 2:
            raise InternalInvariantError(f"flip vertex {v} has fewer than two neighbours")
        u1, u2 = neighbours[0], neighbours[1]
        other = 1 - colour
        around_v = component(other, v)
        inside = set(around_v)
        target = u1 if u1 not in inside else u2 if u2 not in inside else u1
        # The flip splits at most the bad component in its colour and merges
        # at most the components of v and target in the other colour.
        count = len(bads)
        del bads[(colour, least)]
        bads.pop((other, around_v[0]), None)
        if target not in inside:
            bads.pop((other, component(other, target)[0]), None)
        edge = next(e for e in incident[v] if ends[e] ^ v == target and side[e] == colour)
        side[edge] = other
        flips += 1
        for w in (v, target):
            degrees[colour][w] -= 1
            degrees[other][w] += 1
        split_v = component(colour, v)
        split_target = [] if target in split_v else component(colour, target)
        for c, block in ((other, component(other, v)), (colour, split_v), (colour, split_target)):
            if block and is_bad(c, block):
                bads[(c, block[0])] = block
                heapq.heappush(queue, (c, block[0]))
        if len(bads) >= count:
            raise InternalInvariantError("bad-component count failed to decrease")
    return Bicolouring(tuple(side), bicolouring.bad_vertices), (initial, flips)


# ---------------------------------------------------------------------------
# Small-k schemes (k = 2, 3, 4 at the conjectured threshold k^2)
# ---------------------------------------------------------------------------


def _colour_sk2(graph: Graph) -> tuple[list[int], dict]:
    """Majority 3-edge-colouring for degrees in S_2 = {5, 7}."""
    x = round_weights(graph, [Fraction(1, 3)] * graph.edge_count).x
    # Every leftover component has an odd-degree vertex or is 4-regular with
    # an even edge count, so no bad vertex may ever be requested.
    side = balanced_bicolouring(graph, lambda c, v, d: False, [-chosen for chosen in x]).side
    # The chosen edges (side -1) take 3, the residual's blue and red 1 and 2.
    return [3 if s < 0 else 1 + s for s in side], {"alphas": (Fraction(1, 3),), "elimination": None}


def _colour_sk3(graph: Graph) -> tuple[list[int], dict]:
    """1/3-majority 4-edge-colouring for degrees in S_3 = {11, 14, 17}.

    One Euler split halves every component.  Only a 14-regular component
    with an odd number of vertices (7 edges per vertex) forces a bad vertex
    there, and its least vertex takes it: a component that forces one has
    only even degrees, and 14 is the only even degree in S_3, so the split
    needs no bad-vertex rule.  Elimination then removes every 6-regular
    monochromatic component with oddly many edges, and each half is split
    again, a forced bad vertex having half-degree 8.  The halves of an
    odd-order 14-regular component never force one: each of their
    components holds a vertex of half-degree 7, so none of them is bad.
    """
    bic = balanced_bicolouring(graph)
    bic, elimination = eliminate_bad_components(graph, bic, lambda v, d: d == 6)
    side = balanced_bicolouring(graph, lambda c, v, d: d == 8, bic.side).side
    # One split of both halves: blue's edges take 1 and 2, red's 3 and 4.
    colours = [1 + 2 * h + s for h, s in zip(bic.side, side)]
    return colours, {"alphas": (), "elimination": elimination}


def _colour_sk4(graph: Graph) -> tuple[list[int], dict]:
    """1/4-majority 5-edge-colouring for degrees in S_4 = {19, 23, 27, 31}."""
    degrees = graph.degrees()
    x = round_weights(graph, [Fraction(1, 5)] * graph.edge_count).x
    d_h = _degree_in(graph, [e for e, chosen in enumerate(x) if not chosen])
    bic = balanced_bicolouring(graph, lambda c, v, d: d in (18, 22), [-chosen for chosen in x])

    def bad_vertex(v: int, d: int) -> bool:
        return (d == 10 and degrees[v] == 23) or (d == 8 and degrees[v] == 19)

    def pick(verts: Sequence[int], degs: Sequence[int]) -> Optional[int]:
        # Prefer a degree-10 vertex of degree 19 among the split edges: never a
        # first-split bad vertex (those have 18 or 22).  This passes over every
        # vertex of degree 18 there too, designated or not.
        tens = [v for v in verts if degs[v] == 10]
        return next((v for v in tens if d_h[v] == 19), tens[0] if tens else None)

    bic, elimination = eliminate_bad_components(graph, bic, bad_vertex, pick)

    def second_split_bad(c: int, v: int, d: int) -> bool:
        return (d == 10 and degrees[v] == 27) or (d == 12 and degrees[v] == 31)

    side = balanced_bicolouring(graph, second_split_bad, bic.side).side
    # The rounding's chosen edges (half -1) take 1; blue's edges 2 and 3, red's 4 and 5.
    colours = [1 if h < 0 else 2 + 2 * h + s for h, s in zip(bic.side, side)]
    return colours, {"alphas": (Fraction(1, 5),), "elimination": elimination}


def colour_sk_graph(graph: Graph, k: int) -> SchemeOutcome:
    """Colour a graph whose every degree already lies in S_k (k in {2, 3, 4}):
    :func:`colour_small_k`, whose reductions return such a graph unchanged."""
    _require("small-k", None, k)
    allowed = set(sk_degrees(k))
    outside = [v for v in range(graph.vertex_count) if graph.degree(v) not in allowed]
    if outside:
        raise PreconditionError(f"vertices with degree outside S_{k}: {outside[:5]}")
    return colour_small_k(graph, k)


def colour_small_k(graph: Graph, k: int) -> SchemeOutcome:
    """(k+1)-colouring at the conjectured-optimal minimum degree k^2, k <= 4.

    Reduces to degrees in S_k (vertex splitting, then joins of needy
    vertices and fresh gadgets for the need they leave),
    colours the reduced graph, and pulls the colouring back by edge id.  Only
    the pulled-back colouring is verified.
    """
    _require("small-k", graph, k)
    lifted, _ = raise_to_sk(split_high_degree(graph, k), k)
    colours, info = {2: _colour_sk2, 3: _colour_sk3, 4: _colour_sk4}[k](lifted)
    pulled = pull_back_colouring(EdgeColouring(tuple(colours), k + 1), graph)
    return _finish(graph, pulled.colours, SchemeReport("small-k", k, **info))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One colouring theorem and its hypothesis: 2 <= k <= ``k_max`` (no cap
    when None), a bipartite graph if ``bipartite``, and minimum degree at least
    ``threshold(k)``, printed as ``threshold_name``."""

    name: str
    colour: Callable[[Graph, int], SchemeOutcome]
    k_max: Optional[int]
    bipartite: bool
    threshold: Callable[[int], int | Fraction]
    threshold_name: str

    def covers(self, k: int) -> bool:
        return k >= 2 and (self.k_max is None or k <= self.k_max)

    def reason(self, graph: Graph, k: int) -> Optional[str]:
        """Why the hypothesis fails on ``graph`` at a covered k; None when it holds."""
        if self.bipartite and not is_bipartite(graph):
            return "graph is not bipartite"
        delta, bound = graph.min_degree(), self.threshold(k)
        if delta < bound:
            return f"minimum degree {delta} below {self.threshold_name} = {bound}"
        return None


#: Every scheme, in the order :func:`colour_auto` tries them.
SCHEMES: tuple[Scheme, ...] = (
    Scheme("bipartite", colour_bipartite, None, True, lambda k: k * (k - 1), "k(k-1)"),
    Scheme("small-k", colour_small_k, 4, False, lambda k: k * k, "k^2"),
    Scheme("refined", colour_refined, None, False, lambda k: refined_parameters(k)[2],
           "(3/2)k^2 + (1/2)km + (1/2)k"),
    Scheme("general", colour_general_2k2, None, False, lambda k: 2 * k * k, "2k^2"),
)


def scheme_named(name: str) -> Scheme:
    return {scheme.name: scheme for scheme in SCHEMES}[name]


def _require(name: str, graph: Optional[Graph], k: int) -> None:
    """Raise unless the scheme called ``name`` covers k and its hypothesis
    holds on ``graph`` (not checked when None)."""
    scheme = scheme_named(name)
    if not scheme.covers(k):
        if scheme.k_max is None:
            raise InputError(f"k must be at least 2, got {k}")
        allowed = ", ".join(map(str, range(2, scheme.k_max + 1)))
        raise InputError(f"{name} scheme supports k in {{{allowed}}}, got {k}")
    reason = None if graph is None else scheme.reason(graph, k)
    if reason is not None:
        raise PreconditionError(reason)


def colour_auto(graph: Graph, k: int) -> tuple[Optional[EdgeColouring], SchemeReport]:
    """Run the first scheme of :data:`SCHEMES` whose hypothesis holds.

    Returns ``(None, report)`` with algorithm ``below-threshold`` when no
    theorem's hypothesis holds; callers may fall through to the exhaustive
    oracle.
    """
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    for scheme in SCHEMES:
        if scheme.covers(k) and scheme.reason(graph, k) is None:
            return scheme.colour(graph, k)
    return None, SchemeReport(algorithm="below-threshold", k=k)
