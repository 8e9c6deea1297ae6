"""Exact 0/1 rounding of rational edge weights.

Given a weight ``z(e)`` in ``[0, 1]`` per edge, produces ``x(e)`` in ``{0, 1}``
with, writing ``S_z(v)`` and ``S_x(v)`` for the incident weight sums:

(i)   ``S_z(v) - 1 < S_x(v) <= S_z(v) + 1`` at every vertex;
(ii)  no edge ``uv`` has ``x(uv) = 0`` while both ``S_x(u) < S_z(u)`` and
      ``S_x(v) < S_z(v)``;
(iii) the vertices with ``S_x(v) = S_z(v) + 1`` are exactly the designated
      vertices of the returned ledger; each lies on an odd cycle whose every
      vertex has an integer weight sum, and the ledger's cycles are pairwise
      independent (vertex-disjoint, with no graph edge joining them).

Values are scaled integers: ``x(e)`` is stored as a numerator in ``[0, D]``
over a common denominator ``D``, which starts at the least common denominator
of the weights.  An edge is *live* (in the support) while ``0 < x(e) < D``;
each vertex keeps a dict of its live edges, and an edge leaves both dicts the
moment it becomes integral.

The kernel walks the support along live edges, never straight back, and keeps
its walk from one move to the next.  At each vertex every live edge back onto
the walk closes a cycle; failing that, the walk steps on along the lowest
fresh edge.  Every move is an alternating +1/-1 walk, added up per edge:

* a path between two leaves (support degree 1), or an even cycle (the
  shortest one closed);
* a lollipop: a stem from a leaf into an odd cycle and back (stem +-2);
* an odd cycle ``C1`` with no leaf in sight is held while the walk goes on
  from it, until the walk closes a theta graph (its even cycle is used), a
  figure-eight, a dumbbell (``C1``, path, second odd cycle, path back; the
  path gets +-2) or reaches a leaf (a lollipop into ``C1``).  Where the walk
  cannot go on, it is laid anew around ``C1`` to end at a vertex of ``C1``
  that has another live edge; with no such vertex ``C1`` is a whole
  component.

Each move is pushed until an edge becomes integral, in whichever direction
makes more edges integral (ties go to the walk's own orientation).  A +-2
step can need half a unit; then ``D`` doubles, exactly, and each numerator is
doubled when a move next reads it.  What is left is finished off directly: an
edge whose two ends are leaves is set to 1, and a component that is exactly
one odd cycle goes to :func:`resolve_cycles`.

Sums change only at leaves: kernel moves leave every vertex sum alone, and
leaf moves leave the sums of their inner vertices alone.  A leaf has one live
edge and integral others, so from the moment ``v`` becomes a leaf until the
end ``S_x(v)`` moves inside ``[S_z(v) - x0, S_z(v) + 1 - x0]`` with ``x0`` in
``(0, 1)`` the leaf edge's value at that moment: less than 1 in total, and
(i) holds strictly there.  A vertex with integral ``S_z(v)`` can never be a
leaf, because at that moment ``S_x(v) = S_z(v)`` would be an integer plus
``x0``.  Leaf moves therefore need not wait until no kernel move is left, and
integral sums, the ones (iii) relies on, are kept exactly.

Every result is re-certified against (i)-(iii) over integers before being
returned; a certification failure raises
:class:`~kmajority.errors.InternalInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalInvariantError
from .graph import Graph, circuit_vertices, components

HALF = Fraction(1, 2)

# Edge coefficients of a zero-sum move; integers from the walk kernel, halves
# on the public lollipop and in bad-cycle merges.
Direction = dict[int, "Fraction | int"]


@dataclass(frozen=True)
class RoundingResult:
    """0/1 value per edge plus the exceptional-vertex ledger.

    ``exceptional`` holds ``(vertex, cycle)`` pairs where ``cycle`` is the odd
    cycle's edge sequence in traversal order, certifying condition (iii).
    """

    x: tuple[int, ...]
    exceptional: tuple[tuple[int, tuple[int, ...]], ...]


def _as_weight(value, e: int) -> Fraction:
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise InputError(f"weight for edge {e} is a float; use exact rationals")
        try:
            value = Fraction(value)
        except (TypeError, ValueError):
            raise InputError(f"weight for edge {e} is not rational: {value!r}") from None
    if not 0 <= value.numerator <= value.denominator:
        raise InputError(f"weight {value} for edge {e} is outside [0, 1]")
    return value


def vertex_sums(graph: Graph, values: Sequence[Fraction]) -> list[Fraction]:
    sums: list = [0] * graph.vertex_count
    for e, (u, v) in enumerate(graph.edges):
        value = values[e]
        sums[u] += value
        sums[v] += value
    return sums


# ---------------------------------------------------------------------------
# Walks over the support
# ---------------------------------------------------------------------------

# Outcomes of _next_move besides an ordinary move.
_MOVE, _ISOLATED, _TERMINAL = range(3)


def _live_adjacency(graph: Graph, live: Iterable[int]) -> list[dict[int, int]]:
    """Per vertex, live edge -> other end; ``live`` ascending keeps dicts ordered."""
    nbr: list[dict[int, int]] = [{} for _ in range(graph.vertex_count)]
    edges = graph.edges
    for e in live:
        u, v = edges[e]
        nbr[u][e] = v
        nbr[v][e] = u
    return nbr


def _join_odd(es: list[int], first: tuple[int, int, int], second: tuple[int, int, int]) -> list[int]:
    """Even closed walk from two odd closings ``(end, p, chord)``, chord from vs[end] to vs[p].

    ``first`` ends no later than ``second``.  Overlapping cycles leave one
    even cycle; otherwise the walk is a figure-eight or a dumbbell.
    """
    end, p, c1 = first
    end2, p2, c2 = second
    if p2 < end:
        if p <= p2:
            return es[p:p2] + [c2] + es[end:end2][::-1] + [c1]
        return es[p2:p] + [c1] + es[end:end2] + [c2]
    path = es[end:p2]
    return [c1] + es[p:end] + path + es[p2:end2] + [c2] + path[::-1]


def _next_move(
    nbr: Sequence[dict[int, int]], vs: list[int], es: list[int], pos: dict[int, int]
) -> Optional[tuple[int, list[int]]]:
    """Extend the walk ``vs``/``es`` (a path of live edges) until it yields a move.

    At each vertex every live edge back onto the walk is a closing; the
    shortest even cycle wins.  An odd cycle is held while the walk goes on,
    until a second odd closing or a dead end completes a move with it.
    Returns ``(_MOVE, walk)`` with an edge walk to alternate,
    ``(_ISOLATED, [e])`` for an edge between two leaves,
    ``(_TERMINAL, cycle)`` for a component that is exactly one odd cycle, or
    ``None`` when the walk's only vertex has no live edge.
    """
    held = None
    x = vs[-1]
    back = es[-1] if es else -1
    chord = -1  # the held chord, when it touches the end of the walk
    while True:
        end = len(vs) - 1
        fresh = -1
        even = odd = odd2 = None
        for e, u in nbr[x].items():
            if e == back or e == chord:
                continue
            p = pos.get(u)
            if p is None:
                if fresh < 0:
                    fresh, fresh_u = e, u
            elif (end - p) % 2:
                if even is None or p > even[1]:
                    even = (end, p, e)
            elif odd is None or p > odd[1]:
                odd2, odd = odd, (end, p, e)
            elif odd2 is None or p > odd2[1]:
                odd2 = (end, p, e)
        if even is not None:
            return _MOVE, es[even[1]:] + [even[2]]
        if odd is not None:
            if held is not None:
                return _MOVE, _join_odd(es, held, odd)
            if odd2 is not None:
                return _MOVE, _join_odd(es, odd2, odd)
            p, c = odd[1], odd[2]
            if len(nbr[vs[0]]) == 1:  # lollipop from the walk's leaf
                return _MOVE, es + [c] + es[p - 1::-1]
            held = odd
            if fresh < 0:
                # The walk cannot go on from x: re-lay it to end at a vertex of
                # the cycle that has another edge, and hold the cycle there.
                if p:  # around the cycle, then back down its stem
                    vs.reverse()
                    es.reverse()
                    held = (end - p, 0, c)
                else:
                    j = next((j for j, v in enumerate(vs) if len(nbr[v]) > 2), None)
                    if j is None:
                        return _TERMINAL, es + [c]
                    chord = es[j]
                    held = (end, 0, chord)
                    vs[:] = vs[j + 1:] + vs[:j + 1]
                    es[:] = es[j + 1:] + [c] + es[:j]
                pos.clear()
                pos.update((v, i) for i, v in enumerate(vs))
                x, back = vs[-1], es[-1]
                continue
        if fresh < 0:
            if held is not None:  # lollipop from the leaf reached into the held cycle
                hend, p, c = held
                stem = es[hend:]
                return _MOVE, stem[::-1] + [c] + es[p:hend] + stem
            if not es:
                return None
            if len(nbr[vs[0]]) != 1:  # not from a leaf: walk on from the leaf reached
                vs.reverse()
                es.reverse()
                pos.clear()
                pos.update((v, i) for i, v in enumerate(vs))
                x, back = vs[-1], es[-1]
                continue
            return (_ISOLATED if len(es) == 1 else _MOVE), es[:]
        es.append(fresh)
        pos[fresh_u] = len(vs)
        vs.append(fresh_u)
        x, back, chord = fresh_u, fresh, -1


def _alternating_direction(walk: Sequence[int]) -> dict[int, int]:
    """Add up +1/-1 along a walk.

    No coefficient cancels on the kernel's walks: an edge is used twice only
    on a lollipop stem or a dumbbell path, both times with the same sign.
    """
    direction: dict[int, int] = {}
    sign = 1
    for e in walk:
        direction[e] = direction.get(e, 0) + sign
        sign = -sign
    return direction


def _drop(edges: Sequence[tuple[int, int]], nbr: Sequence[dict[int, int]], e: int) -> None:
    u, v = edges[e]
    del nbr[u][e]
    del nbr[v][e]


def _truncate(
    edges: Sequence[tuple[int, int]],
    vs: list[int],
    es: list[int],
    pos: dict[int, int],
    dropped: Iterable[int],
) -> None:
    """Cut the walk back to its longest prefix of still-live path edges."""
    cut = len(vs) - 1
    for e in dropped:
        a, b = edges[e]
        ka, kb = pos.get(a), pos.get(b)
        if ka is not None and kb is not None:
            k = min(ka, kb)
            if k < cut and es[k] == e:
                cut = k
    for v in vs[cut + 1:]:
        del pos[v]
    del vs[cut + 1:]
    del es[cut:]


class _Kernel:
    """Scaled-integer support with lazy doubling.

    Edge ``e`` holds the value ``x[e] / (base << level[e])``; the common
    scale is ``base << top``, and a numerator is brought up to ``top`` when
    a move next reads it, so doubling the scale costs O(1).  Live edges are
    those in ``nbr``.
    """

    def __init__(self, graph: Graph, scale: int, x: list[int]):
        self.edges = graph.edges
        self.base = scale
        self.top = 0
        self.x = x
        self.level = [0] * len(x)
        self.nbr = _live_adjacency(graph, (e for e, v in enumerate(x) if 0 < v < scale))

    def value(self, e: int) -> Fraction:
        return Fraction(self.x[e], self.base << self.level[e])

    def run(self) -> tuple[list[int], list[list[int]]]:
        """Move until no edge is live; returns (isolated edges, terminal odd cycles)."""
        edges, nbr = self.edges, self.nbr
        isolated: list[int] = []
        cycles: list[list[int]] = []
        vs: list[int] = []
        es: list[int] = []
        pos: dict[int, int] = {}
        lo = 0
        while True:
            if not vs:
                while lo < len(nbr) and not nbr[lo]:
                    lo += 1
                if lo == len(nbr):
                    return isolated, cycles
                vs.append(lo)
                pos[lo] = 0
            found = _next_move(nbr, vs, es, pos)
            if found is None:
                vs.clear()
                es.clear()
                pos.clear()
                continue
            kind, walk = found
            if kind == _MOVE:
                dropped = self._step(_alternating_direction(walk))
            else:
                dropped = walk
                for e in walk:
                    _drop(edges, nbr, e)
                if kind == _ISOLATED:
                    isolated.extend(walk)
                else:
                    cycles.append(walk)
            _truncate(edges, vs, es, pos, dropped)

    def _step(self, direction: dict[int, int]) -> list[int]:
        """Move along ``direction`` until an edge value hits 0 or the scale.

        Step lengths are counted in half units so that +-2 coefficients stay
        exact; an odd count doubles the scale.  Of the two signs, the one
        integralising more edges wins, ties going to +.  Returns the edges
        that became integral.
        """
        x, level, top = self.x, self.level, self.top
        scale = self.base << top
        t_pos = t_neg = 2 * scale + 1
        n_pos = n_neg = 0
        for e, a in direction.items():
            xe = x[e]
            if level[e] != top:
                xe <<= top - level[e]
                x[e] = xe
                level[e] = top
            if a > 0:
                up, down = scale - xe, xe
            else:
                up, down = xe, scale - xe
            if a == 1 or a == -1:
                up += up
                down += down
            if up < t_pos:
                t_pos, n_pos = up, 1
            elif up == t_pos:
                n_pos += 1
            if down < t_neg:
                t_neg, n_neg = down, 1
            elif down == t_neg:
                n_neg += 1
        step = t_pos if n_pos >= n_neg else -t_neg
        grow = step % 2
        if grow:
            top += 1
            scale += scale
            self.top = top
        else:
            step //= 2
        edges, nbr = self.edges, self.nbr
        dropped = []
        for e, a in direction.items():
            value = (x[e] << grow) + a * step
            if not 0 <= value <= scale:
                raise InternalInvariantError(f"step pushed edge {e} to {value}/{scale}")
            x[e] = value
            level[e] = top
            if value == 0 or value == scale:
                dropped.append(e)
                _drop(edges, nbr, e)
        if not dropped:
            raise InternalInvariantError("move made no edge integral")
        return dropped


# ---------------------------------------------------------------------------
# Public direction API
# ---------------------------------------------------------------------------


def _component_adjacency(
    graph: Graph, support: Iterable[int], component: Iterable[int]
) -> tuple[list[int], Optional[list[dict[int, int]]]]:
    """Sorted component and its support adjacency, or ``None`` if not connected."""
    comp = sorted(component)
    inside = set(comp)
    live = [e for e in sorted(set(support)) if inside.issuperset(graph.edges[e])]
    nbr = _live_adjacency(graph, live)
    connected = bool(comp) and bool(nbr[comp[0]]) and (
        tuple(comp) in components(graph, live)
    )
    return comp, nbr if connected else None


def find_kernel_direction(
    graph: Graph, support: Iterable[int], component: Iterable[int]
) -> Optional[Direction]:
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
    kind, walk = _next_move(nbr, [start], [], {start: 0})
    if kind == _TERMINAL:
        return None
    direction: Direction = _alternating_direction(walk)
    _assert_zero_sums(graph, direction, constrained=None)
    return direction


def pendant_direction(
    graph: Graph, support: Iterable[int], component: Iterable[int]
) -> Direction:
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
    _, walk = _next_move(nbr, [leaves[0]], [], {leaves[0]: 0})
    direction: Direction = _alternating_direction(walk)
    if any(abs(c) == 2 for c in direction.values()):
        direction = {e: Fraction(c, 2) for e, c in direction.items()}
    _assert_zero_sums(graph, direction, constrained=internal)
    return direction


def _assert_zero_sums(graph: Graph, direction: Direction, constrained: Optional[set[int]]) -> None:
    sums: dict[int, Fraction] = {}
    for e, coeff in direction.items():
        u, v = graph.edges[e]
        sums[u] = sums.get(u, Fraction(0)) + coeff
        sums[v] = sums.get(v, Fraction(0)) + coeff
    broken = {
        v: s for v, s in sums.items() if s and (constrained is None or v in constrained)
    }
    if broken:
        raise InternalInvariantError(f"direction does not cancel at vertices {broken}")
    if not direction:
        raise InternalInvariantError("direction has empty support")


# ---------------------------------------------------------------------------
# Odd-cycle resolution
# ---------------------------------------------------------------------------


def _rotate_cycle(
    vseq: Sequence[int], eseq: Sequence[int], start: int
) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
    """Both traversals of a cycle starting at ``start``; lower first-edge id first."""
    i = vseq.index(start)
    fwd_v = list(vseq[i:]) + list(vseq[:i])
    fwd_e = list(eseq[i:]) + list(eseq[:i])
    rev_v = [fwd_v[0]] + fwd_v[:0:-1]
    rev_e = fwd_e[::-1]
    if fwd_e[0] <= rev_e[0]:
        return (fwd_v, fwd_e), (rev_v, rev_e)
    return (rev_v, rev_e), (fwd_v, fwd_e)


def resolve_cycles(
    graph: Graph, x: Sequence[Fraction], cycles: Iterable[Sequence[int]]
) -> tuple[list[Fraction], list[tuple[int, tuple[int, ...]]]]:
    """Finish the rounding on disjoint odd support cycles.

    First merges pairs of bad cycles (every edge exactly 1/2) that are joined
    by an edge of the graph - flipping that edge and shifting both cycles by
    alternating halves keeps all vertex sums intact.  Joining edges are taken
    in ascending order, skipping cycles already merged.  The surviving cycles
    are then rounded to nearest with the per-vertex tie rule; each remaining
    bad cycle contributes one designated vertex, rounded up on both sides, to
    the returned ledger.
    """
    x = list(x)
    if not cycles:
        return x, []
    cycs: list[tuple[list[int], list[int]]] = []
    for eseq in cycles:
        eseq = list(eseq)
        if len(eseq) % 2 == 0:
            raise InternalInvariantError(f"cycle {eseq} has even length")
        cycs.append((circuit_vertices(graph, eseq)[:-1], eseq))
    cycs.sort(key=lambda c: min(c[0]))

    bad = {
        i for i, (_, eseq) in enumerate(cycs) if all(x[e] == HALF for e in eseq)
    }
    owner = {v: i for i in bad for v in cycs[i][0]}
    joining = sorted(
        e0
        for v, i in owner.items()
        for u, e0 in graph.adjacency[v]
        if u < v and owner.get(u, i) != i
    )
    retired: set[int] = set()
    for e0 in joining:
        u, v = graph.edges[e0]
        iu, iv = owner[u], owner[v]
        if iu in retired or iv in retired:
            continue
        if x[e0].denominator != 1:
            raise InternalInvariantError(f"joining edge {e0} is not integral")
        direction: Direction = {e0: 2}
        for cyc_index, anchor in ((iu, u), (iv, v)):
            vseq, eseq = cycs[cyc_index]
            (_, walk_e), _ = _rotate_cycle(vseq, eseq, anchor)
            for i, e in enumerate(walk_e):
                direction[e] = -1 if i % 2 == 0 else 1
        _assert_zero_sums(graph, direction, constrained=None)
        c = HALF if x[e0] == 0 else -HALF
        for e, a in direction.items():
            x[e] += c * a
            if x[e].denominator != 1:
                raise InternalInvariantError("bad-cycle merge left a fractional edge")
        retired.update((iu, iv))

    ledger: list[tuple[int, tuple[int, ...]]] = []
    for i, (vseq, eseq) in enumerate(cycs):
        if i in retired:
            continue
        if i in bad:
            anchor = min(vseq)
            (walk_v, walk_e), _ = _rotate_cycle(vseq, eseq, anchor)
            for j, e in enumerate(walk_e):
                x[e] = Fraction(1 if j % 2 == 0 else 0)
            ledger.append((anchor, tuple(walk_e)))
        else:
            _round_mixed_cycle(x, eseq)
    return x, ledger


def _round_mixed_cycle(x: list[Fraction], eseq: Sequence[int]) -> None:
    """Nearest-integer rounding; runs of 1/2 alternate, anchored at the least edge id."""
    length = len(eseq)
    halves = [x[e] == HALF for e in eseq]
    for pos, e in enumerate(eseq):
        if not halves[pos]:
            x[e] = Fraction(0 if x[e] < HALF else 1)
    if not any(halves):
        return
    if all(halves):
        raise InternalInvariantError("bad cycle reached the mixed rounding path")
    starts = [p for p in range(length) if halves[p] and not halves[p - 1]]
    for start in starts:
        run = []
        p = start
        while halves[p]:
            run.append(p)
            p = (p + 1) % length
        anchor = min(range(len(run)), key=lambda idx: eseq[run[idx]])
        for idx, p in enumerate(run):
            x[eseq[p]] = Fraction(1 if (idx - anchor) % 2 == 0 else 0)


# ---------------------------------------------------------------------------
# Condition (ii)
# ---------------------------------------------------------------------------


def _scaled_weights(weights: Sequence) -> tuple[int, list[int]]:
    """Validate the weights; common denominator and numerators, w[e] = zl[e] / scale.

    Each distinct weight object is validated and converted once, since the
    schemes pass one constant weight for every edge.  Keying by ``id`` is
    sound because ``weights`` keeps every object alive meanwhile.
    """
    exact: dict[int, Fraction] = {}
    for e, w in enumerate(weights):
        if id(w) not in exact:
            exact[id(w)] = _as_weight(w, e)
    scale = lcm(*(w.denominator for w in exact.values()))
    numerators = {key: w.numerator * (scale // w.denominator) for key, w in exact.items()}
    return scale, [numerators[id(w)] for w in weights]


def _int_sums(graph: Graph, values: Sequence[int]) -> list[int]:
    sums = [0] * graph.vertex_count
    for e, (u, v) in enumerate(graph.edges):
        value = values[e]
        sums[u] += value
        sums[v] += value
    return sums


def enforce_condition_ii(
    graph: Graph, z: Sequence[Fraction], x: Sequence[Fraction]
) -> list[Fraction]:
    """Flip edges between strictly deficient endpoints to 1 until none remain.

    Each flip raises both endpoint sums by one, so (i) keeps holding strictly
    there and no new deficiency appears; one pass over the edges therefore
    suffices, and at most one flip per edge happens.
    """
    scale, zl = _scaled_weights(z)
    for e, value in enumerate(x):
        if value not in (0, 1):
            raise InputError(f"x({e}) = {value} is not 0/1; repair runs after rounding")
    xi = [int(value) for value in x]
    _enforce_ii_int(graph, scale, zl, xi)
    return [Fraction(value) for value in xi]


def _enforce_ii_int(graph: Graph, scale: int, zl: Sequence[int], xi: list[int]) -> list[int]:
    """In-place condition (ii) repair over integral values (x scaled by 1).

    A flip only clears deficiency, so an edge passed once never violates (ii)
    later: one ascending pass flips the same edges as rescanning from edge 0.
    """
    sums_z = _int_sums(graph, zl)
    sums_x = _int_sums(graph, xi)
    deficient = [sums_x[v] * scale < sums_z[v] for v in range(graph.vertex_count)]
    for e, (u, v) in enumerate(graph.edges):
        if xi[e] == 0 and deficient[u] and deficient[v]:
            xi[e] = 1
            for w in (u, v):
                sums_x[w] += 1
                deficient[w] = sums_x[w] * scale < sums_z[w]
    return sums_x


# ---------------------------------------------------------------------------
# The rounding pipeline
# ---------------------------------------------------------------------------


def round_weights(graph: Graph, weights: Sequence) -> RoundingResult:
    """Round rational edge weights to a certified 0/1 assignment.

    Pipeline: run the walk kernel on the scaled integer values until every
    support component is gone or reduced to an isolated edge or an odd
    cycle; set isolated edges to 1; merge adjacent bad cycles; round the
    remaining cycles (designating one exceptional vertex per bad cycle);
    finally repair condition (ii) and certify (i)-(iii).
    """
    if len(weights) != graph.edge_count:
        raise InputError(
            f"{len(weights)} weights for {graph.edge_count} edges"
        )
    scale, zl = _scaled_weights(weights)
    kernel = _Kernel(graph, scale, list(zl))
    isolated, cycles = kernel.run()
    # Every edge not on a terminal cycle is integral: its numerator is 0 or its scale.
    x: list = [1 if value else 0 for value in kernel.x]
    for e in isolated:
        x[e] = 1
    for cycle in cycles:
        for e in cycle:
            x[e] = kernel.value(e)

    x, ledger = resolve_cycles(graph, x, cycles)
    for e, value in enumerate(x):
        if value.denominator != 1:
            raise InternalInvariantError(f"edge {e} left fractional at {value}")
    xi = [int(value) for value in x]
    sums_x = _enforce_ii_int(graph, scale, zl, xi)
    _certify_int(graph, scale, zl, xi, ledger, sums_x)
    return RoundingResult(
        tuple(xi),
        tuple((v, tuple(cycle)) for v, cycle in ledger),
    )


def _certify_int(
    graph: Graph,
    scale: int,
    zl: Sequence[int],
    xi: Sequence[int],
    ledger: Sequence[tuple[int, Sequence[int]]],
    sums_x: Sequence[int],
) -> None:
    """Conditions (i)-(iii) over integers: weights are zl/scale, x is 0/1."""
    for e, value in enumerate(xi):
        if value not in (0, 1):
            raise InternalInvariantError(f"edge {e} rounded to {value}")
    sums_z = _int_sums(graph, zl)
    for v in range(graph.vertex_count):
        sx = sums_x[v] * scale
        if not (sums_z[v] - scale < sx <= sums_z[v] + scale):
            raise InternalInvariantError(
                f"(i) fails at vertex {v}: x-sum {sums_x[v]}, z-sum {Fraction(sums_z[v], scale)}"
            )
    for e, (u, v) in enumerate(graph.edges):
        if xi[e] == 0 and sums_x[u] * scale < sums_z[u] and sums_x[v] * scale < sums_z[v]:
            raise InternalInvariantError(f"(ii) fails at edge {e} = ({u}, {v})")
    excess = {
        v for v in range(graph.vertex_count) if sums_x[v] * scale == sums_z[v] + scale
    }
    listed = [v for v, _ in ledger]
    if len(set(listed)) != len(listed) or set(listed) != excess:
        raise InternalInvariantError(
            f"(iii) ledger vertices {sorted(listed)} != excess vertices {sorted(excess)}"
        )
    cycle_vertex_sets: list[set[int]] = []
    for v, eseq in ledger:
        if len(eseq) % 2 == 0 or len(eseq) < 3:
            raise InternalInvariantError(f"(iii) ledger cycle for {v} is not odd")
        vseq = circuit_vertices(graph, eseq)[:-1]
        if v not in vseq:
            raise InternalInvariantError(f"(iii) cycle for {v} does not pass through it")
        for u in vseq:
            if sums_z[u] % scale:
                raise InternalInvariantError(
                    f"(iii) cycle vertex {u} has non-integral z-sum"
                )
        cycle_vertex_sets.append(set(vseq))
    for i in range(len(cycle_vertex_sets)):
        for j in range(i + 1, len(cycle_vertex_sets)):
            if cycle_vertex_sets[i] & cycle_vertex_sets[j]:
                raise InternalInvariantError("(iii) ledger cycles share a vertex")
    if len(cycle_vertex_sets) > 1:
        membership: dict[int, int] = {}
        for i, vs in enumerate(cycle_vertex_sets):
            for u in vs:
                membership[u] = i
        for u, v in graph.edges:
            iu, iv = membership.get(u), membership.get(v)
            if iu is not None and iv is not None and iu != iv:
                raise InternalInvariantError("(iii) an edge joins two ledger cycles")
