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

The rounding may cover only a subset of a graph's edges.  Sums, conditions
(i)-(iii), the cycles and the edges that could join them are then those of
the subset; vertex ids and edge ids stay the graph's own, every per-edge
list has one entry per edge of the graph, and ``-1`` marks an edge outside
the subset.  The result is that of ``edge_subgraph(graph, edges)`` mapped
back, without building that subgraph: the subgraph keeps the vertex ids and
the relative order of the edges, and every tie below is broken by them.

Values are scaled integers from end to end: ``x(e)`` is stored as a
numerator in ``[0, D]`` over a common denominator ``D``, which starts at the
least common denominator of the weights.  ``Fraction`` appears only where
the weights are validated and in error messages.  An edge is *live* (in the
support) while ``0 < x(e) < D``; each vertex keeps a dict of its live edges,
and an edge leaves both dicts the moment it becomes integral.

The kernel first makes Euler passes, as in the Euler-partition rounding of
Karp, Leighton, Rivest, Thompson, Vazirani and Vazirani (1987).  A pass
takes a T-join F of the odd-degree vertices from a breadth-first forest of
the live edges (the tree edge above each vertex whose subtree holds an odd
number of them), walks the closed trails of support - F with
:func:`~kmajority.graph.hierholzer_circuit`, keeps an even closed part of
each odd one, and pushes each even closed trail as one +1/-1 move.  Signs
alternate at each visit of a vertex and between the trail's ends, so the
move sums to zero at every vertex (a kernel move, as below) and never
doubles ``D``; on a uniform weight it makes half the trail integral.  A pass
is linear in the live support.  On one value class at mean live degree d it
makes about 1/2 - 1/d of the live edges integral: half of each closed trail
and none of F, which has fewer than n edges.  Passes run while the mean live
degree is at least 6, where that is a third, as on sparser supports they
cost more than the walks they save, and repeat while one makes a quarter of
the live edges integral, which bounds their work by 4m; a pass on mixed
values makes few edges integral and so ends them.

The walk kernel then finishes the support.  It walks along live edges,
never straight back, and keeps its walk from one move to the next; a
vertex-indexed list holds each vertex's position on the walk, ``-1`` off
it.  At each vertex every live edge back onto the walk closes a cycle;
failing that, the walk steps on along the lowest fresh edge.  Every move is
an alternating +1/-1 walk:

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
doubled when a move next reads it.  What is left, a component that is
exactly one odd cycle, is handed over with the vertex order the walk holds
for it and finished by ``_resolve_cycles``, over the final ``D``.

One pass over the rounded edges sets the kernel up: it builds the live dicts
and the weight sum of every vertex.  Every move, Euler-pass trail or walk,
costs one pass to find both directions' least slack and their ties and one
to apply the step; a lollipop or a dumbbell counts its stem or path once,
at +-2.  Applying a step drops each edge it makes integral from the live
dicts and notes the earliest edge of the walk's path among them; the walk is
cut back there, and left as it is when no path edge was dropped.

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
returned, in time linear in the graph; a certification failure raises
:class:`~kmajority.errors.InternalInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalInvariantError
from .graph import Graph, _checked_edge_ids, hierholzer_circuit


@dataclass(frozen=True)
class RoundingResult:
    """0/1 value per edge (``-1`` outside the rounded subset) plus the ledger.

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


# ---------------------------------------------------------------------------
# Walks over the support
# ---------------------------------------------------------------------------

# Outcomes of _next_move: an ordinary move, or a component that is one odd cycle.
_MOVE, _TERMINAL = range(2)


def _join_odd(es: list[int], first: tuple[int, int, int], second: tuple[int, int, int]) -> tuple:
    """The move of two odd closings ``(end, p, chord)``, chord from vs[end] to vs[p].

    ``first`` ends no later than ``second``.  Overlapping cycles leave one
    even cycle; otherwise the move is a figure-eight or a dumbbell, whose
    path ``es[end:p2]`` is listed once, at +-2.
    """
    end, p, c1 = first
    end2, p2, c2 = second
    if p2 < end:
        if p <= p2:
            return _MOVE, es[p:p2] + [c2] + es[end:end2][::-1] + [c1], 0, 0
        return _MOVE, es[p2:p] + [c1] + es[end:end2] + [c2], 0, 0
    return _MOVE, [c1] + es[p:end2] + [c2], 1 + end - p, 1 + p2 - p


def _next_move(
    nbr: Sequence[dict[int, int]], vs: list[int], es: list[int], pos: list[int]
) -> tuple[int, list[int], int, int]:
    """Extend the walk ``vs``/``es`` (a path of live edges, or one vertex
    with a live edge) until it yields a move.

    ``pos[v]`` is v's index in ``vs``, ``-1`` for a vertex off the walk; it
    is kept up to date as the walk grows or is laid anew.  At each vertex
    every live edge back onto the walk is a closing; the shortest even cycle
    wins.  An odd cycle is held while the walk goes on, until a second odd
    closing or a dead end completes a move with it.
    Returns ``(_MOVE, walk, lo, hi)``: the move's edges, each listed once,
    +1/-1 alternating along ``walk`` and +-2 on ``walk[lo:hi]`` (an edge
    between two leaves is a move).  That stretch is empty but on a lollipop,
    whose stem it is, and on a dumbbell, whose path it is: the move runs
    along it twice, the odd cycle between the two runs keeping the sign.
    ``(_TERMINAL, cycle, 0, 0)`` is a component that is exactly one odd
    cycle.
    """
    held = None  # the held odd closing (end, p, chord)
    end = len(vs) - 1
    x = vs[end]
    back = es[-1] if es else -1
    chord = -1  # the held chord, when it touches the end of the walk
    while True:
        # Closings at x as (position, edge); -1 for none.
        fresh = even_p = odd_p = odd2_p = odd_e = -1
        for e, u in nbr[x].items():
            p = pos[u]
            if p < 0:
                if fresh < 0:
                    fresh, fresh_u = e, u
            elif e == back or e == chord:
                continue
            elif (end - p) & 1:
                if p > even_p:
                    even_p, even_e = p, e
            elif p > odd_p:
                odd2_p, odd2_e, odd_p, odd_e = odd_p, odd_e, p, e
            elif p > odd2_p:
                odd2_p, odd2_e = p, e
        if even_p >= 0:
            return _MOVE, es[even_p:] + [even_e], 0, 0
        if odd_p >= 0:
            if held is not None:
                return _join_odd(es, held, (end, odd_p, odd_e))
            if odd2_p >= 0:
                return _join_odd(es, (end, odd2_p, odd2_e), (end, odd_p, odd_e))
            p, c = odd_p, odd_e
            if len(nbr[vs[0]]) == 1:  # lollipop from the walk's leaf
                return _MOVE, es + [c], 0, p
            held = (end, p, c)
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
                        return _TERMINAL, es + [c], 0, 0
                    chord = es[j]
                    held = (end, 0, chord)
                    vs[:] = vs[j + 1:] + vs[:j + 1]
                    es[:] = es[j + 1:] + [c] + es[:j]
                for i, v in enumerate(vs):  # the same vertices, in a new order
                    pos[v] = i
                x, back = vs[end], es[-1]
                continue
        if fresh < 0:
            if held is not None:  # lollipop from the leaf reached into the held cycle
                hend, p, c = held
                return _MOVE, es[hend:][::-1] + [c] + es[p:hend], 0, len(es) - hend
            if len(nbr[vs[0]]) != 1:  # not from a leaf: walk on from the leaf reached
                vs.reverse()
                es.reverse()
                for i, v in enumerate(vs):
                    pos[v] = i
                x, back = vs[end], es[-1]
                continue
            return _MOVE, es[:], 0, 0
        es.append(fresh)
        end += 1
        pos[fresh_u] = end
        vs.append(fresh_u)
        x, back, chord = fresh_u, fresh, -1


_EULER_DEGREE = 6  # the least mean live degree for an Euler pass; a third goes integral there
_EULER_SHARE = 4  # a pass must make 1/4 of the live edges integral to repeat


def _euler_trails(graph: Graph, nbr: Sequence[dict[int, int]], live: list[int], used, cursors) -> list:
    """One Euler pass: edge-disjoint even closed trails of live edges, walked
    from each vertex of ``live`` (those with a live edge, ascending) in turn.
    A vertex that an earlier circuit of the pass went through starts none: a
    Hierholzer circuit uses every unused edge of its start's component.
    ``used`` (all True, and left so) and ``cursors`` are the walk's scratch;
    a vertex's cursor runs over its live-edge dict, whose keys ascend."""
    ends = graph.xor_ends
    up = [-1] * len(nbr)  # v's forest edge, -1 at a root
    odd = [-1] * len(nbr)  # -1 off the forest; v's degree parity, then its subtree's
    for root in live:
        if odd[root] < 0:
            odd[root] = len(nbr[root]) & 1
            block = [root]
            for v in block:  # grows while it is read: a breadth-first search
                d = nbr[v]
                cursors[v] = iter(d)
                for e, u in d.items():
                    used[e] = False
                    if odd[u] < 0:
                        odd[u] = len(nbr[u]) & 1
                        up[u] = e
                        block.append(u)
            for v in reversed(block):  # leaves first; the root's subtree is even
                if odd[v]:
                    e = up[v]
                    used[e] = True  # into F
                    odd[ends[e] ^ v] ^= 1
    edges = graph.edges
    trails = []
    walked: set[int] = set()  # the vertices of the pass's circuits so far
    for start in live:
        if start in walked:
            continue
        trail = hierholzer_circuit(start, cursors, ends, used)
        walked.update(*map(edges.__getitem__, trail))
        if len(trail) & 1:
            trail = _even_half(ends, start, trail)
        if trail:
            trails.append(trail)
    return trails


def _even_half(xor_ends: Sequence[int], start: int, trail: list[int]) -> list[int]:
    """All of the odd closed trail from ``start`` but the first odd stretch
    between two visits of a vertex, else the first even one, else []."""
    seen: dict[int, int] = {}
    segment: list[int] = []
    w = start
    for j, e in enumerate(trail):
        i = seen.get(w)
        if i is not None:
            if (j - i) & 1:
                return trail[j:] + trail[:i]
            segment = segment or trail[i:j]
        seen[w] = j
        w ^= xor_ends[e]
    return segment


class _Kernel:
    """Scaled-integer support with lazy doubling.

    Edge ``e`` holds the value ``x[e] / (base << level[e])``; the common
    scale is ``base << top``, and a numerator is brought up to ``top`` when
    a move next reads it, so doubling the scale costs O(1).  Live edges are
    those in ``nbr``; an edge outside the rounded subset ``ids`` holds ``-1``
    and is never live.  The one set-up pass over the rounded edges also sums
    their values at each vertex into ``sums``, the z-sums when ``x`` holds the
    weights.
    """

    def __init__(self, graph: Graph, scale: int, x: list[int], ids: Sequence[int]):
        self.graph = graph
        self.edges = edges = graph.edges
        self.base = scale
        self.top = 0
        self.x = x
        self.level = [0] * len(x)
        self.nbr = nbr = [{} for _ in range(graph.vertex_count)]
        self.sums = sums = [0] * graph.vertex_count
        for e in ids:
            value = x[e]
            if value > 0:
                u, v = edges[e]
                sums[u] += value
                sums[v] += value
                if value < scale:
                    nbr[u][e] = v
                    nbr[v][e] = u

    def numerator(self, e: int) -> int:
        """``x[e]`` over the common scale ``base << top``."""
        return self.x[e] << (self.top - self.level[e])

    def run(self) -> list[tuple[list[int], list[int]]]:
        """Move until no edge is live; returns each terminal odd cycle as
        ``(vertices, edges)`` in walk order, ``edges[i]`` leaving ``vertices[i]``."""
        edges, nbr = self.edges, self.nbr
        cycles: list[tuple[list[int], list[int]]] = []
        vs: list[int] = []
        es: list[int] = []
        pos = [-1] * len(nbr)
        self._euler_passes(pos)
        start = 0
        while True:
            if not vs:
                while start < len(nbr) and not nbr[start]:
                    start += 1
                if start == len(nbr):
                    return cycles
                vs.append(start)
                pos[start] = 0
            kind, walk, lo, hi = _next_move(nbr, vs, es, pos)
            if kind == _MOVE:
                cut = self._sweep(walk, lo, hi, es, pos)
                if cut == len(es):
                    continue
            else:
                # The whole walk goes: a terminal cycle runs around vs from vs[0].
                for e in walk:
                    u, v = edges[e]
                    del nbr[u][e]
                    del nbr[v][e]
                cycles.append((vs[:], walk))
                cut = 0
            for v in vs[cut + 1:]:
                pos[v] = -1
            del vs[cut + 1:]
            del es[cut:]
            if not cut and not nbr[vs[0]]:  # nothing left to walk from
                pos[vs[0]] = -1
                vs.clear()

    def _euler_passes(self, pos: list[int]) -> None:
        """Push the even closed trails of Euler passes while the support is dense."""
        nbr = self.nbr
        live = [v for v, d in enumerate(nbr) if d]
        ends = sum(map(len, nbr))  # twice the live edge count
        used = cursors = None
        while live and ends >= _EULER_DEGREE * len(live):
            if used is None:
                used = [True] * len(self.x)
                cursors = [None] * len(nbr)
            for trail in _euler_trails(self.graph, nbr, live, used, cursors):
                self._sweep(trail, 0, 0, [], pos)
            live = [v for v in live if nbr[v]]
            before, ends = ends, sum(len(nbr[v]) for v in live)
            if _EULER_SHARE * (before - ends) < before:
                return

    def _sweep(self, walk: list[int], lo: int, hi: int, es: list[int], pos: list[int]) -> int:
        """Push the move ``walk``, +1/-1 alternating and +-2 on ``walk[lo:hi]``,
        until an edge value hits 0 or the scale, in the direction that makes
        more edges integral (ties go to +).

        One loop finds both directions' least slack and ties, one applies
        the step.  Slacks count in half units: the least ones over the walk
        double, then the stretch's edges, whose own slack is less than their
        doubled one, are counted again.  An odd step doubles the scale.  The
        edges made integral leave ``nbr`` at once; returns the length of the
        longest prefix of the walk path ``es`` still live.
        """
        x, level, top = self.x, self.level, self.top
        scale = self.base << top
        t_pos = t_neg = scale
        n_pos = n_neg = 0
        for part, plus in (walk, True), (walk[lo:hi], not lo & 1):
            t_pos += t_pos  # before the walk this only raises the bound
            t_neg += t_neg
            for e in part:
                xe = x[e]
                if level[e] != top:
                    xe <<= top - level[e]
                    x[e] = xe
                    level[e] = top
                up = scale - xe if plus else xe
                down = scale - up
                plus = not plus
                if up < t_pos:
                    t_pos, n_pos = up, 1
                elif up == t_pos:
                    n_pos += 1
                if down < t_neg:
                    t_neg, n_neg = down, 1
                elif down == t_neg:
                    n_neg += 1
        step = t_pos if n_pos >= n_neg else -t_neg
        if step & 1:
            top = self.top = top + 1
            scale += scale
            for e in walk:
                x[e] += x[e]
                level[e] = top
        else:
            step >>= 1
        twice = -step if lo & 1 else step
        for e in walk[lo:hi]:  # the stretch's first step of two
            x[e] += twice
            twice = -twice
        edges, nbr = self.edges, self.nbr
        cut = len(es)
        dropped = False
        for e in walk:
            value = x[e] + step
            step = -step
            if not 0 <= value <= scale:
                raise InternalInvariantError(f"step pushed edge {e} to {value}/{scale}")
            x[e] = value
            if value == 0 or value == scale:
                dropped = True
                u, v = edges[e]
                del nbr[u][e]
                del nbr[v][e]
                k, j = pos[u], pos[v]
                if j < k:
                    k = j
                if 0 <= k < cut and es[k] == e:
                    cut = k
        if not dropped:
            raise InternalInvariantError("move made no edge integral")
        return cut


# ---------------------------------------------------------------------------
# Odd-cycle resolution
# ---------------------------------------------------------------------------


def _rotate_cycle(vseq: Sequence[int], eseq: Sequence[int], start: int) -> list[int]:
    """The cycle's edges walked from ``start``, in the direction whose first
    edge id is lower (edge ``eseq[i]`` joins ``vseq[i]`` to the next vertex)."""
    i = vseq.index(start)
    forward = list(eseq[i:]) + list(eseq[:i])
    backward = forward[::-1]
    return forward if forward[0] <= backward[0] else backward


def _alternate(x: list[int], walk: Iterable[int], first: int) -> None:
    """Write ``first, 1 - first, first, ...`` along ``walk``."""
    for e in walk:
        x[e] = first
        first = 1 - first


def _resolve_cycles(
    graph: Graph, scale: int, x: list[int], cycles: Sequence[tuple[list[int], list[int]]]
) -> list[tuple[int, tuple[int, ...]]]:
    """Finish the rounding on the kernel's terminal odd cycles, in place.

    ``cycles`` holds them as ``(vertices, edges)`` in walk order, as
    ``_Kernel.run`` returns them; an even one is a kernel fault.  ``x[e]`` is
    a cycle edge's numerator over ``scale``, 0 or 1 on every other rounded
    edge, and ``-1`` on an edge outside the rounded subset.  First merges
    pairs of bad cycles (every edge exactly 1/2) that are joined by a rounded
    edge: each cycle, walked from its end of that edge, alternates 0/1
    starting at the edge's value, and the edge flips.  An odd cycle's two
    edges at the start take the same value, so every vertex sum stays intact.
    Joining edges are taken in ascending order, skipping cycles already
    merged.  The surviving cycles are then rounded to nearest with the
    per-vertex tie rule; each remaining bad cycle contributes one designated
    vertex, rounded up on both sides, to the returned ledger.  Every cycle
    edge ends at 0 or 1.
    """
    for _, eseq in cycles:
        if len(eseq) % 2 == 0:
            raise InternalInvariantError(f"cycle {eseq} has even length")
    cycs = sorted(cycles, key=lambda c: min(c[0]))

    bad = {
        i for i, (_, eseq) in enumerate(cycs) if all(2 * x[e] == scale for e in eseq)
    }
    owner = {v: i for i in bad for v in cycs[i][0]}
    incident, ends = graph.incident, graph.xor_ends
    joining = sorted(
        e0
        for v, i in owner.items()
        for e0 in incident[v]
        if (u := ends[e0] ^ v) < v and x[e0] >= 0 and owner.get(u, i) != i
    )
    retired: set[int] = set()
    for e0 in joining:
        u, v = graph.edges[e0]
        iu, iv = owner[u], owner[v]
        if iu in retired or iv in retired:
            continue
        if x[e0] != 0 and x[e0] != 1:
            raise InternalInvariantError(f"joining edge {e0} is not integral")
        for i, anchor in ((iu, u), (iv, v)):
            _alternate(x, _rotate_cycle(*cycs[i], anchor), x[e0])
        x[e0] = 1 - x[e0]
        retired.update((iu, iv))

    ledger: list[tuple[int, tuple[int, ...]]] = []
    for i, (vseq, eseq) in enumerate(cycs):
        if i in retired:
            continue
        if i in bad:
            anchor = min(vseq)
            walk_e = _rotate_cycle(vseq, eseq, anchor)
            _alternate(x, walk_e, 1)
            ledger.append((anchor, tuple(walk_e)))
        else:
            _round_mixed_cycle(scale, x, eseq)
    return ledger


def _round_mixed_cycle(scale: int, x: list[int], eseq: Sequence[int]) -> None:
    """Nearest 0/1 of each numerator; runs of 1/2 alternate, anchored at the least edge id."""
    length = len(eseq)
    halves = [2 * x[e] == scale for e in eseq]
    for p, e in enumerate(eseq):
        if not halves[p]:
            x[e] = 0 if 2 * x[e] < scale else 1
    if not any(halves):
        return
    if all(halves):
        raise InternalInvariantError("bad cycle reached the mixed rounding path")
    starts = [p for p in range(length) if halves[p] and not halves[p - 1]]
    for start in starts:
        run = []
        p = start
        while halves[p]:
            run.append(eseq[p])
            p = (p + 1) % length
        _alternate(x, run, 0 if run.index(min(run)) & 1 else 1)


# ---------------------------------------------------------------------------
# Condition (ii)
# ---------------------------------------------------------------------------


def _scaled_weights(weights: Sequence, ids: Sequence[int]) -> tuple[int, list[int]]:
    """Validate the listed weights; common denominator and numerators.

    ``zl[e] / scale`` is edge e's weight, ``zl[e] = -1`` for an edge not
    listed; ``_checked_edge_ids`` has made the ids distinct.  Each distinct
    weight object is validated and converted once, since the schemes pass
    one constant weight for every edge.  Keying by ``id`` is sound because
    ``weights`` keeps every object alive meanwhile.  Each listed weight is
    read once, and a run of one object takes one ``id`` lookup.
    """
    listed = list(map(weights.__getitem__, ids))
    exact: dict[int, Fraction] = {}
    last = fresh = object()  # no weight is this object
    for w, e in zip(listed, ids):
        if w is not last and id(w) not in exact:
            exact[id(w)] = _as_weight(w, e)
        last = w
    scale = lcm(*(w.denominator for w in exact.values()))
    numerators = {key: w.numerator * (scale // w.denominator) for key, w in exact.items()}
    zl = [-1] * len(weights)
    last = fresh
    for w, e in zip(listed, ids):
        if w is not last:
            last, z = w, numerators[id(w)]
        zl[e] = z
    return scale, zl


def _int_sums(graph: Graph, values: Sequence[int], ids: Sequence[int]) -> list[int]:
    sums = [0] * graph.vertex_count
    edges = graph.edges
    for e in ids:
        u, v = edges[e]
        value = values[e]
        sums[u] += value
        sums[v] += value
    return sums


def _enforce_ii_int(
    graph: Graph, ids: Sequence[int], scale: int, sums_z: Sequence[int], xi: list[int]
) -> None:
    """In-place condition (ii) repair of the 0/1 values of the listed edges.

    Weight sums are ``sums_z / scale``.  A flip only clears deficiency, so an
    edge passed once never violates (ii) later: one ascending pass flips the
    same edges as rescanning from the first.
    """
    sums_x = _int_sums(graph, xi, ids)
    deficient = [sx * scale < sz for sx, sz in zip(sums_x, sums_z)]
    edges = graph.edges
    for e in ids:
        if xi[e] == 0:
            u, v = edges[e]
            if deficient[u] and deficient[v]:
                xi[e] = 1
                for w in (u, v):
                    sums_x[w] += 1
                    deficient[w] = sums_x[w] * scale < sums_z[w]


# ---------------------------------------------------------------------------
# The rounding pipeline
# ---------------------------------------------------------------------------


def round_weights(
    graph: Graph, weights: Sequence, edges: Optional[Iterable[int]] = None
) -> RoundingResult:
    """Round rational edge weights to a certified 0/1 assignment.

    ``weights`` has one entry per edge of ``graph``; only those of the
    rounded edges are read.  ``edges`` restricts the rounding to those edge
    ids (all edges when ``None``); an id listed twice or outside the graph
    is an :class:`InputError`.  ``x`` is ``-1`` on every other edge, and
    (i)-(iii) hold for the subset's sums and cycles.

    Pipeline: run the Euler passes and the walk kernel on the scaled integer
    values until every support component is gone or reduced to an odd cycle;
    build the result once, 0/1 off the cycles and numerators on them; merge
    adjacent bad cycles; round the remaining cycles to 0/1 (designating one
    exceptional vertex per bad cycle); finally repair condition (ii) and
    certify (i)-(iii).
    """
    if len(weights) != graph.edge_count:
        raise InputError(
            f"{len(weights)} weights for {graph.edge_count} edges"
        )
    if edges is None:
        ids: Sequence[int] = range(graph.edge_count)
    else:
        ids = _checked_edge_ids(graph, edges)
    scale, zl = _scaled_weights(weights, ids)
    kernel = _Kernel(graph, scale, zl, ids)
    sums_z = kernel.sums
    cycles = kernel.run()
    # Off the terminal cycles a rounded edge is 0 or its own scale: 0 or 1.
    x = [1 if value > 0 else value for value in kernel.x]
    for _, cycle in cycles:
        for e in cycle:
            x[e] = kernel.numerator(e)
    ledger = _resolve_cycles(graph, scale << kernel.top, x, cycles)
    _enforce_ii_int(graph, ids, scale, sums_z, x)
    _certify_int(graph, ids, scale, sums_z, x, ledger)
    return RoundingResult(tuple(x), tuple(ledger))


def _certify_int(
    graph: Graph,
    ids: Sequence[int],
    scale: int,
    sums_z: Sequence[int],
    xi: Sequence[int],
    ledger: Sequence[tuple[int, Sequence[int]]],
) -> None:
    """Conditions (i)-(iii) over integers, in O(n + m).

    Weight sums are ``sums_z / scale``; x is 0/1 on the listed edges, and
    its sums are counted here again, not taken from the repair.  Each
    ledger cycle is walked: every edge must continue from the vertex
    reached, no vertex may repeat, and the walk must close.  One owner
    array over the cycles' vertices checks that each cycle passes through
    its vertex, that the cycles are disjoint and that no listed edge joins
    two of them.
    """
    sums_x = _int_sums(graph, xi, ids)
    for e in ids:
        if xi[e] != 0 and xi[e] != 1:
            raise InternalInvariantError(f"edge {e} rounded to {xi[e]}")
    for v in range(graph.vertex_count):
        sx = sums_x[v] * scale
        if not (sums_z[v] - scale < sx <= sums_z[v] + scale):
            raise InternalInvariantError(
                f"(i) fails at vertex {v}: x-sum {sums_x[v]}, z-sum {Fraction(sums_z[v], scale)}"
            )
    edges = graph.edges
    for e in ids:
        if xi[e] == 0:
            u, v = edges[e]
            if sums_x[u] * scale < sums_z[u] and sums_x[v] * scale < sums_z[v]:
                raise InternalInvariantError(f"(ii) fails at edge {e} = ({u}, {v})")
    excess = {
        v for v in range(graph.vertex_count) if sums_x[v] * scale == sums_z[v] + scale
    }
    listed = [v for v, _ in ledger]
    if len(set(listed)) != len(listed) or set(listed) != excess:
        raise InternalInvariantError(
            f"(iii) ledger vertices {sorted(listed)} != excess vertices {sorted(excess)}"
        )
    owner = [-1] * graph.vertex_count
    ends = graph.xor_ends
    for i, (v, eseq) in enumerate(ledger):
        if len(eseq) % 2 == 0 or len(eseq) < 3:
            raise InternalInvariantError(f"(iii) ledger cycle for {v} is not odd")
        if any(xi[e] < 0 for e in eseq):
            raise InternalInvariantError(f"(iii) ledger cycle for {v} leaves the rounded edges")
        a, b = edges[eseq[0]]
        u = start = b if a in edges[eseq[1]] else a
        for e in eseq:
            if u not in edges[e] or owner[u] == i:
                raise InternalInvariantError(f"(iii) ledger entry for {v} is not a cycle")
            if owner[u] >= 0:
                raise InternalInvariantError("(iii) ledger cycles share a vertex")
            if sums_z[u] % scale:
                raise InternalInvariantError(f"(iii) cycle vertex {u} has non-integral z-sum")
            owner[u] = i
            u ^= ends[e]
        if u != start:
            raise InternalInvariantError(f"(iii) ledger entry for {v} is not a cycle")
        if owner[v] != i:
            raise InternalInvariantError(f"(iii) cycle for {v} does not pass through it")
    if len(ledger) > 1:
        for e in ids:
            u, v = edges[e]
            iu, iv = owner[u], owner[v]
            if iu >= 0 and iv >= 0 and iu != iv:
                raise InternalInvariantError("(iii) an edge joins two ledger cycles")
