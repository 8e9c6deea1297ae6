import random
from collections import Counter
from itertools import chain

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

import strategies
from kmajority import (
    EdgeColouring,
    InputError,
    PreconditionError,
    build_graph,
    check_majority,
    colour_sk_graph,
    colour_small_k,
    pull_back_colouring,
    raise_to_sk,
    random_min_degree_graph,
    reductions,
    sk_degrees,
    split_high_degree,
)
from kmajority.graph import components
from oracles import full_join, lift_violations, neighbour_pairs, split_high_degree_reference, split_origin


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_sk_degree_sets():
    assert sk_degrees(2) == (5, 7)
    assert sk_degrees(3) == (11, 14, 17)
    assert sk_degrees(4) == (19, 23, 27, 31)


def test_split_degree_nine_vertex():
    g = complete_graph(10)  # 9-regular, k=2: 9 = 1*4 + 5
    out = split_high_degree(g, 2)
    assert sorted(Counter(out.degrees()).items()) == [(4, 10), (5, 10)]
    assert out.edge_count == g.edge_count
    origin = split_origin(g, out)
    assert len(origin) == 20
    # each original vertex owns one part of degree 5 and one of degree 4
    by_origin = {}
    for new_v, old_v in enumerate(origin):
        by_origin.setdefault(old_v, []).append(out.degree(new_v))
    assert all(sorted(parts) == [4, 5] for parts in by_origin.values())


def test_split_with_nothing_to_split_returns_its_input():
    g = complete_graph(8)  # 7-regular < 2k^2 for k=2
    out = split_high_degree(g, 2)
    assert out is g
    assert split_origin(g, out) == tuple(range(8))


def test_split_degree_sixteen_vertex():
    g = complete_graph(17)  # 16 = 3*4 + 4 at k=2
    out = split_high_degree(g, 2)
    assert set(out.degrees()) == {4}
    assert len(split_origin(g, out)) == 17 * 4


def test_split_endpoints_stay_consistent():
    g = complete_graph(10)
    out = split_high_degree(g, 2)
    assert out.edge_count == g.edge_count
    origin = split_origin(g, out)
    for e, (u, v) in enumerate(out.edges):
        assert {origin[u], origin[v]} == set(g.edges[e])


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=15)
@given(data=st.data())
def test_split_and_colour_graphs_with_hubs(k, data):
    g = data.draw(strategies.hub_unions(k))
    assert g.max_degree() >= 2 * k * k
    out = split_high_degree(g, k)
    assert all(k * k <= d < 2 * k * k for d in out.degrees())
    assert out.edge_count == g.edge_count
    origin = split_origin(g, out)
    for e, (u, v) in enumerate(out.edges):
        assert {origin[u], origin[v]} == set(g.edges[e])
    colouring, report = colour_small_k(g, k)
    assert report.verdict.passed
    assert check_majority(g, colouring, k).passed


# No shrink phase: shrinking hub unions of a few hundred edges example by
# example takes minutes, so a failure reports the first failing graph instead.
@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=40, phases=[p for p in Phase if p is not Phase.shrink])
@given(data=st.data())
def test_split_matches_the_dict_reference(k, data):
    g = data.draw(strategies.hub_unions(k))
    out = split_high_degree(g, k)
    assert (out.vertex_count, out.edges, split_origin(g, out)) == split_high_degree_reference(g, k)


def test_split_requires_min_degree():
    with pytest.raises(PreconditionError):
        split_high_degree(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2)


def test_raise_four_regular_clique_takes_one_gadget():
    # K5 at k=2: each vertex needs 1, and K5 has no non-edge, so an odd need
    # of 5 is left.  One gadget, K7 minus a Hamiltonian path of its own
    # vertices whose inner vertices are the attached ones, takes it:
    # 21 - 6 + 5 = 20 edges and 7 fresh vertices.
    g = complete_graph(5)
    out, trace = raise_to_sk(g, 2)
    assert lift_violations(g, out, 2) == []
    assert trace.copies == 1
    assert set(out.degrees()) == {5}
    assert (out.vertex_count, out.edge_count) == (12, 30)


def test_raise_keeps_sk_graphs_unchanged():
    g = complete_graph(6)  # 5-regular, already in S_2
    out, trace = raise_to_sk(g, 2)
    assert out is g and trace.copies == 0
    assert lift_violations(g, out, 2) == []


def test_raise_mixed_degrees():
    # K7 minus a 3-edge matching: degrees {5,5,5,5,5,5,6}.  Vertex 6 alone
    # needs 1: one gadget, K7 minus a path of 3 vertices through the attached
    # one and a matching of the other four, takes it with 21 - 4 + 1 = 18
    # edges.
    removed = {(0, 1), (2, 3), (4, 5)}
    g = build_graph(
        7,
        [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if (u, v) not in removed
        ],
    )
    out, trace = raise_to_sk(g, 2)
    assert lift_violations(g, out, 2) == []
    assert trace.copies == 1
    assert (out.vertex_count, out.edge_count) == (14, g.edge_count + 18)


def _leftover_need(graph, lifted):
    """Each input vertex's edges to fresh vertices of ``lifted``."""
    n = graph.vertex_count
    left = [0] * n
    for u, v in lifted.edges:
        if (u < n) != (v < n):
            left[min(u, v)] += 1
    return left


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=15)
@given(data=st.data())
def test_lift_takes_fewest_copies_per_component(k, data):
    # LiftTrace.copies counts gadgets: T units of need left by the fill take
    # the fewest gadgets, ceil(T / (k^2+k)), each a component of the fresh
    # vertices of k^2+k vertices, one more in the last when T is odd.
    g = data.draw(
        strategies.degree_window_unions(k)
        | strategies.needy_clique_unions(k)
        | strategies.needy_cliques_in_regular_graphs(k)
    )
    out, trace = raise_to_sk(g, k)
    assert lift_violations(g, out, k) == []
    n, size = g.vertex_count, k * k + k
    left = _leftover_need(g, out)
    short = [v for v in range(n) if left[v]]
    # The fill leaves no join undone: the short vertices are pairwise adjacent.
    pairs = neighbour_pairs(out)
    assert all(set(short) - {v} <= {u for u, _ in pairs[v]} for v in short)
    total = sum(left)
    assert trace.copies == -(-total // size)
    fresh = build_graph(out.vertex_count - n, [(u - n, v - n) for u, v in out.edges if u >= n and v >= n])
    sizes = [len(comp) for comp in components(fresh)]
    assert sorted(sizes) == sorted([size] * (trace.copies - total % 2) + [size + 1] * (total % 2))


def test_lift_copies_per_clique_of_a_union():
    # At k=3: K10 is 9-regular (t=2 each, 20 in all), K12 and K15 are 11-
    # and 14-regular (in S_3: left alone).  Split K20 falls into a 10-regular
    # part of 11 vertices (t=1: 11), a part of 19 with degrees 10 and 9 (t=1
    # and 2: 29) and a 9-regular part of 10 (t=2: 20).  Every needy vertex
    # misses all needy vertices of the other three parts, and the total
    # need, 80, is even: 40 joins meet every need, and those four parts
    # become one component, beside K12 and K15, with no gadget.
    pairs, base = [], 0
    for size in (10, 12, 15, 20):
        pairs.extend((base + i, base + j) for i in range(size) for j in range(i + 1, size))
        base += size
    split = split_high_degree(build_graph(base, pairs), 3)
    out, trace = raise_to_sk(split, 3)
    assert lift_violations(split, out, 3) == []
    assert len(components(out)) == 3
    assert trace.copies == 0
    assert (out.vertex_count, out.edge_count) == (split.vertex_count, split.edge_count + 40)


@pytest.mark.parametrize(
    "size, t, added",
    [(10, 1, (24, 142, 2)), (10, 2, (0, 20, 0)), (10, 3, (0, 30, 0)), (10, 400, (0, 4000, 0)),
     (11, 3, (13, 88, 1))],
)
def test_lift_of_disjoint_cliques(size, t, added):
    # At k=3, K10 is 9-regular: each vertex needs 2, and K10 has no non-edge.
    # Alone its need of 20 takes two gadgets of 12 vertices (D = 11), with
    # 12 and 8 attachments: (12*11 + 12)/2 + (12*11 + 8)/2 = 142 edges.  Two
    # or more are joined to one another: 10t edges meet the need of 20t,
    # with no fresh vertex.  K11 is 10-regular, each vertex needing 1: three
    # of them need 33 in all, an odd total, so 16 joins leave one unit to a
    # gadget of 13 vertices: 16 + (13*11 + 1)/2 = 88 edges.
    labels = list(range(size * t))
    random.Random(t).shuffle(labels)
    g = build_graph(size * t, [(labels[size * c + i], labels[size * c + j])
                               for c in range(t) for i in range(size) for j in range(i + 1, size)])
    out, trace = raise_to_sk(g, 3)
    assert lift_violations(g, out, 3) == []
    assert (out.vertex_count - g.vertex_count, out.edge_count - g.edge_count, trace.copies) == added


@pytest.mark.parametrize(
    "k, n, r, s, added",
    [(2, 40, 5, 6, (6, 18, 1)), (3, 4000, 14, 10, (12, 71, 1)), (4, 200, 19, 16, (60, 594, 3))],
)
def test_lift_of_a_needy_clique_in_a_regular_graph(k, n, r, s, added):
    # An r-regular graph, r in S_k, with a matching of s/2 edges replaced by
    # K_s joined one-to-one to its ends: only the clique's vertices need
    # degree, t each, and they are pairwise adjacent, so gadgets of D + 1 =
    # k^2 + k vertices (D + 2 for an odd last share) take all s t units,
    # each adding (N D + a)/2 edges for a attachments, whatever n is.  k=2:
    # t=1, (6*5 + 6)/2 = 18.  k=3: t=1, (12*11 + 10)/2 = 71 on 28,050 edges.
    # k=4: t=3, 48 units in shares of 20, 20 and 8: 200 + 200 + 194 = 594.
    g = strategies.join_needy_clique(random_min_degree_graph(n, r, seed=1), s)
    out, trace = raise_to_sk(g, k)
    assert lift_violations(g, out, k) == []
    assert _fill_edges(g, out) == []
    assert (out.vertex_count - g.vertex_count, out.edge_count - g.edge_count, trace.copies) == added


def test_join_that_leaves_need_is_kept():
    # K10 (each vertex needs 2 at k=3) beside K12 minus the edge 10-11 (10
    # and 11 need 1 each).  Vertex 0 takes 10 and 11, and the rest of K10,
    # pairwise adjacent, is left short with no join to trade.  The joins
    # stay, and the 18 units left take gadgets of 12 vertices with 12 and 6
    # attachments: (12*11 + 12)/2 + (12*11 + 6)/2 = 141 edges.
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    pairs += [(u, v) for u in range(10, 22) for v in range(u + 1, 22) if (u, v) != (10, 11)]
    g = build_graph(22, pairs)
    out, trace = raise_to_sk(g, 3)
    assert lift_violations(g, out, 3) == []
    assert _fill_edges(g, out) == [(0, 10), (0, 11)]
    assert trace.copies == 2
    assert (out.vertex_count, out.edge_count) == (46, 45 + 65 + 2 + 141)


def _seeded_near_clique_union(k, seed):
    """Two or three near-cliques K_n, k^2 < n <= k^2 + 4, each minus up to 12
    random edges that keep every degree at least k^2, with shuffled labels."""
    rng = random.Random(seed)
    ksq = k * k
    pairs, base = [], 0
    for _ in range(rng.randint(2, 3)):
        n = rng.randint(ksq + 1, min(2 * ksq, ksq + 4))
        degree = [n - 1] * n
        kept = {(u, v) for u in range(n) for v in range(u + 1, n)}
        for u, v in rng.choices(sorted(kept), k=12):
            if (u, v) in kept and degree[u] > ksq and degree[v] > ksq:
                kept.remove((u, v))
                degree[u] -= 1
                degree[v] -= 1
        pairs.extend((base + u, base + v) for u, v in sorted(kept))
        base += n
    labels = list(range(base))
    rng.shuffle(labels)
    return build_graph(base, [(labels[u], labels[v]) for u, v in pairs])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lift_of_seeded_near_clique_unions(k):
    # Joins and trades never repeat an edge, and every need is met exactly.
    for seed in range(200):
        g = _seeded_near_clique_union(k, seed)
        out, _ = raise_to_sk(g, k)
        assert lift_violations(g, out, k) == []


def _fill_edges(graph, lifted):
    """The edges that ``lifted`` adds between vertices of ``graph``."""
    n = graph.vertex_count
    return [(u, v) for u, v in lifted.edges[graph.edge_count:] if u < n and v < n]


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=15)
@given(data=st.data())
def test_fill_keeps_caps_components_and_lowers_the_lift(k, data):
    g = data.draw(
        strategies.degree_window_unions(k) | strategies.hub_unions(k) | strategies.needy_clique_unions(k)
    )
    split = split_high_degree(g, k)
    out, _ = raise_to_sk(split, k)
    # Caps kept (each vertex raised by exactly its need) and the lift within
    # m + (total need)/2 plus a bounded gadget part.
    assert lift_violations(split, out, k) == []
    m, n = split.edge_count, split.vertex_count
    fill = _fill_edges(split, out)
    assert list(out.edges[m : m + len(fill)]) == fill  # before any gadget
    # The fill joins needy vertices only, and within what they need.
    needs = [(k - 1 - d) % k for d in split.degrees()]
    joined = Counter(chain(*fill))
    assert all(joined[v] <= needs[v] for v in range(n))
    colouring, report = colour_small_k(g, k)
    assert report.verdict.passed
    assert check_majority(g, colouring, k).passed


def test_fill_completes_a_sixteen_regular_graph_on_twenty_vertices():
    # Each vertex needs 3 at k=4 and misses exactly 3 others: K20, 19 in S_4.
    g = random_min_degree_graph(20, 16, seed=1)
    assert set(g.degrees()) == {16}
    out, trace = raise_to_sk(g, 4)
    assert lift_violations(g, out, 4) == []
    assert {frozenset(e) for e in out.edges} == {frozenset(e) for e in complete_graph(20).edges}
    assert trace.copies == 0


def test_fill_leaves_a_clique_as_it_is():
    g = complete_graph(10)  # 9-regular at k=3 needs 2, but has no non-edges
    out, trace = raise_to_sk(g, 3)
    assert lift_violations(g, out, 3) == []
    assert _fill_edges(g, out) == []
    assert trace.copies == 2
    assert (out.vertex_count, out.edge_count) == (34, 45 + 142)


def test_fill_of_a_near_clique_is_kept_before_an_even_gadget():
    # K13 minus these pairs, at k=3: eleven vertices need 2.  The greedy
    # fill joins 7 pairs and leaves 8 units.  One search flips the path
    # 11 - 2 = 1 - 9 = 0 - 12 (drops 1-2 and 0-9, joins 2-11, 1-9 and
    # 0-12); 5, 6 and 8, pairwise adjacent, keep 2 units each, and no path
    # reaches them.  Those 6 units go to one gadget of 12 vertices:
    # (12*11 + 6)/2 = 69 edges.
    missing = {(0, 1), (0, 9), (0, 12), (1, 2), (1, 9), (2, 3), (2, 11), (3, 7), (3, 11),
               (4, 7), (7, 11), (9, 12), (10, 12)}
    g = build_graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                         if (u, v) not in missing])
    out, trace = raise_to_sk(g, 3)
    assert lift_violations(g, out, 3) == []
    assert _fill_edges(g, out) == [(0, 1), (0, 12), (1, 9), (2, 3), (3, 7), (7, 11), (9, 12), (11, 2)]
    assert _leftover_need(g, out) == [0, 0, 0, 0, 0, 2, 2, 0, 2, 0, 0, 0, 0]
    assert trace.copies == 1
    assert (out.vertex_count, out.edge_count) == (25, 65 + 8 + 69)


def test_fill_that_leaves_one_need_is_kept_before_an_odd_gadget():
    # K7 minus these pairs, at k=2: degrees 5 (in S_2) and 4 (need 1).  The
    # fill joins 0-2 and 1-3 and leaves 5 short: one gadget, K7 minus a path
    # of 3 vertices through the attached one and a matching of the other
    # four, takes that unit with (7*5 + 1)/2 = 18 edges.
    missing = {(0, 2), (0, 5), (1, 2), (1, 3), (3, 4), (5, 6)}
    g = build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) not in missing])
    out, trace = raise_to_sk(g, 2)
    assert lift_violations(g, out, 2) == []
    assert _fill_edges(g, out) == [(0, 2), (1, 3)]
    assert _leftover_need(g, out) == [0, 0, 0, 0, 0, 1, 0]
    assert trace.copies == 1
    assert (out.vertex_count, out.edge_count) == (14, 15 + 2 + 18)


@pytest.mark.parametrize("d", [9, 10])
def test_lift_attaches_no_gadget_where_joins_alone_meet_every_need(d):
    # n = 14 at k=3: a vertex of degree 9 needs 2, of degree 10 needs 1.
    # Wherever an exact search finds joins that meet every need, the greedy
    # fill and its augmenting paths find some too, and no gadget is needed.
    for seed in range(1, 41):
        g = random_min_degree_graph(14, d, seed=seed)
        out, trace = raise_to_sk(g, 3)
        assert lift_violations(g, out, 3) == []
        if full_join(g, [(2 - x) % 3 for x in g.degrees()]) is not None:
            assert trace.copies == 0, seed


def test_a_lift_whose_only_augmenting_path_flips_two_joins(monkeypatch):
    # random_min_degree_graph(14, 10, seed=7) at k=3: every vertex needs 1.
    # The greedy fill makes 6 joins and leaves 10 and 12, which are adjacent.
    # No join ab has a free to 10 and b free to 12, so no trade of one join
    # meets them, but the path 10 - 3 = 7 - 5 = 9 - 12 does.
    g = random_min_degree_graph(14, 10, seed=7)
    adjacent = {frozenset(e) for e in g.edges}
    out, trace = raise_to_sk(g, 3)
    assert lift_violations(g, out, 3) == []
    assert trace.copies == 0
    assert _fill_edges(g, out) == [(0, 1), (2, 4), (7, 5), (9, 12), (6, 8), (11, 13), (10, 3)]
    monkeypatch.setattr(reductions, "_augment", lambda *args: False)
    greedy_out, _ = raise_to_sk(g, 3)
    greedy = _fill_edges(g, greedy_out)
    assert greedy == [(0, 1), (2, 4), (3, 7), (5, 9), (6, 8), (11, 13)]
    assert [v for v, t in enumerate(_leftover_need(g, greedy_out)) if t] == [10, 12]
    assert frozenset((10, 12)) in adjacent
    assert not any({frozenset((10, a)), frozenset((b, 12))}.isdisjoint(adjacent)
                   for ab in greedy for a, b in (ab, ab[::-1]))


def _search_calls(monkeypatch, graph, k):
    """The :func:`reductions._augment` calls of one lift, and the units of
    need its greedy fill alone leaves (every search made to fail)."""
    with monkeypatch.context() as patch:
        patch.setattr(reductions, "_augment", lambda *args: False)
        greedy_out, _ = raise_to_sk(graph, k)
    calls = []
    search = reductions._augment

    def counted(*args):
        calls.append(args[0])
        return search(*args)

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "_augment", counted)
        out, _ = raise_to_sk(graph, k)
    assert lift_violations(graph, out, k) == []
    return len(calls), sum(_leftover_need(graph, greedy_out))


def test_at_most_one_search_per_unit_the_greedy_fill_leaves(monkeypatch):
    cases = [(random_min_degree_graph(14, d, seed=seed), 3) for d in (9, 10) for seed in range(1, 41)]
    cases += [(_seeded_near_clique_union(k, seed), k) for k in (2, 3, 4) for seed in range(20)]
    counts = [_search_calls(monkeypatch, g, k) for g, k in cases]
    assert all(calls <= left for calls, left in counts)
    assert any(calls for calls, _ in counts)


def test_no_search_runs_without_a_join(monkeypatch):
    # The needy K10 of the scaling script's lift_clique layer: its 10 units
    # sit at pairwise adjacent vertices and the fill makes no join, so no
    # search runs and one gadget takes them all.
    g = strategies.join_needy_clique(random_min_degree_graph(200, 14, seed=1), 10)
    assert _search_calls(monkeypatch, g, 3) == (0, 10)
    assert _search_calls(monkeypatch, complete_graph(10), 3) == (0, 20)


def test_one_search_meets_the_need_of_each_union_of_the_two_join_case(monkeypatch):
    # The scaling script's lift_join layer: c copies of the seed-7 graph
    # above.  The greedy fill joins across copies and leaves one pair short,
    # which one search meets with no gadget, whatever c is.
    base = random_min_degree_graph(14, 10, seed=7)
    for c in (1, 2, 4, 8):
        g = build_graph(14 * c, [(14 * i + u, 14 * i + v) for i in range(c) for u, v in base.edges])
        assert _search_calls(monkeypatch, g, 3) == (1, 2)
        out, trace = raise_to_sk(g, 3)
        assert trace.copies == 0 and out.edge_count == 77 * c


def test_a_path_that_repeats_a_pair_is_not_flipped(monkeypatch):
    # At k=4 the search from 18, and then the one from 20, first closes the
    # path 18 - 4 = 12 - 8 = 22 - 12 = 4 - 20 (or its reverse), which runs
    # round an odd cycle and uses the join 4 = 12 twice: flipping it would
    # drop that join twice.  Neither is flipped, and the two units go to a
    # gadget.
    g = random_min_degree_graph(23, 17, seed=957, extra_edges=12)
    flips = []
    flip = reductions._flip

    def recorded(s, w, t, *args):
        flips.append((s, t, flip(s, w, t, *args)))
        return flips[-1][-1]

    monkeypatch.setattr(reductions, "_flip", recorded)
    out, trace = raise_to_sk(g, 4)
    assert lift_violations(g, out, 4) == []
    assert (18, 20, False) in flips and (20, 18, False) in flips
    assert trace.copies == 1


def test_raise_preconditions_and_size_guard():
    with pytest.raises(PreconditionError):
        raise_to_sk(complete_graph(10), 2)  # max degree 9 >= 2k^2
    with pytest.raises(PreconditionError, match=r"maximum degree 8 not below 2k\^2 = 8"):
        raise_to_sk(complete_graph(9), 2)  # max degree 8 = 2k^2
    with pytest.raises(PreconditionError, match="minimum degree 3"):
        raise_to_sk(complete_graph(4), 2)  # min degree 3 < k^2
    with pytest.raises(InputError):
        raise_to_sk(complete_graph(26), 5)


@pytest.mark.parametrize("reduce", [split_high_degree, raise_to_sk])
def test_reductions_refuse_k_below_two(reduce):
    with pytest.raises(InputError, match="k must be at least 2, got 1"):
        reduce(complete_graph(5), 1)


def test_cap_equality_spec_arithmetic():
    # splitting a degree-9 vertex at k=2: floor(5/2) + floor(4/2) = floor(9/2)
    assert 5 // 2 + 4 // 2 == 9 // 2
    # raising a degree-4 vertex by one at k=2 keeps the cap: floor(5/2) = floor(4/2)
    assert 5 // 2 == 4 // 2


def test_pull_back_identity():
    g = complete_graph(8)
    colouring = EdgeColouring(tuple(e % 3 + 1 for e in range(g.edge_count)), 3)
    assert pull_back_colouring(colouring, g) == colouring
    # A lifted graph's edges follow the input's: only the first m colours count.
    longer = EdgeColouring(colouring.colours + (1, 2), 3)
    assert pull_back_colouring(longer, g) == colouring


def test_pull_back_rejects_size_mismatch():
    g = complete_graph(8)
    with pytest.raises(InputError):
        pull_back_colouring(EdgeColouring((1, 2), 3), g)


@pytest.mark.parametrize("k, seed", [(2, 11), (3, 12), (4, 13)])
def test_transform_colour_pull_back_round_trip(k, seed):
    g = random_min_degree_graph(k * k + 4, k * k, seed=seed, extra_edges=6)
    split_g = split_high_degree(g, k)
    lifted, _ = raise_to_sk(split_g, k)
    allowed = set(sk_degrees(k))
    assert all(d in allowed for d in lifted.degrees())
    for v in range(split_g.vertex_count):
        assert lifted.degree(v) // k == split_g.degree(v) // k
    colouring, report = colour_sk_graph(lifted, k)
    pulled = pull_back_colouring(colouring, g)
    assert check_majority(g, pulled, k).passed
