from collections import Counter

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
    components,
    pull_back_colouring,
    raise_to_sk,
    random_min_degree_graph,
    sk_degrees,
    split_high_degree,
)
from oracles import doubling_lift, neighbour_pairs, split_high_degree_reference


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_sk_degree_sets():
    assert sk_degrees(2) == (5, 7)
    assert sk_degrees(3) == (11, 14, 17)
    assert sk_degrees(4) == (19, 23, 27, 31)


def test_split_degree_nine_vertex():
    g = complete_graph(10)  # 9-regular, k=2: 9 = 1*4 + 5
    out, trace = split_high_degree(g, 2)
    assert sorted(Counter(out.degrees()).items()) == [(4, 10), (5, 10)]
    assert out.edge_count == g.edge_count
    assert len(trace.origin) == 20
    # each original vertex owns one part of degree 5 and one of degree 4
    by_origin = {}
    for new_v, old_v in enumerate(trace.origin):
        by_origin.setdefault(old_v, []).append(out.degree(new_v))
    assert all(sorted(parts) == [4, 5] for parts in by_origin.values())


def test_split_leaves_low_degrees_alone():
    g = complete_graph(8)  # 7-regular < 2k^2 for k=2
    out, trace = split_high_degree(g, 2)
    assert out == g
    assert trace.origin == tuple(range(8))


def test_split_with_nothing_to_split_returns_its_input():
    g = complete_graph(8)  # 7-regular < 2k^2 for k=2
    out, trace = split_high_degree(g, 2)
    assert out is g
    assert trace.origin == tuple(range(8))


def test_split_degree_sixteen_vertex():
    g = complete_graph(17)  # 16 = 3*4 + 4 at k=2
    out, trace = split_high_degree(g, 2)
    assert set(out.degrees()) == {4}
    assert len(trace.origin) == 17 * 4


def test_split_endpoints_stay_consistent():
    g = complete_graph(10)
    out, trace = split_high_degree(g, 2)
    assert out.edge_count == g.edge_count
    for e, (u, v) in enumerate(out.edges):
        assert {trace.origin[u], trace.origin[v]} == set(g.edges[e])


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=15)
@given(data=st.data())
def test_split_and_colour_graphs_with_hubs(k, data):
    g = data.draw(strategies.hub_unions(k))
    assert g.max_degree() >= 2 * k * k
    out, trace = split_high_degree(g, k)
    assert all(k * k <= d < 2 * k * k for d in out.degrees())
    assert out.edge_count == g.edge_count
    for e, (u, v) in enumerate(out.edges):
        assert {trace.origin[u], trace.origin[v]} == set(g.edges[e])
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
    out, trace = split_high_degree(g, k)
    assert (out.vertex_count, out.edges, trace.origin) == split_high_degree_reference(g, k)


def test_split_requires_min_degree():
    with pytest.raises(PreconditionError):
        split_high_degree(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2)


def test_raise_four_regular_needs_one_doubling():
    g = complete_graph(5)  # 4-regular
    out, trace = raise_to_sk(g, 2)
    assert trace.copies == 1
    assert set(out.degrees()) == {5}
    assert out.vertex_count == 10
    assert out.edges[: g.edge_count] == g.edges


def test_raise_keeps_sk_graphs_unchanged():
    g = complete_graph(6)  # 5-regular, already in S_2
    out, trace = raise_to_sk(g, 2)
    assert out == g and trace.copies == 0


def test_raise_mixed_degrees():
    # K7 minus a 3-edge matching: degrees {5,5,5,5,5,5,6}
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
    assert trace.copies == 1
    assert set(out.degrees()) <= {5, 7}
    for v in range(g.vertex_count):
        assert out.degree(v) // 2 == g.degree(v) // 2


def _minimal_copies(needs):
    # Fewest vertices c carrying a t-regular simple graph for every t in needs.
    return next(
        c for c in range(1, 2 * max(needs) + 3) if all(t < c and c * t % 2 == 0 for t in needs)
    )


def _copies_per_component(graph, lifted):
    """For each component of ``lifted``, ordered by least vertex: its size
    over the number of input vertices it holds."""
    out = []
    for comp in components(lifted):
        original = [v for v in comp if v < graph.vertex_count]
        assert len(comp) % len(original) == 0
        out.append(len(comp) // len(original))
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=15)
@given(data=st.data())
def test_lift_takes_fewest_copies_per_component(k, data):
    g = data.draw(strategies.degree_window_unions(k))
    out, trace = raise_to_sk(g, k)
    assert build_graph(out.vertex_count, out.edges) == out
    allowed = set(sk_degrees(k))
    assert all(d in allowed for d in out.degrees())
    assert all(out.degree(v) // k == g.degree(v) // k for v in range(g.vertex_count))
    assert out.edges[: g.edge_count] == g.edges
    copies = _copies_per_component(g, out)
    n = g.vertex_count
    # The need left after the fill: a vertex's edges to fresh copies.
    pairs = neighbour_pairs(out)
    needs = [sum(u >= n for u, _ in pairs[v]) for v in range(n)]
    assert copies == [_minimal_copies([needs[v] for v in comp]) for comp in components(g)]
    assert trace.copies == max(copies) - 1
    assert out.edge_count <= doubling_lift(g, k).edge_count


def test_lift_copies_per_clique_of_a_union():
    # At k=3: K10 is 9-regular (t=2: 3 copies), K12 and K15 are 11- and
    # 14-regular (in S_3: left alone).  Split K20 falls into a 10-regular
    # part (t=1: 2 copies), a part with degrees 10 and 9 (t=1 and 2: a
    # 1-regular circulant needs an even count, so 4 copies, until the fill
    # leaves needs of 1 only: 2 copies) and a 9-regular part (3 copies).
    pairs, base = [], 0
    for size in (10, 12, 15, 20):
        pairs.extend((base + i, base + j) for i in range(size) for j in range(i + 1, size))
        base += size
    split, _ = split_high_degree(build_graph(base, pairs), 3)
    out, trace = raise_to_sk(split, 3)
    assert _copies_per_component(split, out) == [3, 1, 1, 2, 2, 3]
    assert trace.copies == 2


def _fill_edges(graph, lifted):
    """The edges that ``lifted`` adds between vertices of ``graph``."""
    n = graph.vertex_count
    return [(u, v) for u, v in lifted.edges[graph.edge_count:] if u < n and v < n]


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=15)
@given(data=st.data())
def test_fill_keeps_caps_components_and_lowers_the_lift(k, data):
    g = data.draw(strategies.degree_window_unions(k) | strategies.hub_unions(k))
    split, _ = split_high_degree(g, k)
    out, _ = raise_to_sk(split, k)
    assert build_graph(out.vertex_count, out.edges) == out
    m, n = split.edge_count, split.vertex_count
    fill = _fill_edges(split, out)
    assert out.edges[:m] == split.edges
    assert list(out.edges[m : m + len(fill)]) == fill  # before any copy
    filled = build_graph(n, split.edges + tuple(fill))
    assert components(filled) == components(split)
    assert all(out.degree(v) // k == split.degree(v) // k for v in range(n))
    needs = [(k - 1 - d) % k for d in split.degrees()]
    copies = _copies_per_component(split, out)
    for c, comp in zip(copies, components(split), strict=True):
        assert c <= _minimal_copies([needs[v] for v in comp])
    colouring, report = colour_small_k(g, k)
    assert report.verdict.passed
    assert check_majority(g, colouring, k).passed


def test_fill_completes_a_sixteen_regular_graph_on_twenty_vertices():
    # Each vertex needs 3 at k=4 and misses exactly 3 others: K20, 19 in S_4.
    g = random_min_degree_graph(20, 16, seed=1)
    assert set(g.degrees()) == {16}
    out, trace = raise_to_sk(g, 4)
    assert {frozenset(e) for e in out.edges} == {frozenset(e) for e in complete_graph(20).edges}
    assert trace.copies == 0


def test_fill_leaves_a_clique_as_it_is():
    g = complete_graph(10)  # 9-regular at k=3 needs 2, but has no non-edges
    out, trace = raise_to_sk(g, 3)
    assert _fill_edges(g, out) == []
    assert trace.copies == 2


def test_fill_that_would_raise_the_copy_count_is_dropped():
    # K13 minus these pairs, at k=3: its needs are 2 and 0, so 3 copies.
    # The fill would leave one vertex needing 1, an odd need: 4 copies.
    missing = {(0, 1), (0, 9), (0, 12), (1, 2), (1, 9), (2, 3), (2, 11), (3, 7), (3, 11),
               (4, 7), (7, 11), (9, 12), (10, 12)}
    g = build_graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                         if (u, v) not in missing])
    out, trace = raise_to_sk(g, 3)
    assert _fill_edges(g, out) == []
    assert trace.copies == 2


def test_raise_preconditions_and_size_guard():
    with pytest.raises(PreconditionError):
        raise_to_sk(complete_graph(10), 2)  # max degree 9 >= 2k^2
    with pytest.raises(InputError):
        raise_to_sk(complete_graph(26), 5)


@pytest.mark.parametrize("reduce", [split_high_degree, raise_to_sk])
def test_reductions_refuse_k_below_two(reduce):
    with pytest.raises(InputError, match="k must be at least 2, got 1"):
        reduce(complete_graph(5), 1)


def test_cap_equality_spec_arithmetic():
    # splitting a degree-9 vertex at k=2: floor(5/2) + floor(4/2) = floor(9/2)
    assert 5 // 2 + 4 // 2 == 9 // 2
    # one doubling of a degree-4 vertex at k=2 keeps the cap: floor(5/2) = floor(4/2)
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
    split_g, _ = split_high_degree(g, k)
    lifted, _ = raise_to_sk(split_g, k)
    allowed = set(sk_degrees(k))
    assert all(d in allowed for d in lifted.degrees())
    for v in range(split_g.vertex_count):
        assert lifted.degree(v) // k == split_g.degree(v) // k
    colouring, report = colour_sk_graph(lifted, k)
    pulled = pull_back_colouring(colouring, g)
    assert check_majority(g, pulled, k).passed
