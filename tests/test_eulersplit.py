import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from kmajority import (
    BLUE,
    RED,
    Bicolouring,
    InputError,
    SelectorExhaustedError,
    balanced_bicolouring,
    build_graph,
    components,
)
from kmajority.graph import edge_subgraph
from oracles import assert_balanced, side_counts


def test_even_cycle_splits_exactly():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bic = balanced_bicolouring(c4)
    assert bic.bad_vertices == ()
    assert side_counts(c4, bic) == [[1, 1]] * 4


def test_triangle_needs_one_bad_vertex():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    bic = balanced_bicolouring(triangle)
    assert bic.bad_vertices == (0,)
    counts = side_counts(triangle, bic)
    assert counts[0] == [0, 2]  # both edges at the bad vertex are red
    assert counts[1] == [1, 1] and counts[2] == [1, 1]


def test_path_alternates():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    bic = balanced_bicolouring(p4)
    assert bic.bad_vertices == ()
    for v, (blue, red) in enumerate(side_counts(p4, bic)):
        assert max(blue, red) <= (p4.degree(v) + 1) // 2


def test_selector_controls_bad_vertex():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    bic = balanced_bicolouring(triangle, lambda v, d: v == 2)
    assert bic.bad_vertices == (2,)
    assert side_counts(triangle, bic)[2] == [0, 2]
    # The least admissible vertex, not the first one a search from 0 reaches.
    c5 = build_graph(5, [(0, 4), (4, 1), (1, 3), (3, 2), (2, 0)])
    assert balanced_bicolouring(c5, lambda v, d: v in (1, 4)).bad_vertices == (1,)


def test_selector_exhaustion_raises():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(SelectorExhaustedError):
        balanced_bicolouring(triangle, lambda v, d: False)


def test_selector_not_consulted_when_unnecessary():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bic = balanced_bicolouring(c4, lambda v, d: False)
    assert bic.bad_vertices == ()


def test_components_handled_independently():
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    bic = balanced_bicolouring(g)
    assert bic.bad_vertices == (0,)  # only the triangle forces one
    assert_balanced(g, bic)


@given(strategies.graphs(min_vertices=2, max_vertices=9, max_edges=20))
@settings(max_examples=120)
def test_split_invariants(g):
    bic = balanced_bicolouring(g)
    assert_balanced(g, bic)
    counts = side_counts(g, bic)
    for v in range(g.vertex_count):
        assert counts[v][BLUE] + counts[v][RED] == g.degree(v)
    # bad vertices arise only in all-even components with oddly many edges
    for comp in components(g):
        comp_edges = {e for v in comp for e in g.incident[v]}
        forced = all(g.degree(v) % 2 == 0 for v in comp) and len(comp_edges) % 2 == 1
        chosen = [v for v in bic.bad_vertices if v in comp]
        assert len(chosen) == (1 if comp_edges and forced else 0)


@given(strategies.graphs(min_vertices=2, max_vertices=8))
def test_split_is_deterministic(g):
    assert balanced_bicolouring(g) == balanced_bicolouring(g)


@given(strategies.disjoint_unions())
@settings(max_examples=150)
def test_union_split_is_the_split_of_each_component(g):
    bic = balanced_bicolouring(g)
    bad = []
    for comp in components(g):
        rank = {v: i for i, v in enumerate(comp)}
        comp_edges = sorted({e for v in comp for e in g.incident[v]})
        relabelled = [(rank[g.edges[e][0]], rank[g.edges[e][1]]) for e in comp_edges]
        alone = balanced_bicolouring(build_graph(len(comp), relabelled))
        assert [bic.side[e] for e in comp_edges] == list(alone.side)
        bad.extend(comp[i] for i in alone.bad_vertices)
    assert bic.bad_vertices == tuple(sorted(bad))


def test_subset_split_marks_other_edges():
    # Triangle 0-1-2 plus the pendant edge 2-3; split the triangle only.
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    bic = balanced_bicolouring(g, None, [2, 0, 1])
    assert bic.side[3] == -1
    assert bic.bad_vertices == (0,)
    assert sorted(bic.side[:3]) == [BLUE, RED, RED]


@pytest.mark.parametrize("edges", [[-1], [0, 4]])
def test_subset_split_rejects_out_of_range_edges(edges):
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(InputError, match="edge indices"):
        balanced_bicolouring(g, None, edges)


def test_subset_split_rejects_repeated_edges():
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(InputError, match="edge id 0 is listed twice"):
        balanced_bicolouring(g, None, [0, 1, 0])


def _odd_vertices(v, d):
    return v % 2 == 1


def _high_degree(v, d):
    return d >= 4  # the degree among the split edges, not the graph's


def _split_outcome(graph, admissible, edges=None):
    try:
        return balanced_bicolouring(graph, admissible, edges)
    except SelectorExhaustedError as exc:
        return str(exc)


@given(
    st.one_of(strategies.graphs(max_vertices=9, max_edges=20), strategies.disjoint_unions()),
    st.sampled_from([None, _odd_vertices, _high_degree]),
    st.data(),
)
@settings(max_examples=200)
def test_subset_split_is_the_split_of_the_edge_subgraph(g, admissible, data):
    m = g.edge_count
    subset = data.draw(strategies.edge_subsets(g))
    edges = data.draw(st.permutations(sorted(subset)))  # the order must not matter
    sub, emap = edge_subgraph(g, subset)
    alone = _split_outcome(sub, admissible)
    whole = _split_outcome(g, admissible, edges)
    if isinstance(alone, str):
        assert whole == alone
        return
    side = [-1] * m
    for j, s in enumerate(alone.side):
        side[emap[j]] = s
    assert whole == Bicolouring(tuple(side), alone.bad_vertices)


@given(
    st.one_of(strategies.graphs(max_vertices=9, max_edges=20), strategies.disjoint_unions()),
    st.sampled_from([None, _odd_vertices, _high_degree]),
    st.data(),
)
@settings(max_examples=100)
def test_subset_split_ignores_the_order_and_type_of_edges(g, admissible, data):
    subset = sorted(data.draw(strategies.edge_subsets(g)))
    shuffled = data.draw(st.permutations(subset))
    expected = _split_outcome(g, admissible, subset)
    assert _split_outcome(g, admissible, tuple(shuffled)) == expected
    assert _split_outcome(g, admissible, (e for e in shuffled)) == expected
