import pytest
from hypothesis import given, settings

import strategies
from kmajority import (
    BLUE,
    RED,
    SelectorExhaustedError,
    balanced_bicolouring,
    build_graph,
    components,
)
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
    bic = balanced_bicolouring(triangle, lambda comp: 2)
    assert bic.bad_vertices == (2,)
    assert side_counts(triangle, bic)[2] == [0, 2]


def test_selector_exhaustion_raises():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(SelectorExhaustedError):
        balanced_bicolouring(triangle, lambda comp: None)


def test_selector_not_consulted_when_unnecessary():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bic = balanced_bicolouring(c4, lambda comp: None)
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
        comp_edges = {e for v in comp for _, e in g.adjacency[v]}
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
        comp_edges = sorted({e for v in comp for _, e in g.adjacency[v]})
        relabelled = [(rank[g.edges[e][0]], rank[g.edges[e][1]]) for e in comp_edges]
        alone = balanced_bicolouring(build_graph(len(comp), relabelled))
        assert [bic.side[e] for e in comp_edges] == list(alone.side)
        bad.extend(comp[i] for i in alone.bad_vertices)
    assert bic.bad_vertices == tuple(sorted(bad))
