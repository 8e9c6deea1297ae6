import inspect
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import strategies
from kmajority import (
    BLUE,
    RED,
    Bicolouring,
    InputError,
    SelectorExhaustedError,
    balanced_bicolouring,
    build_graph,
    eulersplit,
)
import kmajority.graph as graph_module
from kmajority.graph import components, edge_subgraph
from oracles import assert_balanced, euler_split_reference, side_counts, split_each_class


def test_even_cycle_splits_exactly():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bic = balanced_bicolouring(c4)
    assert bic.bad_vertices == ()
    assert side_counts(c4, bic) == [[1, 1]] * 4


def test_triangle_needs_one_bad_vertex():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    bic = balanced_bicolouring(triangle)
    assert bic.bad_vertices == ((0, 0),)  # class 0, vertex 0
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
    bic = balanced_bicolouring(triangle, lambda c, v, d: v == 2)
    assert bic.bad_vertices == ((0, 2),)
    assert side_counts(triangle, bic)[2] == [0, 2]
    # The least admissible vertex, not the first one a search from 0 reaches.
    c5 = build_graph(5, [(0, 4), (4, 1), (1, 3), (3, 2), (2, 0)])
    assert balanced_bicolouring(c5, lambda c, v, d: v in (1, 4)).bad_vertices == ((0, 1),)
    # The rule learns the class: two triangles, each its own class.
    two = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    bic = balanced_bicolouring(two, lambda c, v, d: (c, v) in ((7, 1), (4, 5)), [7, 7, 7, 4, 4, 4])
    assert bic.bad_vertices == ((4, 5), (7, 1))


def test_selector_exhaustion_raises():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(SelectorExhaustedError, match="class-0 component of 0"):
        balanced_bicolouring(triangle, lambda c, v, d: False)
    # Two triangles of class 5, the one on 3, 4, 5 listed first, and an
    # unsplit edge: the component of the least vertex is searched first.
    two = build_graph(7, [(3, 4), (4, 5), (5, 3), (1, 2), (2, 0), (0, 1), (5, 6)])
    with pytest.raises(SelectorExhaustedError, match="class-5 component of 0"):
        balanced_bicolouring(two, lambda c, v, d: False, [5] * 6 + [-1])


def test_selector_not_consulted_when_unnecessary():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bic = balanced_bicolouring(c4, lambda c, v, d: False)
    assert bic.bad_vertices == ()


def test_components_handled_independently():
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    bic = balanced_bicolouring(g)
    assert bic.bad_vertices == ((0, 0),)  # only the triangle forces one
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
        chosen = [(c, v) for c, v in bic.bad_vertices if v in comp]
        assert chosen == ([(0, chosen[0][1])] if comp_edges and forced else [])


@given(strategies.graphs(min_vertices=2, max_vertices=8))
def test_split_is_deterministic(g):
    assert balanced_bicolouring(g) == balanced_bicolouring(g)


@given(strategies.disjoint_unions())
@settings(max_examples=150)
def test_union_split_keeps_the_components_bad_vertices_and_even_splits(g):
    # One circuit walks every component that has an odd vertex, so a union's
    # split is not its components' splits; but a component whose degrees are
    # all even is walked on its own, and only such components have a bad vertex.
    bic = balanced_bicolouring(g)
    assert_balanced(g, bic)
    bad = []
    for comp in components(g):
        rank = {v: i for i, v in enumerate(comp)}
        comp_edges = sorted({e for v in comp for e in g.incident[v]})
        relabelled = [(rank[g.edges[e][0]], rank[g.edges[e][1]]) for e in comp_edges]
        alone = balanced_bicolouring(build_graph(len(comp), relabelled))
        if all(g.degree(v) % 2 == 0 for v in comp):
            assert [bic.side[e] for e in comp_edges] == list(alone.side)
        bad.extend((c, comp[i]) for c, i in alone.bad_vertices)
    assert bic.bad_vertices == tuple(sorted(bad))


def test_a_split_runs_no_component_search(monkeypatch):
    # Each call the split module makes into graph.py is counted, whatever the
    # name it imported, and components is counted where it is defined too.
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)

        return wrapper

    for name, value in vars(eulersplit).items():
        if inspect.isfunction(value) and value.__module__ == graph_module.__name__:
            monkeypatch.setattr(eulersplit, name, counted(name, value))
    monkeypatch.setattr(graph_module, "components", counted("components", components))
    # A triangle, a path, a 4-cycle and an isolated vertex.
    g = build_graph(11, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9), (9, 6)])
    balanced_bicolouring(g)
    balanced_bicolouring(g, None, [0, 0, 1, 1, 0, 1, 1, 0, -1])
    assert set(calls) == {"hierholzer_circuit"}


def test_subset_split_marks_other_edges():
    # Triangle 0-1-2 plus the pendant edge 2-3; split the triangle only.
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    bic = balanced_bicolouring(g, None, [0, 0, 0, -1])
    assert bic.side[3] == -1
    assert bic.bad_vertices == ((0, 0),)
    assert sorted(bic.side[:3]) == [BLUE, RED, RED]


# Labels for 3 and for 6 edges of a graph of 4 edges.
@pytest.mark.parametrize("edges", [[0, 0, 0], [0, 0, 0, 0, 0, 0]])
def test_subset_split_rejects_out_of_range_edges(edges):
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(InputError, match=f"{len(edges)} labels for 4 edges"):
        balanced_bicolouring(g, None, edges)


def test_subset_split_rejects_repeated_edges():
    # An edge listed twice would need a fifth label: a label list longer by one.
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(InputError, match="5 labels for 4 edges"):
        balanced_bicolouring(g, None, [0, 1, 0, 1, 0])


def _odd_vertices(c, v, d):
    return v % 2 == 1


def _high_degree(c, v, d):
    return d >= 4  # the degree in the class, not the graph's


def _class_parity(c, v, d):
    return (c + v) % 2 == 0


def _split_outcome(split, graph, admissible, labels=None):
    try:
        return split(graph, admissible, labels)
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
    labels = [0 if e in subset else -1 for e in range(m)]
    sub, emap = edge_subgraph(g, subset)
    alone = _split_outcome(balanced_bicolouring, sub, admissible)
    whole = _split_outcome(balanced_bicolouring, g, admissible, labels)
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
    # Renaming the classes, in or out of their order, renames the bad
    # vertices' classes and nothing else; a tuple of labels splits as a list.
    labels = data.draw(strategies.split_labels(g))
    names = sorted(set(labels) - {-1})
    renamed = dict(zip(names, data.draw(st.permutations(range(200, 200 + len(names))))))
    expected = _split_outcome(balanced_bicolouring, g, admissible, labels)
    relabelled = [renamed.get(c, -1) for c in labels]
    outcome = _split_outcome(balanced_bicolouring, g, admissible, tuple(relabelled))
    if isinstance(expected, str):
        assert isinstance(outcome, str)
        return
    bad = tuple(sorted((renamed[c], v) for c, v in expected.bad_vertices))
    assert outcome == Bicolouring(expected.side, bad)


@given(
    st.one_of(strategies.graphs(max_vertices=9, max_edges=20), strategies.disjoint_unions()),
    st.sampled_from([None, _odd_vertices, _high_degree, _class_parity]),
    st.data(),
)
@settings(max_examples=200)
def test_labelled_split_is_the_split_of_each_class(g, admissible, data):
    labels = data.draw(strategies.split_labels(g))
    expected = _split_outcome(split_each_class, g, admissible, labels)
    assert _split_outcome(balanced_bicolouring, g, admissible, labels) == expected


@st.composite
def _labelled_graphs(draw):
    g = draw(st.one_of(strategies.graphs(max_vertices=9, max_edges=20), strategies.disjoint_unions()))
    return g, draw(st.one_of(st.none(), strategies.split_labels(g)))


# One class: a triangle on 0, 1, 2, whose degrees are all even and whose
# least vertex is not admissible under _odd_vertices, so its walk from 0 is
# walked again from 1, and two paths, whose four odd ends share the
# auxiliary vertex's circuit.
_REWALK = (build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]), [3] * 5)


@given(_labelled_graphs(), st.sampled_from([None, _odd_vertices, _high_degree, _class_parity]))
@example(_REWALK, _odd_vertices)
@settings(max_examples=300)
def test_split_is_the_reference_split(graph_and_labels, admissible):
    g, labels = graph_and_labels
    expected = _split_outcome(euler_split_reference, g, admissible, labels)
    assert _split_outcome(balanced_bicolouring, g, admissible, labels) == expected


def test_a_path_of_one_class_per_edge_splits_in_linear_time():
    # 199,999 classes on 200,000 vertices: a table of classes by vertices
    # would hold 4e10 entries, and a per-class O(n) set-up would take hours.
    # The split walks 199,999 one-edge classes, each in one circuit from the
    # auxiliary vertex, a few microseconds each (about 0.8 s on a shared
    # 2-core x86-64 host, Python 3.11); the bound leaves room for a slow
    # spell of such a host.
    n = 200_000
    path = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    started = time.perf_counter()
    bic = balanced_bicolouring(path, None, range(n - 1))
    elapsed = time.perf_counter() - started
    # Each one-edge class is walked from the auxiliary vertex, whose first
    # edge takes red, so the class's edge takes blue.
    assert bic.side == (BLUE,) * (n - 1)
    assert bic.bad_vertices == ()
    assert elapsed < 5.0, f"{elapsed:.2f} s"
