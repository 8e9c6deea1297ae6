import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from kmajority import (
    BuildError,
    EdgeColouring,
    InputError,
    PreconditionError,
    build_graph,
    check_majority,
    general_lower_bound,
    is_bipartite,
)
from kmajority.graph import components, edge_subgraph, hierholzer_circuit
from kmajority.graphio import format_graph, parse_graph
from kmajority.reductions import raise_to_sk, split_high_degree
from oracles import (
    bipartite_check,
    colour_counts,
    eulerian_circuit,
    hierholzer_reference,
    neighbour_pairs,
    walk_vertices,
)


def test_cycle_construction():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.degrees() == (2, 2, 2, 2)
    assert g.edge_count == 4
    # incidence lists carry edge ids in increasing order; xor gives the far end
    assert g.incident[0] == (0, 3)
    assert [g.xor_ends[e] ^ 0 for e in g.incident[0]] == [1, 3]


def test_forbidden_inputs():
    with pytest.raises(BuildError, match="self-loop"):
        build_graph(2, [(0, 0)])
    with pytest.raises(BuildError, match="duplicate"):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(BuildError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(BuildError, match="outside"):
        build_graph(3, [(0, 3)])


def test_negative_vertex_count_is_refused():
    with pytest.raises(BuildError, match="vertex count must be nonnegative, got -1"):
        build_graph(-1, [])


def test_components():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert components(c4) == ((0, 1, 2, 3),)
    two = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert components(two) == ((0, 1, 2), (3, 4, 5))
    assert components(build_graph(3, [])) == ((0,), (1,), (2,))


def test_degree_sequence_is_computed_once():
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert g.degrees() is g.degrees()
    assert g.degrees() == (2, 2, 3, 1)
    assert (g.min_degree(), g.max_degree()) == (1, 3)


def test_bipartite_sides():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_bipartite(c4)
    check = bipartite_check(c4)
    assert check.bipartite
    assert check.sides[0] == check.sides[2] != check.sides[1] == check.sides[3]


def test_odd_cycle_witness():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert not is_bipartite(triangle)
    check = bipartite_check(triangle)
    assert not check.bipartite
    assert len(check.odd_cycle) == 3
    assert sorted(check.odd_cycle) == [0, 1, 2]


def test_pendant_keeps_bipartite():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])
    assert is_bipartite(g)
    check = bipartite_check(g)
    assert check.bipartite
    assert check.sides[4] != check.sides[2]


def _assert_closed_trail(graph, circuit):
    assert sorted(circuit) == list(range(graph.edge_count))
    walk_vertices(graph, circuit)


def test_euler_triangle():
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    circuit = eulerian_circuit(triangle)
    assert len(circuit) == 3
    _assert_closed_trail(triangle, circuit)


def test_euler_bowtie():
    bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    circuit = eulerian_circuit(bowtie)
    assert len(circuit) == 6
    _assert_closed_trail(bowtie, circuit)


def test_euler_rejects_odd_degree_and_disconnected():
    with pytest.raises(PreconditionError, match="odd-degree"):
        eulerian_circuit(build_graph(3, [(0, 1), (1, 2)]))
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(PreconditionError, match="connected"):
        eulerian_circuit(two_triangles)


def test_majority_pass_on_alternating_cycle():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    alternating = EdgeColouring((1, 2, 1, 2), 2)
    verdict = check_majority(c4, alternating, 2)
    assert verdict.passed and verdict.witness is None
    assert colour_counts(c4, alternating) == [[1, 1]] * 4


def test_majority_star_always_fails():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    verdict = check_majority(star, EdgeColouring((1, 2, 3), 3), 2)
    assert not verdict.passed
    v, colour, count, cap = verdict.witness
    assert cap == 0 and star.degree(v) == 1


def test_majority_witness_is_lexicographic():
    g = general_lower_bound(2)
    colours = [10] * g.edge_count
    first, second = g.incident[0][:2]
    colours[first] = colours[second] = 1
    verdict = check_majority(g, EdgeColouring(tuple(colours), 10), 2)
    assert verdict.witness == (0, 1, 2, 1)


def test_majority_input_errors():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # The message names the first edge whose colour is out of range.
    cases = [
        ((1, 2, 1, 9), "edge 3 has colour 9"),
        ((1, 0, 2, 1), "edge 1 has colour 0"),
        ((3, 1, 4, 0), "edge 2 has colour 4"),
    ]
    for colours, first in cases:
        with pytest.raises(InputError, match=f"^{first} outside 1..3$"):
            check_majority(c4, EdgeColouring(colours, 3), 2)
    with pytest.raises(InputError):
        check_majority(c4, EdgeColouring((1, 2, 1), 3), 2)
    with pytest.raises(InputError):
        check_majority(c4, EdgeColouring((1, 2, 1, 2), 2), 1)


def test_majority_check_refuses_zero_colours():
    with pytest.raises(InputError, match="colour count must be positive"):
        check_majority(build_graph(3, []), EdgeColouring((), 0), 2)


def assert_incidence_layout(g):
    """``incident`` and ``xor_ends`` agree with ``edges`` and hold only ints."""
    assert type(g.incident) is tuple and len(g.incident) == g.vertex_count
    assert type(g.xor_ends) is tuple and len(g.xor_ends) == g.edge_count
    # No container per edge or edge end: one tuple of ints per vertex.
    assert all(type(ids) is tuple for ids in g.incident)
    assert all(type(e) is int for ids in g.incident for e in ids)
    assert all(type(x) is int for x in g.xor_ends)
    at: list[list[int]] = [[] for _ in range(g.edge_count)]
    for v, ids in enumerate(g.incident):
        assert all(a < b for a, b in zip(ids, ids[1:])), f"incident[{v}] is not increasing"
        for e in ids:
            at[e].append(v)
            assert g.edges[e] in ((v, g.xor_ends[e] ^ v), (g.xor_ends[e] ^ v, v))
    assert all(sorted(at[e]) == sorted(g.edges[e]) for e in range(g.edge_count))
    assert g.degrees() == tuple(map(len, g.incident))


@given(strategies.graphs(), st.data())
def test_adjacency_consistency(g, data):
    # Every builder of a graph lays out its incidence the same way.
    sub, _ = edge_subgraph(g, data.draw(strategies.edge_subsets(g)))
    for h in (g, build_graph(g.vertex_count, g.edges), parse_graph(format_graph(g)), sub):
        assert_incidence_layout(h)


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=10)
@given(data=st.data())
def test_incidence_of_split_and_lifted_graphs(k, data):
    g = data.draw(strategies.hub_unions(k))
    split = split_high_degree(g, k)
    lifted, _ = raise_to_sk(split, k)
    sub, _ = edge_subgraph(lifted, data.draw(strategies.edge_subsets(lifted)))
    for h in (g, parse_graph(format_graph(g)), split, lifted, sub):
        assert_incidence_layout(h)


@given(strategies.graphs())
def test_components_partition(g):
    blocks = components(g)
    seen = [v for block in blocks for v in block]
    assert sorted(seen) == list(range(g.vertex_count))
    assert all(block == tuple(sorted(block)) for block in blocks)


def _eulerian_components(g, subset):
    """Adjacency of the ``subset`` edges' components made Eulerian.

    Each component with an edge gets its own auxiliary vertex joined to its
    odd vertices.  Returns the ``(neighbour, edge id)`` adjacency, the used
    array (the edges outside ``subset`` start out used) and, per component,
    its vertices with edges.
    """
    degree = [0] * g.vertex_count
    for e in subset:
        for v in g.edges[e]:
            degree[v] += 1
    adjacency = neighbour_pairs(g)
    used = [e not in subset for e in range(g.edge_count)]
    blocks = []
    for comp in components(edge_subgraph(g, subset)[0]):
        if not any(degree[v] for v in comp):
            continue
        blocks.append([v for v in comp if degree[v]])
        odd = [v for v in comp if degree[v] % 2]
        if odd:
            aux = len(adjacency)
            adjacency.append([])
            for v in odd:
                adjacency[aux].append((v, len(used)))
                adjacency[v].append((aux, len(used)))
                used.append(False)
    return adjacency, used, blocks


@given(st.one_of(strategies.graphs(max_vertices=9, max_edges=20), strategies.disjoint_unions()),
       st.data())
@settings(max_examples=150)
def test_greedy_trail_walk_matches_reference(g, data):
    # Every component is walked from a drawn start, in order of least vertex,
    # with one cursor (or pointer) list and one used array shared by all.
    # The walk gets edge-id cursors and far ends read off the reference's pairs.
    subset = data.draw(strategies.edge_subsets(g))
    adjacency, used, blocks = _eulerian_components(g, subset)
    starts = [data.draw(st.sampled_from(block)) for block in blocks]
    xor_ends = [0] * len(used)
    for v, pairs in enumerate(adjacency):
        for u, e in pairs:
            xor_ends[e] = u ^ v
    cursors, used_now = [iter([e for _, e in pairs]) for pairs in adjacency], list(used)
    pointer, used_before = [0] * len(adjacency), list(used)
    for start in starts:
        assert hierholzer_circuit(start, cursors, xor_ends, used_now) == hierholzer_reference(
            adjacency, start, pointer, used_before
        )
    assert all(used_now) and used_now == used_before


@given(strategies.graphs(min_vertices=2))
def test_bipartite_witness_is_odd_closed_walk(g):
    check = bipartite_check(g)
    if check.bipartite:
        for u, v in g.edges:
            assert check.sides[u] != check.sides[v]
    else:
        cyc = check.odd_cycle
        assert len(cyc) % 2 == 1
        walk_vertices(g, cyc)  # consecutive edges share endpoints and the walk closes up


@given(st.one_of(strategies.graphs(), strategies.disjoint_unions()))
def test_is_bipartite_agrees_with_reference(g):
    assert is_bipartite(g) == bipartite_check(g).bipartite


@given(
    strategies.graphs(min_vertices=2, min_edges=1)
    | strategies.regular_unions([(4, 3), (5, 4), (6, 3), (6, 4), (7, 4), (8, 5)], max_parts=2),
    st.integers(2, 3),
    st.data(),
)
def test_majority_verdict_matches_direct_counts(g, k, data):
    # A colour count past n + 2m is tallied in a Counter of the keys that
    # occur, a smaller one in a list; both must give the direct counts.
    # Most small random graphs have a vertex of degree below k, which no
    # colouring passes; regular unions of degree 3 or more can pass.
    colours, c = data.draw(strategies.colourings(g, max_colours=k + 2))
    for colour_count in (c, c + 2 * (g.vertex_count + g.edge_count)):
        colouring = EdgeColouring(colours, colour_count)
        over = [
            (v, i + 1, row[i], g.degree(v) // k)
            for v, row in enumerate(colour_counts(g, colouring))
            for i in range(colour_count)
            if row[i] > g.degree(v) // k
        ]
        verdict = check_majority(g, colouring, k)
        assert verdict.witness == (over[0] if over else None)
        assert verdict.passed == (not over)


def test_empty_graph_passes_the_majority_check():
    verdict = check_majority(build_graph(0, []), EdgeColouring((), 3), 2)
    assert verdict.passed and verdict.witness is None


def test_edge_subgraph_keeps_vertices_and_maps_edges():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    sub, emap = edge_subgraph(g, [5, 1, 3])
    assert sub.vertex_count == 5
    assert emap == (1, 3, 5)
    assert [sub.edges[j] for j in range(3)] == [g.edges[e] for e in emap]
    # A repeated index is kept once, not rejected as in a split or rounding.
    assert edge_subgraph(g, [5, 1, 1, 3]) == (sub, emap)


@pytest.mark.parametrize("indices", [[-1], [0, 6]])
def test_edge_subgraph_rejects_out_of_range_indices(indices):
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    with pytest.raises(InputError, match="edge indices"):
        edge_subgraph(g, indices)
