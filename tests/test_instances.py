import hashlib
import tracemalloc
from collections import Counter
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
import strategies
from kmajority import (
    EdgeColouring,
    InputError,
    bipartite_lower_bound,
    build_graph,
    check_majority,
    exhaustive_search,
    general_lower_bound,
    is_bipartite,
    random_min_degree_graph,
)


# --------------------------------------------------------------------------
# lower-bound constructions
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k, vertices, edges, delta",
    [(2, 4, 3, 1), (3, 12, 35, 5), (4, 24, 143, 11)],
)
def test_bipartite_lower_bound_shape(k, vertices, edges, delta):
    g = bipartite_lower_bound(k)
    assert g.vertex_count == vertices
    assert g.edge_count == edges
    assert g.min_degree() == delta == k * k - k - 1
    assert is_bipartite(g)
    a = k * k - k
    histogram = Counter(g.degrees())
    assert histogram == Counter({a: 2 * a - 2, a - 1: 2})


@pytest.mark.parametrize("k", [2, 3, 4])
def test_general_lower_bound_degree_profile(k):
    g = general_lower_bound(k)
    histogram = Counter(g.degrees())
    assert histogram == Counter({k * k - 1: k * k + 1, k * k + 1: 1})
    assert g.vertex_count == k * k + 2
    # the colour-class degree-sum parity obstruction
    assert ((k * k + 1) * (k - 1) + k) % 2 == 1


def test_general_lower_bound_k2_exactly():
    g = general_lower_bound(2)
    assert g.vertex_count == 6 and g.edge_count == 10
    assert sorted(g.degrees()) == [3, 3, 3, 3, 3, 5]


# --------------------------------------------------------------------------
# random generator
# --------------------------------------------------------------------------


def test_generator_contract():
    g = random_min_degree_graph(10, 4, seed=3)
    assert g.vertex_count == 10 and g.min_degree() >= 4


def test_generator_bipartite_contract():
    g = random_min_degree_graph(24, 6, bipartite=True, seed=3)
    assert g.min_degree() >= 6
    assert is_bipartite(g)
    assert all((u < 12) != (v < 12) for u, v in g.edges)  # every edge crosses the halves


def test_generator_deterministic_replay():
    a = random_min_degree_graph(15, 5, seed=9, extra_edges=4)
    b = random_min_degree_graph(15, 5, seed=9, extra_edges=4)
    assert a.edges == b.edges


#: n from 4 to 40 with every delta from 0 to n - 1 (0 to n/2 per side for
#: bipartite graphs), so both the sparse pairings and their complements run.
GENERAL_SIZES = (4, 5, 6, 7, 9, 12, 17, 25, 40)
BIPARTITE_SIZES = (4, 6, 8, 12, 16, 24, 40)


@pytest.mark.parametrize("bipartite", [False, True], ids=["general", "bipartite"])
def test_generator_matches_the_reference_samplers(bipartite):
    # The samplers skip the pairing of rounds that cannot add an edge but
    # draw the same random numbers, so every graph equals the reference's,
    # which pairs in all 50 rounds and re-validates through build_graph.
    compared = 0
    for n in BIPARTITE_SIZES if bipartite else GENERAL_SIZES:
        slots = (n // 2) ** 2 if bipartite else n * (n - 1) // 2
        for delta in range(n // 2 + 1 if bipartite else n):
            for seed in range(5):
                base = oracles.random_min_degree_graph_reference(n, delta, bipartite, seed)
                assert random_min_degree_graph(n, delta, bipartite, seed) == base
                extra = 1 + seed % 3
                if extra > slots - base.edge_count:
                    continue  # an InputError now; see the tests below
                want = oracles.random_min_degree_graph_reference(
                    n, delta, bipartite, seed, extra
                )
                assert want.edge_count == base.edge_count + extra  # no draw came up short
                assert random_min_degree_graph(n, delta, bipartite, seed, extra) == want
                compared += 1
    assert compared > 250


@pytest.mark.parametrize(
    "n, delta, bipartite, extra, room",
    [(14, 13, False, 1, 0), (12, 5, True, 11, 6), (12, 5, True, 7, 6)],
)
def test_generator_refuses_more_extra_edges_than_non_edges(n, delta, bipartite, extra, room):
    # The reference returns K14 with 91 edges and a 36-edge bipartite graph.
    with pytest.raises(InputError, match=f"only {room} non-edges exist"):
        random_min_degree_graph(n, delta, bipartite=bipartite, seed=0, extra_edges=extra)
    full = random_min_degree_graph(n, delta, bipartite=bipartite, seed=0, extra_edges=room)
    assert full.edge_count == ((n // 2) ** 2 if bipartite else n * (n - 1) // 2)


@pytest.mark.parametrize(
    "n, delta, bipartite, seed, extra, short",
    [(14, 12, False, 356, 7, 91), (40, 19, True, 1, 20, 400)],
)
def test_generator_places_an_extra_edge_after_500_missed_draws(
    n, delta, bipartite, seed, extra, short
):
    # Both calls ask for every non-edge, so they make K14 and K_{20,20}.  All
    # 500 draws for the last extra edge hit edges, so the reference returns
    # one edge short; the generator then takes the one non-edge left.
    want = oracles.random_min_degree_graph_reference(n, delta, bipartite, seed, extra)
    g = random_min_degree_graph(n, delta, bipartite, seed, extra)
    assert (want.edge_count, g.edge_count) == (short - 1, short)
    assert set(want.edges) < set(g.edges)


def test_generator_parameter_validation():
    with pytest.raises(InputError):
        random_min_degree_graph(4, 4)
    with pytest.raises(InputError):
        random_min_degree_graph(9, 2, bipartite=True)
    with pytest.raises(InputError):
        random_min_degree_graph(6, 4, bipartite=True)


# --------------------------------------------------------------------------
# exhaustive oracle
# --------------------------------------------------------------------------


def test_oracle_rejects_leaf_graphs_immediately():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    outcome = exhaustive_search(p3, 2, 3)
    assert not outcome.found and not outcome.limit_hit
    assert outcome.node_count == 0  # pigeonhole pre-filter


def test_oracle_settles_a_low_degree_vertex_beside_an_isolated_one():
    # K7, a pendant edge at vertex 0 and an isolated vertex: delta = 0 passes
    # the pigeonhole check, but the pendant vertex has cap 0 at k=2.
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)] + [(0, 7)]
    outcome = exhaustive_search(build_graph(9, pairs), 2, 3, node_limit=2_000_000)
    assert not outcome.found and not outcome.limit_hit
    assert outcome.node_count == 0


def test_oracle_finds_cycle_colouring():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    outcome = exhaustive_search(c4, 2, 3)
    assert outcome.found
    assert check_majority(c4, outcome.colouring, 2).passed


def test_oracle_certifies_general_lower_bound():
    outcome = exhaustive_search(general_lower_bound(2), 2, 3)
    assert not outcome.found and not outcome.limit_hit
    assert 0 < outcome.node_count < 3**10


def test_oracle_limit_hit_is_flagged():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    outcome = exhaustive_search(c4, 2, 3, node_limit=1)
    assert not outcome.found and outcome.limit_hit
    assert outcome.node_count == 1


def test_oracle_empty_graph_trivially_colourable():
    g = build_graph(3, [])
    outcome = exhaustive_search(g, 2, 1)
    assert outcome.found and outcome.colouring.colours == ()


def test_oracle_colour_count_past_the_edge_count_allocates_nothing_more():
    # One counter per vertex and colour would take about 64 MB here, and the
    # colouring's check another 128 MB.
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    tracemalloc.start()
    try:
        outcome = exhaustive_search(c4, 2, 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert outcome.colouring.colour_count == 2_000_000
    assert outcome.colouring.colours == exhaustive_search(c4, 2, 4).colouring.colours
    assert (outcome.node_count, outcome.limit_hit) == (4, False)


def test_oracle_outcomes_on_sweep_sized_graphs_are_pinned():
    # The sweep's oracle calls: 14-vertex graphs just below the threshold,
    # with k+1 colours, plus the k=2 certificate and a k=3 limit hit.  The
    # digest covers every colouring, node count and limit flag.
    calls = [
        (random_min_degree_graph(14, delta, seed=s), k, k + 1, 10**8)
        for k, delta in ((2, 3), (3, 8))
        for s in range(20)
    ]
    calls += [(general_lower_bound(2), 2, 3, 10**8), (general_lower_bound(3), 3, 4, 20_000)]
    outcomes = []
    for graph, k, colour_count, node_limit in calls:
        outcome = exhaustive_search(graph, k, colour_count, node_limit=node_limit)
        colours = outcome.colouring.colours if outcome.found else None
        outcomes.append((colours, outcome.node_count, outcome.limit_hit))
    assert outcomes[-1][1:] == (20_000, True)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "2874b8faeeb6c4f9899b813d376a01bb96f4dd4a1ba6f097de15b5b6ac9e7823"


@given(strategies.graphs(max_vertices=6, max_edges=7), st.sampled_from([2, 3]), st.data())
@settings(max_examples=80, deadline=None)
def test_oracle_matches_the_search_over_every_colour(g, k, data):
    # The oracle searches min(c, m) colours; past m it must agree with the
    # plain loop over all c, node for node, unless some vertex has a degree
    # in 1..k-1, where no colouring exists at all.
    m = g.edge_count
    colour_count = data.draw(st.integers(1, m + 3))
    outcome = exhaustive_search(g, k, colour_count, node_limit=20_000)
    colours, nodes, limit_hit = oracles.exhaustive_search_reference(g, k, colour_count, 20_000)
    if any(0 < d < k for d in g.degrees()):
        assert not outcome.found and colours is None
        return
    assert outcome.node_count == nodes and outcome.limit_hit == limit_hit
    assert (outcome.colouring.colours if outcome.found else None) == colours


@given(strategies.graphs(min_vertices=2, max_vertices=6, max_edges=8))
@settings(max_examples=60)
def test_oracle_matches_naive_enumeration(g):
    for colour_count in (1, 2, 3):
        outcome = exhaustive_search(g, 2, colour_count)
        naive = any(
            check_majority(g, EdgeColouring(bits, colour_count), 2).passed
            for bits in product(range(1, colour_count + 1), repeat=g.edge_count)
        )
        assert not outcome.limit_hit
        assert outcome.found == naive
        if outcome.found:
            assert check_majority(g, outcome.colouring, 2).passed
