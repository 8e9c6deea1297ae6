import hashlib
import random
from fractions import Fraction
from itertools import product
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
import strategies
from kmajority import (
    InputError,
    InternalInvariantError,
    build_graph,
    colour_general_2k2,
    is_bipartite,
    random_min_degree_graph,
    round_weights,
    rounding,
)
from kmajority.graph import edge_subgraph
from kmajority.rounding import _certify_int, _int_sums, _Kernel
from oracles import (
    enforce_condition_ii,
    find_kernel_direction,
    pendant_direction,
    vertex_sums,
    walk_vertices,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


# --------------------------------------------------------------------------
# round_weights examples
# --------------------------------------------------------------------------


def test_integral_weights_pass_through():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    z = [1, 0, 1, 0, 1]
    result = round_weights(g, z)
    assert result.x == (1, 0, 1, 0, 1)
    assert result.exceptional == ()


def test_single_edge_two_fifths_rounds_up():
    # x = 0 would leave both endpoint sums deficient, violating (ii)
    result = round_weights(build_graph(2, [(0, 1)]), [Fraction(2, 5)])
    assert result.x == (1,)
    assert result.exceptional == ()


def test_half_triangle_matches_enumeration():
    g = triangle()
    z = [HALF] * 3
    valid = {
        bits
        for bits in product((0, 1), repeat=3)
        if oracles.check_conditions(g, z, [Fraction(b) for b in bits])
    }
    # exactly the three rotations: both edges at one vertex set to 1
    assert valid == {(1, 0, 1), (1, 1, 0), (0, 1, 1)}
    result = round_weights(g, z)
    assert result.x in valid
    (v, cycle), = result.exceptional
    assert sorted(cycle) == [0, 1, 2]
    assert result.x == (1, 0, 1) and v == 0  # designated vertex carries both 1s


def test_half_square_is_a_perfect_matching():
    g = c4()
    z = [HALF] * 4
    valid = {
        bits
        for bits in product((0, 1), repeat=4)
        if oracles.check_conditions(g, z, [Fraction(b) for b in bits])
    }
    assert valid == {(1, 0, 1, 0), (0, 1, 0, 1)}
    result = round_weights(g, z)
    assert result.x in valid
    assert result.exceptional == ()


def test_round_weights_combines_disjoint_odd_cycles():
    # two vertex-disjoint triangles joined by a bridge: the only kernel
    # directions pair the cycles through the connecting path
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)])
    z = [THIRD] * 7
    result = round_weights(g, z)
    assert oracles.check_conditions(g, z, [Fraction(b) for b in result.x])


def test_round_weights_through_lollipop_component():
    # pendant edge on an odd cycle: saturation must use the lollipop direction
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    z = [Fraction(2, 5)] * 4
    result = round_weights(g, z)
    assert oracles.check_conditions(g, z, [Fraction(b) for b in result.x])


def test_dumbbell_step_doubles_the_scale():
    # Two triangles at weight 1/3 joined by a bridge at 1/2, so L = 6.  The
    # only move is the dumbbell with the bridge at +-2; the bridge sits 3/6
    # from both bounds, so the step is half a unit of 1/6 and D must double.
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)])
    z = [THIRD] * 3 + [HALF] + [THIRD] * 3
    kernel = _Kernel(g, 6, [2, 2, 2, 3, 2, 2, 2], range(7))
    kernel.run()
    assert kernel.top == 1
    result = round_weights(g, z)
    bulk = oracles.AssignmentOracle(g).bulk(6, [z])
    assert bulk.is_valid(0, result.x)


def test_weight_validation():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(InputError):
        round_weights(g, [Fraction(3, 2)])
    with pytest.raises(InputError):
        round_weights(g, [0.5])
    with pytest.raises(InputError):
        round_weights(g, [])
    for weight in ("x", object()):
        with pytest.raises(InputError, match="not rational"):
            round_weights(g, [weight])


# --------------------------------------------------------------------------
# kernel and pendant directions
# --------------------------------------------------------------------------


def direction_sums(graph, direction):
    sums = {}
    for e, coeff in direction.items():
        u, v = graph.edges[e]
        sums[u] = sums.get(u, 0) + coeff
        sums[v] = sums.get(v, 0) + coeff
    return sums


def test_kernel_direction_even_cycle():
    g = c4()
    direction = find_kernel_direction(g, range(4), range(4))
    assert direction is not None
    assert sorted(abs(c) for c in direction.values()) == [1, 1, 1, 1]
    assert all(s == 0 for s in direction_sums(g, direction).values())


def test_kernel_direction_two_triangles_and_bridge():
    g = build_graph(
        6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)]
    )
    direction = find_kernel_direction(g, range(7), range(6))
    assert direction is not None
    assert all(s == 0 for s in direction_sums(g, direction).values())
    assert abs(direction[3]) == 2  # the bridge edge carries the doubled step


def test_kernel_direction_shared_vertex_cycles():
    bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    direction = find_kernel_direction(bowtie, range(6), range(5))
    assert direction is not None
    assert all(s == 0 for s in direction_sums(bowtie, direction).values())


def test_trees_have_no_kernel_direction():
    tree = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert find_kernel_direction(tree, range(4), range(5)) is None
    odd = triangle()
    assert find_kernel_direction(odd, range(3), range(3)) is None


def test_pendant_direction_path():
    path = build_graph(3, [(0, 1), (1, 2)])
    direction = pendant_direction(path, range(2), range(3))
    assert direction_sums(path, direction)[1] == 0
    assert sorted(direction.values()) == [-1, 1]


def test_pendant_direction_lollipop():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])  # pendant 0, triangle 1-2-3
    direction = pendant_direction(g, range(4), range(4))
    assert abs(direction[0]) == 1
    assert sorted(abs(c) for e, c in direction.items() if e != 0) == [HALF] * 3
    sums = direction_sums(g, direction)
    assert sums[1] == sums[2] == sums[3] == 0


def test_pendant_direction_star():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    direction = pendant_direction(star, range(3), range(4))
    assert direction_sums(star, direction)[0] == 0
    assert sorted(direction.values()) == [-1, 1]


# --------------------------------------------------------------------------
# odd-cycle resolution
# --------------------------------------------------------------------------


def resolve(graph, values, cycles):
    """``_resolve_cycles`` on rational values, through numerators over their
    lcm on the cycles and 0/1 off them, with each cycle's vertices walked
    from its edge list; returns the 0/1 values and the ledger."""
    scale = lcm(*(value.denominator for value in values))
    on_cycles = {e for cycle in cycles for e in cycle}
    x = [int(value * scale) if e in on_cycles else int(value) for e, value in enumerate(values)]
    pairs = [(walk_vertices(graph, cycle), list(cycle)) for cycle in cycles]
    ledger = rounding._resolve_cycles(graph, scale, x, pairs)
    return x, ledger


@pytest.mark.parametrize("joining", [0, 1])
def test_merge_of_adjacent_bad_cycles(joining):
    g = build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    )
    x = [HALF] * 6 + [Fraction(joining)]
    before = vertex_sums(g, x)
    out, ledger = resolve(g, x, [(0, 1, 2), (3, 4, 5)])
    assert ledger == []
    assert all(value.denominator == 1 for value in out)
    assert out[6] == 1 - joining  # the joining edge flipped to absorb both cycles
    assert vertex_sums(g, out) == before


def test_isolated_bad_triangle_designates_one_vertex():
    g = triangle()
    x = [HALF] * 3
    before = vertex_sums(g, x)
    out, ledger = resolve(g, x, [(0, 1, 2)])
    (v, cycle), = ledger
    after = vertex_sums(g, out)
    assert after[v] == before[v] + 1
    assert all(after[u] == before[u] for u in range(3) if u != v)
    assert len(cycle) == 3


def test_bad_cycle_designates_its_least_vertex():
    # Handed over from vertex 2, the 5-cycle still designates vertex 0 and
    # lists its edges from there, in the direction of the lower first edge.
    g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    out, ledger = resolve(g, [HALF] * 5, [(2, 3, 4, 0, 1)])
    assert ledger == [(0, (0, 1, 2, 3, 4))]
    assert out == [1, 0, 1, 0, 1]


def test_mixed_cycle_rounds_within_open_interval():
    g = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    values = [Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4), HALF, HALF, HALF]
    before = vertex_sums(g, values)
    out, ledger = resolve(g, values, [tuple(range(7))])
    assert ledger == []
    after = vertex_sums(g, out)
    for v in range(7):
        assert abs(after[v] - before[v]) < 1
    assert all(value in (0, 1) for value in out)


def test_mixed_cycle_half_run_starts_from_its_least_edge():
    # The run of halves is edges 6, 0, 1; its least edge, 0, sits at an odd
    # index of the run, so the run reads 0, 1, 0 rather than 1, 0, 1.
    g = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    quarter = Fraction(1, 4)
    values = [HALF, HALF, quarter, 3 * quarter, quarter, 3 * quarter, HALF]
    out, ledger = resolve(g, values, [tuple(range(7))])
    assert out == [1, 0, 0, 1, 0, 1, 0]
    assert ledger == []


def test_a_cycle_edge_left_unresolved_fails_certification(monkeypatch):
    # A triangle at weight 2/3 is one terminal odd cycle, whose edges hold
    # their numerator 2 (over 3) until the cycles are resolved.
    monkeypatch.setattr(rounding, "_resolve_cycles", lambda graph, scale, x, cycles: [])
    with pytest.raises(InternalInvariantError, match="edge 0 rounded to 2"):
        round_weights(triangle(), [Fraction(2, 3)] * 3)


def test_an_even_terminal_cycle_is_a_kernel_fault():
    with pytest.raises(InternalInvariantError, match="even length"):
        resolve(c4(), [HALF] * 4, [(0, 1, 2, 3)])


# --------------------------------------------------------------------------
# condition (ii)
# --------------------------------------------------------------------------


def test_condition_ii_flips_single_edge():
    g = build_graph(2, [(0, 1)])
    out = enforce_condition_ii(g, [Fraction(2, 5)], [Fraction(0)])
    assert out == [1]


def test_condition_ii_keeps_satisfying_assignment():
    g = c4()
    x = [Fraction(1), Fraction(0), Fraction(1), Fraction(0)]
    assert enforce_condition_ii(g, [HALF] * 4, x) == x


def test_condition_ii_path_one_flip():
    g = build_graph(3, [(0, 1), (1, 2)])
    out = enforce_condition_ii(g, [THIRD, THIRD], [Fraction(0), Fraction(0)])
    assert sum(out) == 1
    # the middle vertex is no longer deficient after the flip
    assert vertex_sums(g, out)[1] >= Fraction(2, 3)


@pytest.mark.parametrize(
    "graph",
    [
        build_graph(1201, [(i, i + 1) for i in range(1200)]),
        build_graph(1201, [(0, i) for i in range(1, 1201)]),
    ],
    ids=["path", "star"],
)
def test_condition_ii_one_pass_on_path_and_star(graph):
    z = [THIRD] * graph.edge_count
    out = enforce_condition_ii(graph, z, [Fraction(0)] * graph.edge_count)
    assert sum(out) <= graph.edge_count
    sums_x, sums_z = vertex_sums(graph, out), vertex_sums(graph, z)
    for e, (u, v) in enumerate(graph.edges):
        assert out[e] == 1 or sums_x[u] >= sums_z[u] or sums_x[v] >= sums_z[v]


# --------------------------------------------------------------------------
# certified properties on random inputs
# --------------------------------------------------------------------------


@given(strategies.graphs_with_weights())
@settings(max_examples=120)
def test_rounding_conditions_hold(gw):
    graph, weights = gw
    result = round_weights(graph, weights)
    assert oracles.check_conditions(graph, weights, [Fraction(b) for b in result.x])
    # the ledger lists exactly the excess vertices
    sums_x = vertex_sums(graph, list(result.x))
    sums_z = vertex_sums(graph, weights)
    excess = {v for v in range(graph.vertex_count) if sums_x[v] == sums_z[v] + 1}
    assert {v for v, _ in result.exceptional} == excess


@given(strategies.graphs_with_weights())
@settings(max_examples=60)
def test_bipartite_rounding_is_exact(gw):
    graph, weights = gw
    if not is_bipartite(graph):
        return
    result = round_weights(graph, weights)
    assert result.exceptional == ()
    sums_x = vertex_sums(graph, list(result.x))
    sums_z = vertex_sums(graph, weights)
    for v in range(graph.vertex_count):
        if sums_z[v].denominator == 1:
            assert sums_x[v] == sums_z[v]


@given(strategies.graphs_with_weights(max_vertices=6, max_denominator=4))
@settings(max_examples=40)
def test_rounding_is_deterministic(gw):
    graph, weights = gw
    assert round_weights(graph, weights) == round_weights(graph, weights)


@given(strategies.odd_cycle_shapes())
@settings(max_examples=80)
def test_odd_cycle_shapes_certified_and_deterministic(gw):
    graph, weights = gw
    result = round_weights(graph, weights)
    x = [Fraction(b) for b in result.x]
    assert oracles.check_certificate(graph, weights, x, result.exceptional)
    assert round_weights(graph, list(weights)) == result


@given(strategies.many_odd_cycles())
@settings(max_examples=80)
def test_many_odd_cycles_certified(gw):
    graph, weights = gw
    result = round_weights(graph, weights)
    x = [Fraction(b) for b in result.x]
    assert oracles.check_certificate(graph, weights, x, result.exceptional)


@given(strategies.simple_weights())
@settings(max_examples=150)
def test_simple_weights_on_odd_cycles_are_certified(gw):
    graph, weights = gw
    result = round_weights(graph, weights)
    x = [Fraction(b) for b in result.x]
    assert oracles.check_certificate(graph, weights, x, result.exceptional)
    _certify(graph, range(graph.edge_count), weights, result.x, result.exceptional)


@given(st.one_of(strategies.odd_cycle_shapes(), strategies.many_odd_cycles()))
@settings(max_examples=120)
def test_kernel_hands_over_each_terminal_cycle_with_its_vertex_order(gw):
    graph, weights = gw
    scale, zl = rounding._scaled_weights(weights, range(graph.edge_count))
    seen: set[int] = set()
    for vertices, edges in _Kernel(graph, scale, zl, range(graph.edge_count)).run():
        length = len(edges)
        assert length % 2 == 1 and length >= 3
        assert len(vertices) == length
        for i, e in enumerate(edges):
            assert {vertices[i], vertices[(i + 1) % length]} == set(graph.edges[e])
        assert len(set(vertices)) == length
        assert seen.isdisjoint(vertices)
        seen.update(vertices)


# --------------------------------------------------------------------------
# Euler passes on dense supports
# --------------------------------------------------------------------------


def dense_shapes():
    """Supports dense enough for Euler passes: even-regular and all-odd-degree
    circulants and their disjoint unions, and near-cliques with hubs."""
    return st.one_of(
        strategies.regular_unions([(10, 8), (13, 10), (17, 12), (11, 10)]),
        strategies.regular_unions([(10, 9), (12, 9), (14, 11), (16, 13)]),
        strategies.regular_unions([(10, 8), (12, 9), (13, 10), (14, 11)], max_parts=3),
        strategies.hub_unions(3),
    )


@given(dense_shapes(), st.data())
@settings(max_examples=60, deadline=None)
def test_euler_pass_moves_are_even_closed_trails(graph, data):
    m = graph.edge_count
    uniform = data.draw(st.booleans())
    if uniform:
        weights = [data.draw(st.sampled_from([THIRD, Fraction(5, 18), Fraction(2, 7)]))] * m
    else:
        mixed = [Fraction(0), THIRD, HALF, Fraction(2, 5), Fraction(5, 18), Fraction(1)]
        weights = data.draw(st.lists(st.sampled_from(mixed), min_size=m, max_size=m))
    everything = set(range(m))
    few = strategies.edge_subsets(graph).filter(lambda s: len(s) <= 4)
    subset = data.draw(st.one_of(st.just(everything), few.map(lambda s: everything - s)))
    with oracles.euler_move_checks() as trails:
        result = round_weights(graph, weights, sorted(subset))
    if uniform and subset == everything:
        assert trails  # every vertex has degree at least 8: the passes ran
    sub, emap = edge_subgraph(graph, subset)
    new_id = {e: j for j, e in enumerate(emap)}
    x = [Fraction(result.x[e]) for e in emap]
    ledger = [(v, tuple(new_id[e] for e in cycle)) for v, cycle in result.exceptional]
    assert oracles.check_certificate(sub, [weights[e] for e in emap], x, ledger)


def test_first_euler_pass_makes_half_of_a_uniform_support_integral():
    # A connected 10-regular circulant with 110 edges at 5/18: F is empty,
    # and the one Euler circuit is even, so one move pushes the 55 edges
    # at -1 to 0 and the 55 at +1 to 10/18.  The support left has mean
    # degree 5, so no second pass runs.
    g = build_graph(22, strategies.circulant_edges(22, 10))
    kernel = _Kernel(g, 18, [5] * g.edge_count, range(g.edge_count))
    with oracles.euler_move_checks() as trails:
        kernel._euler_passes([-1] * g.vertex_count)
    assert [len(trail) for trail in trails] == [110]
    assert sorted(kernel.x) == [0] * 55 + [10] * 55
    assert sum(map(len, kernel.nbr)) == 2 * 55


def test_second_euler_pass_runs_down_to_mean_degree_6():
    # A connected 12-regular circulant with 144 edges at 5/18: the first
    # pass's one circuit pushes 72 edges to 0 and 72 to 10/18.  Each vertex
    # keeps 6 of them, at the gate, so a second pass walks their one circuit
    # of 72 and pushes 36 to 1 and 36 to 2/18.  Those 36, at mean degree 3,
    # are left to the walk.
    g = build_graph(24, strategies.circulant_edges(24, 12))
    kernel = _Kernel(g, 18, [5] * g.edge_count, range(g.edge_count))
    with oracles.euler_move_checks() as trails:
        kernel._euler_passes([-1] * g.vertex_count)
    assert [len(trail) for trail in trails] == [144, 72]
    assert sorted(kernel.x) == [0] * 72 + [2] * 36 + [18] * 36
    assert sum(map(len, kernel.nbr)) == 2 * 36


def test_euler_passes_leave_a_pinned_count_to_the_walk(monkeypatch):
    # The general scheme's three roundings of one 18-regular graph (k=3,
    # m=630): the edges each one's Euler passes leave live for the walk.
    left = []
    passes = rounding._Kernel._euler_passes

    def counted(kernel, pos):
        passes(kernel, pos)
        left.append(sum(map(len, kernel.nbr)) // 2)

    monkeypatch.setattr(rounding._Kernel, "_euler_passes", counted)
    colour_general_2k2(random_min_degree_graph(70, 18, seed=1), 3)
    assert left == [189, 167, 19]


def test_odd_trail_keeps_an_even_closed_half():
    # A triangle 0-1-2 and a square 1-3-4-5 sharing vertex 1: an odd closed
    # trail through all 7 edges holds exactly one even closed half, the square.
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 5), (5, 1)])
    # From 3, vertex 1 repeats 3 edges after its first visit: the triangle
    # is cut off and the rest kept.
    assert rounding._even_half(g.xor_ends, 3, [4, 5, 6, 1, 2, 0, 3]) == [3, 4, 5, 6]
    # From 0, the one repeat (vertex 1) is 4 edges on: its segment is kept.
    assert rounding._even_half(g.xor_ends, 0, [0, 3, 4, 5, 6, 1, 2]) == [3, 4, 5, 6]
    # A simple odd cycle has no even closed half.
    assert rounding._even_half(g.xor_ends, 0, [0, 1, 2]) == []


@st.composite
def kernel_moves(draw):
    """(graph, (walk, lo, hi), walk path, top): a move and the walk it came from.

    An even cycle closed by a chord from the end of a path, the path between
    two leaves, the first trail of an Euler pass over a circulant, and the
    moves with a +-2 stretch ``walk[lo:hi]``: a lollipop from the path's
    first vertex, one into a cycle held behind the path's end, and a
    dumbbell; their stems and paths have 1 to 4 edges.  The walk path is
    the graph's path ``0, 1, ...`` (edge i joins i and i + 1), empty for a
    trail.
    """
    kind = draw(st.sampled_from(["cycle", "path", "trail", "lollipop", "held", "dumbbell"]))
    top = draw(st.integers(0, 3))
    if kind == "trail":
        n = draw(st.integers(5, 20))
        degree = draw(st.sampled_from([d for d in (4, 6, 8) if d < n]))
        graph = build_graph(n, strategies.circulant_edges(n, degree))
        m = graph.edge_count
        nbr = _Kernel(graph, 2, [1] * m, range(m)).nbr
        move = rounding._euler_trails(graph, nbr, list(range(n)), [True] * m, [None] * n)[0]
        return graph, (move, 0, 0), [], top
    odd_cycle = st.integers(1, 3).map(lambda h: 2 * h + 1)
    if kind == "dumbbell":
        p = draw(st.integers(0, 2))
        end = p + draw(odd_cycle) - 1
        p2 = end + draw(st.integers(1, 4))
        n = p2 + draw(odd_cycle)
        path = list(range(n - 1))
        graph = build_graph(n, [(v, v + 1) for v in range(n - 1)] + [(end, p), (n - 1, p2)])
        return graph, ([n - 1] + path[p:] + [n], 1 + end - p, 1 + p2 - p), path, top
    if kind in ("lollipop", "held"):
        stem = draw(st.integers(1, 4))
        cycle = draw(odd_cycle)
        n = stem + cycle
        path = list(range(n - 1))
        if kind == "lollipop":  # stem 0..stem, then the cycle closed back to vertex stem
            graph = build_graph(n, [(v, v + 1) for v in range(n - 1)] + [(n - 1, stem)])
            return graph, (path + [n - 1], 0, stem), path, top
        p = draw(st.integers(0, 2))  # a cycle p..hend, then the stem on to the leaf n - 1
        n += p
        hend = p + cycle - 1
        path = list(range(n - 1))
        graph = build_graph(n, [(v, v + 1) for v in range(n - 1)] + [(hend, p)])
        return graph, (path[hend:][::-1] + [n - 1] + path[p:hend], 0, stem), path, top
    n = draw(st.integers(2 if kind == "path" else 4, 14))
    pairs = [(v, v + 1) for v in range(n - 1)]
    path = list(range(n - 1))
    if kind == "path":
        return build_graph(n, pairs), (path, 0, 0), path, top
    p = n - 4 - 2 * draw(st.integers(0, (n - 4) // 2))  # the chord closes an even cycle
    return build_graph(n, pairs + [(p, n - 1)]), (path[p:] + [n - 1], 0, 0), path, top


@settings(max_examples=600)
@given(kernel_moves(), st.data())
def test_sweep_matches_an_exact_push_on_kernel_moves(move_case, data):
    # A kernel state pushed along a move by the sweep and by the exact
    # reference push: every value (over a common top), the top, every live
    # dict (in order) and the returned cut must agree.  The edges at +1 and
    # those at -1 take values from two ranges of their own, so either side
    # can set either direction's least slack, and a value is stored at a
    # random level that can hold it, so ties and lazy normalisation both
    # occur.  With ``half``, the stretch's first two edges sit one unit from
    # a bound in opposite directions, so the step is half a unit.
    graph, (walk, lo, hi), es, top = move_case
    rng = data.draw(st.randoms(use_true_random=False))
    base = rng.randint(2, 5)
    scale = base << top
    ranges = [sorted(rng.randint(1, scale - 1) for _ in "lh") for _ in "+-"]
    side = [0] * graph.edge_count
    for i, e in enumerate(walk):
        side[e] = i & 1
    numerators = [rng.randint(*ranges[side[e]]) for e in range(graph.edge_count)]
    if lo < hi and data.draw(st.booleans(), label="half"):
        for i, e in enumerate(walk[lo:hi][:2]):
            numerators[e] = scale - 1 if (side[e] + i) & 1 == 0 else 1
    levels, values = [], []
    for value in numerators:
        shift = rng.randint(0, min(top, (value & -value).bit_length() - 1))
        levels.append(top - shift)
        values.append(value >> shift)
    pos = [-1] * graph.vertex_count
    if es:
        for v in range(len(es) + 1):
            pos[v] = v
    kernel = _Kernel(graph, base, [1] * graph.edge_count, range(graph.edge_count))
    before = [list(d.items()) for d in kernel.nbr]
    kernel.top, kernel.level, kernel.x = top, levels[:], values[:]
    exact = {e: Fraction(numerators[e], scale) for e in range(graph.edge_count)}
    pushed, new_top = oracles.push_move(walk, lo, hi, exact, base, top)
    exact.update(pushed)
    cut = kernel._sweep(walk, lo, hi, es, pos)
    assert kernel.top == new_top
    new_scale = base << new_top
    assert [Fraction(kernel.numerator(e), new_scale) for e in range(graph.edge_count)] == list(exact.values())
    integral = {e for e, value in exact.items() if value.denominator == 1}
    assert [list(d.items()) for d in kernel.nbr] == [[(e, u) for e, u in d if e not in integral] for d in before]
    assert cut == next((k for k, e in enumerate(es) if e in integral), len(es))


# --------------------------------------------------------------------------
# rounding an edge subset of a graph
# --------------------------------------------------------------------------


@given(
    st.one_of(
        strategies.graphs_with_weights(),
        strategies.odd_cycle_shapes(),
        strategies.many_odd_cycles(),
    ),
    st.data(),
)
@settings(max_examples=200)
def test_subset_rounding_is_the_rounding_of_the_edge_subgraph(gw, data):
    graph, weights = gw
    # Drawn subsets, and all edges but a few, which often keeps whole
    # cycles while dropping an edge that joins them.
    everything = set(range(graph.edge_count))
    few = strategies.edge_subsets(graph).filter(lambda s: len(s) <= 2)
    subset = data.draw(
        st.one_of(strategies.edge_subsets(graph), few.map(lambda s: everything - s))
    )
    listed = data.draw(st.permutations(sorted(subset)))
    # Weights outside the subset are never read.
    masked = [w if e in subset else None for e, w in enumerate(weights)]
    result = round_weights(graph, masked, listed)
    sub, emap = edge_subgraph(graph, subset)
    expected = round_weights(sub, [weights[e] for e in emap])
    x = [-1] * graph.edge_count
    for j, e in enumerate(emap):
        x[e] = expected.x[j]
    assert result.x == tuple(x)
    assert result.exceptional == tuple(
        (v, tuple(emap[j] for j in cycle)) for v, cycle in expected.exceptional
    )
    # In particular the (ii) repair flips no edge outside the subset.
    assert all(result.x[e] == -1 for e in range(graph.edge_count) if e not in subset)


def test_subset_rounding_leaves_an_outside_edge_between_deficient_ends():
    # Paths 0-1-2 and 3-4-5 at weight 1/3 round to one 1 each, leaving the
    # path ends 2 and 5 deficient; the repair of the whole graph flips the
    # edge 2-5 joining them, the repair of the paths alone must not.
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 5)])
    weights = [THIRD] * 5
    assert round_weights(g, [THIRD] * 4 + [Fraction(0)]).x[4] == 1
    result = round_weights(g, weights, [0, 1, 2, 3])
    assert result.x[4] == -1
    sub, _ = edge_subgraph(g, [0, 1, 2, 3])
    assert result.x[:4] == round_weights(sub, [THIRD] * 4).x


def test_subset_rounding_ignores_an_outside_edge_joining_bad_cycles():
    # Two triangles at weight 1/2 and the edge 0-3 at weight 0 joining them:
    # the whole graph merges both bad cycles through that edge, the subset
    # without it designates one vertex per triangle.
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    weights = [HALF] * 6 + [Fraction(0)]
    assert round_weights(g, weights).exceptional == ()
    result = round_weights(g, weights, range(6))
    assert [v for v, _ in result.exceptional] == [0, 3]
    assert result.x[6] == -1


@pytest.mark.parametrize(
    "ids, message",
    [([4], "edge indices must lie"), ([-1], "edge indices must lie"),
     ([0, 2, 0], "edge id 0 is listed twice")],
    ids=["past-end", "negative", "repeated"],
)
def test_subset_rounding_rejects_bad_edge_ids(ids, message):
    # The messages edge_subgraph gives: both check ids in graph.py.
    with pytest.raises(InputError, match=message):
        round_weights(c4(), [HALF] * 4, ids)


# --------------------------------------------------------------------------
# certification of the ledger
# --------------------------------------------------------------------------


def _certify(graph, ids, weights, x, ledger):
    scale = lcm(*(w.denominator for w in weights))
    zl = [int(w * scale) for w in weights]
    _certify_int(graph, ids, scale, _int_sums(graph, zl, ids), x, ledger)


def test_certificate_rejects_ledger_cycles_sharing_a_vertex():
    # A bowtie at weight 1/2, both triangles rounded as bad around anchors 0 and 3.
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    ledger = [(0, (0, 1, 2)), (3, (3, 4, 5))]
    with pytest.raises(InternalInvariantError, match="share a vertex"):
        _certify(g, range(6), [HALF] * 6, [1, 0, 1, 1, 1, 0], ledger)


def test_certificate_rejects_a_ledger_entry_that_is_not_a_cycle():
    # C5 at weight 1/2 with vertex 0 rounded up, and a pendant edge 4-5 at
    # weight 0.  Listed out of order, the C5's edge 2 does not continue from
    # vertex 1, where edge 0 ends; the path 0, 1, 2, 3, 4, 5 does not close.
    g = build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(4, 5)])
    weights = [HALF] * 5 + [Fraction(0)]
    x = [1, 0, 1, 0, 1, 0]
    for walk in (0, 2, 1, 3, 4), (0, 1, 2, 3, 5):
        with pytest.raises(InternalInvariantError, match="is not a cycle"):
            _certify(g, range(6), weights, x, [(0, walk)])
    for cycle in (0, 1, 2, 3, 4), (1, 2, 3, 4, 0), (4, 3, 2, 1, 0):
        _certify(g, range(6), weights, x, [(0, cycle)])


def test_certificate_recounts_the_repaired_sums(monkeypatch):
    # A repair that sets one more edge to 1 than it counts: C4 at weight 1/2
    # would be certified as (1, 1, 1, 0), two vertices above their weight
    # sums with an empty ledger, were the repair's own sums trusted.
    enforce = rounding._enforce_ii_int

    def miscounting_repair(graph, ids, scale, sums_z, xi):
        sums = enforce(graph, ids, scale, sums_z, xi)
        xi[xi.index(0)] = 1
        return sums

    monkeypatch.setattr(rounding, "_enforce_ii_int", miscounting_repair)
    with pytest.raises(InternalInvariantError, match=r"\(iii\)"):
        round_weights(c4(), [HALF] * 4)


def test_certificate_rejects_an_edge_joining_ledger_cycles():
    # Two triangles at weight 1/2 rounded as bad around anchors 0 and 3, the
    # edge 0-3 at weight 0 left at 0; it only counts while it is rounded.
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    weights = [HALF] * 6 + [Fraction(0)]
    ledger = [(0, (0, 1, 2)), (3, (3, 4, 5))]
    with pytest.raises(InternalInvariantError, match="joins two ledger cycles"):
        _certify(g, range(7), weights, [1, 0, 1, 1, 0, 1, 0], ledger)
    _certify(g, range(6), weights, [1, 0, 1, 1, 0, 1, -1], ledger)


# --------------------------------------------------------------------------
# pinned outputs
# --------------------------------------------------------------------------


def _pinned_cases():
    """Seeded (graph, weights, edges) triples covering every kind of move."""
    cases = []
    for n, seed in ((40, 1), (70, 2)):
        g = random_min_degree_graph(n, 18, seed=seed)
        cases.append((g, [Fraction(5, 18)] * g.edge_count, None))
        cases.append((g, [Fraction(1, 4)] * g.edge_count, [e for e in range(g.edge_count) if e % 3]))
    for seed in range(12):
        rng = random.Random(seed)
        n = 24
        pairs = sorted(rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], 40))
        g = build_graph(n, pairs)
        weights = []
        for _ in pairs:
            q = rng.randint(1, 6)
            weights.append(Fraction(rng.randint(0, q), q))
        cases.append((g, weights, None))
    dumbbell = build_graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)])
    cases.append((dumbbell, [THIRD] * 3 + [HALF] + [THIRD] * 3, None))
    return cases


def test_round_weights_outputs_are_pinned(monkeypatch):
    # The x values and ledgers of a fixed set of roundings, hashed.  The set
    # makes at least one move with a +-2 stem or path (a lollipop or a
    # dumbbell) and doubles the scale at least once; both are asserted, so
    # the digest covers those paths of the kernel.
    tops, doubled_walks = [], []
    next_move = rounding._next_move

    def spy_next_move(nbr, vs, es, pos):
        found = next_move(nbr, vs, es, pos)
        if found is not None and found[0] == rounding._MOVE and found[2] < found[3]:
            doubled_walks.append(found[1])
        return found

    class SpyKernel(rounding._Kernel):
        def run(self):
            found = super().run()
            tops.append(self.top)
            return found

    monkeypatch.setattr(rounding, "_next_move", spy_next_move)
    monkeypatch.setattr(rounding, "_Kernel", SpyKernel)
    digest = hashlib.sha256()
    for graph, weights, edges in _pinned_cases():
        result = round_weights(graph, weights, edges)
        digest.update(repr((result.x, result.exceptional)).encode())
    assert max(tops) > 0
    assert doubled_walks
    assert digest.hexdigest() == "f87b09a2895079df564f5910c3dd2847a4848fb85c46bcd283a3c7aa287fca61"
