import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import strategies
from kmajority import (
    SCHEMES,
    InputError,
    InternalInvariantError,
    PreconditionError,
    RoundStat,
    SelectorExhaustedError,
    balanced_bicolouring,
    build_graph,
    check_majority,
    colour_auto,
    colour_bipartite,
    colour_general_2k2,
    colour_refined,
    colour_sk_graph,
    colour_small_k,
    eliminate_bad_components,
    general_alphas,
    random_min_degree_graph,
    refined_parameters,
)
from kmajority import colouring as colouring_module
from kmajority import schemes
from kmajority.cli import build_parser
from kmajority.eulersplit import BLUE, RED, Bicolouring
from kmajority.graph import edge_subgraph
from kmajority.graphio import format_colouring
from oracles import (
    _colour_components,
    colour_counts,
    eliminate_by_full_recompute,
    general_round_violations,
    refined_bucket_checks,
)


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def hypercube(dim):
    edges = [
        (v, v ^ (1 << bit)) for v in range(1 << dim) for bit in range(dim)
        if v < v ^ (1 << bit)
    ]
    return build_graph(1 << dim, edges)


# --------------------------------------------------------------------------
# bipartite scheme
# --------------------------------------------------------------------------


def test_bipartite_on_square():
    square = complete_bipartite(2, 2)
    colouring, report = colour_bipartite(square, 2)
    assert report.verdict.passed
    assert colouring.colour_count == 3
    assert max(max(row) for row in colour_counts(square, colouring)) <= 1


def test_bipartite_k66_is_perfectly_balanced():
    # degree 6 = (k+1)*2 at k=2: every vertex sees every colour exactly twice
    k66 = complete_bipartite(6, 6)
    colouring, report = colour_bipartite(k66, 2)
    assert report.verdict.passed
    assert colour_counts(k66, colouring) == [[2, 2, 2]] * 12


def test_bipartite_k66_at_k3():
    k66 = complete_bipartite(6, 6)
    colouring, report = colour_bipartite(k66, 3)
    assert report.verdict.passed
    assert max(max(row) for row in colour_counts(k66, colouring)) <= 2


def test_bipartite_preconditions():
    with pytest.raises(PreconditionError, match="bipartite"):
        colour_bipartite(complete_graph(5), 2)
    with pytest.raises(PreconditionError, match="minimum degree"):
        colour_bipartite(complete_bipartite(2, 2), 3)


# --------------------------------------------------------------------------
# general scheme
# --------------------------------------------------------------------------


def test_general_alpha_values():
    assert general_alphas(8, 2) == (Fraction(3, 8), Fraction(1, 2))


def test_general_on_k9():
    k9 = complete_graph(9)
    colouring, report = colour_general_2k2(k9, 2)
    assert report.verdict.passed
    assert max(max(row) for row in colour_counts(k9, colouring)) <= 4
    assert report.alphas == (Fraction(3, 8), Fraction(1, 2))
    assert general_round_violations(k9, colouring, 2, 2) == []


def test_general_on_random_graph():
    g = random_min_degree_graph(24, 18, seed=5, extra_edges=10)
    colouring, report = colour_general_2k2(g, 3)
    assert report.verdict.passed
    assert colouring.colour_count == 4


def test_general_requires_2k2():
    with pytest.raises(PreconditionError):
        colour_general_2k2(complete_graph(8), 2)


# --------------------------------------------------------------------------
# weighted stripping rounds (bipartite, general and refined schemes)
# --------------------------------------------------------------------------


def test_bipartite_refuses_a_rounding_ledger(monkeypatch):
    # Bipartite roundings have no odd cycle, so a ledger entry is a breach;
    # the colouring would still verify, as the injected entry changes no edge.
    real = schemes.round_weights

    def with_ledger(graph, weights, edges=None):
        return dataclasses.replace(real(graph, weights, edges), exceptional=((0, (0, 1, 2)),))

    monkeypatch.setattr(schemes, "round_weights", with_ledger)
    with pytest.raises(InternalInvariantError, match="bipartite rounding produced exceptional"):
        colour_bipartite(complete_bipartite(6, 6), 2)


@pytest.mark.parametrize("weight", [Fraction(1), Fraction(1, 1000)], ids=["class", "residual"])
@pytest.mark.parametrize(
    "colour, graph, k",
    [
        (colour_general_2k2, complete_graph(9), 2),
        (colour_refined, random_min_degree_graph(48, 45, seed=2), 5),
    ],
    ids=["general", "refined"],
)
def test_weighted_rounds_assert_both_round_bounds(monkeypatch, colour, graph, k, weight):
    # Weight 1 puts every edge into round 1's class: k * count_1(v) = k * d(v) > d(v).
    # Weight 1/1000 leaves nearly every edge, more than the residual bound
    # d(v) * (k*delta - delta + 2k) / (k*delta) allows on these graphs.
    # The match tells these raises from the final verification's.
    monkeypatch.setattr(schemes, "general_alphas", lambda delta, k: (weight,) * k)
    with pytest.raises(InternalInvariantError, match="round 1 degree bound fails at vertex 0"):
        colour(graph, k)


@pytest.mark.parametrize(
    "colour, graph, k, round_colour",
    [
        (colour_bipartite, complete_bipartite(6, 6), 3, lambda i, k: k + 2 - i),
        (colour_general_2k2, complete_graph(9), 2, lambda i, k: i),
        (colour_refined, random_min_degree_graph(48, 45, seed=2), 5, lambda i, k: i),
    ],
    ids=["bipartite", "general", "refined"],
)
def test_round_records_hold_what_the_report_prints(colour, graph, k, round_colour):
    colouring, report = colour(graph, k)
    fields = {field.name for field in dataclasses.fields(RoundStat)}
    printed = report.rounds_json()
    assert len(printed) == len(report.rounds) == len(report.alphas) > 0
    for stat, entry in zip(report.rounds, printed):
        assert set(entry) == fields
        assert stat.class_size == colouring.colours.count(round_colour(stat.index, k))


# --------------------------------------------------------------------------
# refined scheme
# --------------------------------------------------------------------------


def test_refined_parameters():
    assert refined_parameters(2) == (1, 1, Fraction(8))
    assert refined_parameters(3) == (2, 0, Fraction(15))
    assert refined_parameters(5) == (2, 2, Fraction(45))
    assert refined_parameters(6) == (2, 3, Fraction(66))


def test_refined_k5():
    g = random_min_degree_graph(48, 45, seed=2)
    colouring, report = colour_refined(g, 5)
    assert report.verdict.passed
    assert report.levels == 2 and report.head_rounds == 2
    assert len(report.alphas) == 2


def test_refined_handles_pure_binary_case():
    # k = 3 has m = 0: no weighted rounds, only the binary levels
    g = random_min_degree_graph(18, 15, seed=3)
    colouring, report = colour_refined(g, 3)
    assert report.verdict.passed
    assert report.head_rounds == 0 and report.alphas == ()


def test_refined_bound_is_strict():
    g = random_min_degree_graph(46, 44, seed=4)
    with pytest.raises(PreconditionError):
        colour_refined(g, 5)


def test_refined_colours_at_three_levels_are_pinned():
    """k=7 and k=8 run three levels, and the k=6 and k=8 runs designate one and
    two bad vertices, so the special marks steer the later levels' selectors.

    Every bucket component with an edge has more than n vertices and one of
    them is not special, as ``colour_refined``'s docstring proves.
    """
    digest = hashlib.sha256()
    for k, n in [(6, 67), (7, 78), (8, 105)]:
        levels, _, bound = refined_parameters(k)
        g = random_min_degree_graph(n, math.ceil(bound), seed=1)
        with refined_bucket_checks(levels) as checked:
            colouring, _ = colour_refined(g, k)
        assert checked
        digest.update(format_colouring(colouring).encode())
    assert digest.hexdigest() == "84b2698999d2b4deef46f2618b1ca5ca4d45497ab3493c4abcd8f5f76ec9d2ea"


@pytest.mark.parametrize("k, n", [(2, 10), (3, 17), (4, 30), (15, 346)])
def test_refined_bucket_components_hold_a_vertex_that_is_not_special(k, n):
    # One and two levels at k = 2, 3, 4; k = 15 is the least k with four.
    levels, _, bound = refined_parameters(k)
    g = random_min_degree_graph(n, math.ceil(bound), seed=k)
    with refined_bucket_checks(levels) as checked:
        colouring, report = colour_refined(g, k)
    assert report.verdict.passed
    assert checked


def test_refined_claim_check_names_the_least_failing_vertex_and_colour():
    # Two stars K_{1,3}, centred at 3 and at 0, at one level: a centre
    # (d_H = 3) may hold (3 - 1)/2 + 3/2 = 2.5 edges of a colour, a leaf 1.5.
    stars = build_graph(8, [(3, 4), (3, 5), (3, 6), (0, 1), (0, 2), (0, 7)])
    everything = range(6)
    schemes._assert_refined_claim(stars, [3, 3, 2, 3, 3, 2], everything, 1, 3)
    with pytest.raises(InternalInvariantError, match=r"vertex 0, colour 3: 3 > \(3-1\)/2"):
        schemes._assert_refined_claim(stars, [2, 2, 2, 3, 3, 3], everything, 1, 3)
    with pytest.raises(InternalInvariantError, match=r"vertex 3, colour 2: 3 > \(3-1\)/2"):
        schemes._assert_refined_claim(stars, [2, 2, 2, 3, 3, 3], [0, 1, 2], 1, 3)


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns the list of its calls' arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("k, n", [(3, 17), (4, 30), (15, 346)])
def test_refined_makes_one_euler_split_per_level(monkeypatch, k, n):
    levels, _, bound = refined_parameters(k)
    g = random_min_degree_graph(n, math.ceil(bound), seed=k)
    splits = _count_calls(monkeypatch, schemes, "balanced_bicolouring")
    colour_refined(g, k)
    assert len(splits) == levels


# --------------------------------------------------------------------------
# small-k scheme
# --------------------------------------------------------------------------


def test_small_k2_on_hypercube():
    colouring, report = colour_small_k(hypercube(4), 2)
    assert report.verdict.passed
    assert colouring.colour_count == 3


@pytest.mark.parametrize("k, n, seed", [(2, 12, 21), (3, 14, 22), (4, 20, 23)])
def test_small_k_at_threshold(k, n, seed):
    g = random_min_degree_graph(n, k * k, seed=seed)
    colouring, report = colour_small_k(g, k)
    assert report.verdict.passed
    assert colouring.colour_count == k + 1
    initial, flips = report.elimination or (0, 0)
    assert flips <= initial


@pytest.mark.parametrize("k, n, seed, splits", [(2, 12, 21, 1), (3, 14, 22, 2), (4, 20, 23, 2)])
def test_small_k_splits_once_per_level_and_checks_once(monkeypatch, k, n, seed, splits):
    # The k=2 step splits the rounding's residual once; the k=3 and k=4 steps
    # split once, then both halves in one call.  Only the pulled-back
    # colouring is checked, so a benchmark-style operation (the scheme, then
    # its caller's own check) checks twice.
    g = random_min_degree_graph(n, k * k, seed=seed)
    split_calls = _count_calls(monkeypatch, schemes, "balanced_bicolouring")
    library_checks = _count_calls(monkeypatch, schemes, "check_majority")
    caller_checks = _count_calls(monkeypatch, colouring_module, "check_majority")
    found, _ = colour_small_k(g, k)
    assert colouring_module.check_majority(g, found, k).passed
    assert len(split_calls) == splits
    assert (len(library_checks), len(caller_checks)) == (1, 1)


def test_small_k3_colours_of_shuffled_clique_union_are_pinned():
    # Two copies each of K10, K12, K15 (14-regular of odd order: a bad
    # vertex in the first split) and K20 (hubs split), under shuffled labels
    # and edge order.  The lift joins the K10s and the split K20s to one
    # another, with no gadget.
    rng = random.Random(1)
    sizes = [10, 12, 15, 20] * 2
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    pairs = []
    base = 0
    for size in sizes:
        pairs.extend(
            (labels[base + i], labels[base + j]) for i in range(size) for j in range(i + 1, size)
        )
        base += size
    rng.shuffle(pairs)
    colouring, report = colour_small_k(build_graph(len(labels), pairs), 3)
    assert report.verdict.passed
    assert (
        hashlib.sha256(bytes(colouring.colours)).hexdigest()
        == "0125aefd56d374cb47938a7ec91a8988a5be1b5b6254c6d97218ccb72d80dfe4"
    )


# (n, d) of 11-, 14- and 17-regular circulants; K12, K15 and K18 among them.
S3_SHAPES = [(12, 11), (14, 11), (15, 14), (16, 14), (17, 14), (19, 14), (18, 17), (20, 17)]


@settings(max_examples=40)
@given(strategies.regular_unions(S3_SHAPES))
def test_sk3_one_first_split_colours_regular_unions(g):
    # A 14-regular part of odd order forces a bad vertex in the first split;
    # one of even order, like every 11- or 17-regular part, forces none.
    colouring, report = colour_sk_graph(g, 3)
    assert report.verdict.passed
    assert check_majority(g, colouring, 3).passed
    initial, flips = report.elimination
    assert flips <= initial


def test_small_k_rejects_low_degree():
    with pytest.raises(PreconditionError):
        colour_small_k(complete_graph(4), 2)


#: (n, d) of circulants with d in S_k: S_2 = {5, 7}, S_4 = {19, 23, 27, 31}.
SK_SHAPES = {
    2: [(6, 5), (8, 5), (8, 7), (10, 7)],
    3: S3_SHAPES,
    4: [(20, 19), (22, 19), (24, 23)],
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(SK_SHAPES)).flatmap(
    lambda k: st.tuples(st.just(k), strategies.regular_unions(SK_SHAPES[k], max_parts=3))
))
def test_sk_graph_is_colour_small_k_on_sk_graphs(k_and_graph):
    # Both reductions return a graph in S_k as it came, so the guard's
    # colouring and report are colour_small_k's.
    k, g = k_and_graph
    assert colour_sk_graph(g, k) == colour_small_k(g, k)


@pytest.mark.parametrize("k", [1, 5])
def test_sk_graph_checks_k_before_any_degree(k):
    # K5's degrees lie in no S_k, so a degree check first would raise a
    # PreconditionError.
    with pytest.raises(InputError, match="small-k scheme supports k"):
        colour_sk_graph(complete_graph(5), k)


def test_sk_graph_rejects_a_degree_outside_sk():
    with pytest.raises(PreconditionError, match="degree outside S_2"):
        colour_sk_graph(complete_graph(5), 2)  # 4-regular; S_2 = {5, 7}


def test_sk_graph_rejects_a_graph_that_colour_small_k_lifts():
    k7 = complete_graph(7)  # 6-regular: at least k^2 = 4, but not in S_2
    assert colour_small_k(k7, 2)[1].verdict.passed
    with pytest.raises(PreconditionError, match="degree outside S_2"):
        colour_sk_graph(k7, 2)


@pytest.mark.parametrize("colour", [colour_sk_graph, colour_small_k])
def test_small_k_refuses_a_graph_with_no_vertices(colour):
    # No vertex has a degree outside S_k, but the minimum degree of no
    # vertices reads 0, below k^2.
    with pytest.raises(PreconditionError, match=r"minimum degree 0 below k\^2 = 4"):
        colour(build_graph(0, []), 2)


def test_half_split_puts_a_forced_surplus_on_the_least_admissible_vertex():
    # The triangle 0-1-2 split alone forces a bad vertex; vertex 1 also has
    # the pendant edge 3, so its degree is 3 in the graph but 2 in the half.
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (1, 3)])
    half = [0, 0, 0, -1]  # the pendant edge is in no half
    bic = balanced_bicolouring(g, lambda c, v, d: v > 0 and d == 2, half)
    assert bic.side == (RED, RED, BLUE, -1)  # both triangle edges at 1 take red
    assert bic.bad_vertices == ((0, 1),)
    with pytest.raises(SelectorExhaustedError):
        balanced_bicolouring(g, lambda c, v, d: d == 3, half)


# --------------------------------------------------------------------------
# bad-component elimination
# --------------------------------------------------------------------------


def six_regular(v, d):
    return d == 6


def count_bad(graph, side):
    return sum(
        edge_count % 2 == 1 and all(degs[v] == 6 for v in verts)
        for colour in (BLUE, RED)
        for verts, degs, edge_count in _colour_components(graph, side, colour)
    )


def test_eliminate_keeps_clean_colouring_unchanged():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bic = balanced_bicolouring(c4)
    out, (initial, flips) = eliminate_bad_components(c4, bic, six_regular)
    assert out == bic
    assert (initial, flips) == (0, 0)


def test_eliminate_removes_forced_bad_components():
    # K13 splits into two 6-regular classes of 39 edges: both start bad.
    g = complete_graph(13)
    bic = balanced_bicolouring(g)
    assert count_bad(g, bic.side) > 0
    out, (initial, flips) = eliminate_bad_components(g, bic, six_regular)
    assert initial > 0
    assert 1 <= flips <= initial
    assert count_bad(g, out.side) == 0


def test_eliminate_rejects_a_bad_component_with_no_admissible_flip_vertex():
    g = complete_graph(13)
    with pytest.raises(InternalInvariantError, match="no admissible flip vertex"):
        eliminate_bad_components(
            g, balanced_bicolouring(g), six_regular, pick_vertex=lambda verts, deg: None
        )


def k13_union(copies, seed):
    rng = random.Random(seed)
    labels = list(range(13 * copies))
    rng.shuffle(labels)
    pairs = [
        (labels[13 * c + i], labels[13 * c + j])
        for c in range(copies)
        for i in range(13)
        for j in range(i + 1, 13)
    ]
    rng.shuffle(pairs)
    return build_graph(13 * copies, pairs)


@pytest.mark.parametrize("copies, seed", [(1, 1), (5, 2), (12, 3)])
def test_eliminate_matches_full_recompute_on_k13_unions(copies, seed):
    g = k13_union(copies, seed)
    bic = balanced_bicolouring(g)
    out = eliminate_bad_components(g, bic, six_regular)
    assert out == eliminate_by_full_recompute(g, bic, six_regular)
    assert out[1][1] >= copies


def even_degree(v, d):
    return d % 2 == 0


def any_degree(v, d):
    return True


def highest_degree(verts, degs):
    return max(verts, key=lambda v: (degs[v], -v))


def _outcome(eliminate, graph, bic, bad_vertex, pick):
    try:
        return eliminate(graph, bic, bad_vertex, pick)
    except InternalInvariantError as exc:
        return str(exc)


@settings(max_examples=120)
@given(
    strategies.disjoint_unions(),
    st.sampled_from([even_degree, any_degree]),
    st.sampled_from([None, highest_degree]),
    st.data(),
)
def test_eliminate_matches_full_recompute_on_unions(g, bad_vertex, pick, data):
    # Drawn sides, not an Euler split, so that monochromatic odd cycles and
    # the failure paths (too few neighbours, no decrease) occur as well.
    m = g.edge_count
    sides = data.draw(st.lists(st.integers(BLUE, RED), min_size=m, max_size=m))
    bic = Bicolouring(tuple(sides), ())
    assert _outcome(eliminate_bad_components, g, bic, bad_vertex, pick) == _outcome(
        eliminate_by_full_recompute, g, bic, bad_vertex, pick
    )


@settings(max_examples=120)
@given(
    strategies.disjoint_unions(),
    st.sampled_from([even_degree, any_degree]),
    st.sampled_from([None, highest_degree]),
    st.data(),
)
def test_eliminate_on_edge_subset_matches_the_edge_subgraph(g, bad_vertex, pick, data):
    # Sides of -1 mark edges outside the subset: elimination on the whole
    # graph must act as on the subgraph of the subset.
    m = g.edge_count
    sides = data.draw(st.lists(st.integers(-1, RED), min_size=m, max_size=m))
    sub, emap = edge_subgraph(g, [e for e in range(m) if sides[e] >= 0])
    alone = _outcome(
        eliminate_bad_components, sub, Bicolouring(tuple(sides[e] for e in emap), ()),
        bad_vertex, pick,
    )
    whole = _outcome(eliminate_bad_components, g, Bicolouring(tuple(sides), ()), bad_vertex, pick)
    if isinstance(alone, str):
        assert whole == alone
        return
    side = [-1] * m
    for j, s in enumerate(alone[0].side):
        side[emap[j]] = s
    assert whole == (Bicolouring(tuple(side), ()), alone[1])


def test_eliminate_forgets_the_other_colour_component_a_flip_merges():
    # Blue triangle 0-1-2 and red edge 1-3 are both bad (oddly many edges).
    # Flipping 0-1 to red leaves a blue path and a red path, both good: the
    # red component {1, 3} must be dropped although vertex 0 had no red edge.
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (1, 3)])
    bic = Bicolouring((BLUE, BLUE, BLUE, RED), ())
    out = eliminate_bad_components(g, bic, any_degree)
    assert out == eliminate_by_full_recompute(g, bic, any_degree)
    assert out == (Bicolouring((RED, BLUE, BLUE, RED), ()), (2, 1))


def test_eliminate_scan_stops_where_an_earlier_search_went():
    # A blue tree: 20 arms of 10 edges from tips 0..19 to a centre, and a
    # 9-edge tail from the centre to a vertex where the predicate fails.  The
    # search from tip 0 covers nearly all of it; each later tip's search must
    # stop at the first vertex that one reached, not cross the tree again.
    arms, length = 20, 10
    centre = arms * length
    edges = []
    for i in range(arms):
        path = [i, *range(arms + i * (length - 1), arms + (i + 1) * (length - 1)), centre]
        edges += zip(path, path[1:])
    fails = centre + length - 1
    edges += zip(range(centre, fails), range(centre + 1, fails + 1))
    g = build_graph(fails + 1, edges)
    calls = []

    def bad_vertex(v, d):
        calls.append(v)
        return v != fails

    out = eliminate_bad_components(g, Bicolouring((BLUE,) * g.edge_count, ()), bad_vertex)
    assert out[1] == (0, 0)
    assert len(calls) <= 2 * g.vertex_count


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------


def test_auto_prefers_bipartite():
    _, report = colour_auto(complete_bipartite(2, 2), 2)
    assert report.algorithm == "bipartite"


def test_auto_uses_small_k_at_threshold():
    _, report = colour_auto(hypercube(4), 2)
    # the hypercube is bipartite with degree 4 >= k(k-1), so bipartite wins;
    # a non-bipartite graph at degree 4 goes to small-k
    assert report.algorithm == "bipartite"
    g = random_min_degree_graph(12, 4, seed=31)
    colouring, report = colour_auto(g, 2)
    assert report.algorithm == "small-k" and report.verdict.passed


def test_auto_k5_chooses_refined_over_general():
    g = random_min_degree_graph(48, 45, seed=6)
    colouring, report = colour_auto(g, 5)
    assert report.algorithm == "refined"


def test_auto_refuses_k_below_two():
    with pytest.raises(InputError, match="k must be at least 2, got 1"):
        colour_auto(complete_bipartite(2, 2), 1)


def test_auto_below_threshold():
    g = random_min_degree_graph(46, 44, seed=7)
    colouring, report = colour_auto(g, 5)
    assert colouring is None
    assert report.algorithm == "below-threshold"
    assert report.verdict is None


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


# Bipartite and non-bipartite graphs whose minimum degrees fall on both
# sides of every threshold at k = 2..5 (K46 meets the refined bound 45 at
# k = 5 but not 2k^2 = 50) and below all of them at k = 6.
TABLE_GRAPHS = {
    "C5": cycle(5),
    "K4,4": complete_bipartite(4, 4),
    "K6,6": complete_bipartite(6, 6),
    "K12,12": complete_bipartite(12, 12),
    "K9": complete_graph(9),
    "K16": complete_graph(16),
    "K46": complete_graph(46),
}


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.name)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
def test_auto_table_reason_is_what_the_forced_scheme_raises(scheme, k, name):
    graph = TABLE_GRAPHS[name]
    if not 2 <= k <= (scheme.k_max or k):
        with pytest.raises(InputError):
            scheme.colour(graph, k)
        return
    reason = scheme.reason(graph, k)
    if reason is not None:
        with pytest.raises(PreconditionError) as caught:
            scheme.colour(graph, k)
        assert str(caught.value) == reason
        return
    colouring, report = scheme.colour(graph, k)
    assert report.algorithm == scheme.name
    assert check_majority(graph, colouring, k).passed


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
def test_auto_runs_the_first_scheme_whose_hypothesis_holds(k, name):
    graph = TABLE_GRAPHS[name]
    expected = next(
        (s.name for s in SCHEMES if s.covers(k) and s.reason(graph, k) is None),
        "below-threshold",
    )
    colouring, report = colour_auto(graph, k)
    assert report.algorithm == expected
    assert (colouring is None) == (expected == "below-threshold")


def test_auto_table_order_and_reasons():
    assert [s.name for s in SCHEMES] == ["bipartite", "small-k", "refined", "general"]
    bipartite, small_k, refined, general = SCHEMES
    assert bipartite.reason(cycle(5), 2) == "graph is not bipartite"
    assert bipartite.reason(cycle(6), 3) == "minimum degree 2 below k(k-1) = 6"
    assert small_k.reason(cycle(6), 2) == "minimum degree 2 below k^2 = 4"
    assert refined.reason(cycle(6), 5) == (
        "minimum degree 2 below (3/2)k^2 + (1/2)km + (1/2)k = 45"
    )
    assert general.reason(cycle(6), 2) == "minimum degree 2 below 2k^2 = 8"
    assert [s.covers(5) for s in SCHEMES] == [True, False, True, True]
    assert not any(s.covers(1) for s in SCHEMES)


def test_auto_never_reaches_general():
    # The refined bound never exceeds 2k^2, and refined is tried first.
    for k in range(2, 513):
        assert refined_parameters(k)[2] <= 2 * k * k


def test_auto_and_the_table_names_are_the_cli_algorithm_choices():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    algorithm = next(a for a in commands.choices["colour"]._actions if a.dest == "algorithm")
    assert algorithm.choices[0] == "auto"
    assert sorted(algorithm.choices[1:]) == sorted(s.name for s in SCHEMES)


def test_every_scheme_output_verifies_independently():
    cases = [
        (colour_bipartite(complete_bipartite(5, 7), 2), complete_bipartite(5, 7), 2),
        (colour_general_2k2(complete_graph(9), 2), complete_graph(9), 2),
        (colour_small_k(hypercube(4), 2), hypercube(4), 2),
    ]
    for (colouring, _), graph, k in cases:
        assert check_majority(graph, colouring, k).passed
