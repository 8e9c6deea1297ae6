import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
import strategies
from kmajority import (
    EdgeColouring,
    FormatError,
    build_graph,
    check_majority,
    format_colouring,
    format_graph,
    parse_colouring,
    parse_graph,
)


def test_graph_round_trip_exact_bytes():
    g = parse_graph("graph 4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g.degrees() == (2, 2, 2, 2)
    assert format_graph(g) == "graph 4 4\n0 1\n1 2\n2 3\n3 0\n"


def test_graph_comments_and_blank_lines():
    text = "# a comment\n\ngraph 3 2\n# another\n0 1\n\n1 2\n"
    g = parse_graph(text)
    assert g.edge_count == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("graph x 2\n0 1\n1 2\n", "line 1"),
        ("graph 3\n", "line 1"),
        ("graph 3 1\n0 1 2\n", "line 2"),
        ("graph 3 1\n0 a\n", "line 2"),
        ("graph 3 2\n0 1\n", "declared 2"),
        ("graph 3 1\n0 1\n1 2\n", "line 3"),
        ("graph 2 1\n0 0\n", "self-loop"),
        ("graph -1 0\n", "nonnegative"),
        ("graph 24 2\n0 1\n1 2\n", "declares 24 vertices"),  # 2m + 19 characters = 23
    ],
)
def test_graph_parse_errors(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_graph(text)


def test_a_fault_after_many_edge_lines_is_named_in_linear_time():
    # A body pattern that could match a line two ways would backtrack through
    # 2^2000 ways of reading these lines before it refused the last one.
    lines = "".join(f"{v} {v + 1}\n" for v in range(2000))
    with pytest.raises(FormatError, match="line 2002: expected"):
        parse_graph(f"graph 2002 2001\n{lines}0\t1 2\n")


def test_graph_header_may_declare_isolated_vertices():
    g = parse_graph("graph 3 0\n")
    assert g.vertex_count == 3 and g.edge_count == 0
    assert parse_graph("graph 23 2\n0 1\n1 2\n").vertex_count == 23  # 2m + 19 characters


def test_graph_header_is_bounded_before_allocation():
    # One incidence list per declared vertex would take about 1.5 GB here.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="declares 20000000 vertices"):
            parse_graph("graph 20000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_writer_refuses_what_the_reader_rejects():
    with pytest.raises(FormatError, match="graph has 100 vertices"):
        format_graph(build_graph(100, []))
    for g in (
        build_graph(10, []),  # 'graph 10 0' and a newline: 11 characters
        build_graph(100, [(v, v + 1) for v in range(29)]),  # 70 isolated vertices
    ):
        assert parse_graph(format_graph(g)) == g


def test_colouring_round_trip():
    text = "colouring 3 2\n0 1\n1 2\n2 1\n"
    col = parse_colouring(text)
    assert col.colours == (1, 2, 1) and col.colour_count == 2
    assert format_colouring(col) == text


def test_colouring_accepts_any_line_order():
    col = parse_colouring("colouring 2 3\n1 3\n0 2\n")
    assert col.colours == (2, 3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("colouring 2 0\n", "positive"),
        ("colouring 2 2\n0 1\n", "without a colour"),
        ("colouring 2 2\n0 1\n0 2\n", "twice"),
        ("colouring 2 2\n0 1\n5 1\n", "outside"),
        ("colouring 2 2\n0 1\n1 7\n", "outside"),
        ("colouring 2 2\n0 1\n1\n", "line 3"),
        ("colouring 1 2\n0 x\n", "non-integer field"),
        ("colouring -3 2\n", "nonnegative"),
        ("colouring 3 2\n0 1\n# 1 1\n2 1\n", "declares 3 edges but only 2 lines"),
    ],
)
def test_colouring_parse_errors(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_colouring(text)


def test_colouring_header_is_bounded_before_allocation():
    # One slot per declared edge would take about 160 MB here.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="declares 20000000 edges"):
            parse_colouring("colouring 20000000 2\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_absurd_colour_count_is_checked_without_a_table():
    # One counter per vertex and colour would take about 32 MB here; the
    # 24-byte file is parsed and checked in O(n + m).
    graph = build_graph(2, [(0, 1)])
    tracemalloc.start()
    try:
        colouring = parse_colouring("colouring 1 1000000\n0 1\n")
        verdict = check_majority(graph, colouring, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not verdict.passed and verdict.witness == (0, 1, 1, 0)


@given(strategies.graphs())
def test_format_parse_is_identity(g):
    back = parse_graph(format_graph(g))
    assert back == g
    if g.edge_count:
        colouring = EdgeColouring(tuple(e % 3 + 1 for e in range(g.edge_count)), 3)
        assert parse_colouring(format_colouring(colouring)) == colouring


MUTATIONS = [
    None, "third field", "missing field", "moved field", "non-integer", "self-loop",
    "duplicate", "reversed duplicate", "out of range", "one line too many", "one line too few",
]


@st.composite
def graph_texts(draw):
    """A graph file in free form, with at most one fault from ``MUTATIONS``.

    Labels may carry a plus sign or leading zeros; fields are split by spaces,
    tabs or a no-break space; lines end in \\n or \\r\\n, and comment and blank
    lines fall anywhere.
    """
    g = draw(strategies.graphs(max_vertices=7, max_edges=10))
    n = g.vertex_count
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in g.edges]
    mutation = draw(st.sampled_from(MUTATIONS))
    declared = len(pairs)
    if mutation in ("duplicate", "reversed duplicate") and pairs:
        u, v = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), (v, u) if mutation[0] == "r" else (u, v))
        declared += 1
    elif mutation == "self-loop":
        w = draw(st.integers(0, max(n - 1, 0)))
        pairs.insert(draw(st.integers(0, len(pairs))), (w, w))
        declared += 1
    elif mutation == "out of range":
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(st.sampled_from([-1, n, n + 5])), 0))
        declared += 1
    elif mutation == "one line too many":
        pairs.append((0, 1))
    elif mutation == "one line too few" and pairs:
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))

    def label(x):
        return draw(st.sampled_from(["", "", "", "+", "0", "00"])) + str(x)

    def gap():
        return draw(st.sampled_from([" ", " ", "\t", "  ", " \t", "\u00a0"]))

    lines = [f"graph {n} {declared}"]
    for u, v in pairs:
        fields = [label(u), label(v)]
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + gap().join(fields)
                     + draw(st.sampled_from(["", "", " ", "\t"])))
    edge_lines = range(1, len(lines))
    if mutation in ("third field", "missing field", "non-integer") and pairs:
        i = draw(st.sampled_from(edge_lines))
        fields = lines[i].split()
        if mutation == "third field":
            fields.append(label(0))
        elif mutation == "missing field":
            fields.pop()
        else:
            fields[draw(st.integers(0, 1))] = draw(
                st.sampled_from(["x", "1.5", "-", "0x1", "1_0", "\u0661", "1" * 5000])
            )
        lines[i] = " ".join(fields)
    if mutation == "moved field" and len(pairs) > 1:
        # The field count stays 2m, so only the per-line check sees the fault.
        i, j = draw(st.lists(st.sampled_from(edge_lines), min_size=2, max_size=2, unique=True))
        moved, rest = lines[i].split(), lines[j].split()
        lines[i], lines[j] = " ".join(moved[:-1]), " ".join(rest + moved[-1:])
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "   ", "# note", "  #0 1", "\t# a b c"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


@given(graph_texts())
@settings(max_examples=300, deadline=None)
def test_parse_graph_matches_the_line_by_line_reference(text):
    try:
        expected = oracles.parse_graph_reference(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as raised:
            parse_graph(text)
        assert str(raised.value) == str(exc)
    else:
        assert parse_graph(text) == expected
