import tracemalloc

import pytest
from hypothesis import given

import strategies
from kmajority import (
    EdgeColouring,
    FormatError,
    build_graph,
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


def test_graph_header_may_declare_isolated_vertices():
    g = parse_graph("graph 3 0\n")
    assert g.vertex_count == 3 and g.edge_count == 0
    assert parse_graph("graph 23 2\n0 1\n1 2\n").vertex_count == 23  # 2m + 19 characters


def test_graph_header_is_bounded_before_allocation():
    # One adjacency list per declared vertex would take about 1.5 GB here.
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


@given(strategies.graphs())
def test_format_parse_is_identity(g):
    back = parse_graph(format_graph(g))
    assert back == g
    if g.edge_count:
        colouring = EdgeColouring(tuple(e % 3 + 1 for e in range(g.edge_count)), 3)
        assert parse_colouring(format_colouring(colouring)) == colouring
