"""Text formats for graphs and colourings.

Graph files::

    # optional comment lines
    graph <n> <m>
    <u> <v>          (m lines, 0-based vertex indices)

Colouring files::

    colouring <m> <c>
    <edge-index> <colour>   (m lines, 0-based edges, 1-based colours)

Writers emit a canonical form (no comments, edges in index order) so that
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .colouring import EdgeColouring
from .errors import BuildError, FormatError
from .graph import Graph, _assemble, build_graph


def _content_lines(raw_lines: list[str]) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


#: Edge lines as ``format_graph`` writes them, or else lines of two decimal
#: fields, blank lines and comments; each matched one way only, in linear time.
_EDGE_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*|(?:[ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*|#.*)?\n)*")
_COMMENT = re.compile(r"#.*")


def _check_vertex_bound(n: int, m: int, size: int, what: str) -> None:
    """:class:`FormatError` unless a graph file of ``size`` characters may declare n vertices.

    Beyond the 2m vertices the edges name, every vertex is isolated, so a
    file may declare at most one more vertex per character.  The reader and
    the writer share this bound, so every file written can be read back.
    """
    bound = 2 * max(m, 0) + size
    if n > bound:
        raise FormatError(
            f"{what} {n} vertices, but {m} edges in a file of {size} characters "
            f"allow at most {bound}"
        )


def _read_header(lines: Iterator[tuple[int, str]], form: str) -> tuple[int, int, int]:
    """Parse the first of ``lines`` as ``form``, say ``graph <n> <m>``: (line number, n, m)."""
    kind = form.split()[0]
    number, header = next(lines, (0, ""))
    if not header:
        raise FormatError(f"empty {kind} file")
    parts = header.split()
    if len(parts) != 3 or parts[0] != kind:
        raise FormatError(f"line {number}: expected header '{form}', got {header!r}")
    try:
        return number, int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(f"line {number}: non-integer counts in {header!r}") from None


def parse_graph(text: str) -> Graph:
    raw_lines = text.splitlines()
    lines = _content_lines(raw_lines)
    header_no, n, m = _read_header(lines, "graph <n> <m>")
    # Bound n by the file before one incidence list per vertex is allocated.
    if n < 0:
        raise FormatError(f"line {header_no}: vertex count must be nonnegative, got {n}")
    _check_vertex_bound(n, m, len(text), f"line {header_no}: declares")
    try:
        # Joined on "\n", the body has exactly the lines splitlines() saw.
        graph = _read_body("\n".join(raw_lines[header_no:]) + "\n", n, m)
        if graph is not None:
            return graph
        pairs = []
        for number, line in lines:
            fields = line.split()
            if len(fields) != 2:
                raise FormatError(f"line {number}: expected '<u> <v>', got {line!r}")
            try:
                pairs.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise FormatError(f"line {number}: non-integer endpoint in {line!r}") from None
            if len(pairs) > m:
                raise FormatError(f"line {number}: more than the declared {m} edges")
        if len(pairs) != m:
            raise FormatError(f"declared {m} edges but found {len(pairs)}")
        return build_graph(n, pairs)
    except BuildError as exc:
        raise FormatError(str(exc)) from None


def _read_body(body: str, n: int, m: int) -> Optional[Graph]:
    """The graph of the m edge lines joined in ``body``, or None to read them one by one.

    Looking a label below min(n, 2m) up costs a third of ``int()``; a sign, a
    leading zero or a larger label is not found.  A duplicate shrinks the set
    of pairs, and a self-loop or a pair listed both ways meets its reversal
    there; only then does ``build_graph`` scan the pairs, to name the fault.
    """
    if not _EDGE_LINES.fullmatch(body):
        return None
    fields = (_COMMENT.sub("", body) if "#" in body else body).split()
    if len(fields) != 2 * m:
        return None
    labels = {str(v): v for v in range(min(n, len(fields)))}
    try:
        ends = list(map(labels.__getitem__, fields))
    except KeyError:
        return None
    edges = list(zip(ends[0::2], ends[1::2]))
    seen = set(edges)
    if len(seen) < m or not seen.isdisjoint(zip(ends[1::2], ends[0::2])):
        return build_graph(n, edges)
    return _assemble(n, edges)


def format_graph(graph: Graph) -> str:
    lines = [f"graph {graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    text = "\n".join(lines) + "\n"
    _check_vertex_bound(graph.vertex_count, graph.edge_count, len(text), "graph has")
    return text


def parse_colouring(text: str) -> EdgeColouring:
    lines = list(_content_lines(text.splitlines()))
    header_no, m, c = _read_header(iter(lines), "colouring <m> <c>")
    if c < 1:
        raise FormatError(f"line {header_no}: colour count must be positive")
    # Bound the header by the file before allocating one slot per edge.
    if m < 0:
        raise FormatError(f"line {header_no}: edge count must be nonnegative, got {m}")
    if m > len(lines) - 1:
        raise FormatError(
            f"edges without a colour: line {header_no} declares {m} edges "
            f"but only {len(lines) - 1} lines follow"
        )
    colours: list[int | None] = [None] * m
    for number, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {number}: expected '<edge-index> <colour>', got {line!r}")
        try:
            e, colour = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {number}: non-integer field in {line!r}") from None
        if not 0 <= e < m:
            raise FormatError(f"line {number}: edge index {e} outside 0..{m - 1}")
        if colours[e] is not None:
            raise FormatError(f"line {number}: edge {e} coloured twice")
        if not 1 <= colour <= c:
            raise FormatError(f"line {number}: colour {colour} outside 1..{c}")
        colours[e] = colour
    # At least m lines named distinct edges in 0..m-1, so none is missing.
    return EdgeColouring(tuple(colours), c)  # type: ignore[arg-type]


def format_colouring(colouring: EdgeColouring) -> str:
    lines = [f"colouring {len(colouring.colours)} {colouring.colour_count}"]
    lines.extend(f"{e} {c}" for e, c in enumerate(colouring.colours))
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text; :class:`FormatError` if it is not."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


def read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def write_graph(path: str, graph: Graph) -> None:
    text = format_graph(graph)  # a refused graph leaves no file behind
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_colouring(path: str) -> EdgeColouring:
    return parse_colouring(_read_text(path))


def write_colouring(path: str, colouring: EdgeColouring) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_colouring(colouring))
