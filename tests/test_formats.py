from __future__ import annotations

import tracemalloc

import pytest

from lkconvex import (
    FormatError,
    GraphError,
    format_graph,
    format_vertex_set,
    generators,
    load_graph,
    parse_graph,
)
from lkconvex import formats
from lkconvex.formats import MAX_VERTICES, ParsedGraph, check_readable

CANONICAL = """\
# a comment
3 2
0 1

1 2   # trailing comment
"""

DIMACS = """\
c little triangle plus tail
p edge 4 4
e 1 2
e 2 3
e 1 3
e 3 4
"""


def test_parse_canonical():
    parsed = parse_graph(CANONICAL)
    assert parsed.graph.n == 3 and parsed.graph.m == 2
    assert parsed.labels == range(3)
    assert parsed.graph.edges() == [(0, 1), (1, 2)]


def test_parse_dimacs():
    parsed = parse_graph(DIMACS)
    assert parsed.graph.n == 4 and parsed.graph.m == 4
    assert parsed.labels == range(1, 5)
    assert parsed.graph.has_edge(0, 1)  # file edge 'e 1 2'
    assert parsed.labels[0] == 1
    assert parsed.vertex_of(4) == 3
    for label in (9, 0, -3):
        with pytest.raises(FormatError):
            parsed.vertex_of(label)
    assert parse_graph("p edge 2 1\nc after the header\ne 1 2\n").graph.edges() == [(0, 1)]


def test_vertex_of_hand_built_labels():
    parsed = ParsedGraph(generators.path(3), (5, 9, 2))
    assert [parsed.vertex_of(label) for label in (5, 9, 2)] == [0, 1, 2]
    for label in (6, 7, 3):
        with pytest.raises(FormatError):
            parsed.vertex_of(label)


def test_vertex_of_parsed_range():
    parsed = parse_graph(CANONICAL)
    assert [parsed.vertex_of(label) for label in (0, 1, 2)] == [0, 1, 2]
    for label in (3, -1, 10**30):
        with pytest.raises(FormatError, match="unknown vertex label"):
            parsed.vertex_of(label)


def test_round_trip_canonical(strip7):
    text = format_graph(strip7, comment="strip")
    parsed = parse_graph(text)
    assert parsed.graph == strip7
    assert text.startswith("# strip\n7 11\n")


def test_round_trip_everything():
    for g in (generators.gem(5), generators.star(4), generators.path(2)):
        assert parse_graph(format_graph(g)).graph == g


def test_malformed_canonical():
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("3\n0 1\n")
    with pytest.raises(FormatError):
        parse_graph("3 2\n0 1\n")  # missing an edge line
    with pytest.raises(FormatError):
        parse_graph("3 1\n0 1\n1 2\n")  # extra edge line
    with pytest.raises(FormatError):
        parse_graph("3 1\n0 x\n")
    with pytest.raises(FormatError, match="expected an integer endpoint, got 'x'"):
        parse_graph("3 1\n0 x\n1 2\n")  # a bad line is named before the count
    with pytest.raises(FormatError, match="got '0 1 2 3 4 5'$"):
        parse_graph("3 1\n0 1 2 3  4   5  \n")  # quoted with single spaces
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        parse_graph("3 1\n0 5\n1 2\n")  # a bad edge is named where it is read
    with pytest.raises(GraphError):
        parse_graph("3 1\n0 3\n")  # endpoint out of range
    with pytest.raises(GraphError):
        parse_graph("3 1\n1 1\n")  # self-loop
    with pytest.raises(FormatError, match="exceeds the limit"):
        parse_graph(f"{MAX_VERTICES + 1} 0\n")
    assert parse_graph(f"{MAX_VERTICES} 0\n").graph.n == MAX_VERTICES


def test_malformed_dimacs():
    with pytest.raises(FormatError):
        parse_graph("p edge 3\ne 1 2\n")
    with pytest.raises(FormatError):
        parse_graph("e 1 2\n")  # edge before header
    with pytest.raises(FormatError):
        parse_graph("p edge 3 1\np edge 3 1\ne 1 2\n")
    with pytest.raises(FormatError):
        parse_graph("p edge 3 2\ne 1 2\n")  # count mismatch
    with pytest.raises(FormatError):
        parse_graph("p edge 3 1\nq 1 2\n")
    with pytest.raises(FormatError, match="unrecognized line tag 'x'"):
        parse_graph("c a comment\nx 1 2\np edge 3 1\ne 1 2\n")  # before the header
    with pytest.raises(FormatError, match="exceeds the limit"):
        parse_graph("p edge 100000000000 0\n")  # refused before allocating


def _twins(n: int, m: int, lines: list[str]) -> tuple[str, str]:
    """A canonical file and its DIMACS twin: the same header and edge lines,
    with each integer endpoint shifted to 1-based."""
    def shift(token: str) -> str:
        return str(int(token) + 1) if token.isdigit() else token

    canonical = f"{n} {m}\n" + "".join(f"{line}\n" for line in lines)
    dimacs = f"p edge {n} {m}\n" + "".join(
        "e " + " ".join(shift(t) for t in line.split()) + "\n" for line in lines)
    return canonical, dimacs


# Each defect sits on the second of three edge lines; both dialects must name
# it there, even when the header's edge count is also wrong.
ENDPOINT = "expected an integer endpoint, got 'x'"
PARITY = {  # declared edge count, edge lines, error, canonical and DIMACS message
    "token count": (3, ["0 1", "1 2 3", "2 3"], FormatError,
                    "edge line must be 'u v', got '1 2 3'",
                    "edge line must be 'e u v', got 'e 2 3 4'"),
    "endpoint": (3, ["0 1", "1 x", "2 3"], FormatError, ENDPOINT, ENDPOINT),
    "edge count": (4, ["0 1", "1 2", "2 3"], FormatError,
                   *["header declares 4 edges but file has 3 edge lines"] * 2),
    "endpoint and edge count": (4, ["0 1", "1 x", "2 3"], FormatError, ENDPOINT, ENDPOINT),
    "bad edge and edge count": (4, ["0 1", "1 9", "2 3"], GraphError,
                                *["edge (1, 9) out of range for n=4"] * 2),
}


@pytest.mark.parametrize("defect", list(PARITY))
def test_dialects_refuse_the_same_defect_alike(defect):
    m, lines, error, *messages = PARITY[defect]
    for text, message in zip(_twins(4, m, lines), messages):
        with pytest.raises(error) as info:
            parse_graph(text)
        assert type(info.value) is error and str(info.value) == message


def test_parsing_many_vertices_holds_no_label_per_vertex():
    # Labels are a range; a tuple of 100,000 labels peaked at 4.57 MiB.
    tracemalloc.start()
    try:
        parsed = parse_graph(f"{MAX_VERTICES} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.graph.n == MAX_VERTICES
    assert peak < 2.5 * 2**20, peak


# One line of a million fields, as a canonical edge line, a canonical header
# and a DIMACS edge line.  Splitting it whole peaked at 68.2 MiB, and the
# refusal quoted all 3 MB of it.
LONG_LINES = {
    "edge": "3 2\n" + "12 " * 1_000_000,
    "header": "12 " * 1_000_000,
    "dimacs edge": "p edge 3 2\ne " + "12 " * 1_000_000,
}


@pytest.mark.parametrize("text", list(LONG_LINES.values()), ids=list(LONG_LINES))
def test_a_long_line_costs_little_and_is_quoted_short(text):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    message = str(info.value)
    assert len(message) < 200 and message.endswith("...'"), message


def _dimacs_text(g) -> str:
    return f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges())


@pytest.mark.parametrize("render", [format_graph, _dimacs_text], ids=["canonical", "dimacs"])
def test_parsing_a_large_file_holds_little_memory(render):
    # K300: 44,850 edge lines in about 0.3 MB of text.  Holding every line's
    # tokens and the edge list as tuples peaked near 15 MB; the edges' flat
    # array of endpoints takes 0.35 MB.
    g = generators.complete(300)
    text = render(g)
    tracemalloc.start()
    try:
        parsed = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.graph == g
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("render", [format_graph, _dimacs_text], ids=["canonical", "dimacs"])
def test_parsing_holds_no_buffer_per_edge(render):
    # K600: 179,700 edge lines.  The edges stream straight into the masks;
    # holding them at 8 bytes each, as an array of endpoints, peaked near 1.9 MB.
    g = generators.complete(600)
    text = render(g)
    tracemalloc.start()
    try:
        parsed = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.graph == g
    assert peak < 2**20, peak


def _refusal(check, *args):
    try:
        check(*args)
    except FormatError as exc:
        return str(exc)
    return None


def test_check_readable_refuses_what_the_reader_refuses(monkeypatch):
    graphs = [generators.path(140), generators.complete(40), generators.star(200), generators.gem(90)]
    full = formats.MAX_MASK_BYTES
    monkeypatch.setattr(formats, "MAX_VERTICES", 150)
    refused = set()
    for g in graphs:
        text = format_graph(g)
        bytes_ = sum(a.bit_length() for a in g._adj) // 8
        for limit in (0, bytes_ - 1, bytes_, full):
            monkeypatch.setattr(formats, "MAX_MASK_BYTES", limit)
            want = _refusal(parse_graph, text)
            assert _refusal(check_readable, g) == want, (g, limit)
            refused.add(want and want.split()[0])
    assert refused == {None, "vertex", "graph"}


def test_load_graph(tmp_path, strip7):
    target = tmp_path / "g.txt"
    target.write_text(format_graph(strip7))
    assert load_graph(target).graph == strip7


def test_loading_holds_no_whole_file(tmp_path):
    # A path on 3 vertices and 4 MB of comment lines.  The vertex and mask
    # limits bound the graph, not the text; reading the text whole peaked
    # near twice its size.
    target = tmp_path / "g.txt"
    with open(target, "w") as fh:
        fh.write("3 2\n0 1\n1 2\n")
        fh.writelines(f"# padding line {i:08d}\n" for i in range(160_000))
    tracemalloc.start()
    try:
        parsed = load_graph(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.graph == generators.path(3)
    assert peak < 2**20, peak


def test_format_vertex_set():
    assert format_vertex_set({3, 1, 2}) == "1,2,3"
    assert format_vertex_set([]) == "{}"
