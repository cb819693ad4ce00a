from __future__ import annotations

import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import reference_read
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
from lkconvex.formats import MAX_VERTICES, ParsedGraph

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
    with pytest.raises(FormatError, match="^header must be 'p edge n m', got 'p foo 3 1'$"):
        parse_graph("p foo 3 1\ne 1 2\n")  # the format word is read, in any case
    assert parse_graph("P EDGE 3 1\ne 1 2\n").graph.edges() == [(0, 1)]


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
    # Labels are a range, and this peaked at 0.36 MiB; a tuple of 23,170
    # labels peaked at 1.05 MiB.
    tracemalloc.start()
    try:
        parsed = parse_graph(f"{MAX_VERTICES} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.graph.n == MAX_VERTICES
    assert peak < 0.75 * 2**20, peak


# One line of a million fields, as a canonical edge line, a canonical header
# and a DIMACS edge line.  Splitting it whole peaked at 68.2 MiB, and the
# refusal quoted all 3 MB of it; holding the carried text while its lines
# were split, and the last piece's lines while the next were, at 12.8 MiB;
# joining the whole line to quote its first 60 characters, at 9.9 MiB.
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
    assert peak < 8 * 2**20, peak
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


# Separators and line breaks the reader must treat as str.split and
# str.splitlines do: "\x85" is both, and "\r\n" may be cut between pieces.
SEPARATORS = ["  ", "\t", "\x0c", " \t ", "\x85"]
BREAKS = ["\r\n", "\r", "\x85", "\n\n"]
ODD_INTEGERS = ["+1", "01", "1_0", "-1", "x", "1.0", "10" * 30]
LINE_KINDS = ["edge"] * 30 + ["blank", "comment", "tagged comment", "header", "alien tag",
                              "one field", "extra field", "clique", "clique"]


@st.composite
def graph_texts(draw):
    """Texts of either dialect, mostly well formed, that mix comments, blank
    lines, odd separators and line breaks, odd integer tokens, repeated and
    misplaced headers, duplicates, self-loops, ends out of range and wrong
    edge counts, and cliques."""
    dimacs = draw(st.booleans())
    base = 1 if dimacs else 0
    n = draw(st.sampled_from([*range(2, 9)] * 3 + [1, 0, -1]))

    def pick(usual, odd, odds=10):
        """usual, or one of odd once in odds draws."""
        return draw(st.sampled_from(odd)) if draw(st.sampled_from(range(odds))) == odds - 1 else usual

    def end():
        usual = str(draw(st.integers(base, max(n, 1) - 1 + base)))
        return pick(pick(usual, [str(draw(st.integers(-2, n + 2)))], 8), ODD_INTEGERS, 16)

    def line(fields):
        seps = [pick(" ", SEPARATORS, 5) for _ in fields]
        text = "".join(sep + field for sep, field in zip(seps, fields))
        text = text[len(seps[0]):] if draw(st.booleans()) else text
        return text + pick("", [" ", "\t", " # note", "#", "# 1 2"], 3)

    def edge(extra=()):
        ends = draw(st.sampled_from(["distinct"] * 5 + ["loop", "any"]))
        if ends == "distinct" and n > 1:
            fields = [str(base + i) for i in draw(st.permutations(range(n)))[:2]]
        elif ends == "loop":
            fields = [end()] * 2
        else:
            fields = [end(), end()]
        fields += extra
        return line([pick("e", ["E"], 4), *fields] if dimacs else fields)

    body, edges = [], 0
    for kind in draw(st.lists(st.sampled_from(LINE_KINDS), max_size=12)):
        if kind == "edge":
            body.append(edge())
            edges += 1
        elif kind == "clique":  # many edges from a few draws
            size = n if draw(st.booleans()) else draw(st.integers(0, max(n, 0)))
            for u, v in combinations(range(base, size + base), 2):
                body.append(line([*["e"] * dimacs, str(u), str(v)]))
                edges += 1
        elif kind == "comment":
            body.append(draw(st.sampled_from(["# c 1 2", "#", " # x"])))
        elif kind == "tagged comment":
            body.append(line([draw(st.sampled_from(["c", "C"])), "0", "1"]))
        elif kind == "header":
            body.append(line(["p", "edge", str(n), "1"]))
        elif kind == "alien tag":
            body.append(line([draw(st.sampled_from(["q", "x7", "ed"])), "1", "2"]))
        elif kind == "one field":
            body.append(line([end()]))
        elif kind == "extra field":
            body.append(edge(extra=[end() for _ in range(draw(st.integers(1, 5)))]))
        else:
            body.append("")
    fields = [pick(str(n), ODD_INTEGERS), str(edges + pick(0, [1, -1], 4))]
    if dimacs:
        fields = ["p", pick("edge", ["EDGE", "Edge", "foo", "edges"], 6), *fields]
    header = line(fields[:pick(len(fields), [len(fields) - 1])])
    lead = draw(st.lists(st.sampled_from(["", "# lead", "c lead" if dimacs else " "]), max_size=2))
    text = "".join(line + pick("\n", BREAKS, 4) for line in [*lead, header, *body])
    return text if draw(st.booleans()) else text[:-1]


def _outcome(read, text):
    try:
        graph, labels = read(text)
    except (FormatError, GraphError) as exc:
        return type(exc), str(exc)
    return graph, labels


@settings(max_examples=400, deadline=None)
@given(text=graph_texts(), chunk=st.integers(1, 17))
def test_reader_matches_the_whole_text_reference(text, chunk):
    # Pieces of 1-17 characters cut lines, "\r\n" pairs and tokens between
    # pieces; every other test's text fits in one piece.
    with mock.patch.object(formats, "_CHUNK", chunk):
        assert _outcome(parse_graph, text) == _outcome(reference_read, text), text


def test_load_graph(tmp_path, strip7):
    target = tmp_path / "g.txt"
    target.write_text(format_graph(strip7))
    assert load_graph(target).graph == strip7


def test_loading_holds_no_whole_file(tmp_path):
    # A path on 3 vertices and 4 MB of comment lines.  The vertex limit
    # bounds the graph, not the text; reading the text whole peaked
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
