from __future__ import annotations

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
from lkconvex.formats import MAX_VERTICES

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
    assert parsed.labels == (0, 1, 2)
    assert parsed.graph.edges() == [(0, 1), (1, 2)]


def test_parse_dimacs():
    parsed = parse_graph(DIMACS)
    assert parsed.graph.n == 4 and parsed.graph.m == 4
    assert parsed.labels == (1, 2, 3, 4)
    assert parsed.graph.has_edge(0, 1)  # file edge 'e 1 2'
    assert parsed.label_of(0) == 1
    assert parsed.vertex_of(4) == 3
    with pytest.raises(FormatError):
        parsed.vertex_of(9)


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
    with pytest.raises(FormatError, match="exceeds the limit"):
        parse_graph("p edge 100000000000 0\n")  # refused before allocating


def test_load_graph(tmp_path, strip7):
    target = tmp_path / "g.txt"
    target.write_text(format_graph(strip7))
    assert load_graph(target).graph == strip7


def test_format_vertex_set():
    assert format_vertex_set({3, 1, 2}) == "1,2,3"
    assert format_vertex_set([]) == "{}"
