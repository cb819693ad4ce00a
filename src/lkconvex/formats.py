"""Plain-text graph formats.

Two dialects are read:

*   canonical: a header line ``n m`` followed by exactly m lines ``u v``
    with 0-based endpoints; blank lines and ``#`` comments are skipped.
*   DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then m
    lines ``e u v`` with 1-based endpoints.

Parsing keeps the vertex labels as they appeared in the file, so reports
can speak the caller's language; internally everything is 0-based.

A file is read in one pass, a piece at a time and never whole, and its
edges are streamed into Graph, which checks each of them once.  Each
dialect's reader turns lines into 0-based pairs and refuses the first
malformed one; one stage bounds the masks and counts the edges for both.
So every fault is reported where it is read, and a wrong edge count after
the last edge.  Parsed labels are ranges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .graph import Graph, iter_bits

# Largest vertex count a file may declare.  Graph allocates per vertex up
# front, so an absurd header would otherwise exhaust memory before any check.
MAX_VERTICES = 100_000

# Largest size in bytes of a file's adjacency masks.  Each vertex's mask is as
# long as its highest neighbor id, so a path on n vertices needs n^2/16 bytes:
# 0.6 GB for a 1.2 MB file at MAX_VERTICES.  64 MiB admits a 32,000-vertex
# path, 20 times the longest the tests, demos and benchmark read.  Summed as
# the edges are read, so a refused file is built up to the limit, never past.
MAX_MASK_BYTES = 1 << 26


class FormatError(ValueError):
    """Malformed graph text."""


class ParsedGraph(NamedTuple):
    graph: Graph
    labels: Sequence[int]

    def vertex_of(self, label: int) -> int:
        try:
            return self.labels.index(label)  # O(1) on the range of a parsed file
        except ValueError:
            raise FormatError(f"unknown vertex label {label}") from None


# Text is read and split into lines this many characters at a time, each
# piece cut after its last line feed, so that a file is never held whole nor
# any text as one list of lines, unless it runs a piece without a line feed.
_CHUNK = 1 << 16

# A refusal quotes at most this many characters of the text it refuses.
_QUOTED = 60


def _meaningful_lines(pieces: Iterable[str]) -> Iterator[list[str]]:
    """The tokens of each line that has any besides a comment, one at a time,
    in the text that pieces make up; past the fourth, the rest of the line
    is one token, since no line of either dialect has more than four.  Each
    piece is cut after its last "\\n", which ends a line whatever follows
    it, and the rest is carried into the next piece; a last "\\n" ends the
    text.  So the lines are those str.splitlines gives for the whole text,
    plus at most one empty line."""
    rest = ""
    for piece in chain(pieces, ["\n"]):
        cut = piece.rfind("\n") + 1
        if not cut:
            rest += piece  # one line spans the whole piece
            continue
        for line in (rest + piece[:cut]).splitlines():
            if tokens := line.split("#", 1)[0].split(None, 4):
                yield tokens
        rest = piece[cut:]


def _quote(text: str) -> str:
    """text as repr quotes it, each run of whitespace shown as one space,
    cut after _QUOTED characters and marked "..." when longer.  Only the
    first _CHUNK characters are split, so a long line costs no more."""
    shown = " ".join(text[:_CHUNK].split())
    if len(shown) > _QUOTED or len(text) > _CHUNK:
        shown = shown[:_QUOTED] + "..."
    return repr(shown)


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer {what}, got {_quote(token)}") from None


def _endpoints(a: str, b: str) -> tuple[int, int]:
    try:
        return int(a), int(b)
    except ValueError:
        return _int(a, "endpoint"), _int(b, "endpoint")  # raises, naming the token


def _vertex_count(token: str) -> int:
    n = _int(token, "vertex count")
    _check_vertex_count(n)
    return n


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _check_mask_bits(bits: int) -> None:
    """Refuse masks that are bits long in all if they exceed MAX_MASK_BYTES."""
    if bits // 8 > MAX_MASK_BYTES:
        raise FormatError(f"graph needs more than {MAX_MASK_BYTES} bytes of adjacency masks")


def check_readable(g: Graph) -> None:
    """Raise FormatError unless parse_graph would accept g's canonical text:
    it refuses the same vertex count and the same mask size (g's masks are
    as long as _bounded measures them).  The edge count and the edges of
    format_graph's text are g's own, so nothing else can fail."""
    _check_vertex_count(g.n)
    _check_mask_bits(sum(a.bit_length() for a in g._adj))


def _bounded(n: int, m: int, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The edges as read, refused as soon as those so far would need more
    than MAX_MASK_BYTES of masks (a mask is as long as its vertex's highest
    neighbor id, which only grows), and after the last one unless there
    were m of them.  Graph checks every edge and names a bad one itself; an
    edge out of range is passed on unmeasured."""
    top = [-1] * n  # highest neighbor id of each vertex
    bits = 0  # the length of all masks: the sum of top[v] + 1
    read = 0
    for read, (u, v) in enumerate(edges, 1):
        if 0 <= u < n and 0 <= v < n:
            if v > top[u]:
                bits += v - top[u]
                top[u] = v
            if u > top[v]:
                bits += u - top[v]
                top[v] = u
            _check_mask_bits(bits)
        yield u, v
    if read != m:
        raise FormatError(f"header declares {m} edges but file has {read} edge lines")


def _canonical_edges(lines: Iterator[list[str]]) -> Iterator[tuple[int, int]]:
    for tokens in lines:
        if len(tokens) != 2:
            raise FormatError(f"edge line must be 'u v', got {_quote(' '.join(tokens))}")
        yield _endpoints(tokens[0], tokens[1])


def _parse_canonical(header: list[str], lines: Iterator[list[str]]) -> ParsedGraph:
    if len(header) != 2:
        raise FormatError(f"header must be 'n m', got {_quote(' '.join(header))}")
    n = _vertex_count(header[0])
    m = _int(header[1], "edge count")
    return ParsedGraph(Graph(n, _bounded(n, m, _canonical_edges(lines))), range(n))


def _dimacs_edges(lines: Iterator[list[str]]) -> Iterator[tuple[int, int]]:
    for tokens in lines:
        tag = tokens[0].lower()
        if tag == "c":
            continue
        if tag == "p":
            raise FormatError("multiple 'p' header lines")
        if tag != "e":
            raise FormatError(f"unrecognized line tag {_quote(tokens[0])}")
        if len(tokens) != 3:
            raise FormatError(f"edge line must be 'e u v', got {_quote(' '.join(tokens))}")
        u, v = _endpoints(tokens[1], tokens[2])
        yield u - 1, v - 1


def _parse_dimacs(lines: Iterator[list[str]]) -> ParsedGraph:
    for tokens in lines:  # only comments may come before the header
        tag = tokens[0].lower()
        if tag == "p":
            break
        if tag == "e":
            raise FormatError("edge line before the 'p' header")
        if tag != "c":
            raise FormatError(f"unrecognized line tag {_quote(tokens[0])}")
    else:
        raise FormatError("missing 'p edge n m' header")
    if len(tokens) != 4:
        raise FormatError(f"header must be 'p edge n m', got {_quote(' '.join(tokens))}")
    n = _vertex_count(tokens[2])
    m = _int(tokens[3], "edge count")
    return ParsedGraph(Graph(n, _bounded(n, m, _dimacs_edges(lines))), range(1, n + 1))


def parse_graph(text: str) -> ParsedGraph:
    """Parse either dialect, keyed off the first meaningful line."""
    return _parse(text[i:i + _CHUNK] for i in range(0, len(text), _CHUNK))


def _parse(pieces: Iterable[str]) -> ParsedGraph:
    lines = _meaningful_lines(pieces)
    first = next(lines, None)
    if first is None:
        raise FormatError("empty graph text")
    if first[0].lower() in ("c", "p", "e"):
        return _parse_dimacs(chain([first], lines))
    return _parse_canonical(first, lines)


def load_graph(path: str | Path) -> ParsedGraph:
    try:
        with open(path) as fh:
            return _parse(iter(lambda: fh.read(_CHUNK), ""))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not readable as text: {exc}") from None


def graph_lines(g: Graph, comment: str | None = None) -> Iterator[str]:
    """The lines of g's canonical text, without their newlines: an optional
    comment, the header, then each edge u < v in ascending order, read off
    the adjacency masks one edge at a time."""
    if comment:
        yield f"# {comment}"
    yield f"{g.n} {g.m}"
    for u, nb in enumerate(g._adj):
        for v in iter_bits(nb >> u + 1):
            yield f"{u} {u + 1 + v}"


def format_graph(g: Graph, comment: str | None = None) -> str:
    """Canonical text for a graph, with an optional leading comment."""
    return "\n".join(graph_lines(g, comment)) + "\n"


def format_vertex_set(vertices: Iterable[int]) -> str:
    """Sorted comma-separated vertex list; '{}' for the empty set."""
    vs = sorted(vertices)
    return ",".join(str(v) for v in vs) if vs else "{}"
