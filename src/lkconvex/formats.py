"""Plain-text graph formats.

Two dialects are read:

*   canonical: a header line ``n m`` followed by exactly m lines ``u v``
    with 0-based endpoints; blank lines and ``#`` comments are skipped.
*   DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then m
    lines ``e u v`` with 1-based endpoints.

Parsing keeps the vertex labels as they appeared in the file, so reports
can speak the caller's language; internally everything is 0-based.

A file is read in one pass, a piece at a time and never whole.  After
the header, one loop serves both dialects: each line is split, checked,
and its edge set straight into the adjacency masks, with no stage between
the line and the masks and no copy of the edges.  So every fault is
reported where it is read, and a wrong edge count after the last edge.
Parsed labels are ranges.

One limit bounds what a file may cost: its header may declare at most
MAX_VERTICES vertices, and a larger count is refused before anything is
allocated.  A vertex's mask is at most n bits long, so at that cap no
file's masks can pass 64 MiB, whatever its edges or its labels.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .graph import Graph, edge_fault, empty_masks, iter_bits

# Largest vertex count a file may declare, checked at the header before
# anything is allocated: the largest n with n * n // 8 <= 64 MiB.  n masks of
# at most n bits each then take at most 64 MiB, so no file can pass that,
# whatever its edges; a path at the cap needs about half of it.
MAX_VERTICES = 23_170


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


def _line_lists(pieces: Iterable[str]) -> Iterator[list[str]]:
    """The lines of the text that pieces make up, one list per piece.  Each
    piece is cut after its last "\\n", which ends a line whatever follows
    it, and the rest is carried into the next piece; a last "\\n" ends the
    text.  So the lines are those str.splitlines gives for the whole text,
    plus at most one empty line.  The carried text is extended in place and
    dropped before its lines are read, and each list is released before
    the next is built, so a long line is held as few times as it can be."""
    rest = ""
    for piece in chain(pieces, ["\n"]):
        cut = piece.rfind("\n") + 1
        if not cut:
            rest += piece  # one line spans the whole piece
            continue
        rest += piece[:cut]
        lines = rest.splitlines()
        rest = piece[cut:]
        yield lines
        del lines  # else held while the next is built: K600 peaked 0.6 MiB higher


def _next_tokens(lines: Iterator[str]) -> list[str] | None:
    """The tokens of the next line that has any besides a comment, or None
    past the last line; past the fourth, the rest of a line is one token,
    since no line of either dialect has more than four."""
    for line in lines:
        if tokens := line.split("#", 1)[0].split(None, 4):
            return tokens
    return None


def _quote(*tokens: str) -> str:
    """The tokens joined by spaces, as repr quotes them, each run of
    whitespace shown as one space, cut after _QUOTED characters and marked
    "..." when longer.  Only the first _CHUNK characters are split, and each
    token is cut to one more before the join, so a long line is not copied."""
    text = " ".join(token[:_CHUNK + 1] for token in tokens)
    shown = " ".join(text[:_CHUNK].split())
    if len(shown) > _QUOTED or len(text) > _CHUNK:
        shown = shown[:_QUOTED] + "..."
    return repr(shown)


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer {what}, got {_quote(token)}") from None


def _read_edges(lines: Iterator[str], n: int, m: int, dimacs: bool) -> Graph:
    """The graph on n vertices whose m edges are the rest of lines, read in
    one loop for both dialects.  Each line is refused where it is read: a
    malformed line, then an edge out of range, then a self-loop; the edge
    count after the last line."""
    adj = empty_masks(n)
    width, base = (3, 1) if dimacs else (2, 0)
    read = 0
    for line in lines:
        tokens = line.split("#", 1)[0].split(None, 4)  # as _next_tokens splits
        if len(tokens) != width or dimacs and tokens[0].lower() != "e":
            if not tokens:
                continue
            if dimacs:
                tag = tokens[0].lower()
                if tag == "c":
                    continue
                if tag == "p":
                    raise FormatError("multiple 'p' header lines")
                if tag != "e":
                    raise FormatError(f"unrecognized line tag {_quote(tokens[0])}")
            form = "e u v" if dimacs else "u v"
            raise FormatError(f"edge line must be '{form}', got {_quote(*tokens)}")
        try:
            u = int(tokens[-2]) - base
            v = int(tokens[-1]) - base
        except ValueError:  # raises, naming the token
            u, v = _int(tokens[-2], "endpoint"), _int(tokens[-1], "endpoint")
        read += 1
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise edge_fault(n, u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if read != m:
        raise FormatError(f"header declares {m} edges but file has {read} edge lines")
    return Graph._from_adj(n, adj)


def parse_graph(text: str) -> ParsedGraph:
    """Parse either dialect, keyed off the first meaningful line."""
    return _parse(text[i:i + _CHUNK] for i in range(0, len(text), _CHUNK))


def _parse(pieces: Iterable[str]) -> ParsedGraph:
    lines = chain.from_iterable(_line_lists(pieces))
    tokens = _next_tokens(lines)
    if tokens is None:
        raise FormatError("empty graph text")
    dimacs = tokens[0].lower() in ("c", "p", "e")
    if dimacs:
        while (tag := tokens[0].lower()) != "p":  # only comments come first
            if tag == "e":
                raise FormatError("edge line before the 'p' header")
            if tag != "c":
                raise FormatError(f"unrecognized line tag {_quote(tokens[0])}")
            if (tokens := _next_tokens(lines)) is None:
                raise FormatError("missing 'p edge n m' header")
        if len(tokens) != 4 or tokens[1].lower() != "edge":
            raise FormatError(f"header must be 'p edge n m', got {_quote(*tokens)}")
        tokens = tokens[2:]
    elif len(tokens) != 2:
        raise FormatError(f"header must be 'n m', got {_quote(*tokens)}")
    n = _int(tokens[0], "vertex count")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    m = _int(tokens[1], "edge count")
    labels = range(1, n + 1) if dimacs else range(n)
    return ParsedGraph(_read_edges(lines, n, m, dimacs), labels)


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
