"""Plain-text graph formats.

Two dialects are read:

*   canonical: a header line ``n m`` followed by exactly m lines ``u v``
    with 0-based endpoints; blank lines and ``#`` comments are skipped.
*   DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then m
    lines ``e u v`` with 1-based endpoints.

Parsing keeps the vertex labels as they appeared in the file, so reports
can speak the caller's language; internally everything is 0-based.

A file is read in one pass, its edges streamed into Graph, which checks
each of them once.  Each dialect's reader turns lines into 0-based pairs
and refuses the first malformed one; one stage bounds the masks and counts
the edges for both.  So every fault is reported where it is read, and a
wrong edge count after the last edge.  Parsed labels are ranges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .graph import Graph

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

    def label_of(self, vertex: int) -> int:
        return self.labels[vertex]

    def vertex_of(self, label: int) -> int:
        try:
            return self.labels.index(label)  # O(1) on the range of a parsed file
        except ValueError:
            raise FormatError(f"unknown vertex label {label}") from None


# Text is split into lines this many characters at a time, so that a large
# file is never held as one list of lines.
_CHUNK = 1 << 16


def _meaningful_lines(text: str) -> Iterator[list[str]]:
    """The tokens of each line that has any besides a comment, one at a time."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)  # cut after a line break
        for line in text[start:end].splitlines():
            if tokens := line.split("#", 1)[0].split():
                yield tokens
        start = end


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer {what}, got {token!r}") from None


def _endpoints(a: str, b: str) -> tuple[int, int]:
    try:
        return int(a), int(b)
    except ValueError:
        return _int(a, "endpoint"), _int(b, "endpoint")  # raises, naming the token


def _vertex_count(token: str) -> int:
    n = _int(token, "vertex count")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


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
            if bits // 8 > MAX_MASK_BYTES:
                raise FormatError(
                    f"graph needs more than {MAX_MASK_BYTES} bytes of adjacency masks")
        yield u, v
    if read != m:
        raise FormatError(f"header declares {m} edges but file has {read} edge lines")


def _canonical_edges(lines: Iterator[list[str]]) -> Iterator[tuple[int, int]]:
    for tokens in lines:
        if len(tokens) != 2:
            raise FormatError(f"edge line must be 'u v', got {' '.join(tokens)!r}")
        yield _endpoints(tokens[0], tokens[1])


def _parse_canonical(header: list[str], lines: Iterator[list[str]]) -> ParsedGraph:
    if len(header) != 2:
        raise FormatError(f"header must be 'n m', got {' '.join(header)!r}")
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
            raise FormatError(f"unrecognized line tag {tokens[0]!r}")
        if len(tokens) != 3:
            raise FormatError(f"edge line must be 'e u v', got {' '.join(tokens)!r}")
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
            raise FormatError(f"unrecognized line tag {tokens[0]!r}")
    else:
        raise FormatError("missing 'p edge n m' header")
    if len(tokens) != 4:
        raise FormatError(f"header must be 'p edge n m', got {' '.join(tokens)!r}")
    n = _vertex_count(tokens[2])
    m = _int(tokens[3], "edge count")
    return ParsedGraph(Graph(n, _bounded(n, m, _dimacs_edges(lines))), range(1, n + 1))


def parse_graph(text: str) -> ParsedGraph:
    """Parse either dialect, keyed off the first meaningful line."""
    lines = _meaningful_lines(text)
    first = next(lines, None)
    if first is None:
        raise FormatError("empty graph text")
    if first[0].lower() in ("c", "p", "e"):
        return _parse_dimacs(chain([first], lines))
    return _parse_canonical(first, lines)


def load_graph(path: str | Path) -> ParsedGraph:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not readable as text: {exc}") from None
    return parse_graph(text)


def format_graph(g: Graph, comment: str | None = None) -> str:
    """Canonical text for a graph, with an optional leading comment."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_vertex_set(vertices: Iterable[int]) -> str:
    """Sorted comma-separated vertex list; '{}' for the empty set."""
    vs = sorted(vertices)
    return ",".join(str(v) for v in vs) if vs else "{}"
