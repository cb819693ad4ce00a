"""Plain-text graph formats.

Two dialects are read:

*   canonical: a header line ``n m`` followed by exactly m lines ``u v``
    with 0-based endpoints; blank lines and ``#`` comments are skipped.
*   DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then m
    lines ``e u v`` with 1-based endpoints.

Parsing keeps the vertex labels as they appeared in the file, so reports
can speak the caller's language; internally everything is 0-based.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
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
# path, 20 times the longest the tests, demos and benchmark read.
MAX_MASK_BYTES = 1 << 26


class FormatError(ValueError):
    """Malformed graph text."""


class ParsedGraph(NamedTuple):
    graph: Graph
    labels: tuple[int, ...]

    def label_of(self, vertex: int) -> int:
        return self.labels[vertex]

    def vertex_of(self, label: int) -> int:
        # Parsed labels are consecutive, so a label's offset from the first
        # is its vertex; a hand-built label tuple falls back to a scan.
        labels = self.labels
        i = label - labels[0] if labels else -1
        if 0 <= i < len(labels) and labels[i] == label:
            return i
        try:
            return labels.index(label)
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


def _graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph(n, edges), refused unbuilt if its masks would pass MAX_MASK_BYTES.

    The edges are read once and held at 8 bytes each, in a flat array of
    endpoints, up to the first one Graph rejects (an out-of-range endpoint
    or a self-loop); that one is kept aside so that Graph still names it.
    """
    top = [-1] * n  # highest neighbor id of each vertex
    ends = array("i")
    bad = None
    for u, v in edges:
        if 0 <= u < n and 0 <= v < n:
            if v > top[u]:
                top[u] = v
            if u > top[v]:
                top[v] = u
            if u != v and bad is None:
                ends.append(u)
                ends.append(v)
                continue
        if bad is None:
            bad = (u, v)
    if (size := (sum(top) + n) // 8) > MAX_MASK_BYTES:
        raise FormatError(f"graph needs about {size} bytes of adjacency masks, "
                          f"over the limit of {MAX_MASK_BYTES}")
    pairs = iter(ends)
    return Graph(n, chain(zip(pairs, pairs), [bad] if bad else ()))


def _canonical_edges(lines: Iterator[list[str]], m: int) -> Iterator[tuple[int, int]]:
    read, fault = 0, None
    for tokens in lines:
        read += 1
        if fault is None:  # a wrong edge count is reported before a bad line
            try:
                if len(tokens) != 2:
                    raise FormatError(f"edge line must be 'u v', got {' '.join(tokens)!r}")
                yield _endpoints(tokens[0], tokens[1])
            except FormatError as exc:
                fault = exc
    if read != m:
        raise FormatError(f"header declares {m} edges but file has {read} edge lines")
    if fault is not None:
        raise fault


def _parse_canonical(header: list[str], lines: Iterator[list[str]]) -> ParsedGraph:
    if len(header) != 2:
        raise FormatError(f"header must be 'n m', got {' '.join(header)!r}")
    n = _vertex_count(header[0])
    m = _int(header[1], "edge count")
    return ParsedGraph(_graph(n, _canonical_edges(lines, m)), tuple(range(n)))


def _dimacs_edges(lines: Iterator[list[str]], m: int) -> Iterator[tuple[int, int]]:
    read = 0
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
        read += 1
        u, v = _endpoints(tokens[1], tokens[2])
        yield u - 1, v - 1
    if read != m:
        raise FormatError(f"header declares {m} edges but file has {read} edge lines")


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
    return ParsedGraph(_graph(n, _dimacs_edges(lines, m)), tuple(range(1, n + 1)))


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
