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

from collections.abc import Iterable
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
        try:
            return self.labels.index(label)
        except ValueError:
            raise FormatError(f"unknown vertex label {label}") from None


def _meaningful_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer {what}, got {token!r}") from None


def _vertex_count(token: str) -> int:
    n = _int(token, "vertex count")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


def _graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Graph(n, edges), refused unbuilt if its masks would pass MAX_MASK_BYTES."""
    top = [-1] * n  # highest neighbor id of each vertex
    for u, v in edges:
        if 0 <= u < n and 0 <= v < n:  # Graph names the bad edges
            top[u], top[v] = max(top[u], v), max(top[v], u)
    if (size := (sum(top) + n) // 8) > MAX_MASK_BYTES:
        raise FormatError(f"graph needs about {size} bytes of adjacency masks, "
                          f"over the limit of {MAX_MASK_BYTES}")
    return Graph(n, edges)


def _parse_canonical(lines: list[list[str]]) -> ParsedGraph:
    header = lines[0]
    if len(header) != 2:
        raise FormatError(f"header must be 'n m', got {' '.join(header)!r}")
    n = _vertex_count(header[0])
    m = _int(header[1], "edge count")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"header declares {m} edges but file has {len(body)} edge lines")
    edges = []
    for tokens in body:
        if len(tokens) != 2:
            raise FormatError(f"edge line must be 'u v', got {' '.join(tokens)!r}")
        edges.append((_int(tokens[0], "endpoint"), _int(tokens[1], "endpoint")))
    return ParsedGraph(_graph(n, edges), tuple(range(n)))


def _parse_dimacs(lines: list[list[str]]) -> ParsedGraph:
    header = None
    edges = []
    for tokens in lines:
        tag = tokens[0].lower()
        if tag == "c":
            continue
        if tag == "p":
            if header is not None:
                raise FormatError("multiple 'p' header lines")
            if len(tokens) != 4:
                raise FormatError(f"header must be 'p edge n m', got {' '.join(tokens)!r}")
            header = (_vertex_count(tokens[2]), _int(tokens[3], "edge count"))
        elif tag == "e":
            if header is None:
                raise FormatError("edge line before the 'p' header")
            if len(tokens) != 3:
                raise FormatError(f"edge line must be 'e u v', got {' '.join(tokens)!r}")
            edges.append((_int(tokens[1], "endpoint") - 1, _int(tokens[2], "endpoint") - 1))
        else:
            raise FormatError(f"unrecognized line tag {tokens[0]!r}")
    if header is None:
        raise FormatError("missing 'p edge n m' header")
    n, m = header
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges but file has {len(edges)} edge lines")
    return ParsedGraph(_graph(n, edges), tuple(range(1, n + 1)))


def parse_graph(text: str) -> ParsedGraph:
    """Parse either dialect, keyed off the first meaningful line."""
    lines = _meaningful_lines(text)
    if not lines:
        raise FormatError("empty graph text")
    if lines[0][0].lower() in ("c", "p", "e"):
        return _parse_dimacs(lines)
    return _parse_canonical(lines)


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
