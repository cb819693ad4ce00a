"""Graph fixtures and seeded random families for tests and cross-validation.

Random families take an integer seed and are reproducible: the same
(parameters, seed) always builds the same graph.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import combinations

from .graph import Graph, GraphError, is_connected, iter_bits

_STRIP7_EDGES = (
    (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3),
    (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
)


def triangle_strip7() -> Graph:
    """Strip of five triangles glued along edges, on seven vertices.

    Chordal with diameter 3; a convex geometry for k=3 even though it holds
    induced paths on five vertices.  Deleting vertex 1 or vertex 4 destroys
    the property, which makes it the standard witness that the k=3 class is
    not closed under induced subgraphs.
    """
    return Graph(7, _STRIP7_EDGES)


def path(n: int) -> Graph:
    """Path on n vertices, 0 .. n-1 in order."""
    if n < 1:
        raise GraphError(f"path needs at least 1 vertex, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise GraphError(f"complete graph needs at least 1 vertex, got {n}")
    return Graph(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 1:
        raise GraphError(f"star needs at least 1 vertex, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def gem(n: int) -> Graph:
    """The n-gem: path 0..n plus apex n+1 adjacent to every path vertex.

    n+2 vertices and 2n+1 edges; requires n >= 3.
    """
    if n < 3:
        raise GraphError(f"gems need a base of at least 3 edges, got {n}")
    edges = [(i, i + 1) for i in range(n)]
    edges += [(i, n + 1) for i in range(n + 1)]
    return Graph(n + 2, edges)


def random_trivially_perfect(n: int, seed: int) -> Graph:
    """Random connected graph that is chordal with no induced four-vertex path.

    Built by the defining recursion: a universal vertex over a random
    composition of smaller blocks of the same shape.
    """
    if n < 1:
        raise GraphError(f"need at least 1 vertex, got {n}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []

    def build(lo: int, size: int) -> None:
        if size == 1:
            return
        for v in range(lo + 1, lo + size):
            edges.append((lo, v))
        start = lo + 1
        rest = size - 1
        while rest:
            part = rng.randint(1, rest)
            build(start, part)
            start += part
            rest -= part

    build(0, n)
    return Graph(n, edges)


def random_connected_chordal(n: int, density: float, seed: int) -> Graph:
    """Random connected chordal graph grown one simplicial vertex at a time.

    Vertex w attaches to a clique inside the neighborhood of an earlier
    anchor vertex; density in [0, 1] drives how large that clique gets
    (0 yields a random tree).  Descending vertex ids are a perfect
    elimination ordering of the result.
    """
    if n < 1:
        raise GraphError(f"need at least 1 vertex, got {n}")
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    adj = [0] * n
    for w in range(1, n):
        anchor = rng.randrange(w)
        clique_mask = 1 << anchor
        pool = list(iter_bits(adj[anchor] & ((1 << w) - 1)))
        rng.shuffle(pool)
        for y in pool:
            if rng.random() < density and clique_mask & ~adj[y] == 0:
                clique_mask |= 1 << y
        for c in iter_bits(clique_mask):
            adj[c] |= 1 << w
            adj[w] |= 1 << c
    return Graph._from_adj(n, adj)


def random_connected(n: int, density: float, seed: int) -> Graph:
    """Random connected graph: a random attachment tree plus extra edges,
    each non-tree pair kept with probability density."""
    if n < 1:
        raise GraphError(f"need at least 1 vertex, got {n}")
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    adj = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u, v in combinations(range(n), 2):
        if not adj[u] >> v & 1 and rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph._from_adj(n, adj)


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labelled graph on vertices 0..n-1, for n <= 7.

    Streams 2^(n choose 2) candidate edge subsets, so the cap is firm.
    """
    if not 1 <= n <= 7:
        raise GraphError(f"exhaustive enumeration is capped at n=7, got {n}")
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for i in iter_bits(code):
            u, v = pairs[i]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        g = Graph._from_adj(n, adj)
        if is_connected(g):
            yield g
