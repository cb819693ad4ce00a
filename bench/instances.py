"""Seeded instance generators for the benchmark.

These are the benchmark's own code, kept apart from ``lkconvex.generators``
so that a change to the program cannot change the benchmark's inputs.  A
graph is a pair ``(n, adj)`` where ``adj[v]`` is the neighbourhood bitmask
of vertex v; every generator is a pure function of its ``random.Random``.
"""

from __future__ import annotations

import random


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _link(adj: list[int], u: int, v: int) -> None:
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in _bits(adj[u]) if u < v]


def chordal(rng: random.Random, n: int, density: float, core: int | None = None) -> list[int]:
    """Connected chordal graph grown one simplicial vertex at a time.

    Each new vertex joins a clique inside the closed neighbourhood of a
    random earlier vertex, drawn from the first ``core`` vertices when that
    is given; ``density`` is the chance that each further neighbour of that
    anchor joins the clique.
    """
    adj = [0] * n
    for w in range(1, n):
        anchor = rng.randrange(w if core is None else min(w, core))
        clique = 1 << anchor
        pool = _bits(adj[anchor])
        rng.shuffle(pool)
        for y in pool:
            if rng.random() < density and clique & ~adj[y] == 0:
                clique |= 1 << y
        for c in _bits(clique):
            _link(adj, c, w)
    return adj


def cone(adj: list[int]) -> list[int]:
    """Add one vertex adjacent to every other vertex; it gets the last id."""
    n = len(adj)
    out = [a | (1 << n) for a in adj]
    out.append((1 << n) - 1)
    return out


def connected(rng: random.Random, n: int, extra: float) -> list[int]:
    """Random attachment tree plus each other pair with probability ``extra``."""
    adj = [0] * n
    for v in range(1, n):
        _link(adj, rng.randrange(v), v)
    for u in range(n):
        for v in range(u + 1, n):
            if not adj[u] >> v & 1 and rng.random() < extra:
                _link(adj, u, v)
    return adj


def trivially_perfect(rng: random.Random, n: int) -> list[int]:
    """Connected trivially perfect graph: a universal vertex over a random
    split of the remaining vertices into two to four blocks of the same
    shape, so the depth of the recursion stays near log n."""
    adj = [0] * n
    stack = [(0, n)]
    while stack:
        lo, size = stack.pop()
        for v in range(lo + 1, lo + size):
            _link(adj, lo, v)
        rest = size - 1
        if rest < 2:
            stack.extend([(lo + 1, rest)] if rest else [])
            continue
        cuts = sorted(rng.sample(range(1, rest), min(rest - 1, rng.randint(1, 3))))
        bounds = [0, *cuts, rest]
        for a, b in zip(bounds, bounds[1:]):
            stack.append((lo + 1 + a, b - a))
    return adj


def relabel(rng: random.Random, adj: list[int]) -> list[int]:
    """The same graph under a random vertex permutation."""
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for u in range(n):
        for v in _bits(adj[u]):
            out[perm[u]] |= 1 << perm[v]
    return out


def path(n: int) -> list[int]:
    adj = [0] * n
    for i in range(n - 1):
        _link(adj, i, i + 1)
    return adj


def gem(n: int) -> list[int]:
    """Path 0..n plus apex n+1 adjacent to all of it (an n-gem)."""
    return cone(path(n + 1))


def canonical_text(adj: list[int], comment: str) -> str:
    """Canonical dialect: 0-based ``n m`` header, one ``u v`` line per edge."""
    edges = edges_of(adj)
    lines = [f"# {comment}", f"{len(adj)} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def dimacs_text(adj: list[int], comment: str) -> str:
    """DIMACS dialect: 1-based ``p edge n m`` header and ``e u v`` lines."""
    edges = edges_of(adj)
    lines = [f"c {comment}", f"p edge {len(adj)} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"
