"""Chordality testing with certificates for both answers.

The test runs lexicographic BFS and checks whether the reverse visit order
is a perfect elimination ordering; on chordal graphs it is, and the order is
returned as the positive certificate.  When the check fails, an induced
cycle on at least four vertices is extracted and returned instead, so either
verdict can be revalidated independently of the algorithm that produced it.
"""

from __future__ import annotations

from itertools import takewhile
from typing import NamedTuple

from .bits import iter_bits
from .graph import Graph, HoleWitness, _balls, _is_clique


class ChordalityResult(NamedTuple):
    chordal: bool
    peo: tuple[int, ...] | None
    hole: HoleWitness | None


def lex_bfs(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS visit order.

    The unvisited vertex with the largest label is taken next, ties broken
    by smallest id, so the order is deterministic.  The unvisited vertices
    form an ordered partition of masks, largest label first, and each visit
    splits every class into its neighbours, then the rest (Rose, Tarjan &
    Lueker, SIAM J. Comput. 5, 1976).
    """
    adj = g._adj
    classes = [g.full_mask]
    order: list[int] = []
    while classes:
        low = classes[0] & -classes[0]
        classes[0] ^= low
        x = low.bit_length() - 1
        order.append(x)
        nb = adj[x]
        classes = [part for c in classes for part in (c & nb, c & ~nb) if part]
    return tuple(order)


def is_elimination_ordering(g: Graph, order: tuple[int, ...] | list[int]) -> bool:
    """True when every vertex's later neighbors form a clique."""
    if sorted(order) != list(range(g.n)):
        return False
    adj = g._adj
    later = g.full_mask
    for v in order:
        later &= ~(1 << v)
        if not _is_clique(adj, adj[v] & later):
            return False
    return True


def find_hole(g: Graph) -> HoleWitness | None:
    """Search for an induced cycle on four or more vertices.

    For a vertex v with non-adjacent neighbors u, w, any chordless u-w path
    that avoids the rest of N[v] closes into a hole through v.  A shortest
    such path in that restricted subgraph is automatically chordless.

    The first (v, u < w) with such a path wins.  Since u and w are
    nonadjacent, every u-w path avoiding N[v] - {u, w} has all its inner
    vertices outside N[v], so one exists iff w has a neighbour among the
    vertices u reaches in G - (N[v] - {u}).  One reach per (v, u) thus
    answers every w at once, and the first w is the lowest candidate seen.

    The path is the lexicographically first shortest u-w path: from u, step
    to the lowest-id neighbour in the next smaller ball around w inside
    G - (N[v] - {u, w}), until w.  Every neighbour there continues a
    shortest path, so each greedy step is the least that can still finish.
    A FIFO BFS from u that reads neighbours in ascending order finds the
    same path through its parent links: by induction on d, it visits layer
    d in the order of the first shortest paths to its vertices, and each
    vertex of layer d + 1 takes as parent its first visited neighbour in
    layer d, the end of the least such path.
    """
    adj = g._adj
    for v in range(g.n):
        for u in iter_bits(adj[v]):
            later = adj[v] & ~adj[u] & -(2 << u)  # the candidates w > u
            if not later:
                continue
            outside = ~(adj[v] | 1 << v) | 1 << u  # G - (N[v] - {u})
            seen = 0  # the neighbours of what u reaches there
            for x in iter_bits(max(_balls(g, 1 << u, outside))):  # balls only grow
                seen |= adj[x]
            if hit := later & seen:
                w = (hit & -hit).bit_length() - 1
                inner = takewhile(lambda ball: not ball >> u & 1, _balls(g, 1 << w, outside))
                path = [u]
                for ball in reversed(list(inner)):  # the balls around w that miss u
                    nb = adj[path[-1]] & ball
                    path.append((nb & -nb).bit_length() - 1)
                return HoleWitness((v, *path))
    return None


def is_chordal(g: Graph) -> ChordalityResult:
    """Decide chordality, returning an elimination order or a hole."""
    order = lex_bfs(g)
    peo = tuple(reversed(order))
    if is_elimination_ordering(g, peo):
        return ChordalityResult(True, peo, None)
    hole = find_hole(g)
    if hole is None:
        raise AssertionError("elimination check failed but no hole was found")
    return ChordalityResult(False, None, hole)
