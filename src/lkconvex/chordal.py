"""Chordality testing with certificates for both answers.

The test runs lexicographic BFS and checks whether the reverse visit order
is a perfect elimination ordering; on chordal graphs it is, and the order is
returned as the positive certificate.  When the check fails, an induced
cycle on at least four vertices is extracted and returned instead, so either
verdict can be revalidated independently of the algorithm that produced it.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .bits import ids_of, iter_bits
from .graph import Graph, HoleWitness


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
        nb = adj[v] & later
        for y in iter_bits(nb):
            if nb & ~(adj[y] | (1 << y)):
                return False
    return True


def _shortest_path_within(g: Graph, u: int, w: int, allowed: int) -> tuple[int, ...] | None:
    """Shortest u-w path using only allowed vertices, or None."""
    parent = {u: -1}
    unseen = allowed & ~(1 << u)
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            out = []
            while x >= 0:
                out.append(x)
                x = parent[x]
            return tuple(reversed(out))
        new = g._adj[x] & unseen
        unseen ^= new
        for y in iter_bits(new):
            parent[y] = x
            queue.append(y)
    return None


def find_hole(g: Graph) -> HoleWitness | None:
    """Search for an induced cycle on four or more vertices.

    For a vertex v with non-adjacent neighbors u, w, any chordless u-w path
    that avoids the rest of N[v] closes into a hole through v.  A shortest
    such path in that restricted subgraph is automatically chordless.
    """
    adj = g._adj
    for v in range(g.n):
        nbrs = ids_of(adj[v])
        closed = adj[v] | (1 << v)
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if adj[u] >> w & 1:
                    continue
                banned = closed & ~(1 << u) & ~(1 << w)
                path = _shortest_path_within(g, u, w, g.full_mask & ~banned)
                if path is not None:
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
