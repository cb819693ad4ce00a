"""Chordality testing with certificates for both answers.

The test runs lexicographic BFS and checks whether the reverse visit order
is a perfect elimination ordering; on chordal graphs it is, and the order is
returned as the positive certificate: the caller can re-check it by
testing that each vertex's later neighbours form a clique.  When the check
fails, the hole is read off the vertex where it failed and returned instead,
so either verdict can be revalidated independently of the algorithm that
produced it.
"""

from __future__ import annotations

from itertools import takewhile
from typing import NamedTuple

from .graph import Graph, HoleWitness, _balls, _missing_pair


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


def _first_failure(g: Graph, order: tuple[int, ...] | list[int]) -> tuple[int, int, int] | None:
    """The first v of order whose later neighbours are not a clique, with
    the lowest of them, u, that misses another and the lowest w that u
    misses; None when every vertex passes."""
    adj = g._adj
    later = g.full_mask
    for v in order:
        later &= ~(1 << v)
        if pair := _missing_pair(adj, adj[v] & later):
            return v, *pair
    return None


def is_chordal(g: Graph) -> ChordalityResult:
    """Decide chordality, returning an elimination order or a hole.

    The reverse LexBFS order is a perfect elimination ordering exactly when
    g is chordal (Rose, Tarjan & Lueker).  When it is not, let (v, u, w) be
    the first failure of the order.  The hole is v closed by the
    lexicographically first shortest u-w path in G - (N[v] - {u, w}): its
    inner vertices miss N[v], and a shortest path is chordless, so with v
    it is an induced cycle on at least four vertices.  From u the path
    steps to the lowest-id neighbour in the next smaller ball around w,
    until w; every neighbour there continues a shortest path, so each
    greedy step is the least that can still finish.

    Such a path exists.  Write p < q when LexBFS visited p before q, and
    let a < b be u and w in that order, so a < b < v, both are adjacent to
    v and not to each other.  (*) If p < q < r, pr is an edge and pq is
    not, then the first vertex s < q adjacent to exactly one of q and r is
    adjacent to q, and s < p: when q was taken r's label was no larger than
    q's, p is in r's label and not in q's, so the labels first differ at an
    earlier s in q's label.  Put t0, t1, t2 = v, b, a, and while t(i+2)
    misses t(i+1) let t(i+3) be the s of (*) for (t(i+2), t(i+1), t(i)).
    It is adjacent to t(i+1) and not to t(i), and it precedes every t(j+3)
    with j < i, so it is adjacent to t(j+1) iff to t(j): down the chain it
    misses t(i-1), ..., t0 as well.  The visit times fall, so some t(m) is
    adjacent to t(m-1), and a, t4, t6, ... and b, t3, t5, ... join into an
    a-b path whose inner vertices t3, ..., t(m) were visited before a and
    miss N[v].  Tarjan & Yannakakis (SIAM J. Comput. 13, 1984, section 4)
    prove the same claim for maximum cardinality search.

    The cycle is reported from its lowest vertex, towards the lower of
    that vertex's two neighbours on it.
    """
    peo = tuple(reversed(lex_bfs(g)))
    failure = _first_failure(g, peo)
    if failure is None:
        return ChordalityResult(True, peo, None)
    v, u, w = failure
    adj = g._adj
    allowed = ~(adj[v] | 1 << v) | 1 << u | 1 << w  # G - (N[v] - {u, w})
    inner = takewhile(lambda ball: not ball >> u & 1, _balls(g, 1 << w, allowed))
    cycle = [v, u]
    for ball in reversed(list(inner)):  # the balls around w that miss u
        nb = adj[cycle[-1]] & ball
        cycle.append((nb & -nb).bit_length() - 1)
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    if cycle[-1] < cycle[1]:  # run towards the lower neighbour
        cycle[1:] = cycle[:0:-1]
    return ChordalityResult(False, None, HoleWitness(tuple(cycle)))
