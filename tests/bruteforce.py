"""Independent brute-force oracles used to validate the library.

Everything here works by scanning vertex subsets and checking structure
directly, so none of the library's search machinery (DFS enumeration,
LexBFS, incremental hull steps) is trusted by these reference answers.
"""

from __future__ import annotations

from itertools import combinations, permutations

from lkconvex import Graph


def subsets(vs, min_size=0, max_size=None):
    vs = sorted(vs)
    if max_size is None:
        max_size = len(vs)
    for size in range(min_size, max_size + 1):
        yield from combinations(vs, size)


def is_clique(g: Graph, vs) -> bool:
    vs = list(vs)
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def induces_path_between(g: Graph, vs, u: int, v: int) -> bool:
    """Does the set vs induce a path whose endpoints are u and v?"""
    vs = set(vs)
    if u not in vs or v not in vs or u == v:
        return False
    deg = {}
    edges = 0
    for x in vs:
        d = sum(1 for y in vs if y != x and g.has_edge(x, y))
        deg[x] = d
        edges += d
    edges //= 2
    if edges != len(vs) - 1:
        return False
    if deg[u] != 1 or deg[v] != 1:
        return False
    if any(deg[x] != 2 for x in vs - {u, v}):
        return False
    # connected: a degree sequence 1,2,...,2,1 with n-1 edges could still be
    # a short path plus a cycle, so walk it
    seen = {u}
    frontier = {u}
    while frontier:
        frontier = {
            y for x in frontier for y in vs if y not in seen and g.has_edge(x, y)
        }
        seen |= frontier
    return seen == vs


def induced_path_sets(g: Graph, u: int, v: int, max_len: int | None = None):
    """All vertex sets inducing a u-v path with at most max_len edges.

    A path on u, v plus `size` internal vertices has size+1 edges, so the
    internal count is capped at max_len - 1.
    """
    internal_cap = g.n - 2 if max_len is None else max_len - 1
    others = [x for x in range(g.n) if x not in (u, v)]
    out = []
    for size in range(0, min(internal_cap, len(others)) + 1):
        for extra in combinations(others, size):
            vs = frozenset((u, v) + extra)
            if induces_path_between(g, vs, u, v):
                out.append(vs)
    return out


def brute_interval(g: Graph, k: int, u: int, v: int) -> frozenset[int]:
    out = {u, v}
    for vs in induced_path_sets(g, u, v, max_len=min(k, g.n - 1)):
        out |= vs
    return frozenset(out)


def brute_is_convex(g: Graph, k: int, s) -> bool:
    s = frozenset(s)
    return all(
        brute_interval(g, k, u, v) <= s for u, v in combinations(sorted(s), 2)
    )


def brute_hull_trace(g: Graph, k: int, s) -> list[frozenset[int]]:
    """Iterates of the interval operator from s, each step unioning the
    intervals of all pairs, until one step adds nothing."""
    trace = [frozenset(s)]
    while True:
        nxt = set(trace[-1])
        for u, v in combinations(sorted(trace[-1]), 2):
            nxt |= brute_interval(g, k, u, v)
        if nxt == trace[-1]:
            return trace
        trace.append(frozenset(nxt))


def brute_hull(g: Graph, k: int, s) -> frozenset[int]:
    return brute_hull_trace(g, k, s)[-1]


def brute_monophonic_convex(g: Graph, s) -> bool:
    """Convexity under all induced paths, with no length bound."""
    return brute_is_convex(g, g.n, s)


def brute_simplicial(g: Graph, within=None) -> frozenset[int]:
    vs = set(range(g.n)) if within is None else set(within)
    out = set()
    for x in vs:
        nb = [y for y in vs if y != x and g.has_edge(x, y)]
        if is_clique(g, nb):
            out.add(x)
    return frozenset(out)


def induces_cycle(g: Graph, vs) -> bool:
    """Does the set induce a (chordless, by construction) cycle?"""
    vs = set(vs)
    if len(vs) < 3:
        return False
    for x in vs:
        if sum(1 for y in vs if y != x and g.has_edge(x, y)) != 2:
            return False
    seen = set()
    frontier = {min(vs)}
    while frontier:
        seen |= frontier
        frontier = {
            y for x in frontier for y in vs if y not in seen and g.has_edge(x, y)
        }
    return seen == vs


def brute_has_hole(g: Graph) -> bool:
    return any(
        induces_cycle(g, vs) for vs in subsets(range(g.n), min_size=4)
    )


def brute_gem_count(g: Graph, min_n: int) -> int:
    """Count (base set, apex) pairs where the base induces a path of at
    least min_n edges and the apex sees all of it."""
    count = 0
    for apex in range(g.n):
        nb = [y for y in range(g.n) if y != apex and g.has_edge(apex, y)]
        for base in subsets(nb, min_size=min_n + 1):
            ends = [
                x
                for x in base
                if sum(1 for y in base if y != x and g.has_edge(x, y)) == 1
            ]
            if len(ends) == 2 and induces_path_between(g, base, *ends):
                count += 1
    return count


def brute_gem_solved(g: Graph, base, apex: int) -> tuple[int, ...] | None:
    """The lexicographically first induced 3-edge path between the ends of
    base that avoids apex, or None when the gem is unsolved."""
    x0, xn = base[0], base[-1]
    inner = sorted(set(range(g.n)) - {x0, xn, apex})
    for b, c in permutations(inner, 2):  # in lexicographic order
        ends = g.has_edge(x0, b) and g.has_edge(c, xn)
        if ends and induces_path_between(g, {x0, b, c, xn}, x0, xn):
            return (x0, b, c, xn)
    return None


INF = 10**9


def brute_distances(g: Graph) -> list[list[int]]:
    """Floyd-Warshall distances; values of INF mean unreachable."""
    dist = [
        [0 if i == j else (1 if g.has_edge(i, j) else INF) for j in range(g.n)]
        for i in range(g.n)
    ]
    for m in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][m] + dist[m][j] < dist[i][j]:
                    dist[i][j] = dist[i][m] + dist[m][j]
    return dist


def brute_lex_bfs(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS by explicit labels: each visit appends a falling
    stamp to the labels of its unvisited neighbours, and the unvisited
    vertex with the largest label list, smallest id first, goes next."""
    labels: list[list[int]] = [[] for _ in range(g.n)]
    order: list[int] = []
    for step in range(g.n):
        best = max((x for x in range(g.n) if x not in order), key=lambda x: (labels[x], -x))
        order.append(best)
        for y in g.neighbors(best):
            if y not in order:
                labels[y].append(g.n - step)
    return tuple(order)


def brute_adjacent_exactly_in_order(g: Graph, vs, cyclic: bool) -> bool:
    """vs are distinct vertices of g, and each pair of them is adjacent
    exactly when it is consecutive in vs, checked pair by pair."""
    if not vs or len(vs) != len(set(vs)) or any(not 0 <= x < g.n for x in vs):
        return False
    r = len(vs)
    for i, j in combinations(range(r), 2):
        consecutive = j == i + 1 or (cyclic and i == 0 and j == r - 1)
        if g.has_edge(vs[i], vs[j]) != consecutive:
            return False
    return True
