"""Independent brute-force oracles used to validate the library.

Everything here works by scanning vertex subsets and checking structure
directly, so none of the library's search machinery (DFS enumeration,
LexBFS, incremental hull steps) is trusted by these reference answers.
The one exception, reference_scan, takes its pair intervals from the
caller, so that it can check the oracle's table scan on graphs too large
for brute_interval.  reference_read reads graph text whole, as a check
on the reader that streams it.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations, permutations

from lkconvex import FormatError, Graph, GraphError, MkmViolation, formats
from lkconvex.graph import set_of


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


def brute_convex_sets(g: Graph, k: int) -> set[frozenset[int]]:
    """Every convex set, the empty set included, tested against the pair
    intervals of brute_interval."""
    ivs = {p: brute_interval(g, k, *p) for p in combinations(range(g.n), 2)}
    out = set()
    for s in subsets(range(g.n)):
        fs = frozenset(s)
        if all(ivs[p] <= fs for p in combinations(s, 2)):
            out.add(fs)
    return out


def reference_scan(
    n: int, pair_interval: Callable[[int, int], int]
) -> tuple[list[int], MkmViolation | None]:
    """The oracle's scan one subset at a time: the masks of the nonempty
    convex sets, by size and lexicographic within a size, and the first of
    them that is not the hull of its extreme points, as an MkmViolation (or
    None).  pair_interval(u, v) is the mask of I[u,v] for u < v.

    span[S], the union of the pair intervals of S, is read off two smaller
    subsets and one pair: each set m of one size is extended by a vertex v
    above its top member t, and span[S] = span[S-v] | span[S-t] | span[{t,v}].
    S is convex when span[S] == S, x of S is extreme when S - x is convex,
    and the hull of the extreme points is the fixed point of span from them.
    """
    span = [0] * (1 << n)
    convex = []
    for v in range(n):
        span[1 << v] = 1 << v
        convex.append(1 << v)
    level = []
    for u, v in combinations(range(n), 2):
        s = 1 << u | 1 << v
        span[s] = pair_interval(u, v)
        if span[s] == s:
            convex.append(s)
        if v < n - 1:
            level.append(s)
    while level:
        nxt = []
        for m in level:
            t = m.bit_length()
            top = 1 << t - 1
            for v in range(t, n):
                s = m | 1 << v
                span[s] = span[m] | span[s ^ top] | span[s ^ m ^ top]
                if span[s] == s:
                    convex.append(s)
                if v < n - 1:
                    nxt.append(s)
        level = nxt
    violation = None
    for s in convex:
        ext = sum(1 << x for x in range(n) if s >> x & 1 and span[s ^ 1 << x] == s ^ 1 << x)
        hull = ext
        while span[hull] != hull:
            hull = span[hull]
        if hull != s:
            violation = MkmViolation(set_of(s), set_of(ext), set_of(hull))
            break
    return convex, violation


def brute_one_point_geometry(g: Graph, k: int) -> bool:
    """Convex geometry by one-point extensions (Edelman & Jamison, Geom.
    Dedicata 1985): every convex set other than V gains some vertex and
    stays convex.  Uses neither extreme points nor hulls."""
    convex = brute_convex_sets(g, k)
    everything = frozenset(range(g.n))
    return all(
        any(c | {x} in convex for x in everything - c)
        for c in convex
        if c != everything
    )


def brute_is_elimination_order(g: Graph, order) -> bool:
    """order lists each vertex once, and the neighbours of each vertex that
    come later in order form a clique, checked pair by pair."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        return False
    return all(
        is_clique(g, [y for y in order[i + 1:] if g.has_edge(x, y)])
        for i, x in enumerate(order)
    )


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


def simple_paths(nbrs: dict[int, set[int]], u: int, w: int, allowed) -> list[tuple[int, ...]]:
    """Every simple u-w path whose vertices all lie in allowed; nbrs[x] is
    the neighbour set of x."""
    out = []

    def extend(path):
        if path[-1] == w:
            out.append(tuple(path))
            return
        for y in sorted(nbrs[path[-1]] & allowed):
            if y not in path:
                extend(path + [y])

    extend([u])
    return out


def brute_first_failure(g: Graph) -> tuple[int, int, int] | None:
    """The first v of the reversed brute_lex_bfs order with two nonadjacent
    neighbours later in that order, with the least such pair (u, w) in
    lexicographic order, or None when there is no such v."""
    order = brute_lex_bfs(g)[::-1]
    for i, v in enumerate(order):
        later = sorted(y for y in order[i + 1:] if g.has_edge(v, y))
        pairs = [(u, w) for u, w in permutations(later, 2) if not g.has_edge(u, w)]
        if pairs:
            return (v, *min(pairs))
    return None


def brute_hole(g: Graph, from_w: bool = False) -> tuple[int, ...] | None:
    """The hole is_chordal defines: brute_first_failure's v closed by the
    shortest u-w path that avoids N[v] - {u, w}, lexicographically smallest
    among the shortest (as read from w instead with from_w), and reported
    as the least of the cycle's rotations and reflections.  Paths come from
    enumerating all simple paths."""
    failure = brute_first_failure(g)
    if failure is None:
        return None
    v, u, w = failure
    nbrs = {x: {y for y in range(g.n) if g.has_edge(x, y)} for x in range(g.n)}
    allowed = {u, w} | (set(range(g.n)) - nbrs[v] - {v})
    path = min(simple_paths(nbrs, u, w, allowed), key=lambda p: (len(p), p[::-1] if from_w else p))
    cycle = (v, *path)
    turns = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(turns + [t[::-1] for t in turns])


def brute_unnested_path(g: Graph) -> tuple[int, ...] | None:
    """x-u-v-y across the first edge uv, u < v in lexicographic order, whose
    closed neighbourhoods do not nest, with x the lowest vertex of
    N[u] - N[v] and y the lowest of N[v] - N[u], lower end first; None when
    every edge nests.  Neighbourhoods are sets built from has_edge."""
    closed = [{x} | {y for y in range(g.n) if g.has_edge(x, y)} for x in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v) and not (closed[u] <= closed[v] or closed[v] <= closed[u]):
            x, y = min(closed[u] - closed[v]), min(closed[v] - closed[u])
            return min((x, u, v, y), (y, v, u, x))
    return None


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
        for y in range(g.n):
            if g.has_edge(best, y) and y not in order:
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


def reference_read(text: str) -> tuple[Graph, range]:
    """The graph and labels that formats.parse_graph reads from text, or its
    error, found by splitting the whole text into lines at once and quoting
    each refused line whole.  Faults come in the reader's order: on each
    line the dialect's tag and width, the endpoints, the range and then a
    self-loop; the edge count after the last line.  The vertex limit is
    read from formats when called."""
    def integer(token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"expected an integer {what}, got {formats._quote(token)}") from None

    def shown(row: list[str]) -> str:
        return formats._quote(" ".join(row))

    rows = [row for line in text.splitlines() if (row := line.split("#", 1)[0].split(None, 4))]
    if not rows:
        raise FormatError("empty graph text")
    dimacs = rows[0][0].lower() in ("c", "p", "e")
    if dimacs:
        at = next((i for i, row in enumerate(rows) if row[0].lower() != "c"), len(rows))
        if at == len(rows):
            raise FormatError("missing 'p edge n m' header")
        tag = rows[at][0].lower()
        if tag == "e":
            raise FormatError("edge line before the 'p' header")
        if tag != "p":
            raise FormatError(f"unrecognized line tag {formats._quote(rows[at][0])}")
        header, body = rows[at], rows[at + 1:]
        if len(header) != 4 or header[1].lower() != "edge":
            raise FormatError(f"header must be 'p edge n m', got {shown(header)}")
        header = header[2:]
    else:
        header, body = rows[0], rows[1:]
        if len(header) != 2:
            raise FormatError(f"header must be 'n m', got {shown(header)}")
    n = integer(header[0], "vertex count")
    if n > formats.MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {formats.MAX_VERTICES}")
    m = integer(header[1], "edge count")
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    base = 1 if dimacs else 0
    edges = []
    for row in body:
        if dimacs:
            tag = row[0].lower()
            if tag == "c":
                continue
            if tag == "p":
                raise FormatError("multiple 'p' header lines")
            if tag != "e":
                raise FormatError(f"unrecognized line tag {formats._quote(row[0])}")
            if len(row) != 3:
                raise FormatError(f"edge line must be 'e u v', got {shown(row)}")
        elif len(row) != 2:
            raise FormatError(f"edge line must be 'u v', got {shown(row)}")
        u, v = (integer(token, "endpoint") - base for token in row[-2:])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {(u, v)!r} out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop {(u, v)!r} is not allowed")
        edges.append((u, v))
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges but file has {len(edges)} edge lines")
    return Graph(n, edges), range(base, n + base)
