"""Simple undirected graphs and the primitives the convexity machinery needs.

Vertices are the integers 0..n-1.  Neighborhoods are kept both as bitmasks
(for set algebra) and as sorted tuples (for deterministic iteration), and a
Graph is treated as immutable once constructed.  Everything that enumerates
vertices, paths or witnesses does so in ascending id order so repeated runs
give byte-identical output.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .bits import ids_of, iter_bits, set_of


class GraphError(ValueError):
    """Bad graph construction or an operation applied to invalid arguments."""


class Graph:
    """Immutable simple graph on vertices 0..n-1 built from an edge list.

    Duplicate edges collapse; self-loops and out-of-range endpoints are
    rejected with a message naming the offending pair.
    """

    __slots__ = ("n", "m", "_adj", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise GraphError(f"vertex count must be at least 1, got {n}")
        adj = [0] * n
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {tuple(pair)!r} out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop {tuple(pair)!r} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._finish(n, adj)

    def _finish(self, n: int, adj: list[int]) -> None:
        self.n = n
        self._adj = tuple(adj)
        self._nbrs = tuple(ids_of(a) for a in adj)
        self.m = sum(a.bit_count() for a in adj) // 2

    @classmethod
    def _from_adj(cls, n: int, adj: list[int]) -> Graph:
        # trusted fast path for generators; adj must already be symmetric
        g = object.__new__(cls)
        g._finish(n, adj)
        return g

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise GraphError(f"vertex {v!r} out of range for n={self.n}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._nbrs[v]

    def neighbor_mask(self, v: int) -> int:
        self.check_vertex(v)
        return self._adj[v]

    def closed_neighbor_mask(self, v: int) -> int:
        self.check_vertex(v)
        return self._adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in ascending order."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self._adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def labeller(labels: Sequence[int] | None) -> Callable[[int], int]:
    """Vertex id to its label: labels[v], or v itself without labels."""
    return (lambda v: v) if labels is None else labels.__getitem__


def bfs_distances(g: Graph, source: int) -> list[int]:
    """BFS distances from source; -1 marks unreachable vertices."""
    g.check_vertex(source)
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        for y in g._nbrs[x]:
            if dist[y] < 0:
                dist[y] = d
                queue.append(y)
    return dist


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path distance, or None when v is unreachable from u."""
    g.check_vertex(v)
    d = bfs_distances(g, u)[v]
    return None if d < 0 else d


def is_connected(g: Graph) -> bool:
    reached = 1
    frontier = 1
    adj = g._adj
    while frontier:
        nxt = 0
        for x in iter_bits(frontier):
            nxt |= adj[x]
        frontier = nxt & ~reached
        reached |= frontier
    return reached == g.full_mask


def diameter(g: Graph) -> int:
    """Largest pairwise distance; raises GraphError on disconnected input."""
    best = 0
    for u in range(g.n):
        dist = bfs_distances(g, u)
        worst = max(dist)
        if -1 in dist:
            raise GraphError("diameter is undefined on a disconnected graph")
        best = max(best, worst)
    return best


def simplicial_mask(g: Graph, within: int | None = None) -> int:
    """Bitmask of the simplicial vertices of the subgraph induced by `within`.

    A vertex is simplicial when its neighborhood (inside `within`) is a
    clique; vertices isolated in the subgraph count as simplicial.
    """
    if within is None:
        within = g.full_mask
    adj = g._adj
    out = 0
    for x in iter_bits(within):
        nb = adj[x] & within
        ok = True
        for y in iter_bits(nb):
            if nb & ~(adj[y] | (1 << y)):
                ok = False
                break
        if ok:
            out |= 1 << x
    return out


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood is a clique."""
    return set_of(simplicial_mask(g))


@dataclass(frozen=True)
class InducedPath:
    """An induced path recorded as its vertex sequence."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    def is_induced_in(self, g: Graph) -> bool:
        """Check consecutive adjacency and non-consecutive non-adjacency."""
        return _adjacent_exactly_in_order(g, self.vertices, cyclic=False)


@dataclass(frozen=True)
class HoleWitness:
    """An induced cycle on at least four vertices, in cyclic order."""

    cycle: tuple[int, ...]

    def is_hole_in(self, g: Graph) -> bool:
        return len(self.cycle) >= 4 and _adjacent_exactly_in_order(g, self.cycle, cyclic=True)


def _adjacent_exactly_in_order(g: Graph, vs: tuple[int, ...], cyclic: bool) -> bool:
    """vs are distinct vertices of g, and a pair of them is adjacent exactly
    when it is consecutive in vs (first and last count too when cyclic)."""
    if not vs or len(vs) != len(set(vs)) or any(not 0 <= x < g.n for x in vs):
        return False
    r = len(vs)
    for i in range(r):
        for j in range(i + 1, r):
            adjacent = bool(g._adj[vs[i]] >> vs[j] & 1)
            if adjacent != (j == i + 1 or (cyclic and i == 0 and j == r - 1)):
                return False
    return True


def _path_tuples(g: Graph, u: int, v: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Yield every induced u-v path with at most max_len edges.

    Paths come out in lexicographic order of their vertex sequences.  The
    walk keeps a mask of vertices adjacent to (or on) the path behind the
    tip, which is exactly the set that would break inducedness, and prunes
    with BFS distances to the target.
    """
    adj = g._adj
    dist = bfs_distances(g, v)
    if dist[u] < 0 or dist[u] > max_len:
        return
    path = [u]

    def walk(last: int, blocked: int) -> Iterator[tuple[int, ...]]:
        edges_after_step = len(path)
        cand = adj[last] & ~blocked
        for x in iter_bits(cand):
            if x == v:
                if edges_after_step <= max_len:
                    yield (*path, v)
            elif edges_after_step + dist[x] <= max_len:
                path.append(x)
                yield from walk(x, blocked | adj[last] | (1 << last))
                path.pop()

    yield from walk(u, 1 << u)


def induced_paths_between(g: Graph, u: int, v: int, max_len: int) -> Iterator[InducedPath]:
    """Stream the induced u-v paths with at most max_len edges.

    Requires u != v and max_len >= 1; the stream is empty when u and v are
    disconnected or further apart than max_len.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise GraphError("endpoints of a path must differ")
    if max_len < 1:
        raise GraphError(f"max_len must be at least 1, got {max_len}")
    for t in _path_tuples(g, u, v, max_len):
        yield InducedPath(t)


def contains_induced_path(g: Graph, m: int) -> InducedPath | None:
    """First induced path on m vertices in DFS order, or None.

    Used chiefly with m=4 to find the four-vertex path certificate.
    """
    if m < 1:
        raise GraphError(f"vertex count of a path must be positive, got {m}")
    if m == 1:
        return InducedPath((0,))
    adj = g._adj
    path: list[int] = []

    def walk(last: int, blocked: int) -> tuple[int, ...] | None:
        if len(path) == m:
            return tuple(path)
        for x in iter_bits(adj[last] & ~blocked):
            path.append(x)
            found = walk(x, blocked | adj[last] | (1 << last))
            if found is not None:
                return found
            path.pop()
        return None

    for s in range(g.n):
        path = [s]
        found = walk(s, 1 << s)
        if found is not None:
            return InducedPath(found)
    return None


class InducedSubgraph(NamedTuple):
    """A relabelled induced subgraph plus both direction maps."""

    graph: Graph
    parent_ids: tuple[int, ...]
    child_ids: dict[int, int]


def induced_subgraph(g: Graph, s: Iterable[int]) -> InducedSubgraph:
    """Subgraph induced by s, relabelled to 0..|s|-1 in ascending id order."""
    keep = sorted(set(s))
    if not keep:
        raise GraphError("cannot induce the empty subgraph")
    for v in keep:
        g.check_vertex(v)
    child = {old: new for new, old in enumerate(keep)}
    adj = [0] * len(keep)
    for new, old in enumerate(keep):
        for y in iter_bits(g._adj[old]):
            if y in child:
                adj[new] |= 1 << child[y]
    return InducedSubgraph(Graph._from_adj(len(keep), adj), tuple(keep), child)
