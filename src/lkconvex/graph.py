"""Simple undirected graphs and the primitives the convexity machinery needs.

Vertices are the integers 0..n-1.  Each neighborhood is kept as one
bitmask, read in ascending bit order wherever it is iterated, and a Graph
is treated as immutable once constructed.  Everything that enumerates
vertices, paths or witnesses does so in ascending id order so repeated runs
give byte-identical output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .bits import ids_of, iter_bits, mask_of, set_of


class GraphError(ValueError):
    """Bad graph construction or an operation applied to invalid arguments."""


class Graph:
    """Immutable simple graph on vertices 0..n-1 built from an edge list.

    Duplicate edges collapse; self-loops and out-of-range endpoints are
    rejected with a message naming the offending pair.
    """

    __slots__ = ("n", "m", "_adj")

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
        return ids_of(self._adj[v])

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


def _balls(g: Graph, v: int) -> Iterator[int]:
    """Yield the masks of the vertices within 0, 1, 2, ... steps of v; the
    last one is the whole component of v."""
    adj = g._adj
    ball = frontier = 1 << v
    while frontier:
        yield ball
        nxt = 0
        for x in iter_bits(frontier):
            nxt |= adj[x]
        frontier = nxt & ~ball
        ball |= frontier


def bfs_distances(g: Graph, source: int) -> list[int]:
    """BFS distances from source; -1 marks unreachable vertices."""
    g.check_vertex(source)
    dist = [-1] * g.n
    inner = 0
    for d, ball in enumerate(_balls(g, source)):
        for x in iter_bits(ball ^ inner):
            dist[x] = d
        inner = ball
    return dist


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path distance, or None when v is unreachable from u."""
    g.check_vertex(v)
    g.check_vertex(u)
    return next((d for d, ball in enumerate(_balls(g, u)) if ball >> v & 1), None)


def is_connected(g: Graph) -> bool:
    return max(_balls(g, 0)) == g.full_mask  # balls only grow: max is the last


def diameter(g: Graph) -> int:
    """Largest pairwise distance; raises GraphError on disconnected input."""
    if not is_connected(g):
        raise GraphError("diameter is undefined on a disconnected graph")
    return max(sum(1 for _ in _balls(g, u)) for u in g.vertices) - 1


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
    if not vs or len(set(vs)) != len(vs) or min(vs) < 0 or max(vs) >= g.n:
        return False
    on = mask_of(vs)
    ends = (vs[-1], *vs, vs[0]) if cyclic else (vs[0], *vs, vs[-1])
    for i, x in enumerate(vs):  # ends[i], ends[i + 2]: x's neighbours in vs, or x
        if g._adj[x] & on != (1 << ends[i] | 1 << ends[i + 2]) & ~(1 << x):
            return False
    return True


def _induced_walk(g: Graph, start: int, prune: Callable[[list[int], int], int]) -> Iterator[list[int]]:
    """Walk the induced paths that begin at start, depth first.

    Yields the live path (a list the walk keeps mutating) once per path, in
    lexicographic order.  After each yield it passes prune(path, cand) the
    tip's induced extensions, the neighbors of the tip not on or next to
    the rest of the path, if there are any, and descends into the subset
    prune returns.  The stack is explicit: no recursion limit applies.
    """
    adj = g._adj
    path: list[int] = []
    # frames: (vertices left to try at depth d, what their extensions avoid, d)
    stack = [(1 << start, 1 << start, 0)]
    while stack:
        rest, closed, d = stack.pop()
        low = rest & -rest
        if rest != low:
            stack.append((rest ^ low, closed, d))
        x = low.bit_length() - 1
        path[d:] = [x]
        yield path
        cand = adj[x] & ~closed
        if cand and (more := prune(path, cand)):
            stack.append((more, closed | adj[x], d + 1))


def _path_tuples(g: Graph, u: int, v: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Yield every induced u-v path with at most max_len edges.

    Paths come out in lexicographic order of their vertex sequences.  A
    path on L vertices only grows into near[max_len - L], the vertices
    within max_len - L steps of v, so that it can still end at v in time.
    """
    max_len = min(max_len, g.n - 1)
    near = list(islice(_balls(g, v), max_len))
    near += [near[-1]] * (max_len - len(near))

    def prune(path: list[int], cand: int) -> int:
        return 0 if path[-1] == v else cand & near[max_len - len(path)]

    for path in _induced_walk(g, u, prune):
        if path[-1] == v:
            yield tuple(path)


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

    def prune(path: list[int], cand: int) -> int:
        return cand if len(path) < m else 0

    for s in range(g.n):
        for path in _induced_walk(g, s, prune):
            if len(path) == m:
                return InducedPath(tuple(path))
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
