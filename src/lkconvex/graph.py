"""Simple undirected graphs and the primitives the convexity machinery needs.

Vertices are the integers 0..n-1.  Each neighborhood is kept as one
bitmask, read in ascending bit order wherever it is iterated, and a Graph
is treated as immutable once constructed.  Any set of vertices is stored
the same way, as an int with bit v for vertex v; mask_of, iter_bits and
set_of convert between such masks and vertex ids.  Everything that
enumerates vertices, paths or witnesses does so in ascending id order so
repeated runs give byte-identical output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    """Bitmask to a frozenset of vertex ids."""
    return frozenset(iter_bits(mask))


class GraphError(ValueError):
    """Bad graph construction or an operation applied to invalid arguments."""


def empty_masks(n: int) -> list[int]:
    """The n empty neighborhood masks a graph on n vertices starts from."""
    if n < 1:
        raise GraphError(f"vertex count must be at least 1, got {n}")
    return [0] * n


def edge_fault(n: int, u: int, v: int) -> GraphError:
    """The error naming (u, v), which is no edge of a graph on n vertices:
    an end out of range, or else a self-loop."""
    if 0 <= u < n and 0 <= v < n:
        return GraphError(f"self-loop {(u, v)!r} is not allowed")
    return GraphError(f"edge {(u, v)!r} out of range for n={n}")


class Graph:
    """Immutable simple graph on vertices 0..n-1 built from an edge list.

    Duplicate edges collapse; self-loops and out-of-range endpoints are
    rejected with a message naming the offending pair.
    """

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        adj = empty_masks(n)
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise edge_fault(n, u, v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._finish(n, adj)

    def _finish(self, n: int, adj: list[int]) -> None:
        self.n = n
        self._adj = tuple(adj)
        self.m = sum(map(int.bit_count, adj)) // 2

    @classmethod
    def _from_adj(cls, n: int, adj: list[int]) -> Graph:
        # trusted fast path for generators; adj must already be symmetric
        g = object.__new__(cls)
        g._finish(n, adj)
        return g

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise GraphError(f"vertex {v!r} out of range for n={self.n}")

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


def _balls(g: Graph, start: int, within: int = -1) -> Iterator[int]:
    """Yield the masks of the vertices within 0, 1, 2, ... steps of the mask
    start in the subgraph induced by within plus start (all of g by default);
    the last one is everything start reaches there, and the balls stop as
    soon as they stop growing, or at once when a ball holds all of within
    plus start, whose next frontier must be empty."""
    adj = g._adj
    whole = (within | start) & g.full_mask
    ball = frontier = start
    while frontier:
        yield ball
        if ball == whole:
            return
        nxt = 0
        for x in iter_bits(frontier):
            nxt |= adj[x]
        frontier = nxt & within & ~ball
        ball |= frontier


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path distance, or None when v is unreachable from u."""
    g.check_vertex(v)
    g.check_vertex(u)
    return next((d for d, ball in enumerate(_balls(g, 1 << u)) if ball >> v & 1), None)


def is_connected(g: Graph) -> bool:
    return max(_balls(g, 1)) == g.full_mask  # balls only grow: max is the last


def simplicial_mask(g: Graph, within: int) -> int:
    """Bitmask of the simplicial vertices of the subgraph induced by `within`.

    A vertex is simplicial when its neighborhood (inside `within`) is a
    clique; vertices isolated in the subgraph count as simplicial.
    """
    adj = g._adj
    out = 0
    for x in iter_bits(within):
        if _missing_pair(adj, adj[x] & within) is None:
            out |= 1 << x
    return out


def _missing_pair(adj: Sequence[int], nb: int) -> tuple[int, int] | None:
    """The first nonadjacent pair of the vertices of mask nb under adj: the
    lowest y that misses another, and the lowest z it misses; None when nb
    is a clique."""
    for y in iter_bits(nb):
        if miss := nb & ~(adj[y] | (1 << y)):
            return y, (miss & -miss).bit_length() - 1
    return None


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


def _three_edge_middles(adj: Sequence[int], u: int, v: int) -> Iterator[tuple[int, int]]:
    """The middles of the induced 3-edge u-v paths, for nonadjacent u and v:
    each b of A = N(u) - N[v] with a neighbour in C = N(v) - N[u], in
    ascending order, with the mask of those neighbours.  The paths are
    exactly u-b-c-v for such b and c: u-b, b-c and c-v are edges, and the
    three non-consecutive pairs u-c, b-v and u-v are not, which is what
    b in A, c in C and u, v nonadjacent say."""
    far = adj[v] & ~adj[u]  # C: u is not in N(v)
    for b in iter_bits(adj[u] & ~adj[v]):  # A: v is not in N(u)
        if cs := adj[b] & far:
            yield b, cs


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


def _near(g: Graph, start: int, within: int, k: int) -> list[int]:
    """The k balls of radius 0..k-1 around the mask start through within,
    as _balls grows them, padded with the last one (all 0 when start is
    empty)."""
    near = list(islice(_balls(g, start, within), k)) or [0]
    return near + [near[-1]] * (k - len(near))


def induced_paths_between(g: Graph, u: int, v: int, max_len: int) -> Iterator[InducedPath]:
    """Stream the induced u-v paths with at most max_len edges.

    Requires u != v and max_len >= 1; the stream is empty when u and v are
    disconnected or further apart than max_len.  Paths come out in
    lexicographic order of their vertex sequences.  A path only grows
    toward v while it can still reach v in time, and stops there.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise GraphError("endpoints of a path must differ")
    if max_len < 1:
        raise GraphError(f"max_len must be at least 1, got {max_len}")
    k = min(max_len, g.n - 1)
    near = _near(g, 1 << v, -1, k)

    def prune(path: list[int], cand: int) -> int:
        # a path on L vertices grows only into the vertices within k - L
        # steps of v, so that it can still end there in time; it stops at v
        return 0 if path[-1] == v else cand & near[k - len(path)]

    for path in _induced_walk(g, u, prune):
        if path[-1] == v:
            yield InducedPath(tuple(path))


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
