"""Interval, hull, and convexity operators over short induced paths.

For a fixed k >= 2 the interval I[u,v] contains u, v, and every vertex lying
on an induced u-v path with at most k edges; I[v,v] = {v}.  A set S is convex
when I[u,v] is inside S for every pair u, v in S, and the hull of S is the
least convex superset, obtained by iterating the interval operator until it
stops growing.  A vertex x of a convex S is an extreme point when S\\{x} is
still convex; for k >= 2 that happens exactly when x is simplicial in the
subgraph induced by S, and extreme_points answers by that test.

Every operator computes each pair interval it needs once.  A hull step
is built from segments between vertices of the set: one induced-path walk
from each vertex the previous step added, through vertices outside the
set, to the rest of the set, and the iteration stops early at V, which is
convex.  A walk grows only into vertices close enough to its targets
through vertices outside the set.  The ball around a target set is the
union of its members' balls, so the walks take the added vertices in
descending order and share one ball set, grown once from the old members
and widened by each added vertex's own balls after its walk.  A pair
interval at k = 2 or 3 has a closed form read off the neighbourhood masks
of the pair and of N(u); at k >= 4 it is the one-pair case of the hull
step.

The exhaustive scan over all 2^n subsets lives in geometry, which builds
its tables from _interval_mask.

Values of k above n-1 are indistinguishable from k = n-1 (no induced path is
longer), so k is clamped there.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    _near,
    _three_edge_middles,
    iter_bits,
    labeller,
    set_of,
    simplicial_mask,
)


class NotConvexError(ValueError):
    """An operation needing a convex set was handed a non-convex one."""

    def __init__(self, pair: tuple[int, int], escaped: int):
        self.pair = pair
        self.escaped = escaped
        u, v = pair
        super().__init__(
            f"set is not convex: the interval of ({u}, {v}) contains vertex "
            f"{escaped}, which is outside the set"
        )


def effective_k(g: Graph, k: int) -> int:
    """Validate k >= 2 and clamp it to n-1, past which intervals are constant."""
    if k < 2:
        raise GraphError(f"path-length bound k must be at least 2, got {k}")
    return min(k, g.n - 1) if g.n > 1 else 1


def _step(g: Graph, k: int, cur: int, new: int) -> int:
    """cur plus I[u,v] over the pairs u, v of cur that meet new (new inside
    cur), built from segments between vertices of cur.  In a hull step new
    is what the last step added: the intervals of the other pairs, those of
    the previous iterate, are already in cur.

    Lemma.  Cut an induced path with at most k edges whose ends lie in cur
    at each of its vertices in cur.  Each piece is a subpath, so it is an
    induced path with at most k edges; both its ends are in cur and no inner
    vertex is.  Every vertex of the path outside cur is inner to a piece.
    A piece is an induced path between its two ends, so it lies in their
    interval, and when both ends are outside new that interval is already
    in cur.  So the step is cur plus the pieces with an end in new.

    A piece with both ends in new is found from its lower end.  So from
    each u in new one walk looks for the pieces that end in T_u, cur - new
    plus the vertices of new above u.  It stops at any vertex of cur, and a
    path on L vertices only grows into the vertices within k - L steps of
    T_u through vertices outside cur, so that it can still end in T_u in
    time.

    Ball lemma.  The ball of radius r around a target set, through vertices
    outside cur, is the union of the balls of radius r around its members:
    cut a shortest path from the set at its last target.  So the walks take
    new in descending order and share one list of balls, grown from cur -
    new, into which each u's own balls are ORed after its walk; then every
    walk prunes with the balls of exactly its T_u.  The lowest u's balls
    are never read, so they are not grown.

    A walk's frames carry the vertices left to try at one depth, what
    their extensions avoid, the mask of the path before them and the
    radius their extensions must lie within.  A tip outside cur closes
    every piece it has with a target at once, and grows only into vertices
    outside cur.  The stack is explicit: no recursion limit applies.
    """
    adj = g._adj
    out = cur
    outside = ~cur
    near = _near(g, cur & ~new, outside, k)
    left = new
    while left:
        u = left.bit_length() - 1
        left ^= 1 << u
        if rest := adj[u] & outside & near[k - 1]:
            stack = [(rest, adj[u] | 1 << u, 1 << u, k - 2)]
            while stack:
                rest, closed, on, r = stack.pop()
                low = rest & -rest
                if rest != low:
                    stack.append((rest ^ low, closed, on, r))
                ax = adj[low.bit_length() - 1]
                cand = ax & ~closed & near[r]
                if cand & cur:
                    out |= on | low
                if cand := cand & outside:
                    stack.append((cand, closed | ax, on | low, r - 1))
        if left:
            balls = _near(g, 1 << u, outside, k)
            # near[0] is the target set; while it is empty, so is every ball
            near = list(map(int.__or__, near, balls)) if near[0] else balls
    return out


def _first_violation(g: Graph, k: int, smask: int) -> tuple[tuple[int, int], int] | None:
    """The first pair (u < v, lexicographic) whose interval leaves smask,
    with the lowest escaped vertex, or None when smask is convex."""
    vs = list(iter_bits(smask))
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            esc = _interval_mask(g, k, u, v) & ~smask
            if esc:
                return (u, v), (esc & -esc).bit_length() - 1
    return None


def _hull_masks(g: Graph, k: int, smask: int) -> list[int]:
    """Iterates of the interval operator up to its fixed point, or up to V."""
    out = [smask]
    new = cur = smask
    while cur != g.full_mask:
        nxt = _step(g, k, cur, new)
        if nxt == cur:
            break
        out.append(nxt)
        new = nxt & ~cur
        cur = nxt
    return out


def _interval_mask(g: Graph, k: int, u: int, v: int) -> int:
    """I[u,v] for u != v.

    An adjacent pair has no other induced path: any longer u-v path has the
    chord uv.  So let u and v be nonadjacent.  Their induced paths with two
    edges are u-w-v for w in N(u) & N(v), each induced because uv is not an
    edge, and there is none shorter.  So at k = 2, I[u,v] = {u, v} plus
    N(u) & N(v).  That also covers the clamped k = 1 of a 2-vertex graph,
    where no third vertex, hence no common neighbour, exists.

    At k = 3 the induced paths with three edges join in.  A path u-b-c-v
    is induced exactly when b is in A = N(u) - N[v], c in C = N(v) - N[u]
    and bc is an edge (_three_edge_middles).  So I[u,v] gains each b of A
    with a neighbour in C, and those neighbours: O(deg u) mask operations.

    At k >= 4 it is the one-pair step, a walk from u pruned by the balls
    around v.
    """
    adj = g._adj
    pair = 1 << u | 1 << v
    if adj[u] >> v & 1:
        return pair
    if k > 3:
        return _step(g, k, pair, pair)
    out = pair | adj[u] & adj[v]
    if k == 3:
        for b, cs in _three_edge_middles(adj, u, v):
            out |= 1 << b | cs
    return out


def _set_mask(g: Graph, vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        g.check_vertex(v)
        m |= 1 << v
    return m


@dataclass(frozen=True)
class HullTrace:
    """The hull of a set together with the interval-operator iterates.

    iterates[0] is the input and iterates[-1] the hull; steps counts the
    applications needed to reach the fixed point (certified by one more
    application adding nothing, or by the hull being V, which is convex).
    """

    iterates: tuple[frozenset[int], ...]

    @property
    def hull(self) -> frozenset[int]:
        return self.iterates[-1]

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1

    def to_json_dict(self, labels: Sequence[int] | None = None) -> dict:
        """Trace as a JSON-ready dict; vertex v is shown as labels[v]."""
        name = labeller(labels)
        return {
            "iterates": [sorted(map(name, s)) for s in self.iterates],
            "steps": self.steps,
        }


def interval(g: Graph, k: int, u: int, v: int) -> frozenset[int]:
    """I[u,v]: u, v, and the vertices on induced u-v paths of length <= k."""
    g.check_vertex(u)
    g.check_vertex(v)
    k = effective_k(g, k)
    if u == v:
        return frozenset((u,))
    return set_of(_interval_mask(g, k, min(u, v), max(u, v)))


def interval_of_set(g: Graph, k: int, vertices: Iterable[int]) -> frozenset[int]:
    """One interval-operator step: the union of I[u,v] over pairs of the set."""
    smask = _set_mask(g, vertices)
    if smask == 0:
        raise GraphError("interval of the empty set is not defined")
    return set_of(_step(g, effective_k(g, k), smask, smask))


def hull(g: Graph, k: int, vertices: Iterable[int]) -> HullTrace:
    """Iterate the interval operator from the given set to its fixed point."""
    smask = _set_mask(g, vertices)
    if smask == 0:
        raise GraphError("hull of the empty set is not defined")
    masks = _hull_masks(g, effective_k(g, k), smask)
    return HullTrace(tuple(set_of(m) for m in masks))


def is_convex(g: Graph, k: int, vertices: Iterable[int]) -> bool:
    """Whether every pair interval of the set stays inside it."""
    smask = _set_mask(g, vertices)
    return _first_violation(g, effective_k(g, k), smask) is None


def extreme_points(g: Graph, k: int, vertices: Iterable[int]) -> frozenset[int]:
    """Extreme points of a convex set: the simplicial vertices of G[S].

    Raises NotConvexError (carrying the violating pair and an escaped
    vertex) when the input set is not convex.
    """
    smask = _set_mask(g, vertices)
    bad = _first_violation(g, effective_k(g, k), smask)
    if bad is not None:
        raise NotConvexError(*bad)
    return set_of(simplicial_mask(g, smask))
