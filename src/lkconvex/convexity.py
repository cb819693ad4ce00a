"""Interval, hull, and convexity operators over short induced paths.

For a fixed k >= 2 the interval I[u,v] contains u, v, and every vertex lying
on an induced u-v path with at most k edges; I[v,v] = {v}.  A set S is convex
when I[u,v] is inside S for every pair u, v in S, and the hull of S is the
least convex superset, obtained by iterating the interval operator until it
stops growing.  A vertex x of a convex S is an extreme point when S\\{x} is
still convex; for k >= 2 that happens exactly when x is simplicial in the
subgraph induced by S, and extreme_points answers by that test.

Every operator computes each pair interval it needs once.  A hull step
only unions the pairs that meet the vertices the previous step added, and
the iteration stops early at V, which is convex.  The convex-set
enumeration, shared with the geometry oracle, is a subset scan over a span
table: each subset's union of pair intervals is read off two smaller
subsets and one pair, so no subset re-tests its pairs.

Values of k above n-1 are indistinguishable from k = n-1 (no induced path is
longer), so k is clamped there.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .bits import iter_bits, mask_of, set_of
from .graph import Graph, GraphError, _path_tuples, labeller, simplicial_mask

DEFAULT_ENUMERATION_CAP = 16
# The subset scan keeps one span-table entry per subset, 2^n in all.  At 22
# vertices that is about 4M entries; the complete graph K22, where every
# subset is convex, took 25 s and peaked at 179 MB on a 2-vCPU machine with
# Python 3.11.  Each further vertex doubles both, so no max_n lifts the scan
# past this.
MAX_SCAN_N = 22


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


class SizeCapError(ValueError):
    """Exhaustive enumeration refused because the graph exceeds the cap."""


def effective_k(g: Graph, k: int) -> int:
    """Validate k >= 2 and clamp it to n-1, past which intervals are constant."""
    if k < 2:
        raise GraphError(f"path-length bound k must be at least 2, got {k}")
    return min(k, g.n - 1) if g.n > 1 else 1


def _step(g: Graph, k: int, cur: int, new: int) -> int:
    """cur plus I[u,v] over the pairs u < v of cur that meet new (new inside
    cur).  In a hull step new is what the last step added: the intervals of
    the other pairs, those of the previous iterate, are already in cur."""
    out = cur
    old = list(iter_bits(cur & ~new))
    vs = list(iter_bits(new))
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            out |= _interval_mask(g, k, u, v)
        for v in old:
            out |= _interval_mask(g, k, min(u, v), max(u, v))
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
    out = (1 << u) | (1 << v)
    if g._adj[u] >> v & 1:
        return out
    for t in _path_tuples(g, u, v, k):
        out |= mask_of(t)
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


def span_table(g: Graph, max_n: int, what: str) -> list[int]:
    """A zeroed 2^n-entry span table for scan_convex, after the size checks.

    Raises SizeCapError when g has more than max_n or MAX_SCAN_N vertices;
    what names the refused operation in the message.
    """
    if g.n > max_n:
        raise SizeCapError(
            f"refusing to {what} subsets of {g.n} vertices (cap {max_n})"
        )
    if g.n > MAX_SCAN_N:
        raise SizeCapError(
            f"refusing to {what} subsets of {g.n} vertices: the subset scan "
            f"holds a 2^n-entry table and accepts at most {MAX_SCAN_N} vertices"
        )
    return [0] * (1 << g.n)


def scan_convex(g: Graph, k: int, span: list[int]) -> Iterator[int]:
    """Masks of the nonempty convex sets, by size, lexicographic within a size.

    Every subset S is visited in that order and span[S] set to the union of
    I[u,v] over the pairs of S ({v} for a singleton), so S is convex exactly
    when span[S] == S.  For any two members a, b of S each pair of S misses a,
    misses b, or is {a, b}, hence span[S] = span[S-a] | span[S-b] | span[{a,b}]
    from entries already filled.  The scan extends each set m of one size by
    a vertex v above its top member t and takes a = v, b = t.  Whenever a set
    is yielded, span holds every subset visited so far, all of its own
    subsets among them.  span must come from span_table.
    """
    n = g.n
    k = effective_k(g, k)
    bits = [1 << v for v in range(n)]
    for b in bits:
        span[b] = b
        yield b
    level = []
    for u in range(n):
        for v in range(u + 1, n):
            s = bits[u] | bits[v]
            span[s] = x = _interval_mask(g, k, u, v)
            if x == s:
                yield s
            if v < n - 1:
                level.append(s)
    while level:
        nxt = []
        for m in level:
            t = m.bit_length()
            top = bits[t - 1]
            rest = m ^ top
            sm = span[m]
            kids = [m | b for b in bits[t:]]
            for s in kids:
                # s - v is m, s - t is s ^ top, {t, v} is s ^ rest
                span[s] = x = sm | span[s ^ top] | span[s ^ rest]
                if x == s:
                    yield s
            kids.pop()  # the set ending at vertex n-1 has no extension
            nxt += kids
        level = nxt


def enumerate_convex_sets(
    g: Graph, k: int, max_n: int = DEFAULT_ENUMERATION_CAP
) -> list[frozenset[int]]:
    """All convex sets, in increasing size and lexicographic order within a size.

    The scan is exhaustive over the 2^n subsets, so graphs larger than
    max_n (or MAX_SCAN_N) vertices are refused.
    """
    span = span_table(g, max_n, "enumerate")
    return [frozenset()] + [set_of(m) for m in scan_convex(g, k, span)]
