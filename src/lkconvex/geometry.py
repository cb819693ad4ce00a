"""Exhaustive convex-geometry oracle.

A graph is a convex geometry for a given k when every convex set is the hull
of its extreme points.  The oracle enumerates all subsets, keeps the convex
ones, and replays that reconstruction; the first failure (subsets scanned in
increasing size, lexicographic within a size) is returned as a certificate
holding the convex set, its extreme points, and the hull those extremes
actually generate.  Exponential by design: it is the ground truth the
structural recognizers are validated against, so it stays brute force.

convexity.span_table builds three tables over every subset at once: span[S],
the union of the pair intervals of S, so S is convex when span[S] == S;
ext[S], the x of a convex S with S - x convex, its extreme points by their
definition; and a key giving each convex set's size.  scan_convex walks the
convex sets in the order above off the key, and the replay iterates span
from ext[S].  The tables index the graph with its ids reversed, so a
certificate is mapped back to the graph's ids.  They have 2^n lanes, so
graphs above convexity.MAX_SCAN_N (22) vertices are refused.

mkm_check_set checks one set with the public operators instead, taking
extreme_points for its extremes and the hull they generate; sharing only
the interval walk with the scan, it re-checks the oracle's certificates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .bits import reverse_bits, set_of
from .convexity import MAX_SCAN_N, extreme_points, hull, scan_convex, span_table
from .graph import Graph, GraphError, is_connected, labeller


@dataclass(frozen=True)
class MkmViolation:
    """A convex set that is not the hull of its extreme points."""

    convex_set: frozenset[int]
    extreme_points: frozenset[int]
    hull_of_extremes: frozenset[int]


@dataclass(frozen=True)
class GeometryVerdict:
    is_geometry: bool
    violation: MkmViolation | None

    def to_json_dict(self, labels: Sequence[int] | None = None) -> dict:
        """Verdict as a JSON-ready dict; vertex v is shown as labels[v]."""
        cert = None
        if self.violation is not None:
            name = labeller(labels)
            v = self.violation
            cert = {
                "set": sorted(map(name, v.convex_set)),
                "ext": sorted(map(name, v.extreme_points)),
                "hull": sorted(map(name, v.hull_of_extremes)),
            }
        return {"geometry": self.is_geometry, "certificate": cert}


class MkmCheck(NamedTuple):
    holds: bool
    extreme_points: frozenset[int]
    hull_of_extremes: frozenset[int]


def mkm_check_set(g: Graph, k: int, vertices: Iterable[int]) -> MkmCheck:
    """Does one convex set equal the hull of its extreme points?

    Raises NotConvexError when the set is not convex in the first place.
    A set without extreme points (V of a cycle, say) generates the empty
    hull, which hull itself does not accept.
    """
    vs = tuple(vertices)
    ext = extreme_points(g, k, vs)
    hm = hull(g, k, ext).hull if ext else ext
    return MkmCheck(hm == frozenset(vs), ext, hm)


def verify_geometry(g: Graph, k: int) -> GeometryVerdict:
    """Check every convex set against its extreme-point reconstruction.

    Refuses graphs above MAX_SCAN_N (22) vertices with SizeCapError, since
    the subset scan is 2^n, then disconnected graphs with GraphError,
    before the 2^n table is allocated.
    """
    if g.n <= MAX_SCAN_N and not is_connected(g):
        raise GraphError("the geometry check expects a connected graph")
    span, ext, key = span_table(g, k)
    for smask in scan_convex(key):
        hm = ext[smask]
        while (nxt := span[hm]) != hm:
            hm = nxt
        if hm != smask:
            cert = (set_of(reverse_bits(m, g.n)) for m in (smask, ext[smask], hm))
            return GeometryVerdict(False, MkmViolation(*cert))
    return GeometryVerdict(True, None)
