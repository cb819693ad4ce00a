"""Exhaustive convex-geometry oracle.

A graph is a convex geometry for a given k when every convex set is the hull
of its extreme points.  The oracle enumerates all subsets, keeps the convex
ones, and replays that reconstruction; the first failure (subsets scanned in
increasing size, lexicographic within a size) is returned as a certificate
holding the convex set, its extreme points, and the hull those extremes
actually generate.  Exponential by design: it is the ground truth the
polynomial recognizers are validated against, so it stays brute force.

The scan (convexity.scan_convex) fills a span table: span[S] is the union
of the pair intervals of S, built from two smaller subsets and one pair, and
S is convex when span[S] == S.  A convex S then reads its extreme points
off the table by their definition (S - x convex), and the replay iterates
span from them; every set read lies inside S, so it is already filled.
The table has 2^n entries, so no cap above MAX_SCAN_N (22) vertices is
accepted.

mkm_check_set checks one set from pair intervals instead, with the
simplicial vertices of G[S] as its extremes; sharing only the interval walk
with the scan, it re-checks the oracle's certificates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .bits import set_of
from .convexity import (
    DEFAULT_ENUMERATION_CAP,
    NotConvexError,
    _first_violation,
    _hull_masks,
    _set_mask,
    effective_k,
    scan_convex,
    span_table,
)
from .graph import Graph, GraphError, is_connected, labeller, simplicial_mask


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


def _reconstructs(span: list[int], smask: int) -> tuple[bool, int, int]:
    """Extreme points of the convex smask and the hull they generate.

    Reads only span entries of subsets of smask, which the scan has filled:
    x is extreme when smask - x is convex, and the hull is the fixed point
    of span from the extreme points.
    """
    ext = 0
    rest = smask
    while rest:
        low = rest & -rest
        rest ^= low
        if span[smask ^ low] == smask ^ low:
            ext |= low
    hull = ext
    while (nxt := span[hull]) != hull:
        hull = nxt
    return hull == smask, ext, hull


def mkm_check_set(g: Graph, k: int, vertices: Iterable[int]) -> MkmCheck:
    """Does one convex set equal the hull of its extreme points?

    Raises NotConvexError when the set is not convex in the first place.
    """
    smask = _set_mask(g, vertices)
    k = effective_k(g, k)
    bad = _first_violation(g, k, smask)
    if bad is not None:
        raise NotConvexError(*bad)
    ext = simplicial_mask(g, smask)
    hm = _hull_masks(g, k, ext)[-1]
    return MkmCheck(hm == smask, set_of(ext), set_of(hm))


def verify_geometry(
    g: Graph, k: int, max_n: int = DEFAULT_ENUMERATION_CAP
) -> GeometryVerdict:
    """Check every convex set against its extreme-point reconstruction.

    Refuses graphs above max_n (or MAX_SCAN_N) vertices, since the subset
    scan is 2^n, and disconnected graphs.
    """
    span = span_table(g, max_n, "scan")
    if not is_connected(g):
        raise GraphError("the geometry check expects a connected graph")
    for smask in scan_convex(g, k, span):
        ok, ext, hm = _reconstructs(span, smask)
        if not ok:
            return GeometryVerdict(
                False, MkmViolation(set_of(smask), set_of(ext), set_of(hm))
            )
    return GeometryVerdict(True, None)
