"""Exhaustive convex-geometry oracle.

A graph is a convex geometry for a given k when every convex set is the hull
of its extreme points.  For a closure system whose empty set is closed, as
here, that holds exactly when every convex set C other than V has a vertex x
outside it with C + x convex (Edelman & Jamison, "The theory of convex
geometries", Geom. Dedicata 19, 1985).  The oracle decides the verdict by
that second characterization, in one test over all subsets at once.  Only a
rejection replays the hull of each convex set's extreme points, to name the
first failure (subsets scanned in increasing size, lexicographic within a
size) as a certificate holding the convex set, its extreme points, and the
hull those extremes actually generate.  Exponential by design: it is the
ground truth the structural recognizers are validated against, so it stays
brute force.

This module alone holds the subset scan: span_table builds its tables over
every subset at once, one 32-bit lane per subset, scan_convex walks the
convex sets off them, and verify_geometry is their one reader.  The tables
have 2^n lanes, so graphs above MAX_SCAN_N (22) vertices are refused.

mkm_check_set checks one set with the public operators instead, taking
extreme_points for its extremes and the hull they generate, and returns
the set's MkmViolation, or None when the set is the hull of its extremes.
It shares only convexity._interval_mask with the scan (a closed form at
k = 2 and 3, a walk at k >= 4), and re-checks the oracle's certificates.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from . import convexity
from .convexity import effective_k, extreme_points, hull
from .graph import Graph, GraphError, is_connected, labeller, set_of

# The one size bound of the subset scan, whose tables hold one 32-bit lane
# per subset, 2^n in all.  At 22 vertices each table is 16 MiB, and any
# 22-vertex graph peaks at about 100 MiB traced; each further vertex
# doubles that.
MAX_SCAN_N = 22


class SizeCapError(ValueError):
    """Exhaustive enumeration refused: the graph has more than MAX_SCAN_N vertices."""


class OracleDisagreementError(RuntimeError):
    """The one-point test rejected a graph whose every convex set the replay
    rebuilt from its extreme points: the two characterizations disagree."""


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


def mkm_check_set(g: Graph, k: int, vertices: Iterable[int]) -> MkmViolation | None:
    """The MkmViolation of one convex set, or None when the set is the
    hull of its extreme points.

    Raises NotConvexError when the set is not convex in the first place.
    A set without extreme points (V of a cycle, say) generates the empty
    hull, which hull itself does not accept.
    """
    vs = frozenset(vertices)
    ext = extreme_points(g, k, vs)
    hm = hull(g, k, ext).hull if ext else ext
    return None if hm == vs else MkmViolation(vs, ext, hm)


def reverse_bits(mask: int, n: int) -> int:
    """The mask with each id v in 0..n-1 renamed n-1-v, as the lanes index it."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _lanes(table: int, n: int) -> array:
    """The 2^n 32-bit lanes of table as an array: lane S at index S."""
    lanes = array("I", table.to_bytes(4 << n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def span_table(g: Graph, k: int) -> tuple[int, int, bytes]:
    """The span table, the convex flags and the key of every subset.  The
    first two are integers of one 32-bit lane per subset, the key has one
    byte per subset.

    The lanes index subsets of the graph with each id v renamed n-1-v, so
    that scan_convex walks them by size, then lexicographically on the
    graph's own ids (see there); reverse_bits maps a lane back.  Lane S of
    the span table holds the union of I[u,v] over the pairs of S ({v} for
    a singleton, 0 for the empty set), so S is convex exactly when
    span[S] == S.  Lane S of the flags is 1 when S is convex and 0 when it
    is not.  key[S] is |S| when S is convex and 0xFF when it is not.

    Each table is built by doubling: after vertex v, it covers the 2^(v+1)
    subsets of 0..v, and the lanes S + {v} are the lanes S ORed with P_v[S]
    and {v}, where P_v[S], the union of I[u,v] over u in S, is built by the
    same doubling from the v pair intervals.  Every pair of S + {v} lies in
    S or is {u, v} with u in S, so that is the span of S + {v}.  The
    identity and size tables double alike, lane S + {v} holding S plus {v}
    and |S| plus one.  A lane below 2^31 plus 0x7FFFFFFF reaches bit 31
    exactly when it is nonzero, without carrying into the next lane, which
    reads the non-convex flags off span XOR identity in one addition.

    The extreme points follow from the flags C: shifting C up by 2^x lanes
    and x bits puts C[S - {x}] at bit x of lane S whenever x is in S, so
    ORing those shifts over x, each ANDed with the span table, gives at a
    convex lane S (where span[S] == S) the x of S with S - x convex: its
    extreme points by their definition.  The AND clears bit x of the lanes
    without x, where the shift brought the flag of some other set.

    Raises SizeCapError, before allocating, when g has more than MAX_SCAN_N
    vertices.
    """
    n = g.n
    if n > MAX_SCAN_N:
        raise SizeCapError(
            f"refusing to scan subsets of {n} vertices: the subset scan "
            f"holds a 2^n-entry table and accepts at most {MAX_SCAN_N} vertices"
        )
    k = effective_k(g, k)
    h = Graph._from_adj(n, [reverse_bits(a, n) for a in reversed(g._adj)])
    table = ids = sizes = 0
    for v in range(n):
        near = 0
        ones = 1  # 1 in each lane of the subsets of 0..u-1, as u grows
        for u in range(v):
            # looked up on convexity, where a layer tracer wraps it
            near |= (near | convexity._interval_mask(h, k, u, v) * ones) << (32 << u)
            ones |= ones << (32 << u)
        table |= (table | near | ones << v) << (32 << v)
        ids |= (ids | ones << v) << (32 << v)
        sizes |= (sizes + ones) << (32 << v)
    del near
    ones |= ones << (32 << v)  # 1 in each of the 2^n lanes
    nc = table ^ ids
    del ids
    nc = (nc + 0x7FFFFFFF * ones) >> 31 & ones
    key = (sizes | nc * 0xFF).to_bytes(4 << n, "little")[::4]
    del sizes
    return table, ones ^ nc, key


def scan_convex(key: bytes) -> Iterator[int]:
    """Lanes of the nonempty convex sets of a span_table key, by size, then
    lexicographic on the graph's own ids within a size.

    Renaming v to n-1-v turns the least id where two sets of one size differ
    into the highest bit where their lanes differ, so lexicographic order
    on the graph's ids is descending lane order.
    """
    n = len(key).bit_length() - 1
    for size in range(1, n + 1):
        s = len(key)
        while (s := key.rfind(size, 0, s)) >= 0:
            yield s


# The digit of each key byte: "0" for a non-convex lane (0xFF), "1" otherwise.
_CONVEX_DIGIT = bytes.maketrans(bytes(range(256)), b"1" * 255 + b"0")

# Masks are kept for graphs up to this size (16 masks of 8 KiB at 16
# vertices); above it they are rebuilt per call, one at a time.
_KEPT_MASKS_N = 16


def _lanes_holding(n: int) -> Iterator[tuple[int, int]]:
    """(2^x, H_x) for x = n-1 down to 0, where H_x has bit T set, for each
    T below 2^n, when x is in T: the upper half of every aligned block of
    2^(x+1) bits.

    Each H_x comes from the mask before it, all 2^n bits for x = n-1 and
    H_(x+1) after that, XORed with itself shifted down by 2^x.  That mask
    sets whole blocks of 2^(x+1) bits, every other one for H_(x+1); the XOR
    clears the lower half of each set block and sets the upper half of the
    clear block below it, which leaves the upper half of every block.
    """
    mask = (1 << (1 << n)) - 1
    for x in reversed(range(n)):
        mask ^= mask >> (1 << x)
        yield 1 << x, mask


_kept_masks = functools.cache(lambda n: tuple(_lanes_holding(n)))


def _every_convex_set_extends(key: bytes) -> bool:
    """Whether every convex set but V, of a span_table key, has a vertex
    outside it whose addition leaves it convex.

    Read as one base-2 numeral, the convex digits of the key put the flag of
    lane S at bit 2^n - 1 - S, the lane of V - S: so C has bit T set when
    the complement of T is convex.  For x in T, C shifted up by 2^x has at
    bit T the flag of the complement of T - x, that is of (V - T) + x, and
    H_x keeps those bits.  ORed over x, bit T of the result is set when
    V - T has a one-point convex extension.  Every convex set but V has one
    exactly when each set bit of C, but bit 0 (T empty, for V), is set there.
    """
    n = len(key).bit_length() - 1
    c = int(key.translate(_CONVEX_DIGIT), 2)
    extends = 0
    for step, holding in _kept_masks(n) if n <= _KEPT_MASKS_N else _lanes_holding(n):
        extends |= c << step & holding
    return c & ~extends < 2


def verify_geometry(g: Graph, k: int) -> GeometryVerdict:
    """Whether every convex set is the hull of its extreme points; if not,
    the first that is not, in size-then-lexicographic order, as the
    verdict's MkmViolation.

    The verdict comes from _every_convex_set_extends, which reads the one-
    point characterization off the key alone (see the module docstring).
    Only a rejection builds the extreme points of every convex set and
    replays each one's hull from them, to find the certificate.  A replay
    that finds no failure then means the two characterizations disagree:
    OracleDisagreementError, never an acceptance.

    Refuses graphs above MAX_SCAN_N (22) vertices with SizeCapError, since
    the subset scan is 2^n, then disconnected graphs with GraphError,
    before the 2^n table is allocated.
    """
    n = g.n
    if n <= MAX_SCAN_N and not is_connected(g):
        raise GraphError("the geometry check expects a connected graph")
    table, convex, key = span_table(g, k)
    if _every_convex_set_extends(key):
        return GeometryVerdict(True, None)
    ext = 0  # the extreme points of each convex set (see span_table)
    for x in range(n):
        ext |= (convex << (32 << x) + x) & table
    del convex
    ext = _lanes(ext, n)
    span = _lanes(table, n)
    del table
    for smask in scan_convex(key):
        hm = ext[smask]
        while (nxt := span[hm]) != hm:
            hm = nxt
        if hm != smask:
            cert = (set_of(reverse_bits(m, n)) for m in (smask, ext[smask], hm))
            return GeometryVerdict(False, MkmViolation(*cert))
    raise OracleDisagreementError(
        f"the one-point test rejected a {n}-vertex graph at k={k} whose every "
        "convex set is the hull of its extreme points"
    )
