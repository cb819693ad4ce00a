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
hull those extremes actually generate; a set whose every point is extreme
is its own hull, and the replay skips it (see verify_geometry).
Exponential by design: it is the ground truth the structural recognizers
are validated against, so it stays brute force.

This module alone holds the subset scan: span_table builds its tables over
every subset at once, one lane per subset, scan_convex walks the convex
sets off them, and verify_geometry is their one reader.  A lane is as wide
as the graph needs, _width(n): 16 bits up to 15 vertices and 32 above.
The tables have 2^n lanes, so graphs above MAX_SCAN_N (22) vertices are
refused.

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

# The one size bound of the subset scan, whose tables hold one lane per
# subset, 2^n in all, of 32 bits above 15 vertices.  At 22 vertices each
# table is 16 MiB, and any 22-vertex graph peaks at about 100 MiB traced;
# each further vertex doubles that.
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


def _width(n: int) -> int:
    """The bits of one lane of an n-vertex graph's tables: 16 or 32, the
    lesser that exceeds n, as the carry in span_table needs n <= w - 1."""
    return 16 if n <= 15 else 32


# The array typecode of each lane width.
_TYPECODE = {16: "H", 32: "I"}


def _lanes(table: int, n: int) -> array:
    """The 2^n lanes of table, _width(n) bits each, as an array: lane S at
    index S."""
    w = _width(n)
    lanes = array(_TYPECODE[w], table.to_bytes(w // 8 << n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def span_table(g: Graph, k: int) -> tuple[int, int, bytes]:
    """The span table, the convex flags and the key of every subset.  The
    first two are integers of one lane of w = _width(n) bits per subset,
    the key has one byte per subset.

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
    and |S| plus one.  Every lane of span XOR identity is an n-bit mask,
    below 2^(w-1) as n <= w - 1, and such a lane plus 2^(w-1) - 1 reaches
    bit w - 1 exactly when it is nonzero, without carrying into the next
    lane: one addition reads the non-convex flags of every lane.  The key
    is the low byte of each lane of the sizes ORed with 0xFF at the
    non-convex lanes.

    The extreme points follow from the flags C: shifting C up by 2^x lanes
    and x bits puts C[S - {x}] at bit x of lane S whenever x is in S, so
    ORing those shifts over x, ANDed with the span table, gives at a convex
    lane S (where span[S] == S) the x of S with S - x convex: its extreme
    points by their definition.  The AND clears bit x of the lanes without
    x, where the shift brought the flag of some other set, and the lanes
    the shifts push past the table.

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
    w = _width(n)
    h = Graph._from_adj(n, [reverse_bits(a, n) for a in reversed(g._adj)])
    table = ids = sizes = 0
    for v in range(n):
        near = 0
        ones = 1  # 1 in each lane of the subsets of 0..u-1, as u grows
        for u in range(v):
            # looked up on convexity, where a layer tracer wraps it
            near |= (near | convexity._interval_mask(h, k, u, v) * ones) << (w << u)
            ones |= ones << (w << u)
        table |= (table | near | ones << v) << (w << v)
        ids |= (ids | ones << v) << (w << v)
        sizes |= (sizes + ones) << (w << v)
    del near
    ones |= ones << (w << v)  # 1 in each of the 2^n lanes
    nc = table ^ ids
    del ids
    nc = (nc + ((1 << w - 1) - 1) * ones) >> w - 1 & ones
    key = (sizes | nc * 0xFF).to_bytes(w // 8 << n, "little")[::w // 8]
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


def _convex_digits(key: bytes) -> int:
    """The convex digits of a span_table key, read as one base-2 numeral C.

    C puts the flag of lane S at bit 2^n - 1 - S, the lane of V - S: so C
    has bit T set when the complement of T is convex.  Its top bit, 2^n - 1,
    is the flag of the empty set, which is always set.
    """
    return int(key.translate(_CONVEX_DIGIT), 2)


def _every_convex_set_extends(c: int) -> bool:
    """Whether every convex set but V, by the convex digits C of a
    span_table key (see _convex_digits), has a vertex outside it whose
    addition leaves it convex.

    For x in T, C shifted up by 2^x has at bit T the flag of the
    complement of T - x, that is of (V - T) + x, and H_x keeps those bits.
    ORed over x, bit T of the result is set when V - T has a one-point
    convex extension.  Every convex set but V has one exactly when each set
    bit of C, but bit 0 (T empty, for V), is set there.
    """
    n = (c.bit_length() - 1).bit_length()
    extends = 0
    for step, holding in _kept_masks(n) if n <= _KEPT_MASKS_N else _lanes_holding(n):
        extends |= c << step & holding
    return c & ~extends < 2


# Each digit of a rendered mask as a key byte: 0xFF for "1", 0 for "0".
_MARK_BYTE = bytes.maketrans(b"01", b"\x00\xff")


def _replay_key(key: bytes, c: int) -> bytes:
    """The span_table key with 0xFF also at every convex lane S whose every
    point is extreme, that is, with S - x convex for each x in S, by the
    key's convex digits C.

    Bit T of C is the flag of V - T (see _convex_digits).  For x outside T,
    C shifted down by 2^x has at bit T the flag of V - (T + x), that is of
    (V - T) - x; H_x sets the bits of the T holding x, where x is not in
    V - T and there is nothing to test.  ANDed over x, and with C itself,
    bit T is set when V - T is convex with every point extreme, and read
    from the top the digits of that numeral fall in lane order.
    """
    n = len(key).bit_length() - 1
    every = c
    for step, holding in _kept_masks(n) if n <= _KEPT_MASKS_N else _lanes_holding(n):
        every &= c >> step | holding
    marks = f"{every:0{1 << n}b}".encode().translate(_MARK_BYTE)
    return (int.from_bytes(key, "big") | int.from_bytes(marks, "big")).to_bytes(len(key), "big")


def verify_geometry(g: Graph, k: int) -> GeometryVerdict:
    """Whether every convex set is the hull of its extreme points; if not,
    the first that is not, in size-then-lexicographic order, as the
    verdict's MkmViolation.

    The verdict comes from _every_convex_set_extends, which reads the one-
    point characterization off the key's convex digits alone (see the
    module docstring).  Only a rejection builds the extreme points of every
    convex set and replays each one's hull from them, to find the
    certificate.  A replay that finds no failure then means the two
    characterizations disagree: OracleDisagreementError, never an
    acceptance.

    The replay skips the convex sets whose every point is extreme, which
    _replay_key marks in the key, from the same digits: if S is convex and
    ext(S) = S, then hull(ext S) = hull(S) = S, so such a set never fails,
    and the first failure, and with it the certificate, is the same.

    Refuses graphs above MAX_SCAN_N (22) vertices with SizeCapError, since
    the subset scan is 2^n, then disconnected graphs with GraphError,
    before the 2^n table is allocated.
    """
    n = g.n
    if n <= MAX_SCAN_N and not is_connected(g):
        raise GraphError("the geometry check expects a connected graph")
    table, convex, key = span_table(g, k)
    c = _convex_digits(key)
    if _every_convex_set_extends(c):
        return GeometryVerdict(True, None)
    w = _width(n)
    # The extreme points of each convex set (see span_table).  The AND
    # distributes over the ORs, so it runs twice: at the end, and after the
    # widest shift, which reaches half a table past the table's end; the
    # others reach a quarter at most, which keeps the traced peak of a
    # 22-vertex graph in span_table.
    ext = 0
    for x in reversed(range(n)):
        ext |= convex << (w << x) + x
        if x == n - 1:
            ext &= table
    del convex
    ext &= table
    ext = _lanes(ext, n)
    span = _lanes(table, n)
    del table
    for smask in scan_convex(_replay_key(key, c)):
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
