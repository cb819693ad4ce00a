"""Recognizers for the k=2 and k=3 convex-geometry classes.

For k=2 a connected graph is a convex geometry exactly when it is chordal
and has no induced path on four vertices, which takes polynomial time to
test.  For k=3 the characterization is: chordal, diameter at most 3, and
every induced n-gem with n >= 4 is solved.  An n-gem is an induced path
x_0..x_n plus one apex adjacent to every path vertex, and it is solved when
the host graph holds an induced path of length exactly three from x_0 to
x_n that avoids the apex.  Rejections carry a machine-checkable
certificate: a hole, a four-vertex induced path, a vertex pair beyond the
distance bound, or an unsolved gem.  The k=3 recognizer enumerates every
induced gem, and a graph can hold exponentially many of them (gem(1200)
has about 717k), so its worst case is exponential.

The general necessary-conditions filter (chordal plus diameter <= k) is also
exposed; it is sound for rejection at every k but only decides membership
for the two characterized cases above.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

from .bits import iter_bits, mask_of
from .graph import (
    Graph,
    GraphError,
    HoleWitness,
    InducedPath,
    _balls,
    _induced_walk,
    contains_induced_path,
    distance,
    is_connected,
    labeller,
)
from .chordal import is_chordal
from .convexity import NotConvexError
from .geometry import MkmViolation, mkm_check_set


@dataclass(frozen=True)
class GemWitness:
    """An induced path (the base) plus an apex adjacent to all of it."""

    base: InducedPath
    apex: int

    @property
    def n(self) -> int:
        """Edge length of the base path."""
        return self.base.length

    def is_valid_in(self, g: Graph) -> bool:
        if not self.base.is_induced_in(g) or self.base.length < 3:
            return False
        if not 0 <= self.apex < g.n or self.apex in self.base.vertices:
            return False
        return not mask_of(self.base.vertices) & ~g._adj[self.apex]


@dataclass(frozen=True)
class FarPair:
    """A vertex pair whose distance exceeds the bound for the given k."""

    u: int
    v: int
    distance: int

    def is_far_in(self, g: Graph, k: int) -> bool:
        """Both ends in g, exactly self.distance apart, and beyond k."""
        in_g = 0 <= self.u < g.n and 0 <= self.v < g.n
        return in_g and distance(g, self.u, self.v) == self.distance > k


Certificate = HoleWitness | InducedPath | FarPair | GemWitness


def certificate_json(cert: Certificate, labels: Sequence[int] | None = None) -> dict:
    """A rejection certificate as a JSON-ready dict, kind first; vertex v is
    shown as labels[v], or as v itself without labels."""
    name = labeller(labels)
    match cert:
        case HoleWitness(cycle):
            return {"kind": "hole", "cycle": [name(x) for x in cycle]}
        case InducedPath(vertices):
            return {"kind": "p4", "path": [name(x) for x in vertices]}
        case FarPair(u, v, dist):
            return {"kind": "far_pair", "u": name(u), "v": name(v), "distance": dist}
        case GemWitness(base, apex):
            return {"kind": "unsolved_gem", "base": [name(x) for x in base.vertices], "apex": name(apex)}
    raise TypeError(f"not a recognition certificate: {cert!r}")


def gem_json(w: GemWitness, path: InducedPath | None, labels: Sequence[int] | None = None) -> dict:
    """A gem and the path solving it (None when unsolved), labelled as above."""
    name = labeller(labels)
    return {
        "base": [name(x) for x in w.base.vertices],
        "apex": name(w.apex),
        "solving_path": None if path is None else [name(x) for x in path.vertices],
    }


def certificate_holds(g: Graph, k: int, cert: Certificate | MkmViolation) -> bool:
    """Re-check a certificate against the graph it came from: an induced
    cycle, an induced 3-edge path (k = 2 only), a pair beyond k, an unsolved
    gem (k = 3 only), or an oracle violation.  The violation is replayed by
    mkm_check_set, which shares only the interval walk with the span-table
    scan."""
    match cert:
        case MkmViolation(convex_set, ext, hull):
            try:
                return mkm_check_set(g, k, convex_set) == (False, ext, hull)
            except (NotConvexError, GraphError):
                return False
        case HoleWitness():
            return cert.is_hole_in(g)
        case InducedPath():
            return k == 2 and cert.is_induced_in(g) and cert.length == 3
        case FarPair():
            return cert.is_far_in(g, k)
        case GemWitness():
            return k == 3 and cert.is_valid_in(g) and not is_gem_solved(g, cert)[0]
    return False


@dataclass(frozen=True)
class RecognitionVerdict:
    """Acceptance flag plus, on rejection, one certificate of failure.

    For the k=3 recognizer an acceptance also carries the solved gems with
    their solving paths, so positive verdicts can be replayed too.
    """

    accepted: bool
    certificate: Certificate | None = None
    solved_gems: tuple[tuple[GemWitness, InducedPath], ...] = ()

    @property
    def certificate_kind(self) -> str | None:
        return None if self.certificate is None else certificate_json(self.certificate)["kind"]

    def to_json_dict(self, labels: Sequence[int] | None = None) -> dict:
        """Verdict as a JSON-ready dict; vertex v is shown as labels[v]."""
        cert = None if self.certificate is None else certificate_json(self.certificate, labels)
        out: dict = {"accepted": self.accepted, "certificate": cert}
        if self.solved_gems:
            out["solved_gems"] = [gem_json(w, p, labels) for w, p in self.solved_gems]
        return out


def enumerate_gems(g: Graph, min_n: int = 3) -> Iterator[GemWitness]:
    """Stream every induced n-gem with n >= min_n.

    Bases are walked depth-first in lexicographic order while carrying the
    intersection of the path vertices' neighborhoods, the apex candidates.
    The walk only steps to vertices adjacent to one of them, since any other
    step leaves no apex.  Each gem appears once: bases are reported in the
    orientation with the smaller first endpoint, apexes in ascending order.
    A graph whose edges all have nested closed neighbourhoods has no
    induced P4, so no gem, and streams nothing without a walk.
    """
    if min_n < 3:
        raise GraphError(f"gems need a base of at least 3 edges, got min_n={min_n}")
    if _nested_neighbourhoods(g):  # no induced P4, so no base
        return
    adj = g._adj
    common = [-1] * (g.n + 1)  # common[i]: the vertices adjacent to all of path[:i]

    def prune(path: list[int], cand: int) -> int:
        d = len(path)
        c = common[d] = common[d - 1] & adj[path[-1]]
        keep = cand
        while cand:
            low = cand & -cand
            if not c & adj[low.bit_length() - 1]:
                keep ^= low
            cand ^= low
        return keep

    for s in range(g.n):
        for path in _induced_walk(g, s, prune):
            if len(path) > min_n and s < path[-1]:
                base = InducedPath(tuple(path))
                for apex in iter_bits(common[len(path) - 1] & adj[path[-1]]):
                    yield GemWitness(base, apex)


def is_gem_solved(g: Graph, witness: GemWitness) -> tuple[bool, InducedPath | None]:
    """Look for an induced path of length exactly 3 joining the base ends
    of the gem while avoiding its apex; returns the lexicographically first.

    Such a path is x0-b-c-xn with b in N(x0) minus N[xn] and c in N(b) and
    N(xn) minus N[x0].  The apex sees both ends, so it is never b or c.
    """
    if not witness.is_valid_in(g):
        raise GraphError(f"not an induced gem of this graph: {witness}")
    x0 = witness.base.vertices[0]
    xn = witness.base.vertices[-1]
    adj = g._adj
    last = adj[xn] & ~adj[x0]  # N(xn) minus N[x0]: the base ends are nonadjacent
    for b in iter_bits(adj[x0] & ~adj[xn]):
        if c := adj[b] & last:
            return True, InducedPath((x0, b, (c & -c).bit_length() - 1, xn))
    return False, None


def _nested_neighbourhoods(g: Graph) -> bool:
    """Every edge uv has N[u] a subset of N[v] or N[v] a subset of N[u].

    These are the graphs with no induced P4 and no induced C4 (Golumbic,
    Trivially perfect graphs, Discrete Math. 24, 1978).  An edge uv fails
    to nest exactly when u has a neighbour x and v a neighbour y that the
    other end misses, and then x-u-v-y is an induced P4, or a C4 when x
    and y are adjacent.
    """
    closed = [a | 1 << v for v, a in enumerate(g._adj)]
    for u, cu in enumerate(closed):
        for v in iter_bits(cu & -(2 << u)):  # the neighbours above u
            both = cu | closed[v]
            if both != cu and both != closed[v]:
                return False
    return True


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("recognition expects a connected graph")


def recognize_l2(g: Graph) -> RecognitionVerdict:
    """Convex-geometry test for k=2: chordal with no induced four-vertex path."""
    _require_connected(g)
    ch = is_chordal(g)
    if not ch.chordal:
        return RecognitionVerdict(False, ch.hole)
    if _nested_neighbourhoods(g):  # chordal and P4-free
        return RecognitionVerdict(True)
    p4 = contains_induced_path(g, 4)  # chordal: the failed nesting is a P4
    return RecognitionVerdict(p4 is None, p4)


def recognize_l3(g: Graph) -> RecognitionVerdict:
    """Convex-geometry test for k=3: chordal, diameter <= 3, all gems solved.

    Conditions are checked in that order and the first failure is returned,
    so certificates are deterministic.
    """
    verdict = necessary_conditions(g, 3)
    if not verdict.accepted:
        return verdict
    solved: list[tuple[GemWitness, InducedPath]] = []
    for w in enumerate_gems(g, 4):
        ok, p = is_gem_solved(g, w)
        if not ok:
            return RecognitionVerdict(False, w)
        solved.append((w, p))
    return RecognitionVerdict(True, solved_gems=tuple(solved))


def necessary_conditions(g: Graph, k: int) -> RecognitionVerdict:
    """Filter by the conditions every k-geometry satisfies: chordal, diam <= k.

    A rejection (hole or far pair) is conclusive for any k >= 2; an
    acceptance is only a 'maybe' outside the characterized cases k=2, k=3.
    """
    if k < 2:
        raise GraphError(f"path-length bound k must be at least 2, got {k}")
    _require_connected(g)
    ch = is_chordal(g)
    if not ch.chordal:
        return RecognitionVerdict(False, ch.hole)
    for u in range(g.n):  # the lexicographically first pair beyond k
        ball = max(islice(_balls(g, u), k + 1))  # within k steps of u: balls only grow
        if far := g.full_mask & ~ball:  # all above u: one below would have found u
            v = (far & -far).bit_length() - 1
            return RecognitionVerdict(False, FarPair(u, v, distance(g, u, v)))
    return RecognitionVerdict(True)
