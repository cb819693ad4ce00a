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
has about 717k), so its worst case is exponential.  The bases are walked
in one explicit-stack loop that carries the common neighbours of the path,
and a tip with no common neighbour left is dropped.  Whether a gem is
solved depends only on the ends of its base, so the gem stream solves each
end pair once and hands the path to every gem that shares it.  The JSON
rows likewise label each base and each solving path once.

The general necessary-conditions filter (chordal plus diameter <= k) is also
exposed; it is sound for rejection at every k but only decides membership
for the two characterized cases above.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

from .graph import (
    Graph,
    GraphError,
    HoleWitness,
    InducedPath,
    _balls,
    _three_edge_middles,
    distance,
    is_connected,
    iter_bits,
    labeller,
    mask_of,
)
from .chordal import is_chordal
from .convexity import NotConvexError, effective_k
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


def gem_rows(
    pairs: Sequence[tuple[GemWitness, InducedPath | None]],
    labels: Sequence[int] | None = None,
    status: bool = False,
) -> list[dict]:
    """Each gem and the path solving it (None when unsolved) as a row with
    its base, apex and solving_path, labelled as above; with status, also
    its base length n and whether it is solved.

    enumerate_gems shares one base object among the apexes of a base, and
    solved_gems one path object among the gems of an end pair, so each
    object is labelled once and each row gets its own copy of the list.
    Paths are told apart by id, which no other object takes while pairs
    holds them all.
    """
    name = labeller(labels)
    rows = []
    base = None
    paths: dict[int, list[int]] = {}
    for w, p in pairs:
        if w.base is not base:
            base = w.base
            base_names = list(map(name, base.vertices))
            n = len(base_names) - 1
        path_names = None
        if p is not None:
            if (path_names := paths.get(id(p))) is None:
                path_names = paths[id(p)] = list(map(name, p.vertices))
            path_names = path_names.copy()
        row = {"base": base_names.copy(), "apex": name(w.apex), "solving_path": path_names}
        if status:
            row["n"] = n
            row["solved"] = p is not None
        rows.append(row)
    return rows


def certificate_holds(g: Graph, k: int, cert: Certificate | MkmViolation) -> bool:
    """Re-check a certificate against the graph it came from: an induced
    cycle, an induced 3-edge path (k = 2 only), a pair beyond k, an unsolved
    gem (k = 3 only), or an oracle violation.  The violation holds when
    mkm_check_set, which returns the violation of a set or None and shares
    only _interval_mask with the subset scan (a closed form at k = 2 and 3,
    a walk at k >= 4), returns it again."""
    match cert:
        case MkmViolation():
            try:
                return mkm_check_set(g, k, cert.convex_set) == cert
            except (NotConvexError, GraphError):
                return False
        case HoleWitness():
            return cert.is_hole_in(g)
        case InducedPath():
            return k == 2 and cert.is_induced_in(g) and cert.length == 3
        case FarPair():
            return cert.is_far_in(g, k)
        case GemWitness(base):
            ends = base.vertices
            return k == 3 and cert.is_valid_in(g) and _solving_path(g._adj, ends[0], ends[-1]) is None
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
            out["solved_gems"] = gem_rows(self.solved_gems, labels)
        return out


def enumerate_gems(g: Graph, min_n: int = 3) -> Iterator[GemWitness]:
    """Stream every induced n-gem with n >= min_n.

    Bases are walked depth-first in lexicographic order, from each start
    vertex in ascending order, in one explicit-stack loop.  A frame holds
    the vertices left to try at depth d, the closed neighbourhood of
    path[:d], which their extensions avoid, the apex candidates (the
    vertices adjacent to all of path[:d]) and d.  A tip that leaves no
    apex candidate is dropped when it is popped, with everything past it.
    Each gem appears once: bases are reported in the orientation with the
    smaller first endpoint, one InducedPath shared by all the apexes of a
    base, apexes in ascending order.  A graph whose edges all have nested
    closed neighbourhoods has no induced P4, so no gem, and streams
    nothing without a walk.
    """
    if min_n < 3:
        raise GraphError(f"gems need a base of at least 3 edges, got min_n={min_n}")
    if _unnested_path(g) is None:  # no induced P4, so no base
        return
    adj = g._adj
    for s in range(g.n):
        path: list[int] = []
        stack = [(1 << s, 1 << s, -1, 0)]
        while stack:
            rest, closed, common, d = stack.pop()
            low = rest & -rest
            if rest != low:
                stack.append((rest ^ low, closed, common, d))
            x = low.bit_length() - 1
            ax = adj[x]
            if not (apexes := common & ax):
                continue
            path[d:] = [x]
            if d >= min_n and s < x:
                base = InducedPath(tuple(path))
                for apex in iter_bits(apexes):
                    yield GemWitness(base, apex)
            if cand := ax & ~closed:
                stack.append((cand, closed | ax, apexes, d + 1))


def _solving_path(adj: list[int], x0: int, xn: int) -> InducedPath | None:
    """The lexicographically first induced 3-edge path from x0 to xn, or None,
    for nonadjacent x0 and xn.

    Such a path is x0-b-c-xn with b in N(x0) minus N[xn] and c in N(b) and
    N(xn) minus N[x0]; the first b that _three_edge_middles yields, with
    its lowest c, gives the first path.  Only adj[x0], adj[xn] and adj[b]
    are read.  A gem's apex sees both base ends, so it is never b or c: the
    path avoids the apex of every gem on these ends, and whether a gem is
    solved, and by which path, is a function of its end pair alone.
    """
    for b, cs in _three_edge_middles(adj, x0, xn):
        return InducedPath((x0, b, (cs & -cs).bit_length() - 1, xn))
    return None


def solved_gems(g: Graph, min_n: int = 3) -> Iterator[tuple[GemWitness, InducedPath | None]]:
    """Each gem of enumerate_gems(g, min_n), in its order, with the
    lexicographically first path that solves it (None when unsolved).

    The witnesses are not validated again: enumerate_gems builds each base
    as an induced walk of at least min_n >= 3 edges, and each apex as a
    common neighbour of the whole base, which therefore is not on it.  The
    path depends only on the base ends (see _solving_path), and the walk
    reports every base from its lower end with the start vertices in
    ascending order, so the gems on one x0 come in one run.  The paths are
    kept per xn for the current x0 only: at most n of them at a time.
    """
    adj = g._adj
    x0, paths = -1, {}
    for w in enumerate_gems(g, min_n):
        ends = w.base.vertices
        if ends[0] != x0:
            x0 = ends[0]
            paths.clear()
        xn = ends[-1]
        try:
            path = paths[xn]
        except KeyError:
            path = paths[xn] = _solving_path(adj, x0, xn)
        yield w, path


def _unnested_path(g: Graph) -> InducedPath | None:
    """The path x-u-v-y across the first edge uv, u < v in ascending
    order, whose closed neighbourhoods do not nest, with x and y the lowest
    vertices of N(u) - N[v] and N(v) - N[u], lower end first; None when
    every edge has N[u] a subset of N[v] or N[v] a subset of N[u].

    These are the graphs with no induced P4 and no induced C4 (Golumbic,
    Trivially perfect graphs, Discrete Math. 24, 1978).  An edge uv fails
    to nest exactly when u has a neighbour x and v a neighbour y that the
    other end misses, and then x-u-v-y is an induced P4, or a C4 when x
    and y are adjacent.  On a chordal graph it is therefore always a P4.
    """
    closed = [a | 1 << v for v, a in enumerate(g._adj)]
    for u, cu in enumerate(closed):
        for v in iter_bits(cu & -(2 << u)):  # the neighbours above u
            both = cu | closed[v]
            if both != cu and both != closed[v]:
                xs, ys = both ^ closed[v], both ^ cu  # N(u) - N[v], N(v) - N[u]
                x, y = (xs & -xs).bit_length() - 1, (ys & -ys).bit_length() - 1
                return InducedPath((x, u, v, y) if x < y else (y, v, u, x))
    return None


def _hole_verdict(g: Graph) -> RecognitionVerdict | None:
    """The rejection by a hole, or None when g is chordal.  Both
    characterizations start here; a disconnected g raises GraphError."""
    if not is_connected(g):
        raise GraphError("recognition expects a connected graph")
    ch = is_chordal(g)
    return None if ch.chordal else RecognitionVerdict(False, ch.hole)


def recognize_l2(g: Graph) -> RecognitionVerdict:
    """Convex-geometry test for k=2: chordal with no induced four-vertex path."""
    if rejected := _hole_verdict(g):
        return rejected
    p4 = _unnested_path(g)  # chordal, so a failed nesting is a P4
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
    for w, p in solved_gems(g, 4):
        if p is None:
            return RecognitionVerdict(False, w)
        solved.append((w, p))
    return RecognitionVerdict(True, solved_gems=tuple(solved))


def necessary_conditions(g: Graph, k: int) -> RecognitionVerdict:
    """Filter by the conditions every k-geometry satisfies: chordal, diam <= k.

    A rejection (hole or far pair) is conclusive for any k >= 2; an
    acceptance is only a 'maybe' outside the characterized cases k=2, k=3.
    """
    k = effective_k(g, k)  # no distance exceeds n - 1
    if rejected := _hole_verdict(g):
        return rejected
    for u in range(g.n):  # the lexicographically first pair beyond k
        balls = _balls(g, 1 << u)
        ball = max(islice(balls, k + 1))  # within k steps of u: balls only grow
        if far := g.full_mask & ~ball:  # all above u: one below would have found u
            v = (far & -far).bit_length() - 1
            d = next(d for d, ball in enumerate(balls, k + 1) if ball >> v & 1)
            return RecognitionVerdict(False, FarPair(u, v, d))
    return RecognitionVerdict(True)
