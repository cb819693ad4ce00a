"""Independent checks of the program's answers.

Nothing here imports ``lkconvex``: every expected answer is recomputed
with plain code from the adjacency bitmasks the benchmark generated
itself, or tested against a property the method must have.  A check that
fails raises ``CheckError``; the workload then counts the operation as
failed.  Answers that depend only on the graph are memoised in its
``Reference``, so the operations on one graph share them.
"""

from __future__ import annotations


class CheckError(Exception):
    """The program's answer disagrees with the independent computation."""


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Reference:
    """Independently computed facts about one graph given as bitmasks."""

    def __init__(self, adj: list[int]):
        self.adj = adj
        self.n = len(adj)
        self._dist: dict[int, list[int]] = {}
        self._intervals: dict[tuple[int, int], list[int]] = {}
        self._gems: dict[int, frozenset] = {}
        self._solved: dict[tuple[int, int, int], bool] = {}
        self._facts: dict[str, bool] = {}

    # --- distances and plain structure -----------------------------------

    def dist(self, s: int) -> list[int]:
        if s not in self._dist:
            d = [-1] * self.n
            d[s] = 0
            frontier = [s]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in bits(self.adj[x]):
                        if d[y] < 0:
                            d[y] = d[x] + 1
                            nxt.append(y)
                frontier = nxt
            self._dist[s] = d
        return self._dist[s]

    def is_path(self, seq) -> bool:
        """Distinct vertices, consecutive ones adjacent, no chord."""
        if len(set(seq)) != len(seq) or not all(0 <= x < self.n for x in seq):
            return False
        for i, a in enumerate(seq):
            for j in range(i + 1, len(seq)):
                if bool(self.adj[a] >> seq[j] & 1) != (j == i + 1):
                    return False
        return True

    def is_hole(self, cyc) -> bool:
        """Induced cycle on at least four distinct vertices."""
        r = len(cyc)
        if r < 4 or len(set(cyc)) != r or not all(0 <= x < self.n for x in cyc):
            return False
        for i in range(r):
            for j in range(i + 1, r):
                consecutive = j == i + 1 or (i == 0 and j == r - 1)
                if bool(self.adj[cyc[i]] >> cyc[j] & 1) != consecutive:
                    return False
        return True

    def is_clique(self, mask: int) -> bool:
        return all(mask & ~(self.adj[x] | 1 << x) == 0 for x in bits(mask))

    def simplicial_in(self, smask: int) -> int:
        """Vertices of S whose neighbours inside S form a clique."""
        return mask_of(x for x in bits(smask) if self.is_clique(self.adj[x] & smask))

    def chordal(self) -> bool:
        """Chordal iff simplicial vertices can be stripped one at a time."""
        if "chordal" not in self._facts:
            left = (1 << self.n) - 1
            while left:
                simp = self.simplicial_in(left)
                if not simp:
                    break
                left &= ~(simp & -simp)
            self._facts["chordal"] = left == 0
        return self._facts["chordal"]

    def diameter_at_most(self, d: int) -> bool:
        return all(0 <= x <= d for s in range(self.n) for x in self.dist(s))

    def trivially_perfect(self) -> bool:
        """Connected and every connected induced piece met by the recursion
        has a universal vertex; equivalent to chordal and P4-free."""
        if "tp" not in self._facts:
            ok = True
            stack = [(1 << self.n) - 1]
            while stack and ok:
                part = stack.pop()
                comps = self._components(part)
                if part == (1 << self.n) - 1 and len(comps) != 1:
                    ok = False
                for comp in comps:
                    universal = [x for x in bits(comp)
                                 if comp & ~(self.adj[x] | 1 << x) == 0]
                    if not universal:
                        ok = False
                        break
                    rest = comp & ~(1 << universal[0])
                    if rest:
                        stack.append(rest)
            self._facts["tp"] = ok
        return self._facts["tp"]

    def _components(self, part: int) -> list[int]:
        comps = []
        while part:
            seen = part & -part
            frontier = seen
            while frontier:
                grow = 0
                for x in bits(frontier):
                    grow |= self.adj[x] & part
                frontier = grow & ~seen
                seen |= frontier
            comps.append(seen)
            part &= ~seen
        return comps

    # --- gems ---------------------------------------------------------------

    def gems(self, min_n: int, cap: int | None = None) -> frozenset:
        """Every (base, apex): an induced path with at least min_n edges,
        listed from its smaller end, plus a vertex off it adjacent to all of it.
        With ``cap``, the walk stops once more than ``cap`` gems are found and
        returns those, unmemoised."""
        if min_n not in self._gems:
            found = set()
            adj = self.adj
            for s in range(self.n):
                # path, vertices a next vertex may not touch, common neighbours
                stack = [((s,), 1 << s, adj[s])]
                while stack:
                    path, blocked, common = stack.pop()
                    if len(path) > min_n and path[0] < path[-1]:
                        for apex in bits(common):
                            found.add((path, apex))
                        if cap is not None and len(found) > cap:
                            return frozenset(found)
                    last = path[-1]
                    for x in bits(adj[last] & ~blocked):
                        if common & adj[x]:
                            stack.append((path + (x,), blocked | adj[last] | 1 << last,
                                          common & adj[x]))
            self._gems[min_n] = frozenset(found)
        return self._gems[min_n]

    def gem_solved(self, x0: int, xn: int, apex: int) -> bool:
        """Is there an induced path x0-b-c-xn that avoids the apex?"""
        key = (x0, xn, apex)
        if key not in self._solved:
            adj = self.adj
            ok = False
            for b in bits(adj[x0] & ~adj[xn] & ~(1 << xn | 1 << apex)):
                if adj[b] & adj[xn] & ~adj[x0] & ~(1 << x0 | 1 << apex):
                    ok = True
                    break
            self._solved[key] = ok and not adj[x0] >> xn & 1
        return self._solved[key]

    def accepts_l3(self) -> bool:
        """The k=3 characterization: chordal, diameter <= 3, gems solved."""
        return (self.chordal() and self.diameter_at_most(3)
                and all(self.gem_solved(b[0], b[-1], a) for b, a in self.gems(4)))

    # --- intervals ----------------------------------------------------------

    def intervals_from(self, u: int, k: int) -> list[int]:
        """I[u, w] for every w, by a DFS over simple paths from u of at most
        k edges that drops a path as soon as a new vertex makes a chord."""
        key = (u, k)
        if key not in self._intervals:
            out = [0] * self.n
            out[u] = 1 << u
            # path mask, the path's last vertex, vertices it may not touch next
            stack = [(1 << u, u, 1 << u, 0)]
            adj = self.adj
            while stack:
                pm, last, blocked, edges = stack.pop()
                if edges:
                    out[last] |= pm
                if edges == k:
                    continue
                for x in bits(adj[last] & ~blocked):
                    stack.append((pm | 1 << x, x, blocked | adj[last] | 1 << last, edges + 1))
            self._intervals[key] = out
        return self._intervals[key]

    def interval(self, u: int, v: int, k: int) -> int:
        return self.intervals_from(u, k)[v] | 1 << u | 1 << v

    def close_once(self, smask: int, k: int) -> int:
        out = smask
        for u in bits(smask):
            row = self.intervals_from(u, k)
            for v in bits(smask):
                out |= row[v]
        return out

    def escape(self, smask: int, k: int) -> int:
        """Vertices outside S that some pair interval of S reaches."""
        return self.close_once(smask, k) & ~smask


# --- answers of single commands --------------------------------------------


class Labels:
    """Map file labels to 0-based vertices: DIMACS files count from 1."""

    def __init__(self, offset: int, n: int):
        self.offset = offset
        self.n = n

    def v(self, label) -> int:
        need(isinstance(label, int) and 0 <= label - self.offset < self.n,
             f"label {label!r} is not a vertex")
        return label - self.offset

    def seq(self, labels) -> tuple[int, ...]:
        need(isinstance(labels, list), f"expected a label list, got {labels!r}")
        return tuple(self.v(x) for x in labels)

    def mask(self, labels) -> int:
        seq = self.seq(labels)
        need(list(seq) == sorted(set(seq)), f"set not ascending and distinct: {labels}")
        return mask_of(seq)


def check_header(ref: Reference, data: dict, command: str) -> None:
    need(data.get("command") == command, f"command field {data.get('command')!r}")
    m = sum(a.bit_count() for a in ref.adj) // 2
    need(data.get("input") == {"vertices": ref.n, "edges": m},
         f"input field {data.get('input')!r}")


def check_certificate(ref: Reference, k: int, cert) -> None:
    """A rejection certificate, 0-based: hole, p4, far_pair or unsolved_gem."""
    kind = cert["kind"]
    if kind == "hole":
        need(ref.is_hole(cert["cycle"]), f"not a hole: {cert}")
    elif kind == "p4":
        need(k == 2 and len(cert["path"]) == 4 and ref.is_path(cert["path"]),
             f"not an induced P4: {cert}")
    elif kind == "far_pair":
        d = ref.dist(cert["u"])[cert["v"]]
        need(k == 3 and d == cert["distance"] and d > 3, f"not a far pair: {cert}")
    elif kind == "unsolved_gem":
        base, apex = cert["base"], cert["apex"]
        need(k == 3 and len(base) >= 5 and ref.is_path(base), f"bad gem base: {cert}")
        need(apex not in base and all(ref.adj[apex] >> x & 1 for x in base),
             f"apex does not see the base: {cert}")
        need(not ref.gem_solved(base[0], base[-1], apex), f"gem is solved: {cert}")
    else:
        raise CheckError(f"unknown certificate kind {kind!r}")


def check_solving_path(ref: Reference, base, apex: int, via) -> None:
    need(len(via) == 4 and ref.is_path(via), f"solving path not induced of length 3: {via}")
    need(via[0] == base[0] and via[-1] == base[-1], f"solving path ends differ: {via}")
    need(apex not in via, f"solving path meets the apex: {via}")


def check_recognize(ref: Reference, lab: Labels, k: int, code: int, data: dict) -> None:
    check_header(ref, data, "recognize")
    need(data["k"] == k, "k field")
    accepted = data["accepted"]
    need(code == (0 if accepted else 1), f"exit code {code} with accepted={accepted}")
    if not accepted:
        need(data["solved_gems"] == [], "rejection lists solved gems")
        cert = dict(data["certificate"])
        for field in ("cycle", "path", "base"):
            if field in cert:
                cert[field] = list(lab.seq(cert[field]))
        for field in ("u", "v", "apex"):
            if field in cert:
                cert[field] = lab.v(cert[field])
        check_certificate(ref, k, cert)
        return
    need(data["certificate"] is None, "acceptance carries a certificate")
    need(ref.chordal(), "accepted a graph that is not chordal")
    if k == 2:
        need(ref.trivially_perfect(), "accepted at k=2 a graph with an induced P4")
        need(data["solved_gems"] == [], "k=2 acceptance lists gems")
        return
    need(ref.diameter_at_most(3), "accepted at k=3 a graph of diameter above 3")
    listed = set()
    for row in data["solved_gems"]:
        base, apex = lab.seq(row["base"]), lab.v(row["apex"])
        check_solving_path(ref, base, apex, lab.seq(row["solving_path"]))
        listed.add((base, apex))
    need(len(listed) == len(data["solved_gems"]), "a solved gem is listed twice")
    need(listed == ref.gems(4), "solved gems differ from the gems of the graph")


def check_gems(ref: Reference, lab: Labels, min_n: int, code: int, data: dict) -> None:
    check_header(ref, data, "gems")
    need(code == 0 and data["min_n"] == min_n, f"exit code {code} / min_n")
    listed = set()
    solved = 0
    for row in data["gems"]:
        base, apex = lab.seq(row["base"]), lab.v(row["apex"])
        need(row["n"] == len(base) - 1, f"gem size field {row}")
        truth = ref.gem_solved(base[0], base[-1], apex)
        need(row["solved"] == truth, f"solved flag {row['solved']} for {row}")
        if truth:
            check_solving_path(ref, base, apex, lab.seq(row["solving_path"]))
        else:
            need(row["solving_path"] is None, f"unsolved gem with a path: {row}")
        solved += truth
        listed.add((base, apex))
    total = len(data["gems"])
    need(len(listed) == total, "a gem is listed twice")
    need(listed == ref.gems(min_n), "listed gems differ from the gems of the graph")
    need(data["counts"] == {"total": total, "solved": solved, "unsolved": total - solved},
         f"counts {data['counts']}")


def check_interval(ref: Reference, lab: Labels, k: int, pair, code: int, data: dict,
                   expect_all: bool = False) -> None:
    """``expect_all``: the closed-form answer is every vertex."""
    check_header(ref, data, "interval")
    u, v = pair
    need(code == 0 and data["k"] == k, f"exit code {code} / k")
    need(lab.seq(data["pair"]) == (u, v), f"pair field {data['pair']}")
    want = (1 << ref.n) - 1 if expect_all else ref.interval(u, v, k)
    need(lab.mask(data["interval"]) == want, f"interval of {pair} differs")


def check_hull(ref: Reference, lab: Labels, k: int, smask: int, code: int, data: dict) -> None:
    check_header(ref, data, "hull")
    need(code == 0 and data["k"] == k, f"exit code {code} / k")
    need(lab.mask(data["set"]) == smask, "set field")
    its = [lab.mask(s) for s in data["trace"]["iterates"]]
    need(its[0] == smask, "first iterate is not the input set")
    need(data["trace"]["steps"] == len(its) - 1, "steps field")
    for cur, nxt in zip(its, its[1:]):
        need(nxt != cur and nxt == ref.close_once(cur, k), "an iterate is not one step on")
    need(ref.escape(its[-1], k) == 0, "the last iterate is not convex")
    need(lab.mask(data["hull"]) == its[-1], "hull field is not the last iterate")


def check_extremes(ref: Reference, lab: Labels, k: int, smask: int, code: int,
                   data: dict) -> None:
    check_header(ref, data, "extremes")
    need(data["k"] == k and lab.mask(data["set"]) == smask, "k or set field")
    if ref.escape(smask, k):
        bad = data["not_convex"]
        need(code == 1 and data["extremes"] is None and bad is not None,
             "a non-convex set was not refused")
        u, v = lab.seq(bad["pair"])
        esc = lab.v(bad["escaped"])
        need(smask >> u & 1 and smask >> v & 1, "refusal pair is not in the set")
        need(not smask >> esc & 1 and ref.interval(u, v, k) >> esc & 1,
             "escaped vertex is not in the pair interval outside the set")
        return
    need(code == 0 and data["not_convex"] is None, f"a convex set was refused: {code}")
    need(lab.mask(data["extremes"]) == ref.simplicial_in(smask),
         "extremes differ from the simplicial vertices of G[S]")


# --- in-process crosscheck --------------------------------------------------


def check_oracle_violation(ref: Reference, k: int, convex_set, ext, hull) -> None:
    """Replay a 'convex set not the hull of its extremes' certificate."""
    smask = mask_of(convex_set)
    need(ref.escape(smask, k) == 0, "certificate set is not convex")
    definitional = mask_of(x for x in bits(smask) if ref.escape(smask & ~(1 << x), k) == 0)
    need(mask_of(ext) == definitional, "certificate extremes are wrong")
    grown = mask_of(ext)
    while grown:
        nxt = ref.close_once(grown, k)
        if nxt == grown:
            break
        grown = nxt
    need(mask_of(hull) == grown, "certificate hull of the extremes is wrong")
    need(grown != smask, "certificate set is the hull of its extremes")


def check_crosscheck(ref: Reference, k: int, rec: dict, orc: dict) -> None:
    """``rec`` and ``orc`` are the verdicts' JSON forms, 0-based."""
    need(rec["accepted"] == orc["geometry"],
         f"recognizer says {rec['accepted']}, oracle says {orc['geometry']} at k={k}")
    if rec["certificate"] is not None:
        check_certificate(ref, k, rec["certificate"])
    for row in rec.get("solved_gems", ()):
        check_solving_path(ref, row["base"], row["apex"], row["solving_path"])
    if orc["certificate"] is not None:
        c = orc["certificate"]
        check_oracle_violation(ref, k, c["set"], c["ext"], c["hull"])
