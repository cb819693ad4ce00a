"""The three workloads: one round of operations each, built from a seed.

A round is a list of operations on instances drawn for that round alone
from ``(seed, round number)``, so a run meets new graphs in every round and
its figures rest on many instances, not on a few repeated ones.  Each class
of operation appears a fixed number of times in every round, whatever the
seed, so the share of expected failures is the same in every run.

``recognize`` and ``queries`` write their graphs to a work directory in both
text dialects (even-numbered graphs canonical, odd-numbered ones DIMACS) and
time in-process ``lkconvex.cli.main`` runs on them.  ``crosscheck`` builds
its graphs in memory and times the recognizer and oracle calls, as
``lkconvex crosscheck`` does.  Program names are looked up at call time, so
the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import instances as gen
from checks import Labels, Reference

# Graphs per class in one round; see README.md for how the mix is sized.
RECOGNIZE_MIX = {"heavy": 6, "dense": 12, "sparse": 10, "holed": 10, "tp": 6}
# Target number of gems (base of at least 4 edges) of the dense graphs.
HEAVY_GEMS = 750
DENSE_GEMS = 150
CROSSCHECK_MIX = {"gemrich": 8, "mid": 8, "holed": 8}
# Gem-rich crosscheck graphs are accepted at k=3 but not at k=2, so the
# oracle scans all 2^n subsets once; among them, those with about this many
# gems are preferred.
CROSSCHECK_GEMS = 4
QUERIES_MIX = {"sparse": 8, "chordal": 10}
# Deep-path intervals per round: `path` and `gem` instances longer than the
# default recursion limit, queried end to end with k >= n.
DEEP_PATH_N = 1100
DEEP_GEM_N = 1200


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    deep: bool = False


class CliRun(NamedTuple):
    code: int
    out: str


def run_cli(argv: list[str]) -> CliRun:
    """One in-process CLI run: exit code and captured standard output."""
    from lkconvex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue())


def _spread(i: int, count: int, lo: int, hi: int) -> int:
    """The i-th of count sizes spread evenly over lo..hi."""
    return lo + ((hi - lo) * i) // max(1, count - 1)


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, adj: list[int], comment: str) -> tuple[str, Labels]:
        """Write one graph, alternating dialects; returns path and label map."""
        i = self.count
        self.count += 1
        if i % 2 == 0:
            path, offset = self.workdir / f"g{i:03d}.txt", 0
            path.write_text(gen.canonical_text(adj, comment))
        else:
            path, offset = self.workdir / f"g{i:03d}.dimacs", 1
            path.write_text(gen.dimacs_text(adj, comment))
        return str(path), Labels(offset, len(adj))


def _cli_op(kind: str, argv: list[str], checker) -> Op:
    def check(result: CliRun) -> None:
        checks.need(result.code != 2, "exit code 2 (operational error)")
        checker(result.code, json.loads(result.out))

    return Op(kind, lambda: run_cli(argv), check)


def _labels_arg(lab: Labels, vertices) -> str:
    return ",".join(str(v + lab.offset) for v in vertices)


def _dense_chordal(rng: random.Random, n: int) -> list[int]:
    """Gem-rich chordal graph of small diameter: every vertex hangs off a
    two-vertex core, and new vertices join large cliques."""
    return gen.relabel(rng, gen.chordal(rng, n, 0.9, core=2))


def _gem_rich(rng: random.Random, sizes: tuple[int, int], target: int, draws: int,
              wanted=None) -> tuple[list[int], Reference]:
    """Of a fixed number of draws of gem-rich chordal graphs, the one whose
    count of gems (base of at least 4 edges) is closest to ``target``,
    preferring graphs whose Reference satisfies ``wanted``.  This keeps the
    cost of the gem-heavy operations alike from seed to seed; counting stops
    at twice the target, which keeps the cost of set-up alike too."""
    best = None
    for _ in range(draws):
        adj = _dense_chordal(rng, rng.randint(*sizes))
        ref = Reference(adj)
        score = (wanted is not None and not wanted(ref),
                 abs(len(ref.gems(4, cap=2 * target)) - target))
        if best is None or score < best[0]:
            best = (score, adj, ref)
    return best[1], best[2]


def _holed(rng: random.Random, n: int, extra: float) -> list[int]:
    """Connected graph that is not chordal."""
    while True:
        adj = gen.connected(rng, n, extra)
        if not Reference(adj).chordal():
            return adj


def _far_chordal(rng: random.Random, n: int) -> list[int]:
    """Sparse chordal graph of diameter above 3."""
    while True:
        adj = gen.chordal(rng, n, 0.3)
        if not Reference(adj).diameter_at_most(3):
            return gen.relabel(rng, adj)


def build_recognize(seed: int, rnd: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"recognize:{seed}:{rnd}")
    w = _Writer(workdir)
    mix = RECOGNIZE_MIX
    graphs = []
    for _ in range(mix["heavy"]):
        graphs.append(("heavy", *_gem_rich(rng, (28, 28), HEAVY_GEMS, 8)))
    for i in range(mix["dense"]):
        # half of them accepted at k=3
        wanted = Reference.accepts_l3 if i % 2 == 0 else (lambda ref: not ref.accepts_l3())
        graphs.append(("dense", *_gem_rich(rng, (18, 26), DENSE_GEMS, 5, wanted)))
    for i in range(mix["sparse"]):
        adj = _far_chordal(rng, _spread(i, mix["sparse"], 40, 80))
        graphs.append(("sparse", adj, Reference(adj)))
    for i in range(mix["holed"]):
        adj = _holed(rng, _spread(i, mix["holed"], 40, 80), 0.03)
        graphs.append(("holed", adj, Reference(adj)))
    for i in range(mix["tp"]):
        adj = gen.relabel(rng, gen.trivially_perfect(rng, _spread(i, mix["tp"], 60, 150)))
        graphs.append(("tp", adj, Reference(adj)))
    ops = []
    for family, adj, ref in graphs:
        path, lab = w.write(adj, f"recognize {family}")
        for k in (3, 2):
            ops.append(_cli_op(
                f"recognize-k{k}/{family}", ["recognize", path, "--k", str(k), "--json"],
                lambda code, data, ref=ref, lab=lab, k=k: checks.check_recognize(ref, lab, k, code, data),
            ))
        ops.append(_cli_op(
            f"gems/{family}", ["gems", path, "--min-n", "4", "--json"],
            lambda code, data, ref=ref, lab=lab: checks.check_gems(ref, lab, 4, code, data),
        ))
    rng.shuffle(ops)
    return ops


def _crosscheck_op(kind: str, adj: list[int], ref: Reference | None = None) -> Op:
    from lkconvex import Graph

    g = Graph(len(adj), gen.edges_of(adj))
    ref = ref or Reference(adj)

    def call():
        from lkconvex import geometry, recognizers

        return (
            recognizers.recognize_l2(g), geometry.verify_geometry(g, 2),
            recognizers.recognize_l3(g), geometry.verify_geometry(g, 3),
        )

    def check(result) -> None:
        rec2, orc2, rec3, orc3 = result
        checks.check_crosscheck(ref, 2, rec2.to_json_dict(), orc2.to_json_dict())
        checks.check_crosscheck(ref, 3, rec3.to_json_dict(), orc3.to_json_dict())

    return Op(kind, call, check)


def _l3_not_l2(ref: Reference) -> bool:
    """A k=3 geometry that is not a k=2 one: one full subset scan, not two."""
    return ref.accepts_l3() and not ref.trivially_perfect()


def build_crosscheck(seed: int, rnd: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"crosscheck:{seed}:{rnd}")
    mix = CROSSCHECK_MIX
    ops = []
    for _ in range(mix["gemrich"]):
        adj, ref = _gem_rich(rng, (11, 11), CROSSCHECK_GEMS, 3, _l3_not_l2)
        ops.append(_crosscheck_op("crosscheck/gemrich", adj, ref))
    for i in range(mix["mid"]):
        adj = gen.relabel(rng, gen.chordal(rng, _spread(i, mix["mid"], 9, 10), 0.5))
        ops.append(_crosscheck_op("crosscheck/mid", adj))
    for i in range(mix["holed"]):
        ops.append(_crosscheck_op("crosscheck/holed", _holed(rng, _spread(i, mix["holed"], 9, 10), 0.25)))
    rng.shuffle(ops)
    return ops


def _interval_op(kind, path, lab, ref, k, pair, expect_all=False) -> Op:
    return _cli_op(
        kind, ["interval", path, "--k", str(k), "--pair", _labels_arg(lab, pair), "--json"],
        lambda c, d: checks.check_interval(ref, lab, k, pair, c, d, expect_all))


def _set_op(command, kind, path, lab, ref, k, vertices) -> Op:
    """A ``hull`` or ``extremes`` query on a vertex set."""
    checker = checks.check_hull if command == "hull" else checks.check_extremes
    smask = checks.mask_of(vertices)
    return _cli_op(
        kind, [command, path, "--k", str(k), "--set", _labels_arg(lab, sorted(vertices)), "--json"],
        lambda c, d: checker(ref, lab, k, smask, c, d))


def build_queries(seed: int, rnd: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"queries:{seed}:{rnd}")
    w = _Writer(workdir)
    mix = QUERIES_MIX
    ops = []
    half = mix["sparse"] // 2
    for i in range(mix["sparse"]):
        # k of 4 or 5: at k=3 hulls in these graphs mostly stay at the seed
        # pair.  The k=5 half, on 80-90 vertices, is the tail class.
        if i < half:
            n, k = _spread(i, half, 50, 70), 4
        else:
            n, k = _spread(i - half, half, 80, 90), 5
        adj = _holed(rng, n, 1.2 / n)
        path, lab = w.write(adj, "queries sparse")
        ref = Reference(adj)
        ops += [
            _set_op("hull", "hull/sparse", path, lab, ref, k, _pair_within(rng, ref, k)),
            _interval_op("interval/sparse", path, lab, ref, k, _pair_within(rng, ref, k)),
            _set_op("extremes", "extremes/sparse", path, lab, ref, k, rng.sample(range(n), 3)),
        ]
    for i in range(mix["chordal"]):
        n, k = _spread(i, mix["chordal"], 100, 200), 3 + i % 2
        adj = gen.relabel(rng, gen.chordal(rng, n, 0.6))
        path, lab = w.write(adj, "queries chordal")
        ref = Reference(adj)
        clique = checks.bits(_a_clique(adj, rng.randrange(n)))
        ops += [
            _set_op("hull", "hull/chordal", path, lab, ref, k, _pair_within(rng, ref, 3)),
            _set_op("extremes", "extremes/chordal", path, lab, ref, k, clique),
            _set_op("extremes", "extremes/chordal", path, lab, ref, k, rng.sample(range(n), 3)),
            _interval_op("interval/chordal", path, lab, ref, k, tuple(rng.sample(range(n), 2))),
        ]
    for adj, pair in ((gen.path(DEEP_PATH_N), (0, DEEP_PATH_N - 1)),
                      (gen.gem(DEEP_GEM_N), (0, DEEP_GEM_N))):
        path, lab = w.write(adj, "queries deep path")
        op = _interval_op("interval/deep", path, lab, Reference(adj), len(adj) + 100, pair,
                          expect_all=True)
        op.deep = True
        ops.append(op)
    rng.shuffle(ops)
    return ops


def _pair_within(rng: random.Random, ref: Reference, k: int) -> tuple[int, int]:
    """A random pair at distance 2..k, whose interval holds more than the pair."""
    while True:
        u = rng.randrange(ref.n)
        near = [x for x, d in enumerate(ref.dist(u)) if 2 <= d <= k]
        if near:
            return tuple(sorted((u, rng.choice(near))))


def _a_clique(adj: list[int], v: int) -> int:
    """A maximal clique through v, grown greedily in ascending id order."""
    clique = 1 << v
    for x in checks.bits(adj[v]):
        if clique & ~adj[x] == 0:
            clique |= 1 << x
    return clique


BUILDERS = {
    "recognize": build_recognize,
    "crosscheck": build_crosscheck,
    "queries": build_queries,
}
