"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (zero mismatch tolerance); the timed criteria
assert their stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time

import pytest

from bruteforce import is_clique, subsets
from lkconvex import (
    diameter,
    enumerate_convex_sets,
    enumerate_gems,
    extreme_points,
    generators,
    hull,
    induced_subgraph,
    interval_of_set,
    is_chordal,
    is_connected,
    is_convex,
    recognize_l2,
    recognize_l3,
    necessary_conditions,
    simplicial_vertices,
    verify_geometry,
)

def _report(num: int, problems: list[str], detail: str, elapsed: float) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num}: " + "; ".join(problems[:5])


def test_criterion_1_strip_fixture_values():
    t0 = time.perf_counter()
    problems = []
    g = generators.triangle_strip7()

    ext = extreme_points(g, 3, range(7))
    if ext != {0, 6}:
        problems.append(f"extreme points of V: {sorted(ext)}")

    step = interval_of_set(g, 3, {0, 6})
    if step != {0, 1, 4, 6}:
        problems.append(f"interval of the extreme pair: {sorted(step)}")

    tr = hull(g, 3, {0, 6})
    if tr.steps != 2 or tr.hull != set(range(7)):
        problems.append(f"hull trace: steps={tr.steps} hull={sorted(tr.hull)}")

    got = enumerate_convex_sets(g, 3)
    cliques = {
        frozenset(s) for s in subsets(range(7), min_size=1) if is_clique(g, s)
    }
    ladders = [
        {0, 1, 2, 3}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5},
        {1, 2, 3, 4}, {1, 2, 3, 4, 5}, {1, 3, 4, 5},
        {1, 2, 3, 4, 5, 6}, {1, 3, 4, 5, 6}, {3, 4, 5, 6},
    ]
    expected = (
        {frozenset(), frozenset(range(7))}
        | cliques
        | {frozenset(s) for s in ladders}
    )
    if set(got) != expected or len(got) != len(expected):
        missing = sorted(map(sorted, expected - set(got)))
        extra = sorted(map(sorted, set(got) - expected))
        problems.append(f"enumeration off: missing={missing} extra={extra}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, problems, "strip fixture: extremes, interval, hull trace, "
            f"{len(got)} convex sets", elapsed)


def test_criterion_2_non_hereditary_demo():
    t0 = time.perf_counter()
    problems = []
    g = generators.triangle_strip7()

    rec = recognize_l3(g)
    orc = verify_geometry(g, 3)
    if not (rec.accepted and orc.is_geometry):
        problems.append("base strip not accepted by both routes")

    for victim in (1, 4):
        sub = induced_subgraph(g, set(range(7)) - {victim})
        rec = recognize_l3(sub.graph)
        orc = verify_geometry(sub.graph, 3)
        if rec.accepted or orc.is_geometry:
            problems.append(f"minus {victim}: still accepted")
        if rec.accepted != orc.is_geometry:
            problems.append(f"minus {victim}: routes disagree")
        pair = {sub.child_ids[0], sub.child_ids[6]}
        tr = hull(sub.graph, 3, pair)
        if tr.hull != pair or tr.steps != 0:
            problems.append(f"minus {victim}: hull of the end pair moved")
        ext = extreme_points(sub.graph, 3, range(sub.graph.n))
        if ext != pair:
            problems.append(f"minus {victim}: extremes {sorted(ext)}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(2, problems, "deleting vertex 1 or 4 breaks the k=3 geometry, "
            "recognizer and oracle concur on all three graphs", elapsed)


def test_criterion_3_l2_equivalence_exhaustive(connected_upto6):
    t0 = time.perf_counter()
    problems = []
    count = 0
    for g in connected_upto6:
        count += 1
        if recognize_l2(g).accepted != verify_geometry(g, 2).is_geometry:
            problems.append(f"mismatch on {g.edges()}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _report(3, problems, f"k=2 recognizer vs oracle on {count} connected "
            "graphs with up to 6 vertices, zero mismatches", elapsed)


def test_criterion_4_l3_equivalence_exhaustive_and_random(connected_upto6):
    t0 = time.perf_counter()
    problems = []
    count = 0
    for g in connected_upto6:
        count += 1
        if recognize_l3(g).accepted != verify_geometry(g, 3).is_geometry:
            problems.append(f"mismatch on {g.edges()}")
    densities = [0.0, 0.15, 0.3, 0.5, 0.7, 0.9]
    accepted = 0
    for i in range(500):
        n = 4 + i % 9  # 4..12
        g = generators.random_connected_chordal(n, densities[i % 6], i)
        count += 1
        r = recognize_l3(g).accepted
        accepted += r
        if r != verify_geometry(g, 3).is_geometry:
            problems.append(f"mismatch on seeded instance {i}: {g.edges()}")
    if not 0 < accepted < 500:
        problems.append(f"degenerate random ensemble: {accepted}/500 accepted")
    elapsed = time.perf_counter() - t0
    if elapsed >= 900:
        problems.append(f"took {elapsed:.1f}s, budget 900s")
    _report(4, problems, f"k=3 recognizer vs oracle on {count} instances "
            "(exhaustive to n=6 plus 500 seeded chordal up to n=12)", elapsed)


def test_criterion_5_monophonic_limit_is_chordality(connected_upto6):
    t0 = time.perf_counter()
    problems = []
    count = 0
    seeded = []
    for i in range(72):  # 7-18 vertices, chordal and arbitrary by turns
        n, density = 7 + i % 12, random.Random(50_000 + i).choice((0.1, 0.2, 0.35, 0.6))
        family = generators.random_connected_chordal if i % 2 else generators.random_connected
        seeded.append(family(n, density, 50_000 + i))
    holes = 0
    for g in connected_upto6 + seeded:
        count += 1
        k = max(2, g.n - 1)
        ch = is_chordal(g)
        if verify_geometry(g, k).is_geometry != ch.chordal:
            problems.append(f"mismatch on {g.edges()}")
        if not ch.chordal:
            holes += 1
            if not ch.hole.is_hole_in(g):
                problems.append(f"bad hole {ch.hole.cycle} on {g.edges()}")
    elapsed = time.perf_counter() - t0
    _report(5, problems, f"k=n-1 geometry verdict equals chordality on "
            f"{count} connected graphs ({holes} with checked holes): every one "
            f"with up to 6 vertices and 72 seeded with 7-18", elapsed)


@pytest.mark.slow
def test_criterion_5_monophonic_limit_past_18_vertices():
    t0 = time.perf_counter()
    problems = []
    count = holes = 0
    for i in range(16):  # 19-22 vertices, chordal and arbitrary by turns
        n, density = 19 + i // 4, random.Random(60_000 + i).choice((0.1, 0.2, 0.35, 0.6))
        family = generators.random_connected_chordal if i % 2 else generators.random_connected
        g = family(n, density, 60_000 + i)
        count += 1
        ch = is_chordal(g)
        if verify_geometry(g, n - 1).is_geometry != ch.chordal:
            problems.append(f"mismatch on {g.edges()}")
        if not ch.chordal:
            holes += 1
            if not ch.hole.is_hole_in(g):
                problems.append(f"bad hole {ch.hole.cycle} on {g.edges()}")
    elapsed = time.perf_counter() - t0
    _report(5, problems, f"k=n-1 geometry verdict equals chordality on {count} "
            f"seeded connected graphs with 19-22 vertices ({holes} with checked holes)",
            elapsed)


def test_criterion_6_randomized_law_battery():
    t0 = time.perf_counter()
    problems = []
    cases = 0
    for i in range(1000):
        rng = random.Random(10_000 + i)
        n = 2 + i % 11  # 2..12
        family = i % 3
        if family == 0:
            g = generators.random_connected(n, rng.random(), i)
        elif family == 1:
            g = generators.random_connected_chordal(n, rng.random(), i)
        else:
            g = generators.random_trivially_perfect(n, i)
        k = (2, 3, max(2, n - 1))[i % 3]
        s = {v for v in range(n) if rng.random() < 0.4}
        if not s:
            s = {rng.randrange(n)}
        cases += 1

        tr = hull(g, k, s)
        h = tr.hull
        if not s <= h:
            problems.append(f"case {i}: hull not extensive")
        if not is_convex(g, k, h):
            problems.append(f"case {i}: hull not convex")
        if hull(g, k, h).steps != 0:
            problems.append(f"case {i}: hull not idempotent")

        extra = s | {rng.randrange(n)}
        if not h <= hull(g, k, extra).hull:
            problems.append(f"case {i}: hull not monotone")

        other = hull(g, k, {rng.randrange(n)}).hull
        if not is_convex(g, k, h & other):
            problems.append(f"case {i}: intersection not convex")

        clique = [rng.randrange(n)]
        for v in range(n):
            if all(g.has_edge(v, c) for c in clique) and v not in clique:
                clique.append(v)
        if not is_convex(g, k, clique):
            problems.append(f"case {i}: clique {sorted(clique)} not convex")

        ext = extreme_points(g, k, h)
        definitional = {x for x in h if is_convex(g, k, h - {x})}
        sub = induced_subgraph(g, h)
        simp = {sub.parent_ids[x] for x in simplicial_vertices(sub.graph)}
        if ext != definitional or ext != simp:
            problems.append(f"case {i}: extreme point characterizations split")

        if len(problems) > 10:
            break

    elapsed = time.perf_counter() - t0
    _report(6, problems, f"hull laws, intersection closure, clique convexity "
            f"and extreme-point equivalence over {cases} randomized cases",
            elapsed)


def test_criterion_7_connected_convex_sets_have_small_diameter():
    t0 = time.perf_counter()
    problems = []
    found = 0
    draws = 0
    checked_sets = 0
    densities = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95]
    while found < 100 and draws < 3000:
        n = 4 + draws % 7  # 4..10
        g = generators.random_connected_chordal(n, densities[draws % 6], 20_000 + draws)
        draws += 1
        if not necessary_conditions(g, 3).accepted:
            continue
        found += 1
        for s in enumerate_convex_sets(g, 3):
            if not s:
                continue
            sub = induced_subgraph(g, s)
            if is_connected(sub.graph):
                checked_sets += 1
                if diameter(sub.graph) > 3:
                    problems.append(f"instance {draws}: set {sorted(s)} too wide")
    if found < 100:
        problems.append(f"only {found} accepted instances in {draws} draws")
    elapsed = time.perf_counter() - t0
    _report(7, problems, f"{checked_sets} connected convex sets across "
            f"{found} accepted k=3 instances all have diameter <= 3", elapsed)


def test_criterion_8_gem_machinery():
    t0 = time.perf_counter()
    problems = []

    g4 = generators.gem(4)
    verdict = recognize_l3(g4)
    if verdict.accepted or verdict.certificate_kind != "unsolved_gem":
        problems.append(f"gem(4) verdict: {verdict}")
    else:
        w = verdict.certificate
        if w.base.vertices != (0, 1, 2, 3, 4) or w.apex != 5:
            problems.append(f"gem(4) certificate: {w}")
        if not w.is_valid_in(g4):
            problems.append("gem(4) certificate does not validate")

    if not recognize_l3(generators.gem(3)).accepted:
        problems.append("gem(3) rejected")
    if not recognize_l3(generators.path(4)).accepted:
        problems.append("4-vertex path rejected")

    witnesses = list(enumerate_gems(generators.gem(5), 4))
    expected = [((0, 1, 2, 3, 4), 6), ((0, 1, 2, 3, 4, 5), 6), ((1, 2, 3, 4, 5), 6)]
    if [(w.base.vertices, w.apex) for w in witnesses] != expected:
        problems.append(f"gem(5) witnesses: {witnesses}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(8, problems, "gem(4) rejected with its unsolved gem, gem(3) and "
            "the 4-vertex path accepted, gem(5) yields exactly 3 witnesses",
            elapsed)
