"""Each independent check accepts the program's real answer and rejects a
deliberately corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import instances as gen  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Labels, Reference  # noqa: E402


def answer(tmp_path, adj, argv, dimacs=False):
    """Write the graph, run the CLI on it, return (ref, labels, code, data)."""
    import json

    text = gen.dimacs_text(adj, "t") if dimacs else gen.canonical_text(adj, "t")
    f = tmp_path / ("g.dimacs" if dimacs else "g.txt")
    f.write_text(text)
    code, out = workloads.run_cli([argv[0], str(f), *argv[1:], "--json"])
    return Reference(adj), Labels(1 if dimacs else 0, len(adj)), code, json.loads(out)


def from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def rejects(fn, *args):
    with pytest.raises(CheckError):
        fn(*args)


def gem_rich(accepted):
    rng = random.Random(5)
    wanted = Reference.accepts_l3 if accepted else (lambda ref: not ref.accepts_l3())
    adj, ref = workloads._gem_rich(rng, (14, 18), 30, 20, wanted)
    return adj


def test_recognize_acceptance_k3(tmp_path):
    ref, lab, code, data = answer(tmp_path, gem_rich(True), ["recognize", "--k", "3"], dimacs=True)
    checks.check_recognize(ref, lab, 3, code, data)
    dropped = copy.deepcopy(data)
    dropped["solved_gems"].pop()
    rejects(checks.check_recognize, ref, lab, 3, code, dropped)
    bent = copy.deepcopy(data)
    via = bent["solved_gems"][0]["solving_path"]
    via[1], via[2] = via[2], via[1]
    rejects(checks.check_recognize, ref, lab, 3, code, bent)
    rejects(checks.check_recognize, ref, lab, 3, 1, data)


def test_recognize_unsolved_gem(tmp_path):
    ref, lab, code, data = answer(tmp_path, gem_rich(False), ["recognize", "--k", "3"])
    assert data["certificate"]["kind"] == "unsolved_gem"
    checks.check_recognize(ref, lab, 3, code, data)
    moved = copy.deepcopy(data)
    moved["certificate"]["base"] = moved["certificate"]["base"][:-1]
    rejects(checks.check_recognize, ref, lab, 3, code, moved)
    flipped = copy.deepcopy(data)
    flipped["accepted"] = True
    rejects(checks.check_recognize, ref, lab, 3, 0, flipped)


def test_recognize_hole_far_pair_and_p4(tmp_path):
    hole_with_tail = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (5, 6)])
    ref, lab, code, data = answer(tmp_path, hole_with_tail, ["recognize", "--k", "2"])
    assert data["certificate"]["kind"] == "hole"
    checks.check_recognize(ref, lab, 2, code, data)
    short = copy.deepcopy(data)
    short["certificate"]["cycle"].pop()
    rejects(checks.check_recognize, ref, lab, 2, code, short)

    ref, lab, code, data = answer(tmp_path, gen.path(7), ["recognize", "--k", "3"], dimacs=True)
    assert data["certificate"]["kind"] == "far_pair"
    checks.check_recognize(ref, lab, 3, code, data)
    near = copy.deepcopy(data)
    near["certificate"]["distance"] -= 1
    rejects(checks.check_recognize, ref, lab, 3, code, near)

    ref, lab, code, data = answer(tmp_path, gen.path(7), ["recognize", "--k", "2"])
    assert data["certificate"]["kind"] == "p4"
    checks.check_recognize(ref, lab, 2, code, data)
    chord = copy.deepcopy(data)
    chord["certificate"]["path"][3] = chord["certificate"]["path"][0]
    rejects(checks.check_recognize, ref, lab, 2, code, chord)


def test_recognize_acceptance_k2(tmp_path):
    adj = gen.trivially_perfect(random.Random(3), 25)
    ref, lab, code, data = answer(tmp_path, adj, ["recognize", "--k", "2"])
    checks.check_recognize(ref, lab, 2, code, data)
    ref2, lab2, _, _ = answer(tmp_path, gen.path(5), ["recognize", "--k", "2"])
    lying = copy.deepcopy(data)
    lying["input"] = {"vertices": 5, "edges": 4}
    rejects(checks.check_recognize, ref2, lab2, 2, code, lying)


def test_gems_listing(tmp_path):
    ref, lab, code, data = answer(tmp_path, gem_rich(False), ["gems", "--min-n", "4"])
    checks.check_gems(ref, lab, 4, code, data)
    flipped = copy.deepcopy(data)
    row = flipped["gems"][0]
    row["solved"] = not row["solved"]
    rejects(checks.check_gems, ref, lab, 4, code, flipped)
    missing = copy.deepcopy(data)
    missing["gems"].pop()
    missing["counts"]["total"] -= 1
    rejects(checks.check_gems, ref, lab, 4, code, missing)


def test_interval_and_closed_form(tmp_path):
    adj = gen.connected(random.Random(2), 30, 0.04)
    ref, lab, code, data = answer(tmp_path, adj, ["interval", "--k", "4", "--pair", "0,29"])
    checks.check_interval(ref, lab, 4, (0, 29), code, data)
    grown = copy.deepcopy(data)
    extra = next(v for v in range(30) if v not in data["interval"])
    grown["interval"] = sorted(grown["interval"] + [extra])
    rejects(checks.check_interval, ref, lab, 4, (0, 29), code, grown)

    ref, lab, code, data = answer(tmp_path, gen.gem(20), ["interval", "--k", "30", "--pair", "1,21"],
                                  dimacs=True)
    checks.check_interval(ref, lab, 30, (0, 20), code, data, expect_all=True)
    short = copy.deepcopy(data)
    short["interval"].remove(5)
    rejects(checks.check_interval, ref, lab, 30, (0, 20), code, short, True)


def test_hull_trace(tmp_path):
    adj = gen.connected(random.Random(4), 30, 0.05)
    ref, lab, code, data = answer(tmp_path, adj, ["hull", "--k", "3", "--set", "0,29"])
    checks.check_hull(ref, lab, 3, 1 | 1 << 29, code, data)
    assert data["trace"]["steps"] >= 1
    early = copy.deepcopy(data)
    early["trace"]["iterates"].pop()
    early["trace"]["steps"] -= 1
    early["hull"] = early["trace"]["iterates"][-1]
    rejects(checks.check_hull, ref, lab, 3, 1 | 1 << 29, code, early)


def test_extremes(tmp_path):
    adj = gen.chordal(random.Random(6), 40, 0.6)
    clique = sorted(checks.bits(workloads._a_clique(adj, 7)))
    arg = ",".join(map(str, clique))
    ref, lab, code, data = answer(tmp_path, adj, ["extremes", "--k", "3", "--set", arg])
    smask = checks.mask_of(clique)
    checks.check_extremes(ref, lab, 3, smask, code, data)
    fewer = copy.deepcopy(data)
    fewer["extremes"].pop()
    rejects(checks.check_extremes, ref, lab, 3, smask, code, fewer)

    far = [0, ref.dist(0).index(2)]
    ref, lab, code, data = answer(tmp_path, adj, ["extremes", "--k", "3", "--set", ",".join(map(str, far))])
    smask = checks.mask_of(far)
    checks.check_extremes(ref, lab, 3, smask, code, data)
    wrong = copy.deepcopy(data)
    wrong["not_convex"]["escaped"] = far[0]
    rejects(checks.check_extremes, ref, lab, 3, smask, code, wrong)


def test_crosscheck_agreement_and_replay():
    from lkconvex import Graph, recognize_l3, verify_geometry

    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    ref = Reference(gen.path(6))
    rec, orc = recognize_l3(g).to_json_dict(), verify_geometry(g, 3).to_json_dict()
    assert orc["certificate"] is not None
    checks.check_crosscheck(ref, 3, rec, orc)
    disagree = dict(rec, accepted=True, certificate=None)
    rejects(checks.check_crosscheck, ref, 3, disagree, orc)
    bad_hull = copy.deepcopy(orc)
    bad_hull["certificate"]["hull"] = bad_hull["certificate"]["set"]
    rejects(checks.check_crosscheck, ref, 3, rec, bad_hull)
    bad_ext = copy.deepcopy(orc)
    bad_ext["certificate"]["ext"] = bad_ext["certificate"]["set"]
    rejects(checks.check_crosscheck, ref, 3, rec, bad_ext)
