"""Deep inputs, work bounds and the CLI exit-code contract.

Induced paths longer than the interpreter's recursion limit must be walked
like short ones, hulls and extreme points of large sets, the lookup of
many vertex labels, the k=2 test and gem enumeration on a large trivially
perfect graph and the hole behind a large star or at the end of a long
path must stay within their time budgets, and no input may make the CLI
leave the contract: exit 0, 1 or 2, with argparse's own SystemExit(2) as
the only exception allowed to escape main, nothing on stdout with exit 2,
and with --json one line on stdout holding the one report object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lkconvex import (
    Graph,
    enumerate_gems,
    extreme_points,
    format_graph,
    generators,
    hull,
    induced_paths_between,
    interval,
    interval_of_set,
    recognize_l2,
    verify_geometry,
)
from lkconvex.cli import main
from lkconvex.formats import MAX_VERTICES, FormatError, parse_graph

DEEP = sys.getrecursionlimit() + 100


def test_deep_path_interval():
    g = generators.path(DEEP)
    paths = list(induced_paths_between(g, 0, DEEP - 1, DEEP))
    assert [p.vertices for p in paths] == [tuple(range(DEEP))]
    assert interval(g, DEEP + 100, 0, DEEP - 1) == frozenset(range(DEEP))


def test_deep_gem():
    w = next(enumerate_gems(generators.gem(DEEP), DEEP - 2))
    assert w.base.vertices == tuple(range(DEEP - 1))
    assert w.apex == DEEP + 1


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deep_cli(capsys, tmp_path):
    f = tmp_path / "path.txt"
    f.write_text(format_graph(generators.path(DEEP)))
    code, out, _ = _run(["interval", str(f), "--k", str(DEEP + 100),
                         "--pair", f"0,{DEEP - 1}", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["interval"] == list(range(DEEP))

    f = tmp_path / "gem.txt"
    f.write_text(format_graph(generators.gem(DEEP)))
    code, out, _ = _run(["gems", str(f), "--min-n", str(DEEP - 2), "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"total": 6, "solved": 0, "unsolved": 6}
    assert [(row["base"][0], row["base"][-1]) for row in report["gems"]] == [
        (0, DEEP - 2), (0, DEEP - 1), (0, DEEP), (1, DEEP - 1), (1, DEEP), (2, DEEP)]


# --- work bounds: large hulls, extremes and trivially perfect graphs -------

def test_hull_reaching_all_vertices_stops():
    g = generators.path(400)
    t0 = time.perf_counter()
    trace = hull(g, 500, {0, 399})
    elapsed = time.perf_counter() - t0
    assert trace.steps == 1 and trace.hull == frozenset(range(400))
    assert elapsed < 1.0, elapsed


def test_long_cli_hull(capsys, tmp_path):
    f = tmp_path / "path.txt"
    f.write_text(format_graph(generators.path(1500)))
    code, out, _ = _run(["hull", str(f), "--k", "2000", "--set", "0,1499", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["trace"]["steps"] == 1 and report["hull"] == list(range(1500))



def test_sparse_cli_hull(capsys, tmp_path):
    # A sparse holed graph whose hull steps add dozens of vertices at k = 7:
    # each step must walk once per added vertex, not once per pair, and
    # grow one ball set per added vertex, not one around every target set.
    f = tmp_path / "sparse.txt"
    f.write_text(format_graph(generators.random_connected(200, 0.012, 3)))
    t0 = time.perf_counter()
    code, out, _ = _run(["hull", str(f), "--k", "7", "--set", "0,134", "--json"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert len(json.loads(out)["hull"]) == 192
    assert elapsed < 0.25, elapsed


def test_interval_of_a_spread_set_on_a_long_path():
    # Every other vertex of a 5000-vertex path at k = n: each added
    # vertex's balls stop growing after one step, so merging them into the
    # shared ball list must cost that one step, not k padded balls.
    g = generators.path(5000)
    t0 = time.perf_counter()
    got = interval_of_set(g, 5000, range(0, 5000, 2))
    elapsed = time.perf_counter() - t0
    assert got == frozenset(range(4999))
    assert elapsed < 1.0, elapsed


def test_label_lookup_on_a_large_set(capsys, tmp_path):
    # Every --set label is looked up once: 20,000 of them must not scan the
    # label tuple one by one.
    f = tmp_path / "star.txt"
    f.write_text(format_graph(generators.star(20000)))
    labels = ",".join(map(str, range(20000)))
    t0 = time.perf_counter()
    code, out, _ = _run(["hull", str(f), "--k", "3", "--set", labels, "--json"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out)["hull"] == list(range(20000))
    assert elapsed < 1.0, elapsed


def test_extremes_of_a_large_set():
    g = generators.path(200)
    t0 = time.perf_counter()
    ext = extreme_points(g, 3, range(200))
    elapsed = time.perf_counter() - t0
    assert ext == {0, 199}
    assert elapsed < 0.5, elapsed


def test_oracle_at_twenty_vertices_with_every_subset_convex():
    # 2^20 convex sets, each but V extended by any vertex: accepted by the
    # one-point test, with no hull replayed
    t0 = time.perf_counter()
    verdict = verify_geometry(generators.complete(20), 3)
    elapsed = time.perf_counter() - t0
    assert verdict.is_geometry
    assert elapsed < 0.5, elapsed


def test_oracle_accepts_k22_within_budget():
    # the largest graph the scan takes, with all 2^22 subsets convex
    t0 = time.perf_counter()
    verdict = verify_geometry(generators.complete(22), 3)
    elapsed = time.perf_counter() - t0
    assert verdict.is_geometry
    assert elapsed < 1.0, elapsed


def test_oracle_memory_at_the_size_cap():
    # every table holds 2^22 lanes of 4 bytes (16 MiB), whatever the verdict
    tracemalloc.start()
    try:
        verdict = verify_geometry(generators.path(22), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.is_geometry
    assert peak < 112 * 2**20, peak


def test_oracle_memory_on_sixteen_bit_lanes():
    # 2^15 lanes of 2 bytes: each table is 64 KiB, half what 32-bit lanes took
    tracemalloc.start()
    try:
        verdict = verify_geometry(generators.path(15), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.is_geometry
    assert peak < 0.6 * 2**20, peak


def test_oracle_rejects_at_the_size_cap_within_budget():
    # a rejection pays for the one-point test, the extreme points of every
    # subset and the replay up to the first failure, {0, ..., 4}
    t0 = time.perf_counter()
    verdict = verify_geometry(generators.path(22), 3)
    elapsed = time.perf_counter() - t0
    assert verdict.violation.convex_set == frozenset(range(5))
    assert elapsed < 1.5, elapsed


@pytest.mark.parametrize("seed", [0, 1])
def test_large_trivially_perfect_graph(seed):
    g = generators.random_trivially_perfect(1000, seed)
    t0 = time.perf_counter()
    verdict = recognize_l2(g)
    elapsed = time.perf_counter() - t0
    assert verdict.accepted
    assert elapsed < 0.5, elapsed
    t0 = time.perf_counter()
    gems = list(enumerate_gems(g, 3))
    elapsed = time.perf_counter() - t0
    assert gems == []
    assert elapsed < 0.5, elapsed


def test_hole_behind_a_large_star(capsys, tmp_path):
    # Centre 0 has 4,000 leaves, and a 4-cycle hangs on the last one: the
    # hole search must not try the leaves pair by pair.
    edges = [(0, x) for x in range(1, 4001)]
    edges += [(4000, 4001), (4001, 4002), (4002, 4003), (4003, 4000)]
    f = tmp_path / "star.txt"
    f.write_text(format_graph(Graph(4004, edges)))
    for k in ("3", "2"):
        t0 = time.perf_counter()
        code, out, _ = _run(["recognize", str(f), "--k", k, "--json"], capsys)
        elapsed = time.perf_counter() - t0
        assert code == 1
        assert json.loads(out)["certificate"] == {"kind": "hole", "cycle": [4000, 4001, 4002, 4003]}
        assert elapsed < 1.0, elapsed


def test_hole_at_the_end_of_a_long_path(capsys, tmp_path):
    # A 4-cycle hangs on the last of 20,000 path vertices: the hole must be
    # read off the failed elimination check, not searched for from vertex 0.
    edges = [(v, v + 1) for v in range(19999)]
    edges += [(19999, 20000), (20000, 20001), (20001, 20002), (20002, 19999)]
    f = tmp_path / "path.txt"
    f.write_text(format_graph(Graph(20003, edges)))
    for k in ("3", "2"):
        t0 = time.perf_counter()
        code, out, _ = _run(["recognize", str(f), "--k", k, "--json"], capsys)
        elapsed = time.perf_counter() - t0
        assert code == 1
        assert json.loads(out)["certificate"] == {"kind": "hole", "cycle": [19999, 20000, 20001, 20002]}
        assert elapsed < 1.0, elapsed


LONG_PATH = f"{MAX_VERTICES + 1} {MAX_VERTICES}\n" + "".join(
    f"{v} {v + 1}\n" for v in range(MAX_VERTICES))


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00bad",
    f"{MAX_VERTICES + 1} 0\n".encode(),
    b"c too many vertices\np edge 100000000000 0\n",
    LONG_PATH.encode(),  # one vertex past the cap, refused at its header
], ids=["undecodable", "canonical-oversize", "dimacs-oversize", "path-masks-oversize"])
def test_unreadable_or_oversize_file_exits_2(capsys, tmp_path, content, flags):
    f = tmp_path / "g.txt"
    f.write_bytes(content)
    code, out, err = _run(["recognize", str(f), "--k", "3", *flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_the_vertex_cap_is_the_largest_within_the_mask_budget():
    # The cap is the largest n whose n masks of n bits fit in 64 MiB.
    assert MAX_VERTICES ** 2 // 8 <= 1 << 26 < (MAX_VERTICES + 1) ** 2 // 8


def test_the_longest_masks_at_the_cap_stay_within_64_mib():
    # Vertices 0 and n - 1 are joined to every other vertex, so every mask is
    # about n bits long: the most any file at the cap can make its masks take.
    n = MAX_VERTICES
    edges = [(0, v) for v in range(1, n)] + [(v, n - 1) for v in range(1, n - 1)]
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    tracemalloc.start()
    try:
        g = parse_graph(text).graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == len(edges)
    assert sum(a.bit_length() for a in g._adj) // 8 <= 1 << 26
    assert peak < 72 * 2**20, peak


def test_oversize_masks_are_refused_at_the_limit():
    # A path one vertex past the cap is refused at its header, before any
    # mask is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"exceeds the limit of {MAX_VERTICES}$"):
            parse_graph(LONG_PATH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# --- the exit-code contract over generated and malformed inputs --------------

@st.composite
def graph_texts(draw) -> str:
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


@st.composite
def corrupted_texts(draw) -> str:
    lines = draw(graph_texts()).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    junk = draw(st.sampled_from(["", "x", "-1", "0", "9", "1 1", "p edge 2", "e", "c", "#", "1.5"]))
    lines[i] = junk if draw(st.booleans()) else f"{lines[i]} {junk}"
    return "\n".join(lines) + "\n"


TOKENS = st.sampled_from(["0,1", "1,2", "0,2,3", "1", "0,99", "-1,2", "2,2", "x", "", ",", "1,,3"])
FILE_CONTENTS = st.one_of(
    graph_texts().map(str.encode),
    corrupted_texts().map(str.encode),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=30).map(str.encode),
    st.binary(max_size=30),
)
COMMANDS = st.one_of(
    st.tuples(st.just("recognize"), st.just("--k"), st.sampled_from(["2", "3", "4", "x"])),
    st.tuples(st.just("interval"), st.just("--pair"), TOKENS),
    st.tuples(st.sampled_from(["hull", "extremes"]), st.just("--set"), TOKENS),
    st.tuples(st.just("gems"), st.just("--min-n"), st.sampled_from(["2", "3", "4", "-1", "x"])),
    st.tuples(st.just("oracle")),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(content=FILE_CONTENTS, command=COMMANDS,
       k=st.sampled_from(["-1", "1", "2", "3", "4", "99"]), json_flag=st.booleans())
def test_cli_exit_contract(tmp_path_factory, content, command, k, json_flag):
    f = tmp_path_factory.getbasetemp() / "contract.txt"
    f.write_bytes(content)
    name, *options = command
    argv = [name, str(f), *options]
    if name not in ("recognize", "gems"):
        argv += ["--k", k]
    if json_flag:
        argv.append("--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)
    stdout = out.getvalue()
    if code == 2:
        assert stdout == ""
    elif json_flag:
        assert stdout.endswith("\n") and stdout.count("\n") == 1
        report = json.loads(stdout)
        assert isinstance(report, dict) and report["command"] == name
