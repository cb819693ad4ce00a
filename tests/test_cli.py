from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lkconvex import (
    FarPair,
    GemWitness,
    GeometryVerdict,
    Graph,
    HoleWitness,
    InducedPath,
    MkmViolation,
    RecognitionVerdict,
    cli,
    format_graph,
    generators,
    load_graph,
)
from lkconvex import formats, geometry, recognizers
from lkconvex.cli import main

DIMACS_STRIP = """\
c the seven-vertex strip, 1-based labels
p edge 7 11
e 1 2
e 1 3
e 2 3
e 2 4
e 2 5
e 3 4
e 4 5
e 4 6
e 5 6
e 5 7
e 6 7
"""


@pytest.fixture
def strip_file(tmp_path):
    f = tmp_path / "strip.txt"
    f.write_text(format_graph(generators.triangle_strip7()))
    return str(f)


@pytest.fixture
def strip_dimacs(tmp_path):
    f = tmp_path / "strip.dim"
    f.write_text(DIMACS_STRIP)
    return str(f)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_recognize_accept(capsys, strip_file):
    code, data = run_json(capsys, ["recognize", strip_file, "--k", "3", "--json"])
    assert code == 0
    assert data["accepted"] is True and data["certificate"] is None
    assert data["input"] == {"vertices": 7, "edges": 11}


def test_recognize_reject_with_p4(capsys, strip_file):
    code, data = run_json(capsys, ["recognize", strip_file, "--k", "2", "--json"])
    assert code == 1
    assert data["certificate"] == {"kind": "p4", "path": [0, 1, 3, 5]}


def test_recognize_far_pair_certificate(capsys, tmp_path):
    f = tmp_path / "p6.txt"
    f.write_text(format_graph(generators.path(6)))
    code, data = run_json(capsys, ["recognize", str(f), "--k", "3", "--json"])
    assert code == 1
    assert data["certificate"] == {"kind": "far_pair", "u": 0, "v": 4, "distance": 4}


def test_dimacs_labels_flow_through(capsys, strip_dimacs):
    code, data = run_json(
        capsys, ["interval", strip_dimacs, "--k", "3", "--pair", "1,7", "--json"]
    )
    assert code == 0
    assert data["pair"] == [1, 7]
    assert data["interval"] == [1, 2, 5, 7]

    code, data = run_json(
        capsys, ["hull", strip_dimacs, "--k", "3", "--set", "1,7", "--json"]
    )
    assert code == 0
    assert data["trace"] == {
        "iterates": [[1, 7], [1, 2, 5, 7], [1, 2, 3, 4, 5, 6, 7]],
        "steps": 2,
    }

    code, data = run_json(
        capsys,
        ["extremes", strip_dimacs, "--k", "3", "--set", "1,2,3,4,5,6,7", "--json"],
    )
    assert code == 0
    assert data["extremes"] == [1, 7]


def test_extremes_non_convex_exits_1(capsys, strip_dimacs):
    code, data = run_json(
        capsys, ["extremes", strip_dimacs, "--k", "3", "--set", "1,7", "--json"]
    )
    assert code == 1
    assert data["extremes"] is None
    assert data["not_convex"]["pair"] == [1, 7]
    assert data["not_convex"]["escaped"] in (2, 5)


def test_repeated_set_labels_name_one_vertex(capsys, strip_dimacs):
    for command in ("hull", "extremes"):
        argv = [command, strip_dimacs, "--k", "2", "--set", "1,1,3,2"]
        code, data = run_json(capsys, argv + ["--json"])
        assert code == 0 and data["set"] == [1, 2, 3]
        assert main(argv) == 0
        assert " of 1,2,3:" in capsys.readouterr().out


def test_interval_text_output(capsys, strip_file):
    assert main(["interval", strip_file, "--k", "3", "--pair", "0,6"]) == 0
    out = capsys.readouterr().out
    assert "0,1,4,6" in out


def test_gems_listing(capsys, tmp_path):
    f = tmp_path / "gem5.txt"
    f.write_text(format_graph(generators.gem(5)))
    code, data = run_json(capsys, ["gems", str(f), "--min-n", "4", "--json"])
    assert code == 0
    assert data["counts"] == {"total": 3, "solved": 0, "unsolved": 3}
    assert [row["base"] for row in data["gems"]] == [
        [0, 1, 2, 3, 4],
        [0, 1, 2, 3, 4, 5],
        [1, 2, 3, 4, 5],
    ]
    assert all(row["apex"] == 6 for row in data["gems"])


def test_oracle_verdicts(capsys, strip_file, tmp_path):
    code, data = run_json(capsys, ["oracle", strip_file, "--k", "3", "--json"])
    assert code == 0 and data["geometry"] is True

    f = tmp_path / "gem4.txt"
    f.write_text(format_graph(generators.gem(4)))
    code, data = run_json(capsys, ["oracle", str(f), "--k", "3", "--json"])
    assert code == 1
    assert data["certificate"] == {
        "set": [0, 1, 2, 3, 4, 5],
        "ext": [0, 4],
        "hull": [0, 4, 5],
    }


@pytest.mark.parametrize("graph,geometry", [
    (generators.star(17), True),
    (generators.path(22), False),
], ids=["star17", "path22"])
def test_oracle_answers_up_to_scan_ceiling(capsys, tmp_path, graph, geometry):
    f = tmp_path / "g.txt"
    f.write_text(format_graph(graph))
    code, data = run_json(capsys, ["oracle", str(f), "--k", "3", "--json"])
    assert code == (0 if geometry else 1)
    assert data["geometry"] is geometry
    assert (data["certificate"] is None) is geometry


def test_oracle_refuses_past_scan_ceiling(capsys, tmp_path):
    for n in (23, 40):
        f = tmp_path / f"p{n}.txt"
        f.write_text(format_graph(generators.path(n)))
        for flags in ([], ["--json"]):
            assert main(["oracle", str(f), "--k", "3", *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "at most 22 vertices" in captured.err


def test_crosscheck_exhaustive(capsys, tmp_path):
    code, data = run_json(
        capsys,
        ["crosscheck", "--k", "2", "--exhaustive-n", "4",
         "--dump-dir", str(tmp_path), "--json"],
    )
    assert code == 0
    assert data["instances"] == 44  # 1 + 1 + 4 + 38 connected graphs
    assert data["mismatches"] == 0 and data["dumped"] == []


def test_crosscheck_random(capsys, tmp_path):
    code, data = run_json(
        capsys,
        ["crosscheck", "--k", "3", "--random", "25", "--size", "8",
         "--seed", "11", "--dump-dir", str(tmp_path), "--json"],
    )
    assert code == 0
    assert data["instances"] == 25 and data["mismatches"] == 0


def test_crosscheck_dumps_each_mismatch(capsys, tmp_path, monkeypatch):
    # an oracle that is wrong on the triangle alone
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    real = cli.verify_geometry

    def flipped(g, k):
        verdict = real(g, k)
        return GeometryVerdict(not verdict.is_geometry, None) if g == triangle else verdict

    monkeypatch.setattr(cli, "verify_geometry", flipped)
    code, data = run_json(
        capsys,
        ["crosscheck", "--k", "2", "--exhaustive-n", "3",
         "--dump-dir", str(tmp_path), "--json"],
    )
    assert code == 1
    assert data["mismatches"] == len(data["dumped"]) == 1
    for name in data["dumped"]:
        assert formats.load_graph(name).graph == triangle
        first = Path(name).read_text().splitlines()[0]
        assert first == "# exhaustive n=3: recognizer=True oracle=False"


def _reject_accepted(monkeypatch, graphs):
    """Make the oracle's one-point test reject the given accepted graphs."""
    real = geometry._every_convex_set_extends
    keys = {geometry.span_table(g, 3)[2] for g in graphs}
    monkeypatch.setattr(geometry, "_every_convex_set_extends", lambda key: key not in keys and real(key))


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("graph", [generators.triangle_strip7(), generators.complete(4)], ids=["strip", "K4"])
def test_oracle_disagreement_is_an_internal_error(capsys, monkeypatch, tmp_path, graph, flags):
    # every convex set of these graphs is the hull of its extreme points, so
    # the replay behind a rejection finds no failure to name
    _reject_accepted(monkeypatch, [graph])
    f = tmp_path / "g.txt"
    f.write_text(format_graph(graph))
    assert main(["oracle", str(f), "--k", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the one-point test rejected")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_crosscheck_oracle_disagreement_is_an_internal_error(capsys, monkeypatch, tmp_path, flags):
    # K4 is one of the 4-vertex graphs of the exhaustive sweep
    _reject_accepted(monkeypatch, [generators.complete(4)])
    argv = ["crosscheck", "--k", "3", "--exhaustive-n", "4", "--dump-dir", str(tmp_path), *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the one-point test rejected a 4-vertex graph")
    assert list(tmp_path.iterdir()) == []


def test_crosscheck_rejects_exhaustive_n_out_of_range(capsys, tmp_path):
    for n in ("7", "0"):
        assert main(["crosscheck", "--k", "2", "--exhaustive-n", n,
                     "--dump-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must lie in 1..6" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_crosscheck_needs_work(capsys):
    assert main(["crosscheck", "--k", "2"]) == 2
    capsys.readouterr()


def test_crosscheck_rejects_random_size_out_of_range(capsys):
    for size in ("1", "0", "23"):
        assert main(["crosscheck", "--k", "3", "--random", "3", "--size", size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --size") and "Traceback" not in err
    assert main(["crosscheck", "--k", "3", "--random", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --random") and "Traceback" not in err


def test_generate_round_trip(capsys, tmp_path):
    out = tmp_path / "g.txt"
    assert main(["generate", "chordal", "--n", "9", "--density", "0.4",
                 "--seed", "3", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("# family=chordal")
    assert main(["recognize", str(out), "--k", "3"]) in (0, 1)
    capsys.readouterr()


def test_generate_to_stdout(capsys):
    assert main(["generate", "triangle-strip7"]) == 0
    out = capsys.readouterr().out
    assert "7 11" in out


def test_generate_missing_parameter(capsys):
    assert main(["generate", "gem"]) == 2
    err = capsys.readouterr().err
    assert "--n" in err


def test_generate_writes_only_what_the_reader_accepts(capsys, tmp_path):
    out = tmp_path / "g.txt"
    assert main(["generate", "path", "--n", str(formats.MAX_VERTICES + 1), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --n")
    assert not out.exists()
    assert main(["generate", "path", "--n", str(formats.MAX_VERTICES), "-o", str(out)]) == 0
    assert load_graph(out).graph == generators.path(formats.MAX_VERTICES)


def test_generate_gem_checks_its_own_vertex_count(capsys, monkeypatch, tmp_path):
    # gem --n N builds N + 2 vertices; the refusal comes before any building
    monkeypatch.setattr(formats, "MAX_VERTICES", 100)
    monkeypatch.setattr(generators, "gem", lambda n: pytest.fail("gem was built"))
    out = tmp_path / "g.txt"
    for n in ("99", "100"):
        assert main(["generate", "gem", "--n", n, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --n {n} ({int(n) + 2} vertices) exceeds the vertex limit of 100\n"
        assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(formats, "MAX_VERTICES", 100)
    assert main(["generate", "gem", "--n", "98", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "100 197"
    capsys.readouterr()


def _edge_list_text(g, comment):
    """Canonical text built from the g.edges() list, not from graph_lines."""
    lines = [f"# {comment}", f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, g", [
    (["triangle-strip7"], generators.triangle_strip7()),
    (["path", "--n", "9"], generators.path(9)),
    (["cycle", "--n", "9"], generators.cycle(9)),
    (["complete", "--n", "100"], generators.complete(100)),  # 4,950 edges: two chunks
    (["star", "--n", "9"], generators.star(9)),
    (["gem", "--n", "9"], generators.gem(9)),
    (["trivially-perfect", "--n", "30", "--seed", "4"], generators.random_trivially_perfect(30, 4)),
    (["chordal", "--n", "30", "--density", "0.5", "--seed", "4"],
     generators.random_connected_chordal(30, 0.5, 4)),
    (["connected", "--n", "30", "--density", "0.3", "--seed", "4"],
     generators.random_connected(30, 0.3, 4)),
])
def test_generate_streams_the_canonical_text(capsys, tmp_path, argv, g):
    fields = [a[2:] + "=" + b for a, b in zip(argv[1::2], argv[2::2])]
    comment = " ".join([f"family={argv[0]}", *fields])
    want = _edge_list_text(g, comment)
    assert format_graph(g, comment) == want
    assert main(["generate", *argv]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "g.txt"
    assert main(["generate", *argv, "-o", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    capsys.readouterr()


def test_demo_non_hereditary(capsys):
    assert main(["demo-non-hereditary"]) == 0
    out = capsys.readouterr().out
    assert "minus vertex 1" in out and "minus vertex 4" in out
    assert "pattern holds" in out


def test_demo_non_hereditary_json(capsys):
    code, data = run_json(capsys, ["demo-non-hereditary", "--json"])
    assert code == 0 and data["pattern_holds"] is True
    titles = [s["graph"] for s in data["steps"]]
    assert len(titles) == 3
    for entry in data["steps"][1:]:
        assert entry["recognizer_accepts"] is False
        assert entry["oracle_accepts"] is False
        assert entry["extremes_of_all"] == entry["hull_of_extremes"]
        assert len(entry["extremes_of_all"]) == 2


def test_operational_errors(capsys, tmp_path, strip_file):
    assert main(["recognize", str(tmp_path / "missing.txt"), "--k", "3"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 7\n")
    assert main(["recognize", str(bad), "--k", "3"]) == 2
    assert main(["interval", strip_file, "--k", "3", "--pair", "0"]) == 2
    assert main(["interval", strip_file, "--k", "3", "--pair", "0,99"]) == 2
    capsys.readouterr()
    for cmd, flag, ids in (("interval", "--pair", "1,x"), ("hull", "--set", "0,y")):
        assert main([cmd, strip_file, "--k", "3", flag, ids]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} must be comma-separated integers" in err


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_failed_answer_write_exits_2(capsys, monkeypatch, strip_file):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert main(["recognize", strip_file, "--k", "3", "--json"]) == 2
    assert main(["generate", "triangle-strip7"]) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n" * 2


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_answer_to_a_full_device_exits_2(strip_file):
    src = str(Path(cli.__file__).parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from lkconvex.cli import main; sys.exit(main(sys.argv[2:]))")
    argv = ["hull", strip_file, "--k", "3", "--set", "0,6"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", script, src, *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


STRIP_BAD_CERTIFICATES = {
    "hole-with-chord": HoleWitness((0, 1, 3, 2)),
    "p4-with-chord": InducedPath((0, 1, 2, 3)),
    "far-pair-wrong-distance": FarPair(0, 6, 2),
    "far-pair-within-k": FarPair(0, 6, 3),
    "gem-apex-misses-base": GemWitness(InducedPath((0, 1, 3, 5)), 2),
}


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("bad", sorted(STRIP_BAD_CERTIFICATES))
def test_recognize_refuses_failing_certificate(capsys, monkeypatch, strip_file, bad, flags):
    cert = STRIP_BAD_CERTIFICATES[bad]
    monkeypatch.setattr(cli, "recognize_l3", lambda g: RecognitionVerdict(False, cert))
    assert main(["recognize", strip_file, "--k", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("name,violation", [
    # gem(4)'s real certificate with a wrong hull
    ("gem4", MkmViolation(frozenset(range(6)), frozenset({0, 4}), frozenset({0, 4}))),
    # a convex set of the strip that is the hull of its extremes
    ("strip", MkmViolation(frozenset(range(7)), frozenset({0, 6}), frozenset({0, 6}))),
    # a set that is not convex at all
    ("strip", MkmViolation(frozenset({0, 6}), frozenset({0, 6}), frozenset({0, 6}))),
])
def test_oracle_refuses_failing_certificate(capsys, monkeypatch, tmp_path, name, violation, flags):
    f = tmp_path / "g.txt"
    g = generators.gem(4) if name == "gem4" else generators.triangle_strip7()
    f.write_text(format_graph(g))
    monkeypatch.setattr(
        cli, "verify_geometry", lambda g, k: GeometryVerdict(False, violation))
    assert main(["oracle", str(f), "--k", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("labels,pair,escaped", [
    ("0,1,2", (0, 1), 2),  # the escaped vertex is in the set; 0-1 is an edge
    ("0,6", (0, 0), 1),  # one vertex is not a pair
    ("0,6", (0, 1), 4),  # 1 is not in the set
    ("0,6", (0, 6), 2),  # every induced 0-6 path through 2 has 4 edges
])
def test_extremes_refuses_failing_refusal(capsys, monkeypatch, strip_file, labels, pair,
                                          escaped, flags):
    def refuse(g, k, vertices):
        raise cli.NotConvexError(pair, escaped)

    monkeypatch.setattr(cli, "extreme_points", refuse)
    assert main(["extremes", strip_file, "--k", "3", "--set", labels, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def _bad_solving_path(kind):
    real = recognizers._solving_path

    def wrong(adj, x0, xn):
        p = real(adj, x0, xn)
        if kind == "two-edge":
            # induced, through a common neighbour such as the gem's apex
            both = adj[x0] & adj[xn]
            return InducedPath((x0, (both & -both).bit_length() - 1, xn))
        if p is None:
            return None
        v = p.vertices
        # reversed: the ends swap places; swapped: x0 does not see the new second vertex
        return InducedPath(v[::-1] if kind == "reversed" else (v[0], v[2], v[1], v[3]))

    return wrong


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("case", ["solved-recognize-k3", "solved-gems"])
@pytest.mark.parametrize("kind", ["two-edge", "reversed", "swapped"])
def test_failing_solving_path_is_refused(capsys, monkeypatch, tmp_path, kind, case, flags):
    # the pinned cases accept and print their solving paths with exit 0
    monkeypatch.setattr(recognizers, "_solving_path", _bad_solving_path(kind))
    assert main(pinned_argv(case, tmp_path) + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: solving path")


def test_usage_error_exits_2(strip_file):
    with pytest.raises(SystemExit) as info:
        main(["recognize", strip_file, "--k", "7"])
    assert info.value.code == 2


def test_verbose_clamp_note(capsys, strip_file):
    assert main(["hull", strip_file, "--k", "99", "--set", "0,6", "--verbose"]) == 0
    captured = capsys.readouterr()
    assert "clamp" in captured.err or "using k=6" in captured.err


# --- pinned output -------------------------------------------------------
#
# Full stdout and exit code of one run per case, text and --json, compared
# with tests/cli_golden.json.  wall_time_s is the only field masked.

GOLDEN = Path(__file__).with_name("cli_golden.json")
WALL_TIME = re.compile(r'"wall_time_s": [-+.0-9eE]+')

PINNED_INPUTS = {
    "strip": (lambda: format_graph(generators.triangle_strip7()), "strip.txt", 0),
    "dimacs": (lambda: DIMACS_STRIP, "strip.dim", 1),
    "gem4": (lambda: format_graph(generators.gem(4)), "gem4.txt", 0),
    "path6": (lambda: format_graph(generators.path(6)), "path6.txt", 0),
    "cycle6": (lambda: format_graph(generators.cycle(6)), "cycle6.txt", 0),
    # gem(4) plus two vertices that give the base ends a detour: solved gems
    "solved": (lambda: format_graph(Graph(8, list(generators.gem(4).edges()) + [
        (0, 6), (1, 6), (2, 6), (5, 6), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)])),
        "solved.txt", 0),
}


def _ids(offset, *vertices):
    return ",".join(str(v + offset) for v in vertices)


def _pinned_cases():
    cases = {}
    for name in ("strip", "dimacs"):
        off = PINNED_INPUTS[name][2]
        cases[f"{name}-recognize-k2"] = (name, ["recognize", "--k", "2"])
        cases[f"{name}-recognize-k3"] = (name, ["recognize", "--k", "3"])
        cases[f"{name}-interval"] = (name, ["interval", "--k", "3", "--pair", _ids(off, 0, 6)])
        cases[f"{name}-hull"] = (name, ["hull", "--k", "3", "--set", _ids(off, 0, 6)])
        cases[f"{name}-extremes-convex"] = (
            name, ["extremes", "--k", "3", "--set", _ids(off, *range(7))])
        cases[f"{name}-extremes-not-convex"] = (
            name, ["extremes", "--k", "3", "--set", _ids(off, 0, 6)])
        cases[f"{name}-gems"] = (name, ["gems"])
        cases[f"{name}-oracle-yes"] = (name, ["oracle", "--k", "3"])
        cases[f"{name}-interval-bad-vertex"] = (name, ["interval", "--k", "3", "--pair", "0,99"])
    for name in ("gem4", "path6", "cycle6"):
        cases[f"{name}-recognize-k2"] = (name, ["recognize", "--k", "2"])
        cases[f"{name}-recognize-k3"] = (name, ["recognize", "--k", "3"])
    cases["gem4-gems"] = ("gem4", ["gems"])
    cases["solved-recognize-k3"] = ("solved", ["recognize", "--k", "3"])
    cases["solved-gems"] = ("solved", ["gems"])
    cases["gem4-oracle-no"] = ("gem4", ["oracle", "--k", "3"])
    cases["path6-oracle-no"] = ("path6", ["oracle", "--k", "2"])
    cases["crosscheck-exhaustive"] = (None, ["crosscheck", "--k", "2", "--exhaustive-n", "4"])
    cases["crosscheck-random"] = (
        None, ["crosscheck", "--k", "3", "--random", "6", "--size", "8", "--seed", "5"])
    cases["demo-non-hereditary"] = (None, ["demo-non-hereditary"])
    return cases


PINNED_CASES = _pinned_cases()


def pinned_argv(case, tmp_path):
    """The argv of a pinned case, with its input file written under tmp_path."""
    name, argv = PINNED_CASES[case]
    if argv[0] == "crosscheck":
        return argv + ["--dump-dir", str(tmp_path)]
    if name is None:
        return list(argv)
    text, filename, _ = PINNED_INPUTS[name]
    f = tmp_path / filename
    f.write_text(text())
    return [argv[0], str(f), *argv[1:]]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_pinned_output(capsys, tmp_path, case, mode):
    argv = pinned_argv(case, tmp_path) + (["--json"] if mode == "json" else [])
    code = main(argv)
    out = WALL_TIME.sub('"wall_time_s": 0', capsys.readouterr().out)
    expected = json.loads(GOLDEN.read_text())[f"{case}/{mode}"]
    assert (code, out) == (expected["code"], expected["stdout"])
