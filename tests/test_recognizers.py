from __future__ import annotations

from itertools import combinations

import pytest

from bruteforce import brute_distances, brute_gem_solved, brute_gems, brute_unnested_path
from lkconvex import (
    FarPair,
    GemWitness,
    Graph,
    GraphError,
    HoleWitness,
    InducedPath,
    RecognitionVerdict,
    certificate_holds,
    certificate_json,
    distance,
    enumerate_gems,
    induced_paths_between,
    generators,
    induced_subgraph,
    interval,
    is_chordal,
    necessary_conditions,
    recognize_l2,
    recognize_l3,
    solved_gems,
)
from lkconvex import recognizers
from lkconvex.graph import set_of


def augmented_gem4() -> Graph:
    """gem(4) plus two outside vertices giving the base ends a detour."""
    base = generators.gem(4)
    edges = list(base.edges())
    edges += [(0, 6), (1, 6), (2, 6), (5, 6), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)]
    return Graph(8, edges)


# --- gem enumeration ---------------------------------------------------


def test_gem5_witnesses_frozen():
    got = [(w.base.vertices, w.apex) for w in enumerate_gems(generators.gem(5), 4)]
    assert got == [
        ((0, 1, 2, 3, 4), 6),
        ((0, 1, 2, 3, 4, 5), 6),
        ((1, 2, 3, 4, 5), 6),
    ]


def test_gem3_witnesses():
    g = generators.gem(3)
    assert [(w.base.vertices, w.apex) for w in enumerate_gems(g, 3)] == [
        ((0, 1, 2, 3), 4)
    ]
    assert list(enumerate_gems(g, 4)) == []


def test_no_gems_in_strip_or_paths(strip7):
    assert list(enumerate_gems(strip7, 4)) == []
    assert list(enumerate_gems(generators.path(6), 3)) == []
    assert list(enumerate_gems(generators.complete(6), 3)) == []


def test_gem_witnesses_are_valid_and_canonical(small_graph_pool):
    for g in small_graph_pool:
        for w in enumerate_gems(g, 3):
            assert w.is_valid_in(g)
            assert w.base.vertices[0] < w.base.vertices[-1]
            assert w.n == w.base.length >= 3


def test_gems_match_subset_oracle_in_order(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 8:
            continue
        for min_n in (3, 4):
            got = [(w.base.vertices, w.apex) for w in enumerate_gems(g, min_n)]
            assert got == brute_gems(g, min_n)


def test_gem_min_n_validation(strip7):
    with pytest.raises(GraphError):
        list(enumerate_gems(strip7, 2))


# --- gem solving --------------------------------------------------------


def test_lone_gem_is_unsolved():
    g = generators.gem(4)
    [(w, path)] = solved_gems(g, 4)
    assert path is None and certificate_holds(g, 3, w)


def test_detour_solves_gem():
    g = augmented_gem4()
    w = GemWitness(InducedPath((0, 1, 2, 3, 4)), 5)
    path = dict(solved_gems(g, 4))[w]
    assert not certificate_holds(g, 3, w)
    assert path.vertices == (0, 6, 7, 4)
    assert path.is_induced_in(g) and path.length == 3
    assert 5 not in path.vertices


def test_gem_solver_matches_reference(small_graph_pool):
    # Under the generator's own ids, scanning x0-b-c-xn paths by b first or
    # by c first finds the same path for every gem here; reversed ids tell
    # the two orders apart.
    chordal = []
    for seed in range(60):
        g = generators.random_connected_chordal(8 + seed % 7, (0.3, 0.5, 0.7, 0.9)[seed % 4], seed)
        chordal += [g, Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])]
    outcomes = set()
    for g in small_graph_pool + chordal:
        gems = list(solved_gems(g, 3))
        assert [w for w, _ in gems] == list(enumerate_gems(g, 3))
        for w, path in gems:
            want = brute_gem_solved(g, w.base.vertices, w.apex)
            assert path == (None if want is None else InducedPath(want)), w
            assert certificate_holds(g, 3, w) == (want is None), w
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_gem_is_solved_iff_its_end_interval_leaves_the_common_neighbours():
    # The l^3 interval of the base ends is the l^2 one, the ends and their
    # common neighbours, plus the middles of the induced 3-edge paths, each
    # of which misses an end.
    gems = unsolved = 0
    for seed in range(30):
        g = generators.random_connected_chordal(12 + seed % 10, 0.9, seed)
        adj = g._adj
        for w, path in solved_gems(g, 3):
            x0, xn = w.base.vertices[0], w.base.vertices[-1]
            near = {x0, xn} | set_of(adj[x0] & adj[xn])
            assert (path is not None) == bool(interval(g, 3, x0, xn) - near), w
            gems += 1
            unsolved += path is None
    assert gems == 5152 and unsolved == 216


def test_recognizer_solves_each_end_pair_once(monkeypatch):
    # 19,315 gems on 481 end pairs: one solve per pair, not per gem.
    calls = []
    solve = recognizers._solving_path

    def counted(adj, x0, xn):
        calls.append((x0, xn))
        return solve(adj, x0, xn)

    monkeypatch.setattr(recognizers, "_solving_path", counted)
    g = generators.random_connected_chordal(60, 0.95, 0)
    verdict = recognize_l3(g)
    assert verdict.accepted and len(verdict.solved_gems) == 19315
    pairs = {(w.base.vertices[0], w.base.vertices[-1]) for w, _ in verdict.solved_gems}
    assert len(calls) == len(set(calls)) == len(pairs) == 481


def test_certificate_refuses_bad_gem_witness(strip7):
    # 0-1-3-5 is an induced path of the strip, but 6 misses 0, 1 and 3.
    assert certificate_holds(strip7, 3, GemWitness(InducedPath((0, 1, 3, 5)), 6)) is False


# --- k=2 recognition ----------------------------------------------------


def test_l2_accepts_trivially_perfect_shapes():
    for g in (generators.complete(5), generators.star(7), Graph(1)):
        verdict = recognize_l2(g)
        assert verdict.accepted and verdict.certificate is None


def walked_p4(g: Graph) -> InducedPath | None:
    """The first induced 3-edge path of g, walked between each pair of
    nonadjacent vertices in lexicographic order; None when there is none."""
    paths = (
        p
        for u, v in combinations(range(g.n), 2)
        if not g.has_edge(u, v)
        for p in induced_paths_between(g, u, v, 3)
        if p.length == 3
    )
    return next(paths, None)


def test_l2_and_gems_match_p4_walk(small_graph_pool):
    pool = (
        small_graph_pool
        + [generators.random_trivially_perfect(60 + 9 * seed, seed) for seed in range(11)]
        + [generators.random_connected_chordal(12, 0.6, seed) for seed in range(6)]
    )
    kinds = set()
    for g in pool:
        p4, ch = walked_p4(g), is_chordal(g)
        # the k=2 verdict by walking for a P4 after the chordality test
        walked = RecognitionVerdict(p4 is None, p4) if ch.chordal else RecognitionVerdict(False, ch.hole)
        verdict = recognize_l2(g)
        assert verdict.accepted == walked.accepted
        assert verdict.certificate_kind == walked.certificate_kind
        if verdict.certificate_kind == "p4":
            assert verdict.certificate.vertices == brute_unnested_path(g)
        else:
            assert verdict == walked
        kinds.add(walked.certificate_kind)
        if p4 is None:
            assert list(enumerate_gems(g, 3)) == []
    assert kinds == {None, "hole", "p4"}


def test_l2_rejects_cycle_with_hole():
    g = generators.cycle(5)
    verdict = recognize_l2(g)
    assert not verdict.accepted
    assert verdict.certificate_kind == "hole"
    assert verdict.certificate.is_hole_in(g)


def test_l2_rejects_path_with_p4(strip7):
    for g in (generators.path(4), strip7):
        verdict = recognize_l2(g)
        assert not verdict.accepted
        assert verdict.certificate_kind == "p4"
        assert verdict.certificate.is_induced_in(g)
        assert verdict.certificate.length == 3


def test_l2_acceptance_is_hereditary():
    from bruteforce import subsets
    from lkconvex import is_connected

    for seed in range(5):
        g = generators.random_trivially_perfect(8, seed)
        assert recognize_l2(g).accepted
        for s in subsets(range(g.n), min_size=1):
            sub = induced_subgraph(g, s)
            if is_connected(sub.graph):
                assert recognize_l2(sub.graph).accepted


# --- k=3 recognition ----------------------------------------------------


def test_l3_accepts_strip(strip7):
    verdict = recognize_l3(strip7)
    assert verdict.accepted and verdict.certificate is None
    assert verdict.solved_gems == ()


def test_l3_rejects_hole():
    g = generators.cycle(6)
    verdict = recognize_l3(g)
    assert not verdict.accepted and verdict.certificate_kind == "hole"
    assert verdict.certificate.is_hole_in(g)


def test_l3_rejects_far_pair():
    g = generators.path(6)
    verdict = recognize_l3(g)
    assert not verdict.accepted
    assert verdict.certificate == FarPair(0, 4, 4)  # lexicographically first


def test_l3_rejects_unsolved_gem():
    g = generators.gem(4)
    verdict = recognize_l3(g)
    assert not verdict.accepted
    assert verdict.certificate == GemWitness(InducedPath((0, 1, 2, 3, 4)), 5)
    assert verdict.certificate_kind == "unsolved_gem"


def test_l3_accepts_solved_gems_with_replay():
    g = augmented_gem4()
    verdict = recognize_l3(g)
    assert verdict.accepted
    assert len(verdict.solved_gems) == len(list(enumerate_gems(g, 4)))
    for w, p in verdict.solved_gems:
        assert w.is_valid_in(g)
        assert p.is_induced_in(g) and p.length == 3
        assert p.vertices[0] == w.base.vertices[0]
        assert p.vertices[-1] == w.base.vertices[-1]
        assert w.apex not in p.vertices


def test_l3_accepts_gem3_and_p4():
    assert recognize_l3(generators.gem(3)).accepted
    assert recognize_l3(generators.path(4)).accepted


def test_l3_non_hereditary_on_strip(strip7):
    assert recognize_l3(strip7).accepted
    for victim in (1, 4):
        sub = induced_subgraph(strip7, set(range(7)) - {victim})
        verdict = recognize_l3(sub.graph)
        assert not verdict.accepted
        assert verdict.certificate == FarPair(0, 5, 4)
    # deleting a triangle-interior vertex keeps the property
    sub = induced_subgraph(strip7, {0, 1, 3, 4, 5, 6})
    assert recognize_l3(sub.graph).accepted


def test_far_pair_is_lexicographically_first(small_graph_pool, connected_upto6):
    g = generators.path(7)
    verdict = recognize_l3(g)
    c = verdict.certificate
    assert (c.u, c.v) == (0, 4)
    assert distance(g, c.u, c.v) == c.distance == 4
    seen = set()
    for g in small_graph_pool + connected_upto6:
        if not is_chordal(g).chordal:
            continue  # the certificate is a hole at every k
        dist = brute_distances(g)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        for k in (2, 3, 4):
            verdict = necessary_conditions(g, k)
            far = next(((u, v) for u, v in pairs if dist[u][v] > k), None)
            want = None if far is None else FarPair(*far, dist[far[0]][far[1]])
            assert verdict.certificate == want
            seen.add((k, want is None))
    assert seen == {(k, accepted) for k in (2, 3, 4) for accepted in (False, True)}


def test_verdict_json_shapes(strip7):
    assert recognize_l3(strip7).to_json_dict() == {
        "accepted": True,
        "certificate": None,
    }
    gem4 = generators.gem(4)
    d = recognize_l3(gem4).to_json_dict()
    assert d == {
        "accepted": False,
        "certificate": {"kind": "unsolved_gem", "base": [0, 1, 2, 3, 4], "apex": 5},
    }
    d = recognize_l3(generators.path(6)).to_json_dict()
    assert d["certificate"] == {"kind": "far_pair", "u": 0, "v": 4, "distance": 4}
    d = recognize_l2(generators.cycle(4)).to_json_dict()
    assert d["certificate"]["kind"] == "hole"
    d = recognize_l3(augmented_gem4()).to_json_dict()
    assert d["accepted"] and all(
        set(row) == {"base", "apex", "solving_path"} for row in d["solved_gems"]
    )
    with pytest.raises(TypeError):
        certificate_json(object())


def test_verdict_json_labels():
    labels = range(10, 18)
    d = recognize_l3(generators.gem(4)).to_json_dict(labels)
    assert d["certificate"] == {"kind": "unsolved_gem", "base": [10, 11, 12, 13, 14], "apex": 15}
    d = recognize_l3(generators.path(6)).to_json_dict(labels)
    assert d["certificate"] == {"kind": "far_pair", "u": 10, "v": 14, "distance": 4}
    d = recognize_l2(generators.cycle(4)).to_json_dict(labels)
    assert d["certificate"] == {"kind": "hole", "cycle": [10, 11, 12, 13]}
    plain = recognize_l3(augmented_gem4()).to_json_dict()
    shifted = recognize_l3(augmented_gem4()).to_json_dict(labels)
    assert shifted["solved_gems"] == [
        {key: [x + 10 for x in val] if isinstance(val, list) else val + 10
         for key, val in row.items()}
        for row in plain["solved_gems"]
    ]


def test_verdict_json_rows_share_no_list():
    # 4 gems on 2 bases, all solved by one path: the labelled lists are
    # built once per base and path, and each row must get its own copies.
    rows = recognize_l3(generators.random_connected_chordal(10, 0.8, 0)).to_json_dict()["solved_gems"]
    assert len(rows) == 4
    assert len({tuple(row["base"]) for row in rows}) == 2
    assert len({tuple(row["solving_path"]) for row in rows}) == 1
    before = [{key: list(val) for key, val in row.items() if key != "apex"} for row in rows]
    for i, row in enumerate(rows):
        row["base"].append(-i)
        row["solving_path"].append(-i)
    for i, row in enumerate(rows):
        assert row["base"] == before[i]["base"] + [-i]
        assert row["solving_path"] == before[i]["solving_path"] + [-i]


def test_certificates_hold_and_corruptions_fail(small_graph_pool, strip7):
    seen = set()
    for g in small_graph_pool:
        for k, recognize in ((2, recognize_l2), (3, recognize_l3)):
            verdict = recognize(g)
            if verdict.certificate is not None:
                seen.add(verdict.certificate_kind)
                assert certificate_holds(g, k, verdict.certificate)
    assert seen == {"hole", "p4", "far_pair", "unsolved_gem"}
    assert certificate_holds(strip7, 2, FarPair(0, 6, 3))
    for bad in (
        HoleWitness((0, 1, 3, 2)),  # 1-2 is a chord
        InducedPath((0, 1, 2, 3)),  # 0-2 is a chord
        InducedPath((0, 1, 3)),  # induced, but only 2 edges
        FarPair(0, 6, 2),  # wrong distance
        FarPair(0, 6, 3),  # not beyond k=3
        FarPair(0, 7, 3),  # 7 is not a vertex
        GemWitness(InducedPath((0, 1, 3, 5)), 2),  # apex misses 5
        GemWitness(InducedPath((0, 1, 3)), 2),  # base of only 2 edges
        GemWitness(InducedPath((0, 1, 3, 5)), 7),  # 7 is not a vertex
        GemWitness(InducedPath((0, 1, 3, 5)), 3),  # apex on the base
        object(),  # not a certificate
        InducedPath((0, 1, 3, 5)),  # a real P4, but a P4 rejects only at k=2
    ):
        assert not certificate_holds(strip7, 3, bad), bad
    solved = next(w for w in enumerate_gems(augmented_gem4(), 4))
    assert not certificate_holds(augmented_gem4(), 3, solved)
    gem4 = generators.gem(4)
    unsolved = next(enumerate_gems(gem4, 4))
    assert certificate_holds(gem4, 3, unsolved)
    assert not certificate_holds(gem4, 4, unsolved)  # gems reject only at k=3


# --- necessary conditions ----------------------------------------------


def test_necessary_conditions(strip7):
    assert necessary_conditions(strip7, 3).accepted
    v = necessary_conditions(strip7, 2)  # diameter 3 exceeds k=2
    assert not v.accepted and v.certificate_kind == "far_pair"
    assert not necessary_conditions(generators.path(6), 3).accepted
    v = necessary_conditions(generators.cycle(5), 4)
    assert not v.accepted and v.certificate_kind == "hole"
    with pytest.raises(GraphError):
        necessary_conditions(strip7, 1)


def test_connected_input_required():
    g = Graph(4, [(0, 1), (2, 3)])
    for fn in (recognize_l2, recognize_l3):
        with pytest.raises(GraphError):
            fn(g)
    with pytest.raises(GraphError):
        necessary_conditions(g, 3)
