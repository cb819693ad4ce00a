from __future__ import annotations

import functools
import random
import tracemalloc

import pytest

from bruteforce import (
    brute_convex_sets,
    brute_hull,
    brute_is_convex,
    brute_one_point_geometry,
    brute_simplicial,
    reference_scan,
    subsets,
)
from lkconvex import (
    Graph,
    GraphError,
    MkmViolation,
    NotConvexError,
    SizeCapError,
    certificate_holds,
    extreme_points,
    generators,
    hull,
    induced_subgraph,
    is_convex,
    mkm_check_set,
    verify_geometry,
)
from lkconvex import geometry
from lkconvex.geometry import OracleDisagreementError, _lanes, reverse_bits, scan_convex, span_table
from lkconvex.graph import set_of


def test_strip_is_geometry(strip7):
    verdict = verify_geometry(strip7, 3)
    assert verdict.is_geometry and verdict.violation is None
    assert verdict.to_json_dict() == {"geometry": True, "certificate": None}


def test_strip_minus_interior_vertex_fails(strip7):
    for victim in (1, 4):
        sub = induced_subgraph(strip7, set(range(7)) - {victim})
        verdict = verify_geometry(sub.graph, 3)
        assert not verdict.is_geometry
        v = verdict.violation
        assert v.convex_set == frozenset(range(6))
        assert v.extreme_points == {0, 5}
        assert v.hull_of_extremes == {0, 5}
        # certificate soundness, replayed through the public operators
        assert is_convex(sub.graph, 3, v.convex_set)
        assert extreme_points(sub.graph, 3, v.convex_set) == v.extreme_points
        assert hull(sub.graph, 3, v.extreme_points).hull == v.hull_of_extremes
        assert certificate_holds(sub.graph, 3, v)
        wrong_hull = MkmViolation(v.convex_set, v.extreme_points, v.convex_set)
        assert not certificate_holds(sub.graph, 3, wrong_hull)
        ends = [0, 6]  # the parent ids of the two extreme points
        assert verdict.to_json_dict(sub.parent_ids)["certificate"] == {
            "set": sorted(set(range(7)) - {victim}), "ext": ends, "hull": ends,
        }
        assert v.hull_of_extremes != v.convex_set


def test_gem4_violation_is_whole_graph():
    g = generators.gem(4)
    verdict = verify_geometry(g, 3)
    assert not verdict.is_geometry
    v = verdict.violation
    assert v.convex_set == frozenset(range(6))
    assert v.extreme_points == {0, 4}
    assert v.hull_of_extremes == {0, 4, 5}


def test_cliques_and_stars_are_geometries():
    for k in (2, 3):
        assert verify_geometry(generators.complete(6), k).is_geometry
        assert verify_geometry(generators.star(6), k).is_geometry
        assert verify_geometry(Graph(1), k).is_geometry


def test_path4_separates_k2_from_k3():
    g = generators.path(4)
    bad = verify_geometry(g, 2)
    assert not bad.is_geometry
    assert bad.violation.convex_set == frozenset(range(4))
    assert bad.violation.extreme_points == {0, 3}
    assert bad.violation.hull_of_extremes == {0, 3}
    assert verify_geometry(g, 3).is_geometry


def test_cycle_rejected():
    verdict = verify_geometry(generators.cycle(4), 2)
    assert not verdict.is_geometry
    assert verdict.violation.convex_set == frozenset(range(4))
    assert verdict.violation.extreme_points == frozenset()
    assert verdict.violation.hull_of_extremes == frozenset()


def test_verify_geometry_guards():
    assert verify_geometry(generators.path(17), 3).is_geometry is False
    # past the scan's ceiling, refused before the 2^n table
    for n in (23, 40):
        with pytest.raises(SizeCapError, match=f"refusing to scan subsets of {n} vertices.*at most 22 vertices"):
            verify_geometry(generators.path(n), 3)
    with pytest.raises(GraphError):
        verify_geometry(Graph(3, [(0, 1)]), 2)


def test_disconnected_graph_refused_before_the_table():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="connected"):
            verify_geometry(Graph(22, [(0, 1)]), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # the 2^22-entry table alone is 32 MiB
    # the size check still comes first
    with pytest.raises(SizeCapError, match="refusing to scan subsets of 23 vertices"):
        verify_geometry(Graph(23, [(0, 1)]), 3)


def test_mkm_check_set(strip7):
    for s, ext in ((range(7), {0, 6}), ({0, 1, 2, 3, 4, 5}, {0, 5})):
        assert mkm_check_set(strip7, 3, s) is None
        assert extreme_points(strip7, 3, s) == ext
        assert hull(strip7, 3, ext).hull == set(s)
    with pytest.raises(NotConvexError):
        mkm_check_set(strip7, 3, {0, 6})
    # V of the 4-gem at k = 3: its extremes are the base's ends, whose only
    # induced path with at most three edges runs through the apex
    g = generators.gem(4)
    want = MkmViolation(frozenset(range(6)), frozenset({0, 4}), frozenset({0, 4, 5}))
    assert mkm_check_set(g, 3, range(6)) == want == verify_geometry(g, 3).violation


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_mkm_check_set_without_extremes(n):
    # V of a cycle is convex with no extreme point; its replay is empty
    # (hull refuses the empty set), so the oracle's certificate holds
    g = generators.cycle(n)
    whole = frozenset(range(n))
    for k in (2, 3, 4):
        assert mkm_check_set(g, k, range(n)) == MkmViolation(whole, frozenset(), frozenset())
        assert certificate_holds(g, k, verify_geometry(g, k).violation)
    assert mkm_check_set(g, 3, []) is None


def test_violation_sets_agree_with_public_ops(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 8:
            continue
        for k in (2, 3):
            verdict = verify_geometry(g, k)
            if verdict.violation is None:
                continue
            v = verdict.violation
            assert is_convex(g, k, v.convex_set)
            assert extreme_points(g, k, v.convex_set) == v.extreme_points
            if v.extreme_points:
                assert hull(g, k, v.extreme_points).hull == v.hull_of_extremes
            else:
                assert v.hull_of_extremes == frozenset()
            assert v.hull_of_extremes != v.convex_set


def _reference_verdict(g, k):
    """The oracle's scan rebuilt from the brute-force helpers alone."""
    for s in subsets(range(g.n), min_size=1):
        if not brute_is_convex(g, k, s):
            continue
        ext = brute_simplicial(g, s)
        hull_of_ext = brute_hull(g, k, ext)
        if hull_of_ext != frozenset(s):
            return False, MkmViolation(frozenset(s), ext, hull_of_ext)
    return True, None


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (1, 2, 3, 4) for k in (2, 3, 4)] + [(5, 3)]
)
def test_certificates_match_reference_scan(n, k):
    for g in generators.all_connected_graphs(n):
        verdict = verify_geometry(g, k)
        assert (verdict.is_geometry, verdict.violation) == _reference_verdict(g, k)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_cycle_certificates_match_reference_scan(n):
    # a whole cycle is convex with no simplicial vertex: the empty replay
    g = generators.cycle(n)
    for k in (2, 3, 4):
        verdict = verify_geometry(g, k)
        assert (verdict.is_geometry, verdict.violation) == _reference_verdict(g, k)


@functools.cache
def _renamed(n):
    """reverse_bits(m, n) at index m, for every n-bit mask m."""
    return [reverse_bits(m, n) for m in range(1 << n)]


def _assert_matches_reference_scan(g, k) -> bool:
    n, renamed = g.n, _renamed(g.n)
    table, _, key = span_table(g, k)
    span = _lanes(table, n)
    # lane {u, v}, with ids renamed n-1-v as the lanes index them, holds I[u,v]
    convex, violation = reference_scan(n, lambda u, v: renamed[span[1 << n - 1 - u | 1 << n - 1 - v]])
    verdict = verify_geometry(g, k)
    assert (verdict.is_geometry, verdict.violation) == (violation is None, violation), (g.edges(), k)
    assert [renamed[s] for s in scan_convex(key)] == convex, (g.edges(), k)
    return verdict.is_geometry


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tables_match_reference_scan_exhaustively(n):
    """Verdict, certificate and convex-set order of the whole-table oracle
    against the per-subset scan, on every connected labelled graph."""
    for g in generators.all_connected_graphs(n):
        for k in (2, 3, 4):
            _assert_matches_reference_scan(g, k)


def test_tables_match_reference_scan_on_seeded_graphs():
    """300 seeded graphs with 7-15 vertices, chordal and arbitrary by turns;
    both verdicts must occur at each k."""
    verdicts = {2: set(), 3: set(), 5: set()}
    for i in range(300):
        n, density = 7 + i % 9, random.Random(19_000 + i).choice((0.2, 0.4, 0.6, 0.8))
        family = generators.random_connected_chordal if i % 2 else generators.random_connected
        g = family(n, density, 19_000 + i)
        for k in verdicts:
            verdicts[k].add(_assert_matches_reference_scan(g, k))
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_one_point_extension_oracle_agrees(small_graph_pool):
    """A second characterization: verify_geometry replays hulls of extreme
    points, brute_one_point_geometry extends convex sets one vertex at a
    time.  Both verdicts must occur in each sweep."""
    labelled = [g for n in range(1, 6) for g in generators.all_connected_graphs(n)]
    for graphs in (labelled, small_graph_pool + [generators.cycle(7)]):
        verdicts = set()
        for g in graphs:
            for k in (2, 3, 4):
                got = verify_geometry(g, k).is_geometry
                assert got == brute_one_point_geometry(g, k), (g.edges(), k)
                verdicts.add(got)
        assert verdicts == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_one_point_test_matches_the_replay_exhaustively(n, monkeypatch):
    """verify_geometry replays hulls only when the one-point test rejects.
    Forced to replay every connected labelled graph, the replay must find a
    failure exactly where the test rejects, and none where it accepts."""
    real = geometry._every_convex_set_extends
    accepted = []

    def replay_always(c):
        accepted.append(real(c))
        return False

    monkeypatch.setattr(geometry, "_every_convex_set_extends", replay_always)
    verdicts = set()
    for g in generators.all_connected_graphs(n):
        for k in (2, 3, 4):
            try:
                replay_accepts = verify_geometry(g, k).violation is None
            except OracleDisagreementError:
                replay_accepts = True
            assert replay_accepts == accepted[-1], (g.edges(), k)
            verdicts.add(replay_accepts)
    assert verdicts == ({True} if n < 4 else {True, False})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_replay_visits_only_sets_with_a_point_not_extreme(n, monkeypatch):
    """A convex set whose every point is extreme is its own hull, and the
    replay skips it.  Forced to replay every connected labelled graph, the
    replay must visit, up to its first failure, exactly the convex sets with
    a point that is not extreme, in scan order, by the brute-force convex
    sets and hulls."""
    real_scan = geometry.scan_convex
    visits = []

    def recording_scan(key):
        for lane in real_scan(key):
            visits.append(lane)
            yield lane

    monkeypatch.setattr(geometry, "scan_convex", recording_scan)
    monkeypatch.setattr(geometry, "_every_convex_set_extends", lambda c: False)
    skipped = set()
    for g in generators.all_connected_graphs(n):
        for k in (2, 3, 4):
            convex = brute_convex_sets(g, k)
            expected, failure = [], None
            for s in map(frozenset, subsets(range(n), min_size=1)):
                if s not in convex:
                    continue
                ext = frozenset(x for x in s if s - {x} in convex)
                if ext == s:
                    skipped.add(len(s))
                    continue
                expected.append(s)
                if brute_hull(g, k, ext) != s:
                    failure = s
                    break
            visits.clear()
            try:
                violation = verify_geometry(g, k).violation
            except OracleDisagreementError:
                violation = None
            assert [set_of(reverse_bits(lane, n)) for lane in visits] == expected, (g.edges(), k)
            assert (violation and violation.convex_set) == failure, (g.edges(), k)
    assert skipped == set(range(1, n + 1))  # V of K_n is skipped, for one


@pytest.mark.parametrize("n", [7, 8, 15])
def test_sixteen_bit_lanes_change_no_output(n, monkeypatch):
    """16-bit lanes give the verdict, the key and every lane value that
    32-bit lanes give, up to the last size they hold."""

    def outputs(g, k):
        table, convex, key = span_table(g, k)
        lanes = _lanes(table, n)
        verdict = verify_geometry(g, k).to_json_dict()
        return lanes.itemsize, (verdict, key, list(lanes), list(_lanes(convex, n)))

    graphs = [
        family(n, density, 30_000 + n)
        for family in (generators.random_connected, generators.random_connected_chordal)
        for density in (0.3, 0.7)
    ]
    sized = [outputs(g, k) for g in graphs for k in (2, 3)]
    monkeypatch.setattr(geometry, "_width", lambda n: 32)
    wide = [outputs(g, k) for g in graphs for k in (2, 3)]
    assert {size for size, _ in sized} == {2}
    assert {size for size, _ in wide} == {4}
    assert [out for _, out in sized] == [out for _, out in wide]
    assert not all(verdict["geometry"] for _, (verdict, *_) in sized)  # the replay ran


def test_lanes_widen_to_32_bits_above_15_vertices():
    assert [_lanes(0, n).itemsize for n in (15, 16)] == [2, 4]
