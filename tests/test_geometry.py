from __future__ import annotations

import pytest

from bruteforce import brute_hull, brute_is_convex, brute_simplicial, subsets
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
    with pytest.raises(SizeCapError):
        verify_geometry(generators.path(17), 3)
    assert verify_geometry(generators.path(17), 3, max_n=17).is_geometry is False
    # past the scan's own ceiling no max_n helps; refused before the 2^n table
    with pytest.raises(SizeCapError):
        verify_geometry(generators.path(40), 3, max_n=40)
    with pytest.raises(GraphError):
        verify_geometry(Graph(3, [(0, 1)]), 2)


def test_mkm_check_set(strip7):
    ok, ext, hull_of_ext = mkm_check_set(strip7, 3, range(7))
    assert ok and ext == {0, 6} and hull_of_ext == set(range(7))
    ok, ext, hull_of_ext = mkm_check_set(strip7, 3, {0, 1, 2, 3, 4, 5})
    assert ok and ext == {0, 5} and hull_of_ext == {0, 1, 2, 3, 4, 5}
    with pytest.raises(NotConvexError):
        mkm_check_set(strip7, 3, {0, 6})


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
