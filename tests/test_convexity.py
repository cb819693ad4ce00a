from __future__ import annotations

from itertools import combinations

import pytest

from bruteforce import (
    brute_hull_trace,
    brute_interval,
    brute_is_convex,
    brute_monophonic_convex,
    brute_simplicial,
    is_clique,
    subsets,
)
from lkconvex import (
    GraphError,
    NotConvexError,
    SizeCapError,
    enumerate_convex_sets,
    extreme_points,
    generators,
    hull,
    interval,
    interval_of_set,
    is_convex,
)

# the nine convex sets of the strip that are neither cliques nor trivial
STRIP_LADDERS = [
    {0, 1, 2, 3},
    {0, 1, 2, 3, 4},
    {0, 1, 2, 3, 4, 5},
    {1, 2, 3, 4},
    {1, 2, 3, 4, 5},
    {1, 3, 4, 5},
    {1, 2, 3, 4, 5, 6},
    {1, 3, 4, 5, 6},
    {3, 4, 5, 6},
]


def test_interval_strip_endpoints(strip7):
    assert interval(strip7, 3, 0, 6) == {0, 1, 4, 6}
    assert interval(strip7, 3, 6, 0) == {0, 1, 4, 6}


def test_interval_adjacent_and_self(strip7):
    assert interval(strip7, 3, 3, 4) == {3, 4}
    assert interval(strip7, 3, 2, 2) == {2}


def test_interval_k_validation(strip7):
    with pytest.raises(GraphError):
        interval(strip7, 1, 0, 6)
    with pytest.raises(GraphError):
        interval(strip7, 3, 0, 9)


def test_interval_gem4():
    g = generators.gem(4)
    assert interval(g, 3, 0, 4) == {0, 4, 5}


def test_interval_large_k_clamps(strip7):
    assert interval(strip7, 99, 0, 6) == interval(strip7, 6, 0, 6)


def test_interval_matches_bruteforce(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 8:
            continue
        for k in (2, 3, 4):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert interval(g, k, u, v) == brute_interval(g, k, u, v), (
                        g, k, u, v,
                    )


def test_interval_monotone_in_k(small_graph_pool):
    for g in small_graph_pool[:8]:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                prev = interval(g, 2, u, v)
                for k in range(3, 6):
                    cur = interval(g, k, u, v)
                    assert prev <= cur
                    prev = cur


def test_interval_of_set(strip7):
    assert interval_of_set(strip7, 3, {0, 6}) == {0, 1, 4, 6}
    assert interval_of_set(strip7, 3, {0, 1, 4, 6}) == set(range(7))
    assert interval_of_set(strip7, 3, {2}) == {2}
    with pytest.raises(GraphError):
        interval_of_set(strip7, 3, set())


def test_hull_trace_strip(strip7):
    tr = hull(strip7, 3, {0, 6})
    assert tr.steps == 2
    assert tr.iterates == (
        frozenset({0, 6}),
        frozenset({0, 1, 4, 6}),
        frozenset(range(7)),
    )
    assert tr.hull == set(range(7))
    assert tr.to_json_dict() == {
        "iterates": [[0, 6], [0, 1, 4, 6], [0, 1, 2, 3, 4, 5, 6]],
        "steps": 2,
    }
    assert tr.to_json_dict(labels=range(1, 8)) == {
        "iterates": [[1, 7], [1, 2, 5, 7], [1, 2, 3, 4, 5, 6, 7]],
        "steps": 2,
    }


def test_hull_fixed_point_of_convex_sets(strip7):
    for s in ({2}, {3, 4}, {0, 1, 2, 3}):
        tr = hull(strip7, 3, s)
        assert tr.steps == 0 and tr.hull == s
    with pytest.raises(GraphError):
        hull(strip7, 3, set())


def test_hull_matches_bruteforce(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 7:
            continue
        for k in sorted({2, 3, max(2, g.n - 1)}):
            for seed in subsets(range(g.n), min_size=1, max_size=2):
                trace = brute_hull_trace(g, k, seed)
                assert list(hull(g, k, seed).iterates) == trace, (g, k, seed)


def test_is_convex_strip(strip7):
    assert is_convex(strip7, 3, {0, 1, 2, 3})
    assert is_convex(strip7, 3, set(range(7)))
    assert is_convex(strip7, 3, set())
    assert is_convex(strip7, 3, {4})
    assert not is_convex(strip7, 3, {0, 6})
    assert not is_convex(strip7, 3, {0, 1, 4})


def test_is_convex_matches_bruteforce(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 7:
            continue
        for k in (2, 3):
            for s in subsets(range(g.n), max_size=3):
                assert is_convex(g, k, s) == brute_is_convex(g, k, s)


def test_monophonic_limit_agrees_with_subset_oracle():
    for n in range(2, 6):
        for g in generators.all_connected_graphs(n):
            k = max(2, n - 1)
            for s in subsets(range(n)):
                assert is_convex(g, k, s) == brute_monophonic_convex(g, s)


def test_extreme_points_values(strip7):
    assert extreme_points(strip7, 3, range(7)) == {0, 6}
    assert extreme_points(strip7, 3, {1, 2, 3, 4}) == {2, 4}
    assert extreme_points(strip7, 3, {0, 1, 2, 3, 4, 5}) == {0, 5}
    assert extreme_points(strip7, 3, set()) == set()
    assert extreme_points(strip7, 3, {5}) == {5}
    k5 = generators.complete(5)
    assert extreme_points(k5, 2, range(5)) == set(range(5))


def test_extreme_points_rejects_non_convex(strip7):
    with pytest.raises(NotConvexError) as info:
        extreme_points(strip7, 3, {0, 6})
    err = info.value
    assert err.pair == (0, 6)
    assert err.escaped in interval(strip7, 3, *err.pair)
    assert err.escaped not in {0, 6}


def test_extreme_points_equal_simplicial_of_subgraph(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 8:
            continue
        for k in (2, 3):
            full = frozenset(range(g.n))
            assert extreme_points(g, k, full) == brute_simplicial(g, full)


def test_enumerate_strip_exact(strip7):
    got = enumerate_convex_sets(strip7, 3)
    cliques = {
        frozenset(s)
        for s in subsets(range(7), min_size=1)
        if is_clique(strip7, s)
    }
    expected = (
        {frozenset(), frozenset(range(7))}
        | cliques
        | {frozenset(s) for s in STRIP_LADDERS}
    )
    assert len(cliques) == 23  # 7 singletons, 11 edges, 5 triangles
    assert set(got) == expected
    assert len(got) == 34
    # ordering: by size, then lexicographic within a size
    keys = [(len(s), tuple(sorted(s))) for s in got]
    assert keys == sorted(keys)


def test_enumerate_small_shapes():
    k3 = generators.complete(3)
    assert len(enumerate_convex_sets(k3, 2)) == 8  # every subset of a clique
    c4 = generators.cycle(4)
    got = set(enumerate_convex_sets(c4, 2))
    expected = {frozenset(), frozenset(range(4))}
    expected |= {frozenset({v}) for v in range(4)}
    expected |= {frozenset(e) for e in c4.edges()}
    assert got == expected


def test_enumerate_matches_bruteforce():
    for seed in range(4):
        g = generators.random_connected(6, 0.35, seed)
        for k in (2, 3):
            got = set(enumerate_convex_sets(g, k))
            expected = {
                frozenset(s)
                for s in subsets(range(g.n))
                if brute_is_convex(g, k, s)
            }
            assert got == expected


def test_enumerate_cap():
    g = generators.path(17)
    with pytest.raises(SizeCapError):
        enumerate_convex_sets(g, 3)
    assert len(enumerate_convex_sets(g, 3, max_n=17)) > 0
    with pytest.raises(SizeCapError):
        enumerate_convex_sets(generators.path(40), 3, max_n=40)


def test_convex_sets_closed_under_intersection(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 7:
            continue
        sets = enumerate_convex_sets(g, 3)
        sample = sets[:: max(1, len(sets) // 12)]
        for a in sample:
            for b in sample:
                assert is_convex(g, 3, a & b)


def test_cliques_are_convex(small_graph_pool):
    for g in small_graph_pool:
        for s in subsets(range(g.n), min_size=1, max_size=3):
            if is_clique(g, s):
                assert is_convex(g, 2, s) and is_convex(g, 3, s)


def test_adjacent_pairs_are_convex_at_every_k(small_graph_pool):
    # a longer induced path between adjacent vertices would carry a chord,
    # so edges are convex no matter the bound
    for g in small_graph_pool[:6]:
        for u, v in g.edges():
            for k in (2, 3, max(2, g.n - 1)):
                assert hull(g, k, {u, v}).hull == {u, v}
