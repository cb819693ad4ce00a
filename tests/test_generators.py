from __future__ import annotations

import pytest

from bruteforce import brute_distances, brute_has_hole, brute_is_elimination_order, brute_simplicial
from lkconvex import (
    GraphError,
    InducedPath,
    generators,
    is_chordal,
    is_connected,
    recognize_l2,
)


def test_strip7_shape():
    g = generators.triangle_strip7()
    assert g.n == 7 and g.m == 11
    assert is_connected(g) and is_chordal(g).chordal
    assert max(map(max, brute_distances(g))) == 3
    assert brute_simplicial(g) == {0, 6}
    assert InducedPath((0, 1, 3, 5, 6)).is_induced_in(g)


def test_path_cycle_complete_star_shapes():
    assert generators.path(1).n == 1
    assert generators.path(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert generators.cycle(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert generators.complete(5).m == 10
    g = generators.star(5)
    assert g._adj[0].bit_count() == 4 and all(g._adj[v].bit_count() == 1 for v in range(1, 5))
    for bad in (generators.path, generators.complete, generators.star):
        with pytest.raises(GraphError):
            bad(0)
    with pytest.raises(GraphError):
        generators.cycle(2)


def test_gem_shape():
    for n in range(3, 8):
        g = generators.gem(n)
        assert g.n == n + 2 and g.m == 2 * n + 1
        apex = n + 1
        assert g._adj[apex].bit_count() == n + 1
        assert InducedPath(tuple(range(n + 1))).is_induced_in(g)
    with pytest.raises(GraphError):
        generators.gem(2)


def test_trivially_perfect_family():
    for seed in range(8):
        g = generators.random_trivially_perfect(9, seed)
        assert is_connected(g)
        assert recognize_l2(g).accepted  # chordal and no 4-vertex induced path
    assert generators.random_trivially_perfect(1, 0).n == 1
    a = generators.random_trivially_perfect(9, 3)
    b = generators.random_trivially_perfect(9, 3)
    assert a == b
    assert generators.random_trivially_perfect(9, 4) != a


def test_random_chordal_family():
    for seed in range(8):
        g = generators.random_connected_chordal(9, 0.5, seed)
        assert is_connected(g)
        assert is_chordal(g).chordal
        assert not brute_has_hole(g)
        # construction promises descending ids eliminate perfectly
        assert brute_is_elimination_order(g, range(g.n - 1, -1, -1))
    tree = generators.random_connected_chordal(10, 0.0, 1)
    assert tree.m == tree.n - 1 and is_connected(tree)
    assert generators.random_connected_chordal(8, 0.4, 2) == (
        generators.random_connected_chordal(8, 0.4, 2)
    )


def test_random_connected_family():
    for seed in range(5):
        g = generators.random_connected(9, 0.3, seed)
        assert is_connected(g)
    assert generators.random_connected(9, 0.3, 1) == generators.random_connected(9, 0.3, 1)
    dense = generators.random_connected(9, 1.0, 0)
    assert dense.m == 9 * 8 // 2


@pytest.mark.parametrize("family, args", [
    ("random_trivially_perfect", (0, 0)),
    ("random_connected_chordal", (0, 0.5, 0)),
    ("random_connected_chordal", (5, 1.5, 0)),
    ("random_connected", (0, 0.5, 0)),
    ("random_connected", (5, -0.1, 0)),
    ("random_connected", (5, 1.5, 0)),
])
def test_random_families_refuse_bad_parameters(family, args):
    with pytest.raises(GraphError):
        getattr(generators, family)(*args)


def test_all_connected_graphs_counts():
    # labelled connected graph counts for n = 1..5
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    for n, count in expected.items():
        graphs = list(generators.all_connected_graphs(n))
        assert len(graphs) == count
        assert len(set(graphs)) == count
        assert all(is_connected(g) for g in graphs)
    with pytest.raises(GraphError):
        next(generators.all_connected_graphs(8))
