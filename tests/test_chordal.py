from __future__ import annotations

from bruteforce import brute_has_hole, brute_lex_bfs
from lkconvex import generators, is_chordal, is_elimination_ordering, lex_bfs


def test_cycle_has_hole():
    g = generators.cycle(4)
    res = is_chordal(g)
    assert not res.chordal and res.peo is None
    assert res.hole is not None and res.hole.is_hole_in(g)
    assert set(res.hole.cycle) == {0, 1, 2, 3}


def test_long_cycle_hole():
    g = generators.cycle(7)
    res = is_chordal(g)
    assert not res.chordal
    assert res.hole.is_hole_in(g) and len(res.hole.cycle) == 7


def test_strip_is_chordal(strip7):
    res = is_chordal(strip7)
    assert res.chordal and res.hole is None
    assert is_elimination_ordering(strip7, res.peo)


def test_gems_are_chordal():
    for n in range(3, 7):
        g = generators.gem(n)
        res = is_chordal(g)
        assert res.chordal
        assert is_elimination_ordering(g, res.peo)


def test_trees_and_cliques_chordal():
    for g in (generators.path(7), generators.star(6), generators.complete(6)):
        assert is_chordal(g).chordal


def test_elimination_ordering_rejects_bad_orders():
    g = generators.path(3)  # 0-1-2; eliminating 1 first leaves a non-edge pair
    assert is_elimination_ordering(g, (0, 2, 1))
    assert not is_elimination_ordering(g, (1, 0, 2))
    assert not is_elimination_ordering(g, (0, 1))  # not a permutation


def test_lex_bfs_order_properties(small_graph_pool, connected_upto6):
    for g in small_graph_pool + connected_upto6:
        order = lex_bfs(g)
        assert sorted(order) == list(range(g.n))
        assert order[0] == 0  # all-empty labels tie-break to the smallest id
        assert order == brute_lex_bfs(g)


def test_chordality_matches_bruteforce_exhaustively():
    for n in range(1, 6):
        for g in generators.all_connected_graphs(n):
            res = is_chordal(g)
            assert res.chordal == (not brute_has_hole(g))
            if res.chordal:
                assert is_elimination_ordering(g, res.peo)
            else:
                assert res.hole.is_hole_in(g)


def test_chordality_matches_bruteforce_random(small_graph_pool):
    for g in small_graph_pool:
        res = is_chordal(g)
        assert res.chordal == (not brute_has_hole(g))
        if not res.chordal:
            assert res.hole.is_hole_in(g)
