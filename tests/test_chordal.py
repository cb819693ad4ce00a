from __future__ import annotations

import random

from bruteforce import (
    brute_first_failure,
    brute_has_hole,
    brute_hole,
    brute_is_elimination_order,
    brute_lex_bfs,
)
from lkconvex import Graph, generators, is_chordal, lex_bfs


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
    assert brute_is_elimination_order(strip7, res.peo)


def test_gems_are_chordal():
    for n in range(3, 7):
        g = generators.gem(n)
        res = is_chordal(g)
        assert res.chordal
        assert brute_is_elimination_order(g, res.peo)


def test_trees_and_cliques_chordal():
    for g in (generators.path(7), generators.star(6), generators.complete(6)):
        assert is_chordal(g).chordal


def test_elimination_ordering_rejects_bad_orders():
    # The reference the elimination orders here are checked against must
    # be able to fail.
    g = generators.path(3)  # 0-1-2; eliminating 1 first leaves a non-edge pair
    assert brute_is_elimination_order(g, (0, 2, 1))
    assert not brute_is_elimination_order(g, (1, 0, 2))
    assert not brute_is_elimination_order(g, (0, 1))  # not a permutation


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
                assert brute_is_elimination_order(g, res.peo)
            else:
                assert res.hole.is_hole_in(g)


def test_chordality_matches_bruteforce_random(small_graph_pool):
    for g in small_graph_pool:
        res = is_chordal(g)
        assert res.chordal == (not brute_has_hole(g))
        if not res.chordal:
            assert res.hole.is_hole_in(g)


def _hung_cycles(count: int) -> list[Graph]:
    """Seeded 10-14-vertex graphs: a cycle C4-C8 with pendant leaves and
    small trees hung on it.  Each is relabelled twice at random: once with
    the hung vertices on the lowest ids, so that they come first among a
    cycle vertex's neighbours, and once freely."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        c, n = rng.randint(4, 8), rng.randint(10, 14)
        edges = [(i, (i + 1) % c) for i in range(c)]
        edges += [(x, rng.randrange(x if rng.random() < 0.3 else c)) for x in range(c, n)]
        hung, ring = list(range(c, n)), list(range(c))
        rng.shuffle(hung)
        rng.shuffle(ring)
        for order in (hung + ring, rng.sample(range(n), n)):
            ids = {x: i for i, x in enumerate(order)}
            out.append(Graph(n, [(ids[a], ids[b]) for a, b in edges]))
    return out


def _thetas(count: int) -> list[Graph]:
    """Seeded 8-16-vertex graphs: two or three routes of 3 or 4 edges joined
    at their ends, a vertex seeing both ends, a start vertex 0 seeing one
    inner vertex of each route, and a few hung leaves, relabelled at random
    with 0 kept.  Routes of equal length give a hole several shortest
    paths, and LexBFS from 0 reaches the ends' common neighbour last."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        length, routes = rng.randint(3, 4), rng.randint(2, 3)
        edges, n = [(1, 2), (1, 3)], 4
        for _ in range(routes):
            path = [2, *range(n, n + length - 1), 3]
            n += length - 1
            edges += list(zip(path, path[1:]))
            edges.append((0, rng.choice(path[1:-1])))
        for x in range(n, n + rng.randint(0, 3)):
            edges.append((x, rng.randrange(1, x)))
            n = x + 1
        ids = [0] + rng.sample(range(1, n), n - 1)
        out.append(Graph(n, [(ids[a], ids[b]) for a, b in edges]))
    return out


def test_find_hole_matches_its_definition(connected_upto6):
    sparse = [
        generators.random_connected(n, density, seed)
        for n in range(7, 15)
        for density in (0.05, 0.1, 0.2, 0.4)
        for seed in range(12)
    ]
    long_holes = choices = turns = 0
    for g in connected_upto6 + sparse + _hung_cycles(60) + _thetas(60):
        cycle = brute_hole(g)
        hole = is_chordal(g).hole
        assert (hole and hole.cycle) == cycle
        if cycle is None or g.n <= 6:
            continue
        long_holes += len(cycle) >= 6
        v, u, _ = brute_first_failure(g)
        order = brute_lex_bfs(g)
        later = order[: order.index(v)]  # later in the elimination order
        choices += sum(y != u and g.has_edge(v, y) and not g.has_edge(u, y) for y in later) >= 2
        turns += brute_hole(g, from_w=True) != cycle
    assert long_holes >= 10
    assert choices >= 40  # u misses several later neighbours of v: 102 here
    assert turns >= 10  # the path read from w closes another hole: 16 here
