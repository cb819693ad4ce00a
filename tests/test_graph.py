from __future__ import annotations

import random
from itertools import permutations, product

import pytest

from bruteforce import (
    INF,
    brute_adjacent_exactly_in_order,
    brute_distances,
    brute_simplicial,
    induced_path_sets,
)
from lkconvex import (
    Graph,
    GraphError,
    InducedPath,
    distance,
    generators,
    induced_paths_between,
    induced_subgraph,
    is_connected,
)
from lkconvex.graph import _adjacent_exactly_in_order, _balls, iter_bits, set_of, simplicial_mask


def test_construction_basics():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert list(iter_bits(g._adj[1])) == [0, 2]
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (1, 2)]


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_single_vertex():
    g = Graph(1)
    assert g.n == 1 and g.m == 0 and is_connected(g)


def test_bad_construction():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])
    with pytest.raises(GraphError):
        Graph(0)


def test_vertex_range_checks(strip7):
    with pytest.raises(GraphError):
        strip7.has_edge(0, 7)
    with pytest.raises(GraphError):
        distance(strip7, 0, -1)


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    c = Graph(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_distance_values(strip7):
    assert distance(strip7, 0, 6) == 3
    assert distance(strip7, 0, 0) == 0
    assert distance(Graph(2), 0, 1) is None


def test_distances_match_bruteforce(small_graph_pool):
    for g in small_graph_pool:
        ref = brute_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                got = distance(g, u, v)
                assert got == (None if ref[u][v] >= INF else ref[u][v])


def test_balls_within_match_bruteforce(small_graph_pool):
    rng = random.Random(7)
    for g in small_graph_pool:
        for _ in range(12):
            within = rng.getrandbits(g.n)
            for v in range(g.n):
                sub = induced_subgraph(g, [x for x in range(g.n) if within >> x & 1 or x == v])
                ref = brute_distances(sub.graph)[sub.child_ids[v]]
                layers: dict[int, set[int]] = {}
                for x, d in zip(sub.parent_ids, ref):
                    if d < INF:
                        layers.setdefault(d, set()).add(x)
                balls = [0, *_balls(g, 1 << v, within)]
                got = [
                    {x for x in range(g.n) if (outer ^ inner) >> x & 1}
                    for inner, outer in zip(balls, balls[1:])
                ]
                assert got == [layers[d] for d in range(len(layers))]


def _plain_balls(g, start, within):
    """The balls of a layer-by-layer BFS that runs until a frontier is empty."""
    out = []
    ball = frontier = start
    while frontier:
        out.append(ball)
        nxt = 0
        for x in range(g.n):
            if frontier >> x & 1:
                nxt |= g._adj[x]
        frontier = nxt & within & ~ball
        ball |= frontier
    return out


def test_balls_match_a_plain_bfs(small_graph_pool):
    rng = random.Random(18)
    graphs = small_graph_pool + [Graph(5, [(0, 1), (2, 3), (3, 4)])]
    for i in range(24):
        n = 7 + i * 33 // 23
        graphs.append(generators.random_connected(n, 2.0 / n, i))
        graphs.append(generators.random_connected_chordal(n, 0.5, i))
    for g in graphs:
        withins = [-1, g.full_mask] + [rng.getrandbits(g.n) for _ in range(4)]
        withins += [~rng.getrandbits(g.n) for _ in range(2)]  # as a hull step passes it
        for within in withins:
            for start in [1 << rng.randrange(g.n)] + [rng.getrandbits(g.n) or 1 for _ in range(3)]:
                assert list(_balls(g, start, within)) == _plain_balls(g, start, within), (
                    g.edges(), start, within,
                )


def test_connectivity():
    assert is_connected(generators.path(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def test_simplicial_strip(strip7):
    assert set_of(simplicial_mask(strip7, strip7.full_mask)) == {0, 6}


def test_simplicial_matches_bruteforce(small_graph_pool):
    rng = random.Random(8)
    for g in small_graph_pool:
        for within in [g.full_mask] + [rng.getrandbits(g.n) for _ in range(6)]:
            want = brute_simplicial(g, iter_bits(within))
            assert set_of(simplicial_mask(g, within)) == want, (g.edges(), within)


def test_induced_paths_strip_values(strip7):
    got = [p.vertices for p in induced_paths_between(strip7, 0, 6, 3)]
    assert got == [(0, 1, 4, 6)]
    got4 = [p.vertices for p in induced_paths_between(strip7, 0, 6, 4)]
    assert got4 == [
        (0, 1, 3, 5, 6),
        (0, 1, 4, 6),
        (0, 2, 3, 4, 6),
        (0, 2, 3, 5, 6),
    ]


def test_induced_paths_adjacent_pair(strip7):
    assert [p.vertices for p in induced_paths_between(strip7, 3, 4, 3)] == [(3, 4)]


def test_induced_paths_validation(strip7):
    with pytest.raises(GraphError):
        list(induced_paths_between(strip7, 2, 2, 3))
    with pytest.raises(GraphError):
        list(induced_paths_between(strip7, 0, 1, 0))


def test_induced_paths_empty_when_far():
    g = generators.path(6)
    assert list(induced_paths_between(g, 0, 5, 4)) == []
    two = Graph(2)
    assert list(induced_paths_between(two, 0, 1, 1)) == []


def test_induced_paths_match_subset_oracle(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 8:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                for max_len in (2, 3, 4):
                    got = list(induced_paths_between(g, u, v, max_len))
                    seqs = [p.vertices for p in got]
                    # every emitted path is genuinely induced and short enough
                    assert all(p.is_induced_in(g) for p in got)
                    assert all(p.length <= max_len for p in got)
                    assert all(s[0] == u and s[-1] == v for s in seqs)
                    # lexicographic, duplicate-free emission
                    assert seqs == sorted(set(seqs))
                    # exactly the vertex sets the subset oracle finds
                    assert {frozenset(s) for s in seqs} == set(
                        induced_path_sets(g, u, v, max_len)
                    )


def test_induced_path_validator(strip7):
    assert InducedPath((0, 1, 4, 6)).is_induced_in(strip7)
    assert not InducedPath((0, 1, 2)).is_induced_in(strip7)  # triangle
    assert not InducedPath((0, 3)).is_induced_in(strip7)  # not an edge
    assert not InducedPath((0, 1, 1)).is_induced_in(strip7)
    assert not InducedPath((0, 1, 9)).is_induced_in(strip7)


def test_induced_sequence_check_matches_pairwise_reference():
    for n in range(1, 6):
        # every sequence of up to 2 ids, repeats and out-of-range ones
        # included, and every sequence of 3 or 4 distinct vertices
        seqs = [s for r in range(3) for s in product(range(-1, n + 1), repeat=r)]
        seqs += [s for r in (3, 4) for s in permutations(range(n), r)]
        for g in generators.all_connected_graphs(n):
            for s in seqs:
                for cyclic in (False, True):
                    want = brute_adjacent_exactly_in_order(g, s, cyclic)
                    assert _adjacent_exactly_in_order(g, s, cyclic) == want, (g.edges(), s, cyclic)


def test_induced_subgraph_strip(strip7):
    sub = induced_subgraph(strip7, {1, 2, 3, 4})
    assert sub.parent_ids == (1, 2, 3, 4)
    assert sub.child_ids == {1: 0, 2: 1, 3: 2, 4: 3}
    assert sub.graph.n == 4 and sub.graph.m == 5
    assert sub.graph.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]


def test_induced_subgraph_full_and_errors(strip7):
    sub = induced_subgraph(strip7, range(7))
    assert sub.graph == strip7
    single = induced_subgraph(strip7, {3})
    assert single.graph.n == 1 and single.graph.m == 0
    with pytest.raises(GraphError):
        induced_subgraph(strip7, set())
    with pytest.raises(GraphError):
        induced_subgraph(strip7, {0, 9})
