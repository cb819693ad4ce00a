from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from bruteforce import (
    brute_hull_trace,
    brute_interval,
    brute_is_convex,
    brute_monophonic_convex,
    brute_simplicial,
    induced_path_sets,
    is_clique,
    subsets,
)
from lkconvex import (
    Graph,
    GraphError,
    NotConvexError,
    distance,
    extreme_points,
    generators,
    hull,
    induced_paths_between,
    interval,
    interval_of_set,
    is_chordal,
    is_convex,
)
from lkconvex.convexity import _interval_mask, _step, effective_k
from lkconvex.graph import iter_bits, mask_of, set_of

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


def _walked_pairs(g, k):
    """(u, v, I[u,v] by the kernel, I[u,v] by the segment walk) for each
    nonadjacent pair u < v, at k clamped as interval clamps it."""
    k = effective_k(g, k)
    for u in range(g.n):
        for v in iter_bits(g.full_mask & ~g._adj[u] & -(2 << u)):
            pair = 1 << u | 1 << v
            yield u, v, _interval_mask(g, k, u, v), _step(g, k, pair, pair)


def test_pair_interval_kernel_matches_walk_exhaustively(connected_upto6):
    pairs = 0
    for g in connected_upto6:
        for k in (2, 3):
            for u, v, got, walked in _walked_pairs(g, k):
                assert got == walked, (g.edges(), k, u, v)
                pairs += 1
    assert pairs == 379_174  # twice the nonadjacent pairs
    # the clamped k = 1 of a 2-vertex graph, whose pair is nonadjacent
    assert _interval_mask(Graph(2), 1, 0, 1) == 0b11
    assert interval(Graph(2), 3, 0, 1) == {0, 1}


def test_pair_interval_kernel_on_seeded_chordal_and_holed_graphs():
    rng = random.Random(18)
    graphs = []
    for i in range(40):
        n = 7 + i * 33 // 39  # 7..40 vertices
        graphs.append(generators.random_connected_chordal(n, (0.3, 0.6, 0.9)[i % 3], i))
        graphs.append(generators.random_connected(n, 2.5 / n + 0.1 * (i % 3), i))
    assert sum(not is_chordal(g).chordal for g in graphs) >= 40
    grew = 0
    for g in graphs:
        for k in (2, 3):
            pairs = list(_walked_pairs(g, k))
            for u, v, got, walked in pairs:
                assert got == walked, (g.edges(), k, u, v)
                grew += k == 3 and got != _interval_mask(g, 2, u, v)
            for u, v, got, _ in rng.sample(pairs, min(3, len(pairs))):
                assert set_of(got) == brute_interval(g, k, u, v), (g.edges(), k, u, v)
    assert grew >= 1000  # pairs whose induced 3-edge paths add vertices


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



def _reference_step(g, k, cur, memo):
    """One interval-operator step, pair by pair from the public path stream."""
    out = set(cur)
    for u, v in combinations(sorted(cur), 2):
        if (u, v) not in memo:
            memo[u, v] = {x for p in induced_paths_between(g, u, v, k) for x in p.vertices}
        out |= memo[u, v]
    return frozenset(out)


def _pair_within(g, k, rng):
    """A random pair at distance 2..k, whose interval holds more than the pair."""
    while True:
        u = rng.randrange(g.n)
        near = [x for x in range(g.n) if 2 <= distance(g, u, x) <= k]
        if near:
            return {u, rng.choice(near)}


def _mid_size_cases():
    # sparse holed graphs, where hulls take several steps with large new sets
    for i in range(8):
        n = 30 + 30 * i // 7
        g = generators.random_connected(n, 1.3 / n, i)
        for k in (4, 5):
            yield g, k, _pair_within(g, k, random.Random(i * 10 + k))
    # chordal graphs, with short hulls of pairs and triples
    for i in range(6):
        n = 20 + 4 * i
        g = generators.random_connected_chordal(n, 0.6, i)
        rng = random.Random(i)
        for k in (3, 4):
            yield g, k, _pair_within(g, k, rng)
            yield g, k, set(rng.sample(range(n), 3))


def test_hull_steps_match_pairwise_reference_on_mid_size_graphs():
    memos = {}
    deep = 0
    for g, k, seed in _mid_size_cases():
        memo = memos.setdefault((g, k), {})
        its = hull(g, k, seed).iterates
        assert its[0] == seed
        for cur, nxt in zip(its, its[1:] + (None,)):
            step = _reference_step(g, k, cur, memo)
            assert interval_of_set(g, k, cur) == step, (g, k, seed, sorted(cur))
            if nxt is None:
                assert step == cur, (g, k, seed)  # the fixed point
            else:
                assert nxt == step != cur, (g, k, seed, sorted(cur))
        deep += len(its) >= 4 and max(len(b - a) for a, b in zip(its, its[1:])) >= 10
    assert deep >= 8  # hulls of 3+ steps that add 10+ vertices in one step


def test_step_matches_pieces_and_pair_intervals_exhaustively(connected_upto6):
    # new a proper part of cur as well as all of it, so that a walk's
    # targets, the old vertices and the new ones above its start, leave out
    # vertices of cur.  The step is cur plus its pieces, the induced paths
    # with at most k edges between vertices of cur, an end in new and no
    # inner vertex in cur.  Where cur holds the intervals of its pairs
    # outside new, as in a hull, that is cur plus the intervals of the
    # pairs that meet new.
    steps = settled = 0
    for g in connected_upto6:
        if g.n > 5:
            continue
        for k in sorted({effective_k(g, k) for k in range(2, 6)}):
            paths = {1 << u | 1 << v: [mask_of(vs) for vs in induced_path_sets(g, u, v, k)]
                     for u, v in combinations(range(g.n), 2)}
            spans = {pair: reduce(or_, ms, pair) for pair, ms in paths.items()}
            for cur in range(1, 1 << g.n):
                inside = [pair for pair in paths if pair & cur == pair]
                for new in {cur, cur & cur - 1, *(1 << v for v in iter_bits(cur))} - {0}:
                    pieces = wide = cur
                    held = True
                    for pair in inside:
                        if pair & new:
                            wide |= spans[pair]
                            pieces |= reduce(or_, (m for m in paths[pair] if m & cur == pair), 0)
                        else:
                            held = held and spans[pair] & ~cur == 0
                    got = _step(g, k, cur, new)
                    assert got == pieces, (g.edges(), k, cur, new)
                    assert got == wide or not held, (g.edges(), k, cur, new)
                    steps += 1
                    settled += held
    assert (steps, settled) == (270_170, 230_678)


def test_is_convex_strip(strip7):
    assert is_convex(strip7, 3, {0, 1, 2, 3})
    assert is_convex(strip7, 3, set(range(7)))
    assert is_convex(strip7, 3, set())
    assert is_convex(strip7, 3, {4})
    assert not is_convex(strip7, 3, {0, 6})
    assert not is_convex(strip7, 3, {0, 1, 4})


def test_is_convex_matches_bruteforce(small_graph_pool):
    # the pool on sets of at most three vertices, four sparse graphs on every set
    cases = [(g, 3) for g in small_graph_pool if g.n <= 7]
    cases += [(generators.random_connected(6, 0.35, seed), None) for seed in range(4)]
    for g, max_size in cases:
        for k in (2, 3):
            for s in subsets(range(g.n), max_size=max_size):
                assert is_convex(g, k, s) == brute_is_convex(g, k, s), (g.edges(), k, s)


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


def _convex_sets(g, k):
    """Every convex set, by size, then lexicographic within a size."""
    return [frozenset(s) for s in subsets(range(g.n)) if is_convex(g, k, s)]


def test_enumerate_strip_exact(strip7):
    got = _convex_sets(strip7, 3)
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


def test_enumerate_small_shapes():
    k3 = generators.complete(3)
    assert len(_convex_sets(k3, 2)) == 8  # every subset of a clique
    c4 = generators.cycle(4)
    got = set(_convex_sets(c4, 2))
    expected = {frozenset(), frozenset(range(4))}
    expected |= {frozenset({v}) for v in range(4)}
    expected |= {frozenset(e) for e in c4.edges()}
    assert got == expected


def test_convex_sets_closed_under_intersection(small_graph_pool):
    for g in small_graph_pool:
        if g.n > 7:
            continue
        sets = _convex_sets(g, 3)
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
