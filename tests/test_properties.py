from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_simplicial
from lkconvex import (
    certificate_holds,
    extreme_points,
    generators,
    hull,
    induced_paths_between,
    interval,
    is_convex,
    solved_gems,
)

graphs = st.builds(
    generators.random_connected,
    st.integers(2, 9),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, 10**6),
)


@st.composite
def graph_k_set(draw, min_size=1):
    g = draw(graphs)
    k = draw(st.sampled_from([2, 3, 4]))
    s = draw(st.sets(st.integers(0, g.n - 1), min_size=min_size))
    return g, k, s


@settings(max_examples=80, deadline=None)
@given(graphs, st.integers(2, 5))
def test_emitted_paths_are_induced_bounded_sorted(g, max_len):
    for u in range(min(g.n, 4)):
        for v in range(u + 1, min(g.n, 5)):
            seqs = [p.vertices for p in induced_paths_between(g, u, v, max_len)]
            paths = [p for p in induced_paths_between(g, u, v, max_len)]
            assert all(p.is_induced_in(g) for p in paths)
            assert all(p.length <= max_len for p in paths)
            assert seqs == sorted(set(seqs))


@settings(max_examples=80, deadline=None)
@given(graphs)
def test_interval_symmetry_and_k_monotonicity(g):
    for u in range(min(g.n, 5)):
        for v in range(u, min(g.n, 6)):
            prev = None
            for k in (2, 3, 4):
                cur = interval(g, k, u, v)
                assert cur == interval(g, k, v, u)
                assert u in cur and v in cur
                if prev is not None:
                    assert prev <= cur
                prev = cur


@settings(max_examples=80, deadline=None)
@given(graph_k_set())
def test_hull_laws(case):
    g, k, s = case
    tr = hull(g, k, s)
    assert s <= tr.hull  # extensive
    assert is_convex(g, k, tr.hull)
    again = hull(g, k, tr.hull)
    assert again.hull == tr.hull and again.steps == 0  # idempotent
    # iterates grow strictly until the fixed point
    for a, b in zip(tr.iterates, tr.iterates[1:]):
        assert a < b


@settings(max_examples=60, deadline=None)
@given(graph_k_set(), st.sets(st.integers(0, 8)))
def test_hull_monotone(case, extra):
    g, k, s = case
    t = s | {x for x in extra if x < g.n}
    assert hull(g, k, s).hull <= hull(g, k, t).hull


@settings(max_examples=60, deadline=None)
@given(graph_k_set(), graph_k_set())
def test_intersection_of_convex_sets_is_convex(case_a, case_b):
    g, k, a = case_a
    _, _, b = case_b
    b = {x for x in b if x < g.n}
    ha = hull(g, k, a).hull
    hb = hull(g, k, b).hull if b else frozenset()
    assert is_convex(g, k, ha & hb)


@settings(max_examples=80, deadline=None)
@given(graph_k_set())
def test_extremes_of_hull_lie_in_the_seed(case):
    g, k, s = case
    if k > 3:
        k = 3
    tr = hull(g, k, s)
    ext = extreme_points(g, k, tr.hull)
    assert ext <= s
    assert ext <= brute_simplicial(g, s)


@settings(max_examples=80, deadline=None)
@given(graph_k_set())
def test_extreme_points_match_removal_definition(case):
    g, k, s = case
    tr = hull(g, k, s)
    convex = tr.hull
    ext = extreme_points(g, k, convex)
    definitional = {x for x in convex if is_convex(g, k, convex - {x})}
    assert ext == definitional


@settings(max_examples=50, deadline=None)
@given(graphs)
def test_solved_gem_paths_replay(g):
    for w, p in solved_gems(g, 3):
        assert certificate_holds(g, 3, w) == (p is None)
        if p is not None:
            assert p.is_induced_in(g)
            assert p.length == 3
            assert w.apex not in p.vertices
            assert p.vertices[0] == w.base.vertices[0]
            assert p.vertices[-1] == w.base.vertices[-1]
