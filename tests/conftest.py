from __future__ import annotations

import pytest

from lkconvex import Graph, generators


@pytest.fixture
def strip7() -> Graph:
    return generators.triangle_strip7()


@pytest.fixture(scope="session")
def connected_upto6() -> list[Graph]:
    """Every connected labelled graph with at most 6 vertices (27,476)."""
    return [g for n in range(1, 7) for g in generators.all_connected_graphs(n)]


@pytest.fixture
def small_graph_pool() -> list[Graph]:
    """A deterministic mixed bag for invariant checks."""
    pool = [
        generators.triangle_strip7(),
        generators.path(6),
        generators.cycle(5),
        generators.cycle(6),
        generators.complete(5),
        generators.star(6),
        generators.gem(3),
        generators.gem(4),
        generators.gem(5),
    ]
    pool += [generators.random_connected(7, 0.3, seed) for seed in range(6)]
    pool += [generators.random_connected_chordal(8, 0.5, seed) for seed in range(6)]
    return pool
