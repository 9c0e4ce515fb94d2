"""Shared graph fixtures and hypothesis strategies for the test suite."""
from __future__ import annotations

import pytest
from hypothesis import strategies as st

from percobound import SurvivalProfile, WeightedGraph, generate


def petersen_graph() -> WeightedGraph:
    """Outer 5-cycle, inner pentagram, five spokes; spectrum {3, 1^5, (-2)^4}."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, 1.0))
        edges.append((i, i + 5, 1.0))
        edges.append((5 + i, 5 + (i + 2) % 5, 1.0))
    return WeightedGraph(10, tuple(edges))


def petersen_induced_8() -> WeightedGraph:
    """Subgraph of the Petersen graph induced on vertices 0..7."""
    full = petersen_graph()
    edges = tuple((i, j, w) for i, j, w in full.edges if i < 8 and j < 8)
    return WeightedGraph(8, edges)


@pytest.fixture
def petersen() -> WeightedGraph:
    return petersen_graph()


@pytest.fixture
def paley13() -> WeightedGraph:
    return generate("paley", q=13)


@pytest.fixture
def c4() -> WeightedGraph:
    return generate("cycle", n=4)


@pytest.fixture
def p3() -> WeightedGraph:
    return generate("path", n=3)


probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def weighted_graphs(draw, min_n=1, max_n=9, max_weight=1e3):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.floats(1e-3, max_weight, allow_nan=False, allow_infinity=False)
    return WeightedGraph(n, tuple((i, j, draw(weights)) for i, j in chosen))


@st.composite
def graph_profile(draw, min_n=1, max_weight=1e3):
    g = draw(weighted_graphs(min_n=min_n, max_weight=max_weight))
    p = draw(st.lists(probabilities, min_size=g.n, max_size=g.n))
    return g, SurvivalProfile(p)
