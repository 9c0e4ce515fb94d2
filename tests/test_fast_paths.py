"""Vectorized assembly and the hoisted alpha search against their slow paths."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assembly_reference as ref
from percobound import (
    SurvivalProfile,
    WeightedGraph,
    build_adjacency,
    build_laplacian,
    deviation_bound,
    expected_augmented_laplacian,
    generate,
    optimize_alpha,
    theory,
)

from conftest import petersen_graph

probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def weighted_graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    return WeightedGraph(n, tuple((i, j, draw(weights)) for i, j in chosen))


@st.composite
def graph_profile(draw, min_n=1):
    g = draw(weighted_graphs(min_n=min_n))
    p = draw(st.lists(probabilities, min_size=g.n, max_size=g.n))
    return g, SurvivalProfile(p)


def assert_identical(fast: np.ndarray, slow: np.ndarray) -> None:
    # compare bytes, not only values: a -0.0 or an integer dtype is a change
    assert fast.dtype == slow.dtype and np.array_equal(fast, slow)
    assert fast.tobytes() == slow.tobytes()


@settings(max_examples=150, deadline=None)
@given(graph_profile(), st.floats(0.0, 10.0))
@example((WeightedGraph(1), SurvivalProfile([0.5])), 1.0)
@example((WeightedGraph(5), SurvivalProfile.uniform(5, 0.3)), 0.0)
def test_assembly_matches_edge_loops(case, alpha):
    g, profile = case
    assert_identical(build_adjacency(g), ref.adjacency(g))
    assert_identical(build_laplacian(g), ref.laplacian(g))
    assert_identical(g.degree_vector(), ref.degree_vector(g))
    assert_identical(expected_augmented_laplacian(g, profile, alpha),
                     ref.expected_augmented_laplacian(g, profile.p, alpha))


def search_evaluations(g, profile, epsilon, alpha_grid_size=256):
    """Run optimize_alpha; return its report and every (alpha, report) it evaluated."""
    evaluated = []
    alpha_free_part = theory._alpha_free_part

    def recording(*args):
        expected_row, bound_at = alpha_free_part(*args)

        def recorded_bound_at(alpha):
            evaluated.append((alpha, bound_at(alpha)))
            return evaluated[-1][1]

        return expected_row, recorded_bound_at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "_alpha_free_part", recording)
        _, best = optimize_alpha(g, profile, epsilon, alpha_grid_size)
    return best, evaluated


@pytest.mark.parametrize("g, profile", [
    (generate("paley", q=13), SurvivalProfile.uniform(13, 0.7)),
    (petersen_graph(), SurvivalProfile(np.linspace(0.3, 0.95, 10))),
], ids=["paley13", "petersen"])
def test_hoisted_search_reports_equal_deviation_bound(g, profile):
    best, evaluated = search_evaluations(g, profile, 0.1)
    assert len(evaluated) == 2 * 256 + 1
    for alpha, report in evaluated:
        assert report == deviation_bound(g, profile, alpha, 0.1)
    assert best in [report for _, report in evaluated]


@settings(max_examples=40, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.01, 0.99))
def test_search_is_never_below_its_grid(case, epsilon):
    # exact: the search maximizes over these very evaluations
    g, profile = case
    best, evaluated = search_evaluations(g, profile, epsilon, alpha_grid_size=8)
    for alpha, _ in evaluated:
        assert best.a_lower_bound >= deviation_bound(g, profile, alpha, epsilon).a_lower_bound
