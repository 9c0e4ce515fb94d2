"""Vectorized assembly, the hoisted alpha search and the chunked oracle against
their slow paths."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assembly_reference as ref
import oracle_reference
from percobound import (
    SurvivalProfile,
    WeightedGraph,
    build_adjacency,
    build_laplacian,
    deviation_bound,
    exact_distribution,
    expected_augmented_laplacian,
    generate,
    optimize_alpha,
    oracle,
    theory,
)
from percobound.graph_core import edge_laplacian

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
    # a stack of edge values: matrix r is the Laplacian of row r
    values = np.outer([1.0, 0.0, alpha], g.w)
    stack = edge_laplacian(g, values)
    for r in range(3):
        assert_identical(stack[r], edge_laplacian(g, values[r]))


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


# 2^11 masks make several chunks and a partial last one (see the test below)
MULTI_CHUNK = WeightedGraph(11, tuple(
    (i, j, 0.5 + (7 * i + 3 * j) % 5) for i in range(11) for j in range(i + 1, 11)
    if (i + 2 * j) % 3 != 0
))


def test_multi_chunk_example_spans_chunks():
    chunk = oracle._chunk_masks(MULTI_CHUNK.n)
    count = 1 << MULTI_CHUNK.n
    assert count > 2 * chunk and count % chunk != 0


@settings(max_examples=60, deadline=None)
@given(graph_profile(), st.floats(0.0, 10.0))
@example((WeightedGraph(1), SurvivalProfile([0.5])), 1.0)
@example((WeightedGraph(5), SurvivalProfile.uniform(5, 0.3)), 2.0)
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.0)), 1.5)
@example((petersen_graph(), SurvivalProfile.uniform(10, 1.0)), 1.5)
@example((generate("cycle", n=7), SurvivalProfile.uniform(7, 0.6)), 0.0)
@example((MULTI_CHUNK, SurvivalProfile(np.linspace(0.05, 0.95, 11))), 0.8)
def test_oracle_matches_mask_by_mask_reference(case, alpha):
    g, profile = case
    for kind in oracle.STATISTIC_KINDS:
        fast = exact_distribution(g, profile, alpha, kind).statistics
        assert_identical(fast, oracle_reference.statistics(g, profile, alpha, kind))
