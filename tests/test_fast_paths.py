"""The edge-list and array constructors, generators and assembly, the
hoisted alpha search and its vectorized ranking, the chunked oracle, the
chunked Monte Carlo kernel, the per-pattern trials-CSV writer and the
grouped oracle CSV writer against their slow paths."""
from __future__ import annotations

import io
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assembly_reference as ref
import harness_reference
import oracle_reference
import percolation_reference
import theory_reference
from percobound import (
    SurvivalProfile,
    WeightedGraph,
    _chunking,
    build_adjacency,
    build_laplacian,
    deviation_bound,
    exact_bernoulli_series_tail,
    exact_distribution,
    expected_augmented_laplacian,
    generate,
    graph_core,
    harness_cli,
    optimize_alpha,
    oracle,
    percolation,
    spectral,
    theory,
    trial_block,
)
from percobound.graph_core import edge_laplacian
from percobound.oracle import STATISTIC_KINDS, ExactDistribution
from percobound.percolation import TrialBlock

from conftest import (graph_profile, level_trial_block, petersen_graph, petersen_induced_8,
                      probabilities, weighted_graphs)


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


def outcome(build):
    """(build(), None), or (None, (type, message)) of the error it raised."""
    try:
        return build(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def endpoint_as(v: int):
    """The same endpoint as a Python or a numpy integer."""
    return st.sampled_from([v, np.int64(v), np.int32(v)] + ([np.uint8(v)] if v >= 0 else []))


valid_weights = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 10),
                          st.integers(1, 10).map(np.int64),
                          st.floats(0.5, 1e3, width=32).map(np.float32))


def broken_edges(n: int):
    """Edges that break a per-edge rule, one rule or shape at a time."""
    bad_endpoints = st.sampled_from([True, np.True_, "1", 1.0, np.float64(1.0), None, -1, n,
                                     np.int64(n), 2**70, -2**70, np.uint64(2**64 - 1)])
    bad_weights = st.sampled_from([0.0, -1.0, -0.0, math.nan, math.inf, -math.inf, "2", None,
                                   True, np.True_, [1.0], 10**400, np.float64(math.nan)])
    v = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(bad_endpoints, v, valid_weights),
        st.tuples(v, bad_endpoints, valid_weights),
        v.map(lambda i: (i, i, 1.0)),
        st.tuples(v, v, bad_weights),
        st.sampled_from([(0, 1), (0, 1, 1.0, 2.0), [0, 1], 5, None, "ab", "abc",
                         np.array([0.0, 1.0, 1.0])]),
    )


@st.composite
def edge_lists(draw):
    """(n, edges): pairs in any order and orientation, repeated or not,
    Python or numpy numbers, tuples or lists, with a few broken edges
    put in at random places."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12,
                           unique=draw(st.booleans()))) if pairs else []
    edges = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edge = (draw(endpoint_as(i)), draw(endpoint_as(j)), draw(valid_weights))
        edges.append(list(edge) if draw(st.booleans()) else edge)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(edges)))
        edges.insert(at, draw(broken_edges(n)))
    return n, edges


@settings(max_examples=400, deadline=None)
@given(edge_lists())
@example((3, [(0, 1, 1.0), (1, 0, 2.0)]))
@example((3, [(0, 1, 1.0), [1, 0, 2.0], (0, 0, 1.0)]))
@example((3, [(0, 1, 1.0), (0, 1, 1.0), (0, 1)]))
@example((3, [(0, 1, 1.0), (0, 1, 10**400)]))
@example((3, [(2**70, 1, 1.0)]))
@example((4, [(3, 1, 2.0), (0, 2, 1)]))
@example((1, []))
def test_edge_checks_match_the_edge_loop(case):
    # the same edges, or the same error for the same first offending edge
    n, edges = case
    expected, expected_error = outcome(lambda: ref.normalized_edges(n, edges))
    g, error = outcome(lambda: WeightedGraph(n, tuple(edges)))
    assert error == expected_error
    if expected is not None:
        assert g.edges == expected
        assert all(tuple(map(type, edge)) == (int, int, float) for edge in g.edges)
        columns = tuple(zip(*expected)) or ((), (), ())
        for name, column, dtype in zip(("src", "dst", "w"), columns, (np.intp, np.intp, float)):
            assert_identical(getattr(g, name), np.array(column, dtype=dtype))
            assert not getattr(g, name).flags.writeable


bad_weights = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
                                np.float64(math.nan), np.float32(-2.5), np.int64(0)])


@st.composite
def edge_columns(draw):
    """(n, i, j, w): endpoint and weight columns of Python or numpy numbers
    that fit an index or a float.  Pairs come in either orientation, repeated
    or not, and a few entries are broken at random places: out-of-range or
    negative endpoints, self-loops, and weights that are zero, negative, NaN
    or inf."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12,
                           unique=draw(st.booleans()))) if pairs else []
    chosen = [pair[::-1] if draw(st.booleans()) else pair for pair in chosen]
    i = [draw(endpoint_as(a)) for a, _ in chosen]
    j = [draw(endpoint_as(b)) for _, b in chosen]
    w = [draw(valid_weights) for _ in chosen]
    bad_endpoints = st.sampled_from([-1, -3, n, n + 2, np.int64(-1), np.int32(n), 2**62, -2**62])
    for _ in range(draw(st.integers(0, 2)) if chosen else 0):
        at, broken = draw(st.integers(0, len(chosen) - 1)), draw(st.sampled_from("ijlw"))
        if broken == "l":
            j[at] = i[at]
        else:
            column = {"i": i, "j": j, "w": w}[broken]
            column[at] = draw(bad_weights if broken == "w" else bad_endpoints)
    return n, i, j, w


def assert_same_graph(g: WeightedGraph, h: WeightedGraph) -> None:
    """g and h are equal and hash equal, with bit-identical arrays."""
    assert g == h and hash(g) == hash(h)
    for name in ("src", "dst", "w"):
        assert_identical(getattr(g, name), getattr(h, name))


@settings(max_examples=400, deadline=None)
@given(edge_columns())
@example((3, [0, 1], [1, 0], [1.0, 2.0]))
@example((3, [0, 2, 1], [1, 1, 1], [1.0, math.nan, 1.0]))
@example((4, [3, -1], [1, 0], [2.0, 1.0]))
# -2**62 * 4 + 1 wraps to 1, the key of the pair (0, 1)
@example((4, [1, -2**62], [0, 1], [1.0, 1.0]))
@example((4, [-2**62, 0], [1, 1], [1.0, 1.0]))
@example((1, [], [], []))
def test_array_constructor_matches_the_edge_list_and_the_edge_loop(case):
    # the same arrays bit for bit, or the same error for the same first offending edge
    n, i, j, w = case
    arrays = (np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(w, dtype=float))
    # numpy scalars, as the array constructor names an offending edge
    edges = tuple(zip(*arrays))
    fast, fast_error = outcome(lambda: WeightedGraph._from_arrays(n, *arrays))
    listed, listed_error = outcome(lambda: WeightedGraph(n, edges))
    expected, expected_error = outcome(lambda: ref.normalized_edges(n, edges))
    assert fast_error == listed_error == expected_error
    # the drawn Python and numpy numbers themselves
    raw_edges = tuple(zip(i, j, w))
    raw, raw_error = outcome(lambda: WeightedGraph(n, raw_edges))
    assert raw_error == outcome(lambda: ref.normalized_edges(n, raw_edges))[1]
    assert (raw_error is None) == (expected is not None)
    if expected is not None:
        assert fast.edges == expected
        assert all(tuple(map(type, edge)) == (int, int, float) for edge in fast.edges)
        assert_same_graph(fast, listed)
        assert_same_graph(fast, raw)


GENERATED = {
    "complete": [{"n": 1}, {"n": 2}, {"n": 9}],
    "cycle": [{"n": 1}, {"n": 2}, {"n": 3}, {"n": 10}],
    "path": [{"n": 1}, {"n": 2}, {"n": 7}],
    "hypercube": [{"k": 1}, {"k": 5}],
    "paley": [{"q": 5}, {"q": 101}],
    "random_regular": [{"n": 5, "d": 0, "seed": 0}, {"n": 12, "d": 3, "seed": 1},
                       {"n": 11, "d": 8, "seed": 2}, {"n": 40, "d": 39, "seed": 3}],
}


@pytest.mark.parametrize("family", sorted(GENERATED))
def test_generated_graphs_equal_their_edge_lists(family):
    # every generator's arrays are what the edge-list constructor makes of its edges
    assert sorted(GENERATED) == sorted(graph_core.GENERATOR_FAMILIES)
    for params in GENERATED[family]:
        g = generate(family, **params)
        assert_same_graph(g, WeightedGraph(g.n, g.edges))


@pytest.mark.parametrize("family, sizes", [
    ("complete", [1, 2, 3, 8]),
    ("cycle", [1, 2, 3, 4, 11]),
    ("path", [1, 2, 3, 9]),
    ("hypercube", [1, 2, 3, 6]),
    ("paley", [5, 13, 29, 101]),
])
def test_generators_match_edge_loops(family, sizes):
    size_name = {"hypercube": "k", "paley": "q"}.get(family, "n")
    for size in sizes:
        g = generate(family, **{size_name: size})
        n = 1 << size if family == "hypercube" else size
        assert g == WeightedGraph(n, ref.normalized_edges(n, ref.family_edges(family, size)))


@settings(max_examples=80, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.01, 0.99), st.lists(st.floats(0.0, 1e4), max_size=6))
@example((petersen_graph(), SurvivalProfile(np.linspace(0.0, 1.0, 10))), 0.1, [0.0, 2.5])
@example((WeightedGraph(4), SurvivalProfile.uniform(4, 0.5)), 0.1, [0.0, 1.0])
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 1e-9)), 0.5, [3.0])
def test_vectorized_upper_bound_matches_the_scalar_one(case, epsilon, extra):
    g, profile = case
    expected_row, bound_at, upper_at = theory._alpha_free_part(g, profile, epsilon)
    lambda2_free = bound_at(0.0).lambda2_expected
    alphas = [*np.linspace(0.0, 2.0 * float(expected_row.max()), 9).tolist(),
              float(expected_row.mean()), *extra]
    scalar = theory_reference.upper_bound(g, profile, epsilon)
    assert_identical(upper_at(np.array(alphas), lambda2_free),
                     np.array([scalar(alpha, lambda2_free) for alpha in alphas]))


@settings(max_examples=40, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.01, 0.99), st.sampled_from([2, 8, 256]))
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.0)), 0.1, 256)
@example((petersen_graph(), SurvivalProfile.uniform(10, 1.0)), 0.1, 256)
@example((petersen_graph(), SurvivalProfile(np.linspace(0.0, 1.0, 10))), 0.1, 256)
@example((WeightedGraph(4), SurvivalProfile.uniform(4, 0.5)), 0.1, 256)
@example((generate("paley", q=13), SurvivalProfile(np.linspace(0.05, 0.95, 13))), 0.1, 2)
@example((generate("path", n=4), SurvivalProfile([1.0, 1.0, 0.0, 0.0])), 0.1, 256)
def test_ranking_in_one_array_pass_solves_the_alphas_of_the_scalar_ranking(case, epsilon,
                                                                           alpha_grid_size):
    g, profile = case
    _, evaluated = search_evaluations(g, profile, epsilon, alpha_grid_size)
    assert [alpha for alpha, _ in evaluated] == theory_reference.pruned_search_alphas(
        g, profile, epsilon, alpha_grid_size)


def search_evaluations(g, profile, epsilon, alpha_grid_size=256):
    """Run optimize_alpha; return its report and every (alpha, report) it evaluated."""
    evaluated = []
    alpha_free_part = theory._alpha_free_part

    def recording(*args):
        expected_row, bound_at, upper_at = alpha_free_part(*args)

        def recorded_bound_at(alpha):
            evaluated.append((alpha, bound_at(alpha)))
            return evaluated[-1][1]

        return expected_row, recorded_bound_at, upper_at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "_alpha_free_part", recording)
        _, best = optimize_alpha(g, profile, epsilon, alpha_grid_size)
    return best, evaluated


@pytest.mark.parametrize("g, profile, solves", [
    (generate("paley", q=13), SurvivalProfile.uniform(13, 0.7), 2),
    (petersen_graph(), SurvivalProfile(np.linspace(0.3, 0.95, 10)), None),
], ids=["paley13", "petersen"])
def test_hoisted_search_reports_equal_deviation_bound(g, profile, solves):
    best, evaluated = search_evaluations(g, profile, 0.1)
    for alpha, report in evaluated:
        assert report == deviation_bound(g, profile, alpha, 0.1)
    assert best in [report for _, report in evaluated]
    assert (best.alpha, best) == theory_reference.optimize_alpha(g, profile, 0.1)
    # a uniform profile shifts the spectrum exactly as the bound assumes, so
    # alpha = 0 and the winner are all the search solves
    if solves is not None:
        assert len(evaluated) == solves


@settings(max_examples=40, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.01, 0.99))
def test_search_is_never_below_its_grid(case, epsilon):
    # exact: the search's result is the maximum over every grid alpha, solved or not
    g, profile = case
    best, evaluated = search_evaluations(g, profile, epsilon, alpha_grid_size=8)
    expected_row = theory._alpha_free_part(g, profile, epsilon)[0]
    for alpha in [*theory_reference.grid(expected_row, 8), *(a for a, _ in evaluated)]:
        assert best.a_lower_bound >= deviation_bound(g, profile, alpha, epsilon).a_lower_bound


@settings(max_examples=100, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.01, 0.99), st.floats(0.0, 1e4))
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 1e-9)), 0.5, 3.0)
# the solved bound lies above the bound with no margin by one rounding error
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.3)), 0.1, 0.2541176470588235)
@example((petersen_graph(), SurvivalProfile(np.linspace(0.0, 1.0, 10))), 1e-300, 2.5)
def test_upper_bound_is_above_the_solved_bound(case, epsilon, alpha):
    g, profile = case
    _, bound_at, upper_at = theory._alpha_free_part(g, profile, epsilon)
    lambda2_free = bound_at(0.0).lambda2_expected
    assert upper_at(alpha, lambda2_free) >= bound_at(alpha).a_lower_bound


@settings(max_examples=60, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.01, 0.99), st.sampled_from([2, 8, 256]))
def test_pruned_search_matches_full_scan(case, epsilon, alpha_grid_size):
    g, profile = case
    best, evaluated = search_evaluations(g, profile, epsilon, alpha_grid_size)
    assert (best.alpha, best) == theory_reference.optimize_alpha(g, profile, epsilon,
                                                                 alpha_grid_size)
    alphas = [alpha for alpha, _ in evaluated]
    assert len(set(alphas)) == len(alphas)


# path 0-1-2-3 with p = (1, 1, 0, 0): lambda_2 = alpha and total = alpha on
# [0.5, 2], so every alpha there ties at a_lower_bound = 0
FLAT_TOP = (generate("path", n=4), SurvivalProfile([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("g, profile, alpha_grid_size, solves", [
    (petersen_graph(), SurvivalProfile.uniform(10, 0.0), 256, 1),
    (petersen_graph(), SurvivalProfile.uniform(10, 1.0), 256, 2),
    (generate("complete", n=2), SurvivalProfile.uniform(2, 1.0), 256, 3),
    (generate("paley", q=13), SurvivalProfile(np.linspace(0.05, 0.95, 13)), 2, None),
    (WeightedGraph(4), SurvivalProfile.uniform(4, 0.5), 256, 1),
    (generate("cycle", n=8), SurvivalProfile.uniform(8, 1.0), 256, 2),
    (*FLAT_TOP, 256, None),
    (*FLAT_TOP, 2, None),
], ids=["p0", "p1", "n2", "grid2", "edgeless", "cycle8-symmetric", "flat-top", "flat-top-grid2"])
def test_pruned_search_edge_cases(g, profile, alpha_grid_size, solves):
    best, evaluated = search_evaluations(g, profile, 0.1, alpha_grid_size)
    assert (best.alpha, best) == theory_reference.optimize_alpha(g, profile, 0.1,
                                                                 alpha_grid_size)
    if solves is not None:
        assert len(evaluated) == solves


def test_tied_bounds_are_solved_from_the_smaller_alpha(monkeypatch):
    # every bound tied at +inf: each pass solves all its candidates, ascending
    g, profile = generate("cycle", n=5), SurvivalProfile.uniform(5, 0.8)
    alpha_free_part = theory._alpha_free_part

    def tied(*args):
        expected_row, bound_at, _ = alpha_free_part(*args)
        return expected_row, bound_at, lambda alphas, lambda2_free: np.full(len(alphas), math.inf)

    monkeypatch.setattr(theory, "_alpha_free_part", tied)
    _, evaluated = search_evaluations(g, profile, 0.1, alpha_grid_size=8)
    expected_row = alpha_free_part(g, profile, 0.1)[0]
    first_pass = theory_reference.grid(expected_row, 8)
    alphas = [alpha for alpha, _ in evaluated]
    assert alphas[:len(first_pass)] == first_pass
    assert alphas[len(first_pass):] == sorted(alphas[len(first_pass):])


def test_n2_winner():
    # lambda_2 = 2 and total = |alpha - 1|, so a_lower_bound peaks at alpha = 1.5,
    # which the refinement pass misses by one of its steps
    alpha, _ = optimize_alpha(generate("complete", n=2), SurvivalProfile.uniform(2, 1.0), 0.1)
    assert alpha == pytest.approx(1.49998, abs=1e-5)


def test_flat_top_tie_goes_to_the_smaller_alpha():
    g, profile = FLAT_TOP
    alpha, best = optimize_alpha(g, profile, 0.1)
    expected_row, bound_at, _ = theory._alpha_free_part(g, profile, 0.1)
    tied = [a for a in theory_reference.grid(expected_row, 256)
            if bound_at(a).a_lower_bound == best.a_lower_bound]
    assert len(tied) > 1 and best.a_lower_bound == 0.0
    assert alpha <= min(tied)


# 2^11 masks make several chunks and a partial last one (see the test below)
MULTI_CHUNK = WeightedGraph(11, tuple(
    (i, j, 0.5 + (7 * i + 3 * j) % 5) for i in range(11) for j in range(i + 1, 11)
    if (i + 2 * j) % 3 != 0
))


def test_multi_chunk_example_spans_chunks():
    chunk = _chunking._chunk_length(MULTI_CHUNK.n ** 2)
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


# 20 vertices make stacks of 81 matrices, so the 175 distinct patterns of
# trials 40 to 214 (seed 17) fill two whole stacks and a partial last one
CHUNKED = WeightedGraph(20, tuple(
    (i, j, 0.25 + (5 * i + 11 * j) % 7) for i in range(20) for j in range(i + 1, 20)
    if (3 * i + j) % 4 == 0
))


def test_chunked_example_spans_chunks():
    stack = _chunking._chunk_length(CHUNKED.n ** 2)
    assert stack == 81 and 175 // stack == 2 and 175 % stack != 0
    grid = percolation._unit_uniforms(17, 40, 175, CHUNKED.n) < np.linspace(0.3, 0.95, 20)
    assert len(np.unique(grid, axis=0)) == 175


def solve_every_block(devs: np.ndarray) -> np.ndarray:
    """Levels that solve every survivor block, so only the augmented solve is skipped."""
    return np.full_like(devs, math.inf)


def assert_block_matches_reference(block, g, profile, alpha, seed, start, count,
                                   with_lambda2_augmented=True) -> None:
    """Entry k of every array of block is, byte for byte, what the per-trial
    reference records for trial start + k."""
    rows = [percolation_reference.run_trial(g, profile, alpha, seed, t)
            for t in range(start, start + count)]
    assert len(block) == count
    deltas, *statistics = zip(*rows)
    # trial_block draws its flags as one grid, sample() one row at a time
    grid = percolation._unit_uniforms(seed, start, count, g.n) < profile.p
    assert_identical(grid, np.array(deltas))
    assert_identical(np.array([percolation.sample(profile, seed, t)
                               for t in range(start, start + count)]), np.array(deltas))
    fast_arrays = [block.survivor_count, block.is_connected, block.a_delta,
                   block.deviation_norm]
    if with_lambda2_augmented:
        fast_arrays.append(block.lambda2_augmented)
    else:
        assert np.isnan(block.lambda2_augmented).all()
    for fast, slow in zip(fast_arrays, statistics[:len(fast_arrays)]):
        assert_identical(fast, np.array(slow))


@settings(max_examples=60, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.0, 10.0),
       st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 4),
       st.booleans())
@example((WeightedGraph(5), SurvivalProfile.uniform(5, 0.5)), 1.0, 0, 0, 3, True)
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.0)), 1.5, 7, 0, 2, True)
@example((petersen_graph(), SurvivalProfile.uniform(10, 1.0)), 1.5, 7, 0, 2, True)
@example((petersen_graph(), SurvivalProfile.uniform(10, 1.0)), 1.5, 7, 0, 2, False)
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.6)), 0.0, 3, 11, 4, True)
@example((petersen_graph(), SurvivalProfile([1.0] + [0.0] * 9)), 2.0, 1, 0, 2, True)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)), 2.4, 5, 3, 4, True)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)), 2.4, 2**64 - 1, 0, 4, True)
@example((CHUNKED, SurvivalProfile(np.linspace(0.3, 0.95, 20))), 3.0, 17, 40, 175, True)
@example((CHUNKED, SurvivalProfile(np.linspace(0.3, 0.95, 20))), 3.0, 17, 40, 175, False)
def test_trial_block_matches_per_trial_reference(case, alpha, seed, start, count,
                                                 with_lambda2_augmented):
    g, profile = case
    block = (trial_block(g, profile, alpha, seed, start, count) if with_lambda2_augmented
             else level_trial_block(g, profile, alpha, seed, start, count, solve_every_block))
    assert_block_matches_reference(block, g, profile, alpha, seed, start, count,
                                   with_lambda2_augmented)
    row = percolation_reference.run_trial(g, profile, alpha, seed, start)
    one = trial_block(g, profile, alpha, seed, start, 1)
    assert_identical(percolation.sample(profile, seed, start), row[0])
    assert (int(one.survivor_count[0]), bool(one.is_connected[0]), float(one.a_delta[0]),
            float(one.deviation_norm[0]), float(one.lambda2_augmented[0])) == row[1:]


@settings(max_examples=40, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.0, 10.0), st.integers(0, 2**64 - 1),
       st.integers(0, 2**40), st.integers(1, 300), st.integers(1, 64))
# p = 0 and p = 1: every trial of a chunk draws the same pattern
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.0)), 1.0, 0, 5, 40, 16)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 1.0)), 1.0, 0, 5, 40, 16)
@example((petersen_induced_8(), SurvivalProfile([0.0, 1.0, 0.5, 0.9, 1.0, 0.0, 0.3, 0.7])),
         2.0, 11, 3, 300, 64)
# ten vertices pack into two bytes per row
@example((petersen_graph(), SurvivalProfile([0.9] * 8 + [0.5, 0.5])), 1.0, 5, 7, 200, 64)
# a chunk of one trial
@example((generate("path", n=4), SurvivalProfile.uniform(4, 0.5)), 0.5, 1, 0, 30, 1)
def test_distinct_patterns_match_per_trial_reference(case, alpha, seed, start, count,
                                                     chunk_length):
    # small graphs draw few distinct patterns, so chunks repeat many of them;
    # a small chunk length makes start fall inside a chunk and count span several
    g, profile = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_CHUNK_ENTRIES", chunk_length * g.n)
        assert _chunking._chunk_length(g.n) == chunk_length
        block = trial_block(g, profile, alpha, seed, start, count)
    assert_block_matches_reference(block, g, profile, alpha, seed, start, count)


@st.composite
def near_one(draw):
    """A graph on 2-9 vertices and survival probabilities at or near 1, so a
    run draws the same few patterns again and again."""
    g = draw(weighted_graphs(min_n=2))
    p = draw(st.lists(st.just(1.0) | st.floats(0.85, 1.0), min_size=g.n, max_size=g.n))
    return g, SurvivalProfile(p)


@settings(max_examples=40, deadline=None)
@given(near_one(), st.floats(0.0, 10.0), st.integers(0, 2**64 - 1), st.integers(0, 2**40),
       st.integers(1, 120), st.integers(1, 16), st.none() | st.floats(-10.0, 10.0))
# at least three chunks, with and without levels
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.95)), 2.4, 0, 3, 100, 7, None)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.95)), 2.4, 0, 3, 100, 7, 1.0)
# two vertices: at most four patterns
@example((generate("path", n=2), SurvivalProfile([0.9, 1.0])), 1.0, 4, 0, 60, 5, None)
@example((generate("path", n=2), SurvivalProfile([0.9, 1.0])), 1.0, 4, 0, 60, 5, 0.5)
def test_memoized_runs_match_per_trial_reference(case, alpha, seed, start, count, chunk_length,
                                                 shift):
    # a pattern drawn in several chunks is solved in each of them, once, and
    # every trial of a chunk that drew it gets its results; levels are
    # shift - norm
    g, profile = case
    levels = None if shift is None else (lambda devs: shift - devs)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(_chunking, "_CHUNK_ENTRIES", chunk_length * g.n)
        block = (trial_block(g, profile, alpha, seed, start, count) if levels is None
                 else level_trial_block(g, profile, alpha, seed, start, count, levels))
        csv_path = os.path.join(tmp, "trials.csv")
        harness_cli.run_experiment(g, profile, alpha, 0.25, count, seed, trials_csv=csv_path)
        with open(csv_path, encoding="utf-8") as fh:
            csv = fh.read()
    if levels is None:
        assert_block_matches_reference(block, g, profile, alpha, seed, start, count)
    else:
        rows = [percolation_reference.run_trial(g, profile, alpha, seed, t)
                for t in range(start, start + count)]
        _, survivor_count, is_connected, a_delta, deviation_norm, _ = map(np.array, zip(*rows))
        for fast, slow in ((block.survivor_count, survivor_count),
                           (block.is_connected, is_connected),
                           (block.deviation_norm, deviation_norm)):
            assert_identical(fast, slow)
        assert np.isnan(block.lambda2_augmented).all()
        # a survivor block is solved exactly where its level reaches the floor
        skipped = (levels(deviation_norm) < percolation._a_delta_floor(g)) & (survivor_count >= 2)
        expected = np.where(skipped, math.nan, a_delta)
        assert block.a_delta.dtype == expected.dtype
        assert block.a_delta.tobytes() == expected.tobytes()
    reference = io.StringIO()
    reference.write(harness_cli.TRIALS_CSV_HEADER)
    harness_reference.write_trial_rows(reference, 0, trial_rows_block(
        [percolation_reference.run_trial(g, profile, alpha, seed, t)[1:] for t in range(count)]))
    assert csv == reference.getvalue()


def record_solves(monkeypatch) -> list:
    """Every stack the chunk kernel hands to eig_sym, grouped by chunk."""
    chunks = []
    running = []  # the running chunk's list; solves outside a chunk are not kept
    eig_sym, evaluate_chunk = spectral.eig_sym, percolation._evaluate_chunk

    def recording_eig_sym(M):
        if running:
            running[-1].append(np.array(M))
        return eig_sym(M)

    def recording_evaluate_chunk(*args):
        chunks.append([])
        running.append(chunks[-1])
        try:
            return evaluate_chunk(*args)
        finally:
            running.pop()

    # spectral_norm and lambda2 solve through the spectral module's eig_sym
    monkeypatch.setattr(spectral, "eig_sym", recording_eig_sym)
    monkeypatch.setattr(percolation, "_evaluate_chunk", recording_evaluate_chunk)
    return chunks


def same_matrices(stack: np.ndarray, matrices: list) -> bool:
    """Whether stack holds exactly these matrices, byte for byte, in any order."""
    return sorted(M.tobytes() for M in stack) == sorted(M.tobytes() for M in matrices)


def test_trial_block_solves_each_distinct_pattern_once(monkeypatch):
    # the simulate-cycle6 benchmark inputs: 5,000 trials in one chunk, whose
    # 60 distinct patterns are one stack of up to 910; a pattern is solved in
    # the first chunk that draws it, and a chunk that draws no new pattern
    # solves nothing
    g, profile = generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)
    alpha, seed, trials = 2.4, 0, 5000
    expected = expected_augmented_laplacian(g, profile, alpha)
    chunks = record_solves(monkeypatch)
    trial_block(g, profile, alpha, seed, 0, trials)
    step = _chunking._chunk_length(g.n)
    grid = percolation._unit_uniforms(seed, 0, trials, g.n) < profile.p
    seen, new_per_chunk = set(), []
    for start in range(0, trials, step):
        new = [delta for delta in np.unique(grid[start:start + step], axis=0)
               if delta.tobytes() not in seen]
        seen.update(delta.tobytes() for delta in new)
        new_per_chunk.append(new)
    assert len(new_per_chunk) == 1
    for patterns, solved in zip([new for new in new_per_chunk if new], chunks, strict=True):
        augmented = [percolation.augmented_laplacian(g, delta, alpha) for delta in patterns]
        # solve order: deviations, then survivor blocks, then the augmented stack
        deviations, *blocks, augmented_stack = solved
        assert same_matrices(augmented_stack, augmented)
        assert_identical(deviations, augmented_stack - expected)
        # one survivor block per pattern with two survivors or more
        assert sum(len(b) for b in blocks) == sum(delta.sum() >= 2 for delta in patterns)
    assert len(seen) == len(np.unique(grid, axis=0)) == 60


def test_trial_block_skips_the_augmented_eigensolve(monkeypatch):
    # one chunk of 20 trials; the augmented stack of its distinct patterns is
    # the only eigensolve dropped
    g, profile, alpha = petersen_graph(), SurvivalProfile.uniform(10, 0.6), 1.5
    augmented = [percolation.augmented_laplacian(g, percolation.sample(profile, 3, t), alpha)
                 for t in range(20)]
    distinct = list({M.tobytes(): M for M in augmented}.values())
    chunks = record_solves(monkeypatch)
    trial_block(g, profile, alpha, 3, 0, 20)
    [solved] = chunks
    assert same_matrices(solved[-1], distinct)
    chunks.clear()
    level_trial_block(g, profile, alpha, 3, 0, 20, solve_every_block)
    [without] = chunks
    assert len(without) == len(solved) - 1
    assert not any(same_matrices(M, distinct) for M in without)


# levels at and just below the 6-cycle's floor; at p = 1 every deviation norm is 0
_C6_FLOOR = percolation._a_delta_floor(generate("cycle", n=6))


@settings(max_examples=100, deadline=None)
@given(graph_profile(min_n=2, max_weight=1e6), st.floats(0.0, 10.0), st.integers(0, 2**64 - 1),
       st.integers(1, 120), st.floats(0.0, 1.0), st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
       st.integers(1, 16))
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 1.0)), 0.0, 0, 5, 0.5, _C6_FLOOR, 2)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 1.0)), 0.0, 0, 5, 0.5,
         math.nextafter(_C6_FLOOR, -math.inf), 2)
@example((generate("hypercube", k=3), SurvivalProfile.uniform(8, 0.9)), 7.2, 0, 100, 0.0, 2.34,
         16)
def test_levels_skip_only_a_delta_that_cannot_fall_below_them(case, alpha, seed, count, quantile,
                                                              offset, chunk_length):
    # levels shift - deviation norm have the shape of simulate's lower bound;
    # a shift at a quantile of the norms puts some levels on either side of 0
    g, profile = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_CHUNK_ENTRIES", chunk_length * g.n)
        full = trial_block(g, profile, alpha, seed, 0, count)
        shift = float(np.quantile(full.deviation_norm, quantile)) + offset
        gated = level_trial_block(g, profile, alpha, seed, 0, count, lambda devs: shift - devs)
    for name in ("survivor_count", "is_connected", "deviation_norm"):
        assert_identical(getattr(gated, name), getattr(full, name))
    assert np.isnan(gated.lambda2_augmented).all()
    level = shift - full.deviation_norm
    skipped = (level < percolation._a_delta_floor(g)) & (full.survivor_count >= 2)
    assert np.array_equal(np.isnan(gated.a_delta), skipped)
    assert_identical(gated.a_delta[~skipped], full.a_delta[~skipped])
    # every skipped comparison would have held
    assert not np.any(full.a_delta[skipped] < level[skipped])


def two_triangles(weight: float) -> WeightedGraph:
    """Disconnected: a unit triangle and one of the given weight."""
    return WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                             (3, 4, weight), (4, 5, weight), (3, 5, weight)))


@settings(max_examples=60, deadline=None)
@given(graph_profile(min_n=2, max_weight=1e6), st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
       st.integers(0, 2**64 - 1), st.integers(1, 60), st.integers(1, 16),
       st.sampled_from([-math.inf, 1e-8, math.inf]))
@example((two_triangles(1e6), SurvivalProfile([0.9, 0.5, 1.0, 0.2, 0.7, 1.0])), 1.0, 3, 60, 4,
         1e-8)
@example((two_triangles(1.0), SurvivalProfile.uniform(6, 0.8)), 0.0, 0, 30, 7, -math.inf)
@example((generate("hypercube", k=3), SurvivalProfile.uniform(8, 0.9)), 7.2, 0, 60, 16, 1e-8)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 1.0)), 0.0, 0, 10, 3, 1e-8)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.0)), 2.0, 0, 10, 3, -math.inf)
@example((generate("path", n=5), SurvivalProfile([0.0, 1.0, 0.5, 1.0, 0.3])), 0.5, 9, 40, 5,
         math.inf)
@example((WeightedGraph(3), SurvivalProfile.uniform(3, 0.5)), 0.0, 1, 20, 4, -math.inf)
def test_level_gated_run_matches_the_run_that_solves_every_a_delta(case, alpha, seed, trials,
                                                                   chunk_length, slack):
    # the trials CSV prints every a_delta, so with it every survivor block is solved
    g, profile = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_CHUNK_ENTRIES", chunk_length * g.n)
        mp.setattr(harness_cli, "LOWER_BOUND_SLACK", slack)
        gated, gated_violations = harness_cli.run_experiment(g, profile, alpha, 0.25, trials,
                                                             seed)
        full, full_violations = harness_cli.run_experiment(g, profile, alpha, 0.25, trials, seed,
                                                           trials_csv=os.devnull)
    # compared as the report's JSON, where NaN equals NaN and -0.0 differs from 0.0
    assert json.dumps(gated.to_dict()) == json.dumps(full.to_dict())
    assert gated_violations == full_violations


def test_level_gated_run_solves_no_survivor_block_where_every_bound_is_vacuous(monkeypatch):
    # on the 3-cube at p = 0.9 and alpha = 7.2 some lower bounds are positive
    # (1.62 when every vertex survives): exactly those patterns' blocks are solved
    alpha, q3, q3_profile = 7.2, generate("hypercube", k=3), SurvivalProfile.uniform(8, 0.9)
    report = deviation_bound(q3, q3_profile, alpha, 0.1)
    block = trial_block(q3, q3_profile, alpha, 0, 0, 200)
    _, first = np.unique(percolation._unit_uniforms(0, 0, 200, 8) < q3_profile.p, axis=0,
                         return_index=True)
    lower = np.minimum(report.lambda2_expected - block.deviation_norm[first], alpha)
    needed = ((lower - harness_cli.LOWER_BOUND_SLACK >= percolation._a_delta_floor(q3))
              & (block.survivor_count[first] >= 2))
    chunks = record_solves(monkeypatch)
    # the simulate-hypercube8 inputs: every trial's lower bound is below -1,
    # so each stack, one trial's matrix, solves its deviation alone
    g, profile = generate("hypercube", k=8), SurvivalProfile.uniform(256, 0.9)
    harness_cli.run_experiment(g, profile, alpha, 0.1, 10, seed=0)
    assert [[M.shape for M in solved] for solved in chunks] == [[(1, 256, 256)]] * 10
    chunks.clear()
    harness_cli.run_experiment(q3, q3_profile, alpha, 0.1, 200, seed=0)
    [[deviations, *blocks]] = chunks
    assert len(deviations) == len(first)
    assert 0 < sum(len(b) for b in blocks) == np.count_nonzero(needed) < len(first)


def test_a_delta_floor_is_computed_once_per_run(monkeypatch):
    # three chunks of 10 trials, each solved against the floor of the one call
    g, profile = generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)
    floors = []
    a_delta_floor = percolation._a_delta_floor

    def recording(graph):
        floors.append(a_delta_floor(graph))
        return floors[-1]

    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", 10 * g.n)
    full = trial_block(g, profile, 2.4, 0, 0, 25)
    # levels on either side of the floor
    shift = float(np.median(full.deviation_norm))
    monkeypatch.setattr(percolation, "_a_delta_floor", recording)
    gated = level_trial_block(g, profile, 2.4, 0, 0, 25, lambda devs: shift - devs)
    assert floors == [a_delta_floor(g)]
    solved = ~np.isnan(gated.a_delta)
    assert 0 < np.count_nonzero(solved) < 25
    assert_identical(gated.a_delta[solved], full.a_delta[solved])


def test_trial_block_needs_two_vertices():
    g, profile = WeightedGraph(1), SurvivalProfile([0.5])
    with pytest.raises(ValueError, match="lambda"):
        percolation_reference.run_trial(g, profile, 1.0, 0, 0)
    with pytest.raises(ValueError, match="at least 2 vertices"):
        trial_block(g, profile, 1.0, 0, 0, 1)


@st.composite
def matrix_series(draw, max_count=6, max_order=5):
    """(terms, profile): symmetric terms of a common order, one per probability."""
    count = draw(st.integers(1, max_count))
    m = draw(st.integers(1, max_order))
    entries = st.floats(-100.0, 100.0, allow_nan=False)
    raw = np.array(draw(st.lists(entries, min_size=count * m * m, max_size=count * m * m)))
    raw = raw.reshape(count, m, m)
    p = draw(st.lists(probabilities, min_size=count, max_size=count))
    return raw + raw.transpose(0, 2, 1), SurvivalProfile(p)


def assert_series_tail_matches(terms, profile, levels) -> None:
    for t in levels:
        fast = exact_bernoulli_series_tail(terms, profile, t)
        assert fast == oracle_reference.bernoulli_series_tail(terms, profile, t)


def attained_levels(terms, profile) -> list[float]:
    """About ten norms the series attains, and the doubles either side of each:
    the levels where a last-bit change in a norm would flip a >= t."""
    norms = sorted(set(oracle_reference.series_norms(terms, profile).tolist()))
    picked = [*norms[::max(1, len(norms) // 8)], norms[-1]]
    return [float(np.nextafter(x, d)) for x in picked for d in (-np.inf, x, np.inf)]


# ten order-10 terms make 1,024 masks in chunks of 327, the last one partial
SERIES_MULTI_CHUNK = np.stack([
    build_laplacian(generate("cycle", n=10)) * (1.0 + k) + np.diag(np.linspace(-1.0, 1.0, 10)) * k
    for k in range(10)
])


def test_series_multi_chunk_example_spans_chunks():
    chunk = _chunking._chunk_length(SERIES_MULTI_CHUNK.shape[1] ** 2)
    count = 1 << SERIES_MULTI_CHUNK.shape[0]
    assert count > 2 * chunk and count % chunk != 0


@settings(max_examples=80, deadline=None)
@given(matrix_series(), st.floats(0.0, 500.0))
def test_series_tail_matches_mask_by_mask_reference(case, t):
    terms, profile = case
    assert_series_tail_matches(terms, profile, [t, *attained_levels(terms, profile)])


@pytest.mark.parametrize("terms, profile", [
    # 1 x 1 terms: the norm is |sum_i (delta_i - p_i) x_i|
    (np.array([[[1.0]], [[-2.5]], [[0.3]]]), SurvivalProfile([0.9, 0.5, 0.2])),
    # one term
    (np.array([[[2.0, 1.0], [1.0, -3.0]]]), SurvivalProfile([0.35])),
    # two commuting terms whose norm is exactly 1/2 on every mask
    (np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), SurvivalProfile([0.5, 0.5])),
    (SERIES_MULTI_CHUNK, SurvivalProfile(np.linspace(0.05, 0.95, 10))),
], ids=["order1", "one-term", "commuting", "multi-chunk"])
def test_series_tail_pinned_cases(terms, profile):
    assert_series_tail_matches(terms, profile, [0.5, *attained_levels(terms, profile)])


def test_series_tail_cap_raises_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(spectral, "eig_sym", no_work)
    monkeypatch.setattr(oracle, "_pattern_probabilities", no_work)
    terms = [np.eye(1)] * (oracle.MAX_ENUM_VERTICES + 1)
    with pytest.raises(ValueError, match="capped at 20"):
        exact_bernoulli_series_tail(terms, SurvivalProfile.uniform(len(terms), 0.5), 0.1)


# every float, and the ones a CSV must keep apart or spell specially
csv_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308])


def trial_rows_block(rows) -> TrialBlock:
    m, c, a, d, l2 = zip(*rows)
    return TrialBlock(np.array(m, dtype=np.int64), np.array(c, dtype=bool),
                      np.array(a, dtype=float), np.array(d, dtype=float),
                      np.array(l2, dtype=float))


def pattern_block(rows) -> tuple[TrialBlock, np.ndarray]:
    """(block, inverse) as the Monte Carlo stream yields them: block holds
    each distinct row once, told apart by the bits of its values, and row t
    is entry inverse[t]."""
    entries, inverse = {}, []
    for row in rows:
        inverse.append(entries.setdefault(struct.pack("<q?ddd", *row), len(entries)))
    distinct = {k: row for row, k in zip(rows, inverse)}
    return trial_rows_block([distinct[k] for k in range(len(entries))]), np.array(inverse)


@st.composite
def repeated_rows(draw):
    """Trial rows drawn from a pool of a few rows, so most of them repeat."""
    pool = draw(st.lists(st.tuples(st.integers(0, 2**20), st.booleans(), csv_floats,
                                   csv_floats, csv_floats), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(max_examples=150, deadline=None)
@given(repeated_rows(), st.integers(0, 2**64), st.sampled_from([_chunking._ROW_BLOCK, 1, 3]))
# rows equal but for the sign of a zero
@example([(3, True, 0.0, 0.0, -0.0), (3, True, 0.0, -0.0, -0.0), (3, True, -0.0, 0.0, 0.0)], 0,
         _chunking._ROW_BLOCK)
# a_delta +inf below two survivors, subnormal norms, beyond 64-bit trial indices
@example([(1, True, math.inf, 5e-324, 1e-310), (1, True, math.inf, 5e-324, 1e-310),
          (6, False, 0.0, 2.2250738585072009e-308, 0.5)], 2**64 - 1, 2)
def test_trial_rows_match_per_row_reference(rows, start, row_block):
    # row_block rows are written at a time; blocks of 1 and 3 split short runs
    fast, slow = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_ROW_BLOCK", row_block)
        harness_cli._write_trial_rows(fast, start, *pattern_block(rows))
    harness_reference.write_trial_rows(slow, start, trial_rows_block(rows))
    assert fast.getvalue() == slow.getvalue()


def assert_oracle_csv_matches(dist: ExactDistribution) -> None:
    fast, slow = io.StringIO(), io.StringIO()
    dist.write_csv(fast)
    oracle_reference.write_csv(dist, slow)
    assert fast.getvalue() == slow.getvalue()


@st.composite
def exact_tables(draw):
    """An ExactDistribution whose probabilities and statistics repeat."""
    n = draw(st.integers(1, 6))
    count = 1 << n
    values = [draw(st.lists(csv_floats, min_size=1, max_size=4)) for _ in range(2)]
    q, s = (draw(st.lists(st.sampled_from(v), min_size=count, max_size=count)) for v in values)
    return ExactDistribution(n, "a_delta", np.array(q), np.array(s))


@settings(max_examples=100, deadline=None)
@given(exact_tables(), st.integers(1, 70))
@example(ExactDistribution(2, "deviation_norm", np.array([0.25, 0.25, -0.0, 0.0]),
                           np.array([0.0, -0.0, 0.0, -0.0])), _chunking._ROW_BLOCK)
def test_oracle_csv_matches_per_row_reference(dist, row_block):
    # a small row block makes the table span several blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_ROW_BLOCK", row_block)
        assert_oracle_csv_matches(dist)


@settings(max_examples=30, deadline=None)
@given(graph_profile(), st.sampled_from(STATISTIC_KINDS), st.floats(0.0, 10.0))
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.5)), "a_delta", 0.0)
def test_oracle_tables_csv_matches_per_row_reference(case, kind, alpha):
    # a_delta tables hold +inf atoms: every mask with fewer than two survivors
    g, profile = case
    dist = exact_distribution(g, profile, alpha, kind)
    if kind == "a_delta":
        assert math.inf in dist.statistics.tolist()
    assert_oracle_csv_matches(dist)


# values whose exact sum is hard to round or overflows: +inf, signed zeros,
# subnormals and finite values near the largest float
sum_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, math.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 0.1, 1.0,
     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])


def sum_outcome(total) -> object:
    """The bits of the float total() returns, or the type and text of the
    error it raises."""
    try:
        return struct.pack("<d", total())
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def fsum_of(values) -> object:
    return sum_outcome(lambda: math.fsum(values))


# 2,500 rows: two whole blocks and a part
LONG_SUM = np.resize(np.array([1e308, 0.1, 5e-324, -0.0, 1.7976931348623157e308, -1e308,
                               0.3, -1.7976931348623157e308, 2.2250738585072009e-308]), 2500)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(sum_floats, sum_floats), max_size=40), sum_floats,
       st.sampled_from([_chunking._ROW_BLOCK, 1, 3, 7]))
@example([], 0.0, _chunking._ROW_BLOCK)
@example(list(zip(LONG_SUM.tolist(), LONG_SUM[::-1].tolist())), 0.2, _chunking._ROW_BLOCK)
@example([(1e308, 1.0), (1e308, 2.0), (-1e308, 3.0)], 1.5, 1)
@example([(math.inf, math.inf), (0.5, math.inf), (-0.0, 0.0)], math.inf, 3)
# per-block sums would round 1 + 1e-16 down in the first block
@example([(1.0, 1.0), (1e-16, 1.0), (0.0, 1.0), (1e-16, 1.0)], 0.0, 3)
def test_table_sums_are_one_fsum_of_the_whole_selection(rows, t, row_block):
    # a table read a row block at a time sums, or overflows, exactly as
    # math.fsum over its whole selection; t = inf selects nothing
    q, s = (np.array(column, dtype=float) for column in zip(*rows)) if rows else (
        np.empty(0), np.empty(0))
    dist = ExactDistribution(1, "a_delta", q, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_ROW_BLOCK", row_block)
        assert sum_outcome(dist.total_probability) == fsum_of(q.tolist())
        assert sum_outcome(lambda: oracle.exact_tail(dist, t)) == fsum_of(q[s > t].tolist())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(sum_floats, min_size=1 << n,
                                                     max_size=1 << n)),
       st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, math.inf]), st.sampled_from([1, 3, 1 << 15]))
@example([1e308] * 16, 0.5, 3)
@example([-0.0, 5e-324, math.inf, -5e-324], 0.0, 1)
# per-chunk sums would round 1 + 1e-16 down in the first chunk
@example([1.0, 1e-16, 0.0, 1e-16], 0.0, 3)
def test_series_tail_is_one_fsum_of_the_hits(q, t, chunk_entries):
    # n terms X_i = [[1]] at p = 1/2 give the norm |survivors - n/2|, exact,
    # and the pattern probabilities are replaced by q, so the hits are known
    # whichever chunks the masks run in
    n = len(q).bit_length() - 1
    survivors = np.array([bin(mask).count("1") for mask in range(1 << n)])
    hits = np.array(q)[np.abs(survivors - n / 2) >= t]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_pattern_probabilities", lambda p: np.array(q))
        mp.setattr(_chunking, "_CHUNK_ENTRIES", chunk_entries)
        tail = sum_outcome(lambda: oracle.exact_bernoulli_series_tail(
            [np.eye(1)] * n, SurvivalProfile.uniform(n, 0.5), t))
    assert tail == fsum_of(hits.tolist())


@settings(max_examples=50, deadline=None)
@given(st.lists(probabilities, min_size=0, max_size=10))
def test_pattern_probabilities_match_the_doubling_product(p):
    # each mask's probability multiplied up from vertex 0, as a table of
    # concatenated halves would give it
    q = np.ones(1)
    for pi in np.array(p, dtype=float):
        q = np.concatenate([q * (1.0 - pi), q * pi])
    assert_identical(oracle._pattern_probabilities(np.array(p, dtype=float)), q)
