"""Vectorized assembly, the hoisted alpha search, the chunked oracle and the
chunked Monte Carlo kernel against their slow paths."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assembly_reference as ref
import oracle_reference
import percolation_reference
import theory_reference
from percobound import (
    SurvivalProfile,
    WeightedGraph,
    build_adjacency,
    build_laplacian,
    deviation_bound,
    exact_bernoulli_series_tail,
    exact_distribution,
    expected_augmented_laplacian,
    generate,
    optimize_alpha,
    oracle,
    percolation,
    run_trial,
    theory,
    trial_block,
)
from percobound.graph_core import edge_laplacian

from conftest import graph_profile, petersen_graph, petersen_induced_8, probabilities


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
    chunk = percolation._chunk_length(MULTI_CHUNK.n)
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


# 20 vertices make chunks of 81 trials, so 175 trials from trial 40 (not a
# chunk multiple) make two whole chunks and a partial last one
CHUNKED = WeightedGraph(20, tuple(
    (i, j, 0.25 + (5 * i + 11 * j) % 7) for i in range(20) for j in range(i + 1, 20)
    if (3 * i + j) % 4 == 0
))


def test_chunked_example_spans_chunks():
    chunk = percolation._chunk_length(CHUNKED.n)
    assert chunk == 81 and 40 % chunk != 0 and 175 // chunk == 2 and 175 % chunk != 0


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
    assert_identical(np.array([percolation.sample(profile, seed, t).delta
                               for t in range(start, start + count)]), np.array(deltas))
    fast_arrays = [block.survivor_count, block.is_connected, block.a_delta,
                   block.deviation_norm]
    if with_lambda2_augmented:
        fast_arrays.append(block.lambda2_augmented)
    else:
        assert block.lambda2_augmented is None
    for fast, slow in zip(fast_arrays, statistics[:len(fast_arrays)]):
        assert_identical(fast, np.array(slow))


@settings(max_examples=60, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.0, 10.0),
       st.integers(-(2**63), 2**64 - 1), st.integers(0, 2**40), st.integers(1, 4),
       st.booleans())
@example((WeightedGraph(5), SurvivalProfile.uniform(5, 0.5)), 1.0, 0, 0, 3, True)
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.0)), 1.5, 7, 0, 2, True)
@example((petersen_graph(), SurvivalProfile.uniform(10, 1.0)), 1.5, 7, 0, 2, True)
@example((petersen_graph(), SurvivalProfile.uniform(10, 1.0)), 1.5, 7, 0, 2, False)
@example((petersen_graph(), SurvivalProfile.uniform(10, 0.6)), 0.0, 3, 11, 4, True)
@example((petersen_graph(), SurvivalProfile([1.0] + [0.0] * 9)), 2.0, 1, 0, 2, True)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)), 2.4, -5, 3, 4, True)
@example((generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)), 2.4, 2**64 - 1, 0, 4, True)
@example((CHUNKED, SurvivalProfile(np.linspace(0.3, 0.95, 20))), 3.0, 17, 40, 175, True)
@example((CHUNKED, SurvivalProfile(np.linspace(0.3, 0.95, 20))), 3.0, 17, 40, 175, False)
def test_trial_block_matches_per_trial_reference(case, alpha, seed, start, count,
                                                 with_lambda2_augmented):
    g, profile = case
    block = trial_block(g, profile, alpha, seed, start, count,
                        with_lambda2_augmented=with_lambda2_augmented)
    assert_block_matches_reference(block, g, profile, alpha, seed, start, count,
                                   with_lambda2_augmented)
    row = percolation_reference.run_trial(g, profile, alpha, seed, start)
    record = run_trial(g, profile, alpha, seed, start)
    assert_identical(record.sample.delta, row[0])
    assert (record.survivor_count, record.is_connected, record.a_delta,
            record.deviation_norm, record.lambda2_augmented) == row[1:]


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
# a chunk of one trial, as on graphs of 182 vertices or more
@example((generate("path", n=4), SurvivalProfile.uniform(4, 0.5)), 0.5, 1, 0, 30, 1)
def test_distinct_patterns_match_per_trial_reference(case, alpha, seed, start, count,
                                                     chunk_length):
    # small graphs draw few distinct patterns, so chunks repeat many of them;
    # a small chunk length makes start fall inside a chunk and count span several
    g, profile = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(percolation, "_CHUNK_ENTRIES", chunk_length * g.n * g.n)
        assert percolation._chunk_length(g.n) == chunk_length
        block = trial_block(g, profile, alpha, seed, start, count)
    assert_block_matches_reference(block, g, profile, alpha, seed, start, count)


def record_solves(monkeypatch) -> list:
    """Every stack percolation hands to eig_sym, grouped by chunk."""
    chunks = []
    eig_sym, evaluate_chunk = percolation.eig_sym, percolation._evaluate_chunk

    def recording_eig_sym(M):
        chunks[-1].append(np.array(M))
        return eig_sym(M)

    def recording_evaluate_chunk(*args):
        chunks.append([])
        return evaluate_chunk(*args)

    monkeypatch.setattr(percolation, "eig_sym", recording_eig_sym)
    monkeypatch.setattr(percolation, "_evaluate_chunk", recording_evaluate_chunk)
    return chunks


def same_matrices(stack: np.ndarray, matrices: list) -> bool:
    """Whether stack holds exactly these matrices, byte for byte, in any order."""
    return sorted(M.tobytes() for M in stack) == sorted(M.tobytes() for M in matrices)


def test_trial_block_solves_each_distinct_pattern_once(monkeypatch):
    # the simulate-cycle6 benchmark inputs: 5,000 trials in 6 chunks of up to 910
    g, profile = generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)
    alpha, seed, trials = 2.4, 0, 5000
    expected = expected_augmented_laplacian(g, profile, alpha)
    chunks = record_solves(monkeypatch)
    trial_block(g, profile, alpha, seed, 0, trials, expected)
    step = percolation._chunk_length(g.n)
    assert len(chunks) == 6
    distinct_total = 0
    for start, solved in zip(range(0, trials, step), chunks):
        count = min(step, trials - start)
        grid = percolation._unit_uniforms(seed, start, count, g.n) < profile.p
        patterns = np.unique(grid, axis=0)
        distinct_total += len(patterns)
        augmented = [percolation.augmented_laplacian(
            g, percolation.PercolationSample(delta, seed, 0), alpha) for delta in patterns]
        *blocks, deviations, augmented_stack = solved
        assert same_matrices(augmented_stack, augmented)
        assert_identical(deviations, augmented_stack - expected)
        # one survivor block per pattern with two survivors or more
        assert sum(len(b) for b in blocks) == np.count_nonzero(patterns.sum(axis=1) >= 2)
    assert distinct_total == 299


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
    trial_block(g, profile, alpha, 3, 0, 20, with_lambda2_augmented=False)
    [without] = chunks
    assert len(without) == len(solved) - 1
    assert not any(same_matrices(M, distinct) for M in without)


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
    chunk = percolation._chunk_length(SERIES_MULTI_CHUNK.shape[1])
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

    monkeypatch.setattr(oracle, "eig_sym", no_work)
    monkeypatch.setattr(oracle, "_pattern_probabilities", no_work)
    terms = [np.eye(1)] * (oracle.MAX_ENUM_VERTICES + 1)
    with pytest.raises(ValueError, match="capped at 20"):
        exact_bernoulli_series_tail(terms, SurvivalProfile.uniform(len(terms), 0.5), 0.1)
