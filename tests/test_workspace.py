"""The Monte Carlo kernel's per-process workspace against the per-pattern
functions, bit for bit, and the page faults it saves."""
from __future__ import annotations

import math
import resource
import sys

import numpy as np
import pytest

from percobound import (
    SurvivalProfile,
    _chunking,
    algebraic_connectivity_survivors,
    augmented_laplacian,
    expected_augmented_laplacian,
    generate,
    percolation,
    survivor_connectivity,
)
from percobound.graph_core import diagonal_view, edge_laplacian
from percobound.harness_cli import run_experiment
from percobound.spectral import lambda2, spectral_norm

HYPERCUBE = generate("hypercube", k=8)
# (profile, alpha, seed, start, count): four trials whose deviation norms are
# 4.377, 4.516, 4.502 and 4.308
HYPERCUBE_RUN = (SurvivalProfile.uniform(256, 0.9), 7.2, 5, 11, 4)
CYCLE = generate("cycle", n=6)


def slow_path(g, profile, alpha, seed, start, count):
    """Per-trial (survivor count, connected, a_delta, deviation norm,
    lambda2_augmented), each from the per-pattern functions on sample()."""
    expected = expected_augmented_laplacian(g, profile, alpha)
    rows = []
    for t in range(start, start + count):
        delta = percolation.sample(profile, seed, t)
        laplacian = augmented_laplacian(g, delta, alpha)
        rows.append((*survivor_connectivity(g, delta),
                     algebraic_connectivity_survivors(g, delta),
                     spectral_norm(laplacian - expected), lambda2(laplacian)))
    return [np.array(column) for column in zip(*rows)]


def assert_bits(fast: np.ndarray, slow: np.ndarray) -> None:
    assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()


def run_chunks(g, profile, alpha, seed, start, count, levels=None, workers=1):
    """The (first, block, inverse) chunks of one run, and every workspace
    view (laplacians, deviations) its chunks were handed, in order."""
    handed = []
    make = percolation._workspace

    def recording_workspace(n):
        views = make(n)

        def recording_views(c):
            handed.append(views(c))
            return handed[-1]
        return recording_views

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(percolation, "_workspace", recording_workspace)
        chunks = [(first, *chunk) for first, chunk in percolation._trial_chunks(
            g, profile, alpha, seed, start, count, levels, workers)]
    return chunks, handed


def assert_matches_slow_path(chunks, g, profile, alpha, seed, start, count, levels=None):
    survivor_count, connected, a_delta, deviation_norm, lambda2_augmented = slow_path(
        g, profile, alpha, seed, start, count)
    blocks = [block for _, block, _ in chunks]
    assert [first for first, _, _ in chunks] == list(
        np.cumsum([start] + [len(inverse) for _, _, inverse in chunks])[:-1])
    # each pattern's entry, copied to every trial that drew it
    column = lambda name: np.concatenate(  # noqa: E731
        [getattr(block, name)[inverse] for _, block, inverse in chunks])
    assert_bits(column("survivor_count"), survivor_count)
    assert_bits(column("is_connected"), connected)
    assert_bits(column("deviation_norm"), deviation_norm)
    if levels is None:
        assert_bits(column("a_delta"), a_delta)
        assert_bits(column("lambda2_augmented"), lambda2_augmented)
        return
    assert all(np.isnan(b.lambda2_augmented).all() for b in blocks)
    # a_delta is solved exactly where the level reaches the floor, NaN elsewhere
    solved = levels(deviation_norm) >= percolation._a_delta_floor(g)
    assert_bits(column("a_delta")[solved], a_delta[solved])
    assert np.isnan(column("a_delta")[~solved & (survivor_count >= 2)]).all()
    assert solved.any() and not solved.all()


def assert_nothing_aliases_a_workspace(chunks, handed):
    for _, block, inverse in chunks:
        arrays = [*vars(block).values(), inverse]
        for views in handed:
            for view in views:
                assert not any(np.shares_memory(a, view) for a in arrays)


def assert_last_chunk_bit_symmetric(handed):
    # each must equal its transpose bit for bit, so eig_sym solves it as it is
    for stack in handed[-1]:
        assert stack.view(np.uint64).tobytes() == stack.mT.copy().view(np.uint64).tobytes()


def solve_below_4_5(devs: np.ndarray) -> np.ndarray:
    """Levels that solve the survivor block of each trial whose deviation
    norm lies below 4.5, and of no other trial."""
    return np.where(devs < 4.5, math.inf, -math.inf)


@pytest.mark.parametrize("levels", [None, solve_below_4_5], ids=["every-statistic", "levels"])
def test_hypercube_one_trial_chunks_match_the_per_pattern_functions(monkeypatch, levels):
    # chunks of one trial's n flags; a stack holds one matrix from 182 vertices on
    profile, alpha, seed, start, count = HYPERCUBE_RUN
    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", HYPERCUBE.n)
    assert _chunking._chunk_length(HYPERCUBE.n) == _chunking._chunk_length(HYPERCUBE.n ** 2) == 1
    chunks, handed = run_chunks(HYPERCUBE, profile, alpha, seed, start, count, levels)
    assert [(len(block), len(inverse)) for _, block, inverse in chunks] == [(1, 1)] * count
    assert_matches_slow_path(chunks, HYPERCUBE, profile, alpha, seed, start, count, levels)
    assert_nothing_aliases_a_workspace(chunks, handed)
    assert_last_chunk_bit_symmetric(handed)
    # every chunk reuses the first chunk's memory
    assert len(handed) == count
    assert all(np.shares_memory(views, handed[0]) for views in handed)


def test_hypercube_two_workers_give_one_workers_bits(monkeypatch, forks):
    # one-trial chunks, so the forked child runs every other trial
    profile, alpha, seed, start, count = HYPERCUBE_RUN
    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", HYPERCUBE.n)
    monkeypatch.setattr(_chunking, "usable_cpus", lambda: 2)
    one, _ = run_chunks(HYPERCUBE, profile, alpha, seed, start, count, solve_below_4_5, 1)
    assert not forks
    two, _ = run_chunks(HYPERCUBE, profile, alpha, seed, start, count, solve_below_4_5, 2)
    assert len(forks) == 1
    assert_matches_slow_path(two, HYPERCUBE, profile, alpha, seed, start, count,
                             solve_below_4_5)
    for (first_1, block_1, inverse_1), (first_2, block_2, inverse_2) in zip(one, two,
                                                                            strict=True):
        assert first_1 == first_2 and inverse_1.tobytes() == inverse_2.tobytes()
        for a, b in zip(vars(block_1).values(), vars(block_2).values()):
            assert a.tobytes() == b.tobytes()


def solve_below_1_3(devs: np.ndarray) -> np.ndarray:
    """Levels that solve the survivor blocks of 83 of the 6-cycle's 150 trials."""
    return np.where(devs < 1.3, math.inf, -math.inf)


@pytest.mark.parametrize("levels", [None, solve_below_1_3], ids=["every-statistic", "levels"])
def test_cycle_chunks_of_varying_distinct_patterns_match_the_per_pattern_functions(levels):
    # chunks of 72 trials hold 11, 13 and 3 distinct patterns, solved in
    # stacks of at most 12 matrices: the second chunk needs more room than the
    # first and two stacks, and the last chunk is short; every chunk solves
    # all of its distinct patterns
    profile, alpha, seed, count = SurvivalProfile.uniform(6, 0.9), 2.4, 0, 150
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_CHUNK_ENTRIES", 12 * 36)
        chunks, handed = run_chunks(CYCLE, profile, alpha, seed, 0, count, levels)
    assert [len(inverse) for _, _, inverse in chunks] == [72, 72, 6]
    assert [len(block) for _, block, _ in chunks] == [11, 13, 3]
    assert [views.shape[1] for views in handed] == [11, 12, 1, 3]
    assert_matches_slow_path(chunks, CYCLE, profile, alpha, seed, 0, count, levels)
    assert_nothing_aliases_a_workspace(chunks, handed)
    assert_last_chunk_bit_symmetric(handed)


def test_workspace_views_share_one_allocation_until_a_longer_one_is_asked_for():
    views = percolation._workspace(4)
    first = views(3)
    assert first.shape == (2, 3, 4, 4)
    assert all(view.flags.c_contiguous for view in first)
    assert np.shares_memory(views(2), first) and np.shares_memory(views(3), first)
    longer = views(5)
    assert longer.shape == (2, 5, 4, 4) and not np.shares_memory(longer, first)
    assert np.shares_memory(views(1), longer)


def test_edge_laplacian_into_a_used_array_gives_a_new_arrays_bits():
    # out holds another pattern's matrices and NaN; the result has the bits of
    # a fresh assembly and equals its transpose bit for bit
    grid = np.array([[True, False, True, True, True, False],
                     [False, False, False, False, False, False]])
    values = percolation._live_values(CYCLE, grid)
    out = np.full((2, 6, 6), math.nan)
    out[0] = augmented_laplacian(CYCLE, ~grid[0], 3.0)
    fresh = edge_laplacian(CYCLE, values)
    assert edge_laplacian(CYCLE, values, out) is out
    assert_bits(out, fresh)
    assert out.view(np.uint64).tobytes() == out.mT.copy().view(np.uint64).tobytes()


@pytest.mark.parametrize("out", [
    np.zeros((6, 2, 6)).transpose(1, 0, 2),  # right shape, not C-contiguous
    np.zeros((6, 6, 2)).T,                   # Fortran order
    np.zeros((2, 6, 6), dtype=np.float32),
    np.zeros((2, 36)),
    np.zeros((1, 6, 6)),
], ids=["strided", "fortran", "float32", "flat", "short"])
def test_edge_laplacian_rejects_an_out_it_cannot_write_in_place(out):
    # reshape of a non-C-contiguous out would copy, and the writes would be lost
    values = percolation._live_values(CYCLE, np.ones((2, 6), dtype=bool))
    with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
        edge_laplacian(CYCLE, values, out)
    assert not out.any()


def test_diagonal_view_writes_through_or_raises():
    L = np.zeros((2, 3, 3))
    diagonal_view(L)[...] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert_bits(L, np.array([np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0])]))
    with pytest.raises(ValueError, match="C-contiguous"):
        diagonal_view(L.transpose(0, 2, 1)[:, :, ::-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are read from getrusage on Linux")
def test_order_256_trials_fault_in_no_fresh_pages():
    # simulate-hypercube8's trials: before the workspace, each trial faulted
    # in about 234 pages; a chunk's 512 KiB matrix alone is 128 pages
    profile = SurvivalProfile.uniform(256, 0.9)

    def faults(trials: int) -> int:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(HYPERCUBE, profile, 7.2, 0.1, trials, seed=0)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(2)
    assert faults(48) - faults(8) < 32 * 40
