"""How the Monte Carlo stream is cut: chunks of trials sized by their grid of
survival flags, the distinct patterns of a chunk solved in stacks sized by
their matrices.  No cut changes a bit, and the sampling of a chunk stays lean."""
from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

import percolation_reference
from percobound import SurvivalProfile, _chunking, generate, percolation, trial_block
from percobound.harness_cli import EXIT_OK, main

from conftest import level_trial_block

CYCLE = generate("cycle", n=6)
HYPERCUBE4 = generate("hypercube", k=4)
# (graph, profile, alpha, seed, start, count)
RUNS = {
    "cycle6": (CYCLE, SurvivalProfile.uniform(6, 0.8), 2.4, 3, 1000, 400),
    "hypercube4": (HYPERCUBE4, SurvivalProfile.uniform(16, 0.9), 4.0, 11, 77, 300),
}
CHUNK_ENTRIES = [36, 1024, 2**15, 2**18]


@functools.cache
def reference(name: str) -> tuple:
    """Per-trial (survivor count, connected, a_delta, deviation norm,
    lambda2_augmented) arrays of RUNS[name], from the per-trial reference."""
    g, profile, alpha, seed, start, count = RUNS[name]
    rows = [percolation_reference.run_trial(g, profile, alpha, seed, t)[1:]
            for t in range(start, start + count)]
    return tuple(np.array(column) for column in zip(*rows))


def assert_bits(fast: np.ndarray, slow: np.ndarray) -> None:
    assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("shape", [(1, 6), (5461, 6), (128, 256)])
def test_mix_array_is_splitmix64_in_place(shape):
    z = np.random.default_rng(7).integers(0, 2**64, size=shape, dtype=np.uint64)
    expected = [percolation_reference._mix(x) for x in z.ravel().tolist()]
    mixed = percolation._mix_array(z)
    assert mixed is z
    assert z.ravel().tolist() == expected


def test_a_chunks_uniforms_hold_at_most_two_grids():
    # 5,461 trials of the 6-cycle, one chunk: the uint64 grid and one
    # shifted copy of it, then the grid and its float64 uniforms
    count, n = 5461, 6
    percolation._unit_uniforms(0, 0, count, n)  # one-time set-up
    tracemalloc.start()
    try:
        percolation._unit_uniforms(0, 0, count, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * count * n * 8


def test_trial_block_stops_at_the_last_trial_index(monkeypatch):
    # the hash reads 64 bits of a trial index, so trial 2**64 would repeat
    # trial 0; 2**64 trials would not end, so drawing flags fails at once
    g, profile, alpha = CYCLE, SurvivalProfile.uniform(6, 0.8), 2.4
    with monkeypatch.context() as mp:
        mp.setattr(percolation, "_unit_uniforms", lambda *args: pytest.fail("flags were drawn"))
        for start, count in ((2**64 - 1, 2), (2**64, 1), (0, 2**64 + 1)):
            with pytest.raises(ValueError, match="below 2\\*\\*64"):
                trial_block(g, profile, alpha, 0, start, count)
    last = trial_block(g, profile, alpha, 0, 2**64 - 1, 1)
    row = percolation_reference.run_trial(g, profile, alpha, 0, 2**64 - 1)
    assert (int(last.survivor_count[0]), bool(last.is_connected[0]), float(last.a_delta[0]),
            float(last.deviation_norm[0]), float(last.lambda2_augmented[0])) == row[1:]


def record_stacks(monkeypatch) -> list:
    """The number of patterns of every stack the chunk kernel solves, in order."""
    stacks = []
    evaluate_chunk = percolation._evaluate_chunk

    def recording(g, alpha, expected, patterns, *rest):
        stacks.append(len(patterns))
        return evaluate_chunk(g, alpha, expected, patterns, *rest)

    monkeypatch.setattr(percolation, "_evaluate_chunk", recording)
    return stacks


@pytest.mark.parametrize("entries", CHUNK_ENTRIES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_chunk_size_changes_a_bit(monkeypatch, name, entries):
    g, profile, alpha, seed, start, count = RUNS[name]
    survivor_count, connected, a_delta, deviation_norm, lambda2_augmented = reference(name)
    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", entries)
    stacks = record_stacks(monkeypatch)
    block = trial_block(g, profile, alpha, seed, start, count)
    for fast, slow in ((block.survivor_count, survivor_count), (block.is_connected, connected),
                       (block.a_delta, a_delta), (block.deviation_norm, deviation_norm),
                       (block.lambda2_augmented, lambda2_augmented)):
        assert_bits(fast, slow)
    # every stack fits the workspace's n x n matrices
    assert max(stacks) <= _chunking._chunk_length(g.n * g.n)
    # levels on either side of the floor: a_delta is NaN exactly where skipped
    shift = float(np.median(deviation_norm))
    gated = level_trial_block(g, profile, alpha, seed, start, count, lambda devs: shift - devs)
    skipped = ((shift - deviation_norm < percolation._a_delta_floor(g))
               & (survivor_count >= 2))
    assert 0 < np.count_nonzero(skipped) < count
    assert_bits(gated.a_delta, np.where(skipped, np.nan, a_delta))
    for fast, slow in ((gated.survivor_count, survivor_count), (gated.is_connected, connected),
                       (gated.deviation_norm, deviation_norm)):
        assert_bits(fast, slow)
    assert np.isnan(gated.lambda2_augmented).all()


def test_a_hypercube4_chunk_is_solved_in_several_stacks(monkeypatch):
    # 1,024 entries: chunks of 64 trials, stacks of 4 matrices of order 16
    g, profile, alpha, seed, start, count = RUNS["hypercube4"]
    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", 1024)
    stacks = record_stacks(monkeypatch)
    chunks = list(percolation._trial_chunks(g, profile, alpha, seed, start, count))
    assert [len(inverse) for _, (_, inverse) in chunks] == [64] * 4 + [44]
    assert max(stacks) == 4 and len(stacks) > 2 * len(chunks)


SIMULATE = {
    "cycle6": ["--family", "cycle", "--n", "6", "--p", "0.8", "--alpha", "2.4",
               "--epsilon", "0.25", "--trials", "3000", "--seed", "4"],
    "hypercube4": ["--family", "hypercube", "--k", "4", "--p", "0.9", "--alpha", "4.0",
                   "--epsilon", "0.1", "--trials", "300", "--seed", "11"],
}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_keeps_its_bytes_for_any_chunk_size(monkeypatch, tmp_path, name):
    # the report with and without the trials CSV (levels), and the CSV itself
    outputs = set()
    for entries in [_chunking._CHUNK_ENTRIES, *CHUNK_ENTRIES]:
        with monkeypatch.context() as mp:
            mp.setattr(_chunking, "_CHUNK_ENTRIES", entries)
            plain, report, csv_path = (tmp_path / f"{entries}.{suffix}"
                                       for suffix in ("plain.json", "json", "csv"))
            assert main(["simulate", *SIMULATE[name], "--output", str(plain)]) == EXIT_OK
            assert main(["simulate", *SIMULATE[name], "--output", str(report),
                         "--trials-csv", str(csv_path)]) == EXIT_OK
            outputs.add((plain.read_bytes(), report.read_bytes(), csv_path.read_bytes()))
    assert len(outputs) == 1


def test_simulate_cycle6_is_one_chunk_and_one_kernel_call(monkeypatch):
    # simulate-cycle6's inputs: 5,000 trials fit one chunk of 5,461, and its
    # 60 distinct patterns one stack of 910
    stacks = record_stacks(monkeypatch)
    chunks = percolation._trial_chunks(CYCLE, SurvivalProfile.uniform(6, 0.8), 2.4, 0, 0, 5000)
    assert [(first, len(inverse)) for first, (_, inverse) in chunks] == [(0, 5000)]
    assert stacks == [60]


def test_order_256_stacks_hold_one_matrix(monkeypatch):
    # 200 trials of the 8-cube are 2 chunks, of 128 and 72 trials; each
    # distinct pattern is a stack of its own, and the workspace holds one matrix
    g, profile = generate("hypercube", k=8), SurvivalProfile.uniform(256, 0.9)
    assert _chunking._chunk_length(g.n) == 128
    assert _chunking._chunk_length(g.n * g.n) == 1
    sizes = []
    make = percolation._workspace

    def recording_workspace(n):
        views = make(n)

        def recording_views(c):
            sizes.append(c)
            return views(c)
        return recording_views

    monkeypatch.setattr(percolation, "_workspace", recording_workspace)
    stacks = record_stacks(monkeypatch)
    chunks = list(percolation._trial_chunks(g, profile, 7.2, 0, 0, 8,
                                            lambda devs: np.full_like(devs, -np.inf)))
    assert [len(inverse) for _, (_, inverse) in chunks] == [8]
    assert stacks == sizes == [1] * 8
