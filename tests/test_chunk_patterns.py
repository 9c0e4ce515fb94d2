"""The distinct survival patterns of a Monte Carlo chunk: each chunk groups
its patterns once and solves each distinct one once, keeps nothing for later
chunks, and nothing it returns can change what a later chunk returns."""
from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

from percobound import SurvivalProfile, _chunking, generate, percolation
from percobound.harness_cli import EXIT_OK, main

CYCLE = generate("cycle", n=6)


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_of_one_pattern_solves_it_once_per_chunk(monkeypatch, tmp_path, p, workers):
    # 7 chunks of 3 trials (3 * n flags each); each chunk solves the one
    # pattern once, chunk i on worker i % workers, and a forked child records
    # its calls in the file as well
    calls = tmp_path / "calls"
    evaluate_chunk = percolation._evaluate_chunk

    def recording(g, alpha, expected, patterns, *rest):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {len(patterns)}\n")
        return evaluate_chunk(g, alpha, expected, patterns, *rest)

    monkeypatch.setattr(percolation, "_evaluate_chunk", recording)
    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", 3 * CYCLE.n)
    monkeypatch.setattr(_chunking, "usable_cpus", lambda: 2)
    profile = SurvivalProfile.uniform(6, p)
    chunks = [chunk for _, chunk in percolation._trial_chunks(CYCLE, profile, 2.4, 0, 0, 21,
                                                              workers=workers)]
    lines = calls.read_text(encoding="utf-8").split()
    pids, counts = lines[::2], lines[1::2]
    assert counts == ["1"] * 7
    assert sorted(Counter(pids).values()) == ([7] if workers == 1 else [3, 4])
    # each chunk of 3 trials holds the one pattern once
    assert [(len(block), inverse.tolist()) for block, inverse in chunks] == [(1, [0] * 3)] * 7
    for block, _ in chunks:
        assert (block.survivor_count == 6 * p).all()


def test_changing_a_returned_block_changes_no_later_chunk():
    # p near 1 on the 6-cycle, in chunks of 6 trials: the chunks draw the
    # same few patterns, so a chunk whose results shared memory with an
    # earlier chunk's block or inverse would pass on the overwritten values
    profile = SurvivalProfile.uniform(6, 0.97)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chunking, "_CHUNK_ENTRIES", 6 * CYCLE.n)
        clean = [[*vars(block).values(), inverse] for _, (block, inverse)
                 in percolation._trial_chunks(CYCLE, profile, 2.4, 3, 0, 60)]
        overwritten = []
        for _, (block, inverse) in percolation._trial_chunks(CYCLE, profile, 2.4, 3, 0, 60):
            arrays = [*vars(block).values(), inverse]
            overwritten.append([a.copy() for a in arrays])
            for a in arrays:
                a[...] = 0
    assert len(clean) == len(overwritten) == 10
    for arrays, copies in zip(clean, overwritten):
        for a, b in zip(arrays, copies, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_reports_and_trials_csv_identical_for_one_and_two_workers(tmp_path, monkeypatch,
                                                                     forks):
    # 327 trials per chunk on the 10-cycle at p = 0.999: 2,000 trials make 7
    # chunks, each holding the pattern where every vertex survives, which
    # both processes solve in each chunk they run
    monkeypatch.setattr(_chunking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", 327 * 10)
    outputs = set()
    for workers in ("1", "2"):
        out, csv_path = tmp_path / f"{workers}.json", tmp_path / f"{workers}.csv"
        monkeypatch.setenv("PERCOBOUND_THREADS", workers)
        forks.clear()
        assert main(["simulate", "--family", "cycle", "--n", "10", "--p", "0.999",
                     "--alpha", "2.0", "--epsilon", "0.25", "--trials", "2000", "--seed", "5",
                     "--output", str(out), "--trials-csv", str(csv_path)]) == EXIT_OK
        assert 1 + len(forks) == int(workers)
        outputs.add((out.read_bytes(), csv_path.read_bytes()))
    assert len(outputs) == 1


@pytest.mark.parametrize("with_csv", [False, True], ids=["report", "trials-csv"])
def test_a_simulate_chunk_is_grouped_once(monkeypatch, tmp_path, with_csv):
    # simulate-cycle6's inputs: 5,000 trials in one chunk; only the trial
    # stream groups a chunk's rows, whether or not the trials CSV is written
    calls = []
    distinct_rows = _chunking._distinct_rows

    def counting(keys):
        calls.append(len(keys))
        return distinct_rows(keys)

    # every module that holds the function, so a later import of it is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("percobound.") and vars(module).get("_distinct_rows") is distinct_rows:
            monkeypatch.setattr(module, "_distinct_rows", counting)
    argv = ["simulate", "--family", "cycle", "--n", "6", "--p", "0.8", "--alpha", "2.4",
            "--epsilon", "0.25", "--trials", "5000", "--output", str(tmp_path / "sim.json")]
    if with_csv:
        argv += ["--trials-csv", str(tmp_path / "trials.csv")]
    assert main(argv) == EXIT_OK
    assert _chunking._chunk_length(6) > 5000
    assert calls == [5000]
