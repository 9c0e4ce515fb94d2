"""End-to-end command-line tests driven through main(argv)."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import percobound
from percobound import (
    SurvivalProfile,
    _chunking,
    harness_cli,
    exact_distribution,
    percolation,
    generate,
    graph_to_dict,
    read_graph,
    survival_threshold,
    trial_block,
    write_graph,
)
from percobound.harness_cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
    resolve_threads,
    run_experiment,
)
from percobound.oracle import STATISTIC_KINDS
from percobound._chunking import _chunk_length

import harness_reference
import theory_reference

from conftest import petersen_graph


def run_cli(argv):
    return main(argv)


def strict_json(text: str):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_cli_warning_free(argv) -> int:
    """main(argv), asserting that no warning, numpy's RuntimeWarning among
    them, was raised: pytest would keep one from reaching stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    assert caught == []
    return code


class TestGenerate:
    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "paley13.json"
        assert run_cli(["generate", "--family", "paley", "--q", "13",
                        "--output", str(out)]) == EXIT_OK
        assert read_graph(out) == generate("paley", q=13)

    @pytest.mark.parametrize("argv, sha256", [
        (["--family", "paley", "--q", "13"],
         "643b0bf34ff82ecdd1d6833c61b2b5c9a3f6167cd14a33c58bcb8cd35739c6c1"),
        (["--family", "hypercube", "--k", "4"],
         "4c240744264dc6f1b04b91c2a47ba30ea6dc141a20ffdce2c1e23d4eae471e16"),
        (["--family", "cycle", "--n", "5"],
         "15a07bf09c26135f6ecf4f1d01415b1179c4b05672c6733e4b9bcecec6aa9223"),
    ], ids=["paley-13", "hypercube-4", "cycle-5"])
    def test_writes_pinned_bytes(self, tmp_path, argv, sha256):
        # the bytes written while graphs still stored one tuple per edge
        out = tmp_path / "g.json"
        assert run_cli(["generate", *argv, "--output", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_random_regular_respects_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(["generate", "--family", "random_regular", "--n", "12",
                            "--d", "3", "--seed", "7", "--output", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert read_graph(a) == generate("random_regular", n=12, d=3, seed=7)

    def test_stdout_json_parses(self, capsys):
        assert run_cli(["generate", "--family", "cycle", "--n", "5"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5
        assert len(payload["edges"]) == 5


class TestCertify:
    def test_petersen_from_file(self, tmp_path, capsys):
        path = tmp_path / "petersen.json"
        write_graph(petersen_graph(), path)
        assert run_cli(["certify", "--graph", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_regular"] is True
        assert payload["d"] == 3
        assert payload["lambda"] == pytest.approx(2.0, abs=1e-10)
        assert payload["lambda_equals_d"] is False
        assert payload["version"]
        assert payload["config"]["graph_source"] == {"file": str(path)}

    def test_hypercube_is_flagged(self, capsys):
        assert run_cli(["certify", "--family", "hypercube", "--k", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 3
        assert payload["lambda_equals_d"] is True


class TestBound:
    def test_c4_fixed_alpha_payload(self, capsys):
        assert run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.9",
                        "--alpha", "1.8", "--epsilon", "0.1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == pytest.approx(8.7630291177550832, abs=1e-9)
        assert payload["lambda2_expected"] == pytest.approx(1.8)
        assert payload["config"]["alpha"] == 1.8
        assert payload["config"]["epsilon"] == 0.1
        assert payload["version"]

    def test_auto_alpha_echoed_and_choice_reported(self, capsys):
        assert run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.8",
                        "--alpha", "auto", "--epsilon", "0.2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["alpha"] == "auto"
        assert payload["alpha"] == pytest.approx(1.6, abs=1e-12)

    def test_profile_file(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text("[0.9, 0.7, 0.5, 0.3]")
        assert run_cli(["bound", "--family", "cycle", "--n", "4",
                        "--profile", str(prof), "--alpha", "0.8",
                        "--epsilon", "0.25"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["profile"] == {"file": str(prof)}
        assert payload["total"] > 0.0

    def test_csv_format_flattens(self, capsys):
        assert run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.9",
                        "--alpha", "1.8", "--epsilon", "0.1",
                        "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["total"]) == pytest.approx(8.7630291177550832, abs=1e-9)
        assert table["config.graph_source.family"] == '"cycle"'
        assert float(table["config.epsilon"]) == 0.1


@pytest.mark.parametrize("command", [["bound"], ["simulate", "--trials", "50"]],
                         ids=["bound", "simulate"])
@pytest.mark.parametrize("profile", ["uniform", "file"])
def test_auto_alpha_report_equals_full_scan(tmp_path, monkeypatch, command, profile):
    # the pruned search and the exhaustive scan in one process: the same bytes
    # for any BLAS thread count, unlike a pinned digest
    if profile == "file":
        path = tmp_path / "prof.json"
        path.write_text(json.dumps([round(0.3 + 0.05 * i, 2) for i in range(13)]))
        source = ["--profile", str(path)]
    else:
        source = ["--p", "0.7"]
    argv = [*command, "--family", "paley", "--q", "13", *source, "--alpha", "auto",
            "--epsilon", "0.1"]
    pruned, full = tmp_path / "pruned.json", tmp_path / "full.json"
    assert run_cli(argv + ["--output", str(pruned)]) == EXIT_OK
    monkeypatch.setattr(harness_cli, "optimize_alpha", theory_reference.optimize_alpha)
    assert run_cli(argv + ["--output", str(full)]) == EXIT_OK
    assert pruned.read_bytes() == full.read_bytes()


class TestSimulate:
    ARGS = ["simulate", "--family", "cycle", "--n", "4", "--p", "0.9",
            "--alpha", "1.8", "--epsilon", "0.1", "--trials", "200",
            "--seed", "42"]

    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run_cli(self.ARGS + ["--output", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["n_trials"] == 200
        assert payload["lower_bound_violations"] == 0
        assert payload["tail_within_tolerance"] is True
        assert payload["empirical_tail_at_bound"] <= payload["tail_tolerance"]
        assert payload["bound_report"]["total"] == pytest.approx(8.7630291177550832, abs=1e-9)

    def test_byte_identical_across_runs_and_thread_counts(self, tmp_path, monkeypatch, forks):
        # as on 4 CPUs or more, so PERCOBOUND_THREADS=4 is not capped; 8,192
        # trials per chunk on the 4-cycle, so 30,000 trials make 4 chunks
        monkeypatch.setattr(_chunking, "usable_cpus", lambda: 4)
        assert -(-30_000 // _chunk_length(4)) == 4
        outputs, workers = [], []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}.json"
            monkeypatch.setenv("PERCOBOUND_THREADS", threads)
            forks.clear()
            assert run_cli(self.ARGS + ["--trials", "30000", "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
            workers.append(1 + len(forks))
        assert workers == [1, 1, 4]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_trials_csv(self, tmp_path):
        out = tmp_path / "sim.json"
        csv_path = tmp_path / "trials.csv"
        assert run_cli(self.ARGS + ["--output", str(out),
                                    "--trials-csv", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("trial_index,survivor_count,is_connected,")
        assert len(lines) == 1 + 200
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] in ("0", "1")

    def test_report_identical_with_and_without_trials_csv(self, tmp_path):
        # lambda2_augmented is solved only for the CSV; the report never reads it
        plain, with_csv = tmp_path / "plain.json", tmp_path / "with_csv.json"
        assert run_cli(self.ARGS + ["--output", str(plain)]) == EXIT_OK
        assert run_cli(self.ARGS + ["--output", str(with_csv),
                                    "--trials-csv", str(tmp_path / "trials.csv")]) == EXIT_OK
        assert plain.read_bytes() == with_csv.read_bytes()

    @pytest.mark.parametrize("seed, alias", [(5, 2**64 + 5), (2**64 - 1, -1)])
    def test_seed_outside_64_bits_is_a_usage_error(self, tmp_path, capsys, seed, alias):
        # the sampler hashes 64 bits of the seed, so the alias used to write
        # its seed's trials CSV while its report echoed another seed
        paths = {name: (tmp_path / f"{name}.json", tmp_path / f"{name}.csv")
                 for name in ("seed", "alias")}
        for name, value in (("seed", seed), ("alias", alias)):
            out, csv_path = paths[name]
            code = run_cli(self.ARGS + ["--seed", str(value), "--output", str(out),
                                        "--trials-csv", str(csv_path)])
            assert code == (EXIT_OK if name == "seed" else EXIT_USAGE)
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {alias}\n"
        assert json.loads(paths["seed"][0].read_text())["config"]["seed"] == seed
        assert not any(path.exists() for path in paths["alias"])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_edge_values_write_their_own_trials(self, tmp_path, seed):
        out, csv_path = tmp_path / "sim.json", tmp_path / "trials.csv"
        assert run_cli(self.ARGS + ["--seed", str(seed), "--output", str(out),
                                    "--trials-csv", str(csv_path)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["seed"] == seed
        expected = io.StringIO()
        expected.write(harness_cli.TRIALS_CSV_HEADER)
        harness_reference.write_trial_rows(expected, 0, trial_block(
            generate("cycle", n=4), SurvivalProfile.uniform(4, 0.9), 1.8, seed, 0, 200))
        assert csv_path.read_text() == expected.getvalue()

    @pytest.mark.parametrize("bad", [["--trials", "0", "--epsilon", "0.1"],
                                     ["--trials", "20", "--epsilon", "1.5"]])
    def test_usage_error_leaves_trials_csv_untouched(self, tmp_path, capsys, bad):
        csv_path = tmp_path / "trials.csv"
        csv_path.write_text("kept\n")
        argv = ["simulate", "--family", "cycle", "--n", "4", "--p", "0.9",
                "--alpha", "1.8", "--trials-csv", str(csv_path)] + bad
        assert run_cli(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert csv_path.read_text() == "kept\n"

    def test_trials_past_the_last_trial_index_are_a_usage_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # trial 2**64 would repeat trial 0; a run that started would not end,
        # so drawing any flags fails the test at once
        def no_flags(*args):
            raise AssertionError("trials were drawn")

        monkeypatch.setattr(percolation, "_unit_uniforms", no_flags)
        csv_path = tmp_path / "trials.csv"
        csv_path.write_text("kept\n")
        argv = ["simulate", "--family", "cycle", "--n", "4", "--p", "0.9", "--alpha", "1.8",
                "--epsilon", "0.1", "--trials", str(2**64 + 1), "--trials-csv", str(csv_path)]
        assert run_cli(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: trial indices must lie below 2**64, got 0, ..., {2**64}\n")
        assert csv_path.read_text() == "kept\n"

    def test_reports_and_csv_identical_for_one_two_three_threads(self, tmp_path, monkeypatch,
                                                                  forks):
        # 327 trials per chunk on the 10-cycle: 2,000 trials make 7 chunks;
        # as on 3 CPUs or more, so PERCOBOUND_THREADS=3 is not capped
        monkeypatch.setattr(_chunking, "usable_cpus", lambda: 3)
        monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", 327 * 10)
        outputs = set()
        for threads in ("1", "2", "3"):
            out, csv_path = tmp_path / f"{threads}.json", tmp_path / f"{threads}.csv"
            monkeypatch.setenv("PERCOBOUND_THREADS", threads)
            forks.clear()
            assert run_cli(["simulate", "--family", "cycle", "--n", "10", "--p", "0.8",
                            "--alpha", "2.0", "--epsilon", "0.25", "--trials", "2000",
                            "--seed", "77", "--output", str(out),
                            "--trials-csv", str(csv_path)]) == EXIT_OK
            assert 1 + len(forks) == int(threads)
            outputs.add((out.read_bytes(), csv_path.read_bytes()))
        assert len(outputs) == 1

    def test_failed_validation_names_violating_trials(self, c4, monkeypatch, capsys):
        # with every survivor set connected and an infinite slack every trial
        # violates; the report stays as it is, stderr names the first trials
        monkeypatch.setattr(harness_cli, "LOWER_BOUND_SLACK", -math.inf)
        argv = ["simulate", "--family", "cycle", "--n", "4", "--p", "1.0",
                "--alpha", "1.8", "--epsilon", "0.1", "--trials", "20"]
        assert run_cli(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["lower_bound_violations"] == 20
        summary, violations = run_experiment(c4, SurvivalProfile.uniform(4, 1.0), 1.8, 0.1,
                                             trials=20, seed=0)
        assert [t for t, _, _ in violations] == [0, 1, 2, 3, 4]
        assert summary.to_dict() == {k: v for k, v in payload.items()
                                     if k not in ("version", "config")}
        assert "20 lower-bound violations" in captured.err
        for t, a_delta, lower in violations:
            assert f"trial {t}: a_delta {a_delta!r} < lower bound {lower!r}" in captured.err
        assert "trial 5:" not in captured.err

    def test_failed_validation_names_violating_trials_where_every_bound_is_vacuous(
            self, monkeypatch, capsys):
        # at p = 0.5 every trial's lower bound is below -0.25, so at the default
        # slack nothing fails and no survivor block needs solving; an infinite
        # slack must still make every trial with two or more survivors a violation
        g, profile = generate("cycle", n=6), SurvivalProfile.uniform(6, 0.5)
        argv = ["simulate", "--family", "cycle", "--n", "6", "--p", "0.5", "--alpha", "0.5",
                "--epsilon", "0.1", "--trials", "40", "--seed", "2"]
        assert run_cli(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["bound_report"]["a_lower_bound"] < 0
        monkeypatch.setattr(harness_cli, "LOWER_BOUND_SLACK", -math.inf)
        assert run_cli(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        counts = trial_block(g, profile, 0.5, 2, 0, 40).survivor_count
        violating = np.flatnonzero(counts >= 2).tolist()
        assert violating[:5] == [0, 2, 4, 5, 6]  # trials 1 and 3 have one survivor or none
        assert json.loads(captured.out)["lower_bound_violations"] == len(violating)
        summary, violations = run_experiment(g, profile, 0.5, 0.1, trials=40, seed=2)
        assert summary.lower_bound_violations == len(violating)
        assert [t for t, _, _ in violations] == violating[:5]
        assert f"{len(violating)} lower-bound violations" in captured.err
        for t, a_delta, lower in violations:
            assert f"trial {t}: a_delta {a_delta!r} < lower bound {lower!r}" in captured.err
        for t in (1, 3, violating[5]):
            assert f"trial {t}:" not in captured.err

    def test_trials_csv_written_to_a_path(self, c4, tmp_path):
        csv_path = tmp_path / "trials.csv"
        run_experiment(c4, SurvivalProfile.uniform(4, 0.6), 1.0, 0.25, trials=30, seed=3,
                       trials_csv=csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == harness_cli.TRIALS_CSV_HEADER.strip()
        assert [line.split(",")[0] for line in lines[1:]] == [str(t) for t in range(30)]

    @staticmethod
    def _traced_peaks(csv_path, threads, trial_counts):
        g, profile = generate("cycle", n=6), SurvivalProfile.uniform(6, 0.8)
        run_experiment(g, profile, 2.4, 0.25, 100, seed=9, threads=threads)  # one-time set-up
        peaks = []
        for trials in trial_counts:
            tracemalloc.start()
            try:
                run_experiment(g, profile, 2.4, 0.25, trials, seed=9, threads=threads,
                               trials_csv=csv_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_memory_does_not_grow_with_trials(self, tmp_path):
        # 5,461 trials per chunk on the 6-cycle: 2 whole chunks and a part,
        # then 10 and a part
        small, large = self._traced_peaks(tmp_path / "trials.csv", 1, (12_000, 60_000))
        assert large <= 1.25 * small

    def test_memory_does_not_grow_with_trials_on_two_threads(self, tmp_path):
        # two workers: this process evaluates every other chunk and unpickles
        # the rest from one forked child, whose own memory tracemalloc does not
        # see.  The child runs at most a pipe buffer ahead, and each chunk it
        # sends is read only when its turn in the trial order comes, so the
        # peak here holds about one chunk of each kind, the same at 100,000
        # trials (19 chunks) as at 20,000 (4 chunks); a reader that took in
        # every chunk the child sent, before its turn, would hold about five
        # times as much at 100,000 trials
        small, large = self._traced_peaks(tmp_path / "trials.csv", 2, (20_000, 100_000))
        assert large <= 1.25 * small

    def test_hypercube_report_identical_for_one_and_two_workers(self, tmp_path, monkeypatch,
                                                                 forks):
        # chunks of one trial's 256 flags, so the child runs every other trial
        # with OpenBLAS threads of its own; the CSV needs all three eigensolves
        monkeypatch.setattr(_chunking, "usable_cpus", lambda: 2)
        monkeypatch.setattr(_chunking, "_CHUNK_ENTRIES", 256)
        outputs = set()
        for workers in ("1", "2"):
            out, csv_path = tmp_path / f"{workers}.json", tmp_path / f"{workers}.csv"
            monkeypatch.setenv("PERCOBOUND_THREADS", workers)
            forks.clear()
            assert run_cli(["simulate", "--family", "hypercube", "--k", "8", "--p", "0.9",
                            "--alpha", "7.2", "--epsilon", "0.1", "--trials", "6",
                            "--output", str(out), "--trials-csv", str(csv_path)]) == EXIT_OK
            assert 1 + len(forks) == int(workers)
            outputs.add((out.read_bytes(), csv_path.read_bytes()))
        assert len(outputs) == 1

    def test_monte_carlo_agrees_with_exhaustive_probability(self, c4):
        # connected fraction from 10^4 trials vs the exact enumeration
        profile = SurvivalProfile.uniform(4, 0.7)
        dist = exact_distribution(c4, profile, alpha=1.0,
                                  statistic_kind="connectivity_indicator")
        exact = math.fsum(q for q, s in zip(dist.probabilities, dist.statistics)
                          if s == 1.0)
        summary, _ = run_experiment(c4, profile, 1.0, 0.25, trials=10_000,
                                    seed=2024, threads=resolve_threads())
        se = math.sqrt(exact * (1.0 - exact) / 10_000)
        assert abs(summary.connected_fraction - exact) <= 3.0 * se


def scaled_sum(chunk) -> int:
    """_scaled_sum of a chunk of (value, count) pairs."""
    values, counts = zip(*chunk) if chunk else ((), ())
    return harness_cli._scaled_sum(np.array(values, dtype=float), np.array(counts, dtype=int))


@given(st.lists(st.lists(st.tuples(st.floats(0.0, 1e300) | st.floats(0.0, 1e-300),
                                   st.integers(1, 5)), max_size=30),
                max_size=6))
# values that repeat within a chunk, and zeros
@example([[(2.5, 1), (1e-300, 1), (2.5, 2)], [(0.0, 2)], [], [(5e-324, 30)]])
@example([[(0.0, 1)], [(0.0, 1), (0.0, 2)]])
@example([[(1e300, 30)], [(1.0, 30)], [(1e300, 10), (1.0, 10), (1e-300, 10)]])
# a count as large as a run's trials
@example([[(5e-324, 10**6)], [(1.0, 1)]])
@settings(deadline=None)
def test_partials_fold_equals_one_fsum(chunks):
    # the deviation sum is folded chunk by chunk, each value times the
    # trials that drew it, yet must round like one math.fsum over every
    # trial, as Shewchuk's partial sums do
    values = [v for chunk in chunks for v, count in chunk for _ in range(count)]
    scaled = sum(scaled_sum(chunk) for chunk in chunks)
    assert scaled / harness_cli._ULP_SCALE == math.fsum(values)
    if values:
        assert harness_cli._mean(scaled, len(values)) == math.fsum(values) / len(values)
    partials = []
    for chunk in chunks:
        harness_reference.add_to_partials(partials, [v for v, count in chunk
                                                     for _ in range(count)])
    assert math.fsum(partials) == math.fsum(values)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("cycle", {"n": 6}), ("path", {"n": 5}), ("complete", {"n": 4}),
                        ("hypercube", {"k": 3})]),
       st.sampled_from([0.5, 0.8, 0.97]), st.sampled_from([0.5, 2.4]), st.integers(1, 150),
       st.integers(0, 2**64 - 1), st.integers(1, 12), st.booleans(), st.booleans(),
       st.booleans())
# three chunks of 910 trials, whose patterns repeat across them
@example(("cycle", {"n": 6}), 0.8, 2.4, 2000, 0, 910, False, True, True)
@example(("cycle", {"n": 6}), 0.8, 2.4, 2000, 0, 910, True, False, False)
@example(("cycle", {"n": 6}), 0.97, 2.4, 150, 7, 4, True, True, True)
def test_per_pattern_fold_matches_a_per_trial_fold(graph, p, alpha, trials, seed, chunk,
                                                   vacuous_slack, median_total, with_csv):
    # run_experiment folds each distinct pattern of a chunk once, times the
    # trials that drew it; a per-trial fold of trial_block must agree, with
    # chunks of `chunk` trials, an infinite slack that makes violations span
    # chunks, and a bound total at the median norm, so that the tail counts
    # some trials
    g = generate(graph[0], **graph[1])
    profile = SurvivalProfile.uniform(g.n, p)
    block = trial_block(g, profile, alpha, seed, 0, trials)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        if median_total:
            total, bound = float(np.median(block.deviation_norm)), harness_cli.deviation_bound
            mp.setattr(harness_cli, "deviation_bound",
                       lambda *args: dataclasses.replace(bound(*args), total=total))
        if chunk is not None:
            mp.setattr(_chunking, "_CHUNK_ENTRIES", chunk * g.n)
        if vacuous_slack:
            mp.setattr(harness_cli, "LOWER_BOUND_SLACK", -math.inf)
        slack = harness_cli.LOWER_BOUND_SLACK
        csv_path = os.path.join(tmp, "trials.csv") if with_csv else None
        summary, violations = run_experiment(g, profile, alpha, 0.25, trials, seed,
                                             trials_csv=csv_path)
        if with_csv:
            with open(csv_path, encoding="utf-8") as fh:
                csv = fh.read()
    report = summary.bound_report
    connected, tail, max_dev, mean, count, expected = harness_reference.fold_trials(
        block, report.lambda2_expected, report.total, alpha, slack, harness_cli.VIOLATIONS_SHOWN)
    assert summary.n_trials == trials
    assert summary.connected_fraction == connected / trials
    assert summary.empirical_tail_at_bound == tail / trials
    assert summary.max_deviation_norm == max_dev
    assert summary.mean_deviation_norm == mean
    assert summary.lower_bound_violations == count
    assert violations == expected
    if vacuous_slack:
        assert count == np.count_nonzero(block.survivor_count >= 2)
    if with_csv:
        reference = io.StringIO()
        reference.write(harness_cli.TRIALS_CSV_HEADER)
        harness_reference.write_trial_rows(reference, 0, block)
        assert csv == reference.getvalue()


def test_mean_of_a_sum_beyond_the_float_range(c4):
    # math.fsum of these norms overflows, their mean does not
    for count in (4, 10**6):
        with pytest.raises(OverflowError):
            math.fsum([1.5e308] * count)
        assert harness_cli._mean(scaled_sum([(1.5e308, count)]), count) == 1.5e308
    summary, _ = run_experiment(c4, SurvivalProfile.uniform(4, 0.5), 1e308, 0.1,
                                trials=200, seed=0)
    assert 0.0 < summary.mean_deviation_norm <= summary.max_deviation_norm < math.inf


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="eigvalsh of order 256 differs in its last bits between 1 and "
                   "2 OpenBLAS threads, and BLAS threads are not pinned")
def test_bound_report_identical_for_one_and_two_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(percobound.__file__))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "percobound.harness_cli", "bound",
                        "--family", "hypercube", "--k", "8", "--p", "0.9", "--alpha", "7.2",
                        "--epsilon", "0.1", "--output", str(out)], env=env, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# a fixed non-uniform profile for paley-29; no benchmark workload runs one
PINNED_PROFILE = [round(0.6 + 0.013 * k, 3) for k in range(29)]
_PALEY29 = ["--family", "paley", "--q", "29"]
_THRESHOLD = ["threshold", "--n", "64", "--d", "63", "--lambda", "1", "--epsilon", "0.1"]
_SIMULATE = ["simulate", "--family", "cycle", "--n", "6", "--p", "0.8", "--alpha", "2.4",
             "--epsilon", "0.1", "--trials", "2000"]
_ORACLE = ["oracle", "--family", "cycle", "--n", "10", "--p", "0.7", "--alpha", "1.5"]
# every command's report, each written to a path relative to the working
# directory, so the echoed profile path is the same bytes in any directory
PINNED_COMMANDS = [
    ["certify", *_PALEY29, "--output", "certify.json"],
    [*_THRESHOLD, "--output", "threshold-closed_form.json"],
    [*_THRESHOLD, "--mode", "bisection", "--output", "threshold-bisection.json"],
    ["bound", "--family", "hypercube", "--k", "4", "--p", "0.9", "--alpha", "1.5",
     "--epsilon", "0.1", "--output", "bound-p-fixed.json"],
    ["bound", "--family", "hypercube", "--k", "4", "--p", "0.9", "--alpha", "1.5",
     "--epsilon", "0.1", "--format", "csv", "--output", "bound-p-fixed.csv"],
    ["bound", *_PALEY29, "--p", "0.95", "--alpha", "auto", "--epsilon", "0.1",
     "--output", "bound-p-auto.json"],
    ["bound", *_PALEY29, "--profile", "profile.json", "--alpha", "2", "--epsilon", "0.1",
     "--output", "bound-profile-fixed.json"],
    ["bound", *_PALEY29, "--profile", "profile.json", "--alpha", "auto", "--epsilon", "0.1",
     "--output", "bound-profile-auto.json"],
    [*_SIMULATE, "--trials-csv", "trials.csv", "--output", "simulate.json"],
    # without the CSV the kernel runs in its level mode: the same report bytes
    [*_SIMULATE, "--output", "simulate-levels.json"],
    [*_ORACLE, "--kind", "deviation_norm", "--output", "oracle.csv"],
    [*_ORACLE, "--kind", "a_delta", "--format", "json", "--output", "oracle.json"],
]
# runs each command line of the JSON list on stdin through main and prints
# the exit codes
_RUN_COMMANDS = ("import json, sys\n"
                 "from percobound.harness_cli import main\n"
                 "print(json.dumps([main(argv) for argv in json.load(sys.stdin)]))\n")
# the SHA-256 of every file the commands write, as written while each
# command still built its own report envelope and picked its own stream
PINNED_DIGESTS = {
    "bound-p-auto.json":
        "e08451e4fcd3343df40ac5c604e5612ca94de90764b30f89bc444b9b415734c4",
    "bound-p-fixed.csv":
        "820de44dffab3a6681d3e7e297f7ce3d614e12a14337e35d25cba81ef70f471b",
    "bound-p-fixed.json":
        "c38d17dcb0ed3d448d058fce93035c92cbee0fe9f76b7206feb99733513920b0",
    "bound-profile-auto.json":
        "552f503bbdb63639fc3a4ce7096417d2c92d6fdfb0356d643b0a111ed9565307",
    "bound-profile-fixed.json":
        "192a24d27441f21893e4c3aa7023f5e35e518393f3370617e53595eb7b8ac77b",
    "certify.json":
        "38da614c8e710dae28fb00e1c36046827c1ebe1cd5d515c267ca58fc21d68481",
    "oracle.csv":
        "bdf3d0446f2fc78f383e2b77897836d54506c3214886d52deacca20996870a87",
    "oracle.json":
        "1092711497d56815ba2cd17c71cd43ee50779e1521af7b0d4f6738e413c5f328",
    "simulate-levels.json":
        "bb3c53b1f168a28b681e0137a2bba77ccfaf3c801de521a0a2d36b015a6ae1c3",
    "simulate.json":
        "bb3c53b1f168a28b681e0137a2bba77ccfaf3c801de521a0a2d36b015a6ae1c3",
    "threshold-bisection.json":
        "e9a439dee901c6accbef781a364caf023d1207b4f7a3184d4aea36e9f58ce6f1",
    "threshold-closed_form.json":
        "69cd89abd9066562a80acc280c1cc20f7f29682e9e53f1621753ce06f25acff1",
    "trials.csv":
        "72af534b94ea80e9b2ffb897e7cb4ba0d8e462c00ffd98cb69d654be9979c23f",
}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_every_report_keeps_its_pinned_bytes(tmp_path, blas_threads):
    # a new process per BLAS thread count, which only takes effect at import
    (tmp_path / "profile.json").write_text(json.dumps(PINNED_PROFILE), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(percobound.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _RUN_COMMANDS], input=json.dumps(PINNED_COMMANDS),
                          capture_output=True, text=True, cwd=tmp_path, env=env, check=True)
    assert json.loads(done.stdout) == [EXIT_OK] * len(PINNED_COMMANDS)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir()) if path.name != "profile.json"}
    assert written == PINNED_DIGESTS
    # every report is JSON, or CSV rows of JSON values: no Infinity, no NaN
    for name in PINNED_DIGESTS:
        if name.endswith(".json"):
            strict_json((tmp_path / name).read_text(encoding="utf-8"))
    for line in (tmp_path / "bound-p-fixed.csv").read_text(encoding="utf-8").splitlines()[1:]:
        strict_json(line.split(",", 1)[1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="an address-space limit makes allocations fail on Linux")
def test_allocation_failure_is_a_usage_error():
    # the child limits its own address space, so the bound's dense
    # (20000, 20000) matrix cannot be allocated; the test process keeps its limits
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    src = os.path.dirname(os.path.dirname(percobound.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "percobound.harness_cli", "bound",
                           "--family", "cycle", "--n", "20000", "--p", "0.9", "--alpha", "1",
                           "--epsilon", "0.1"], capture_output=True, text=True, env=env,
                          preexec_fn=limit_address_space)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: Unable to allocate ")


_CYCLE4 = ["--family", "cycle", "--n", "4", "--p", "0.9"]


@pytest.mark.parametrize("argv", [
    ["bound", *_CYCLE4, "--alpha", "1", "--epsilon", "1e-310"],
    ["bound", *_CYCLE4, "--alpha", "auto", "--epsilon", "5e-324"],
    ["simulate", *_CYCLE4, "--alpha", "1", "--epsilon", "1e-310", "--trials", "20"],
    ["simulate", *_CYCLE4, "--alpha", "auto", "--epsilon", "5e-324", "--trials", "20"],
    ["threshold", "--n", "10", "--d", "3", "--lambda", "1", "--epsilon", "1e-310"],
    ["threshold", "--n", "10", "--d", "3", "--lambda", "1", "--epsilon", "1e-310",
     "--mode", "bisection"],
    ["threshold", "--n", str(10**400), "--d", "3", "--lambda", "1", "--epsilon", "0.1"],
], ids=["bound", "bound-auto", "simulate", "simulate-auto", "threshold", "threshold-bisection",
        "threshold-huge-n"])
def test_log_4n_over_epsilon_beyond_the_float_range_gives_a_finite_report(capsys, argv):
    # 4n / epsilon overflows, so log(4n) - log(epsilon) stands in for its log:
    # the report is JSON, with no Infinity, and nothing reaches stderr
    assert run_cli_warning_free(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    strict_json(captured.out)


class TestThreshold:
    def test_matches_library(self, capsys):
        assert run_cli(["threshold", "--n", "64", "--d", "63", "--lambda", "1",
                        "--epsilon", "0.5", "--mode", "bisection"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        report = survival_threshold(64, 63, 1.0, 0.5, mode="bisection")
        assert payload["p_threshold"] == report.p_threshold
        assert payload["vacuous"] is False
        assert payload["config"]["mode"] == "bisection"

    def test_default_mode_is_closed_form(self, capsys):
        assert run_cli(["threshold", "--n", "1000", "--d", "20", "--lambda", "10",
                        "--epsilon", "0.1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["mode"] == "closed_form"
        assert payload["vacuous"] is True

    def test_lambda_at_degree_is_domain_error(self, capsys):
        code = run_cli(["threshold", "--n", "16", "--d", "3", "--lambda", "3",
                        "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_degree_not_below_n_is_domain_error(self, capsys):
        # no simple d-regular graph on n vertices has d >= n
        code = run_cli(["threshold", "--n", "4", "--d", "10", "--lambda", "1",
                        "--epsilon", "0.5"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must be less than n, got d=10, n=4\n"


    def test_degree_beyond_the_float_range_is_a_usage_error(self, capsys):
        # lambda / d takes d as a float: one error line, not an OverflowError
        code = run_cli_warning_free(["threshold", "--n", str(10**401), "--d", str(10**400),
                                     "--lambda", "1", "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: d must not exceed the largest float, "
                                "1.7976931348623157e+308\n")


class TestOracle:
    def test_csv_stdout_and_summary(self, capsys):
        assert run_cli(["oracle", "--family", "path", "--n", "3", "--p", "0.5",
                        "--kind", "connectivity_indicator"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "pattern_bits,probability,statistic"
        assert len(lines) == 1 + 8
        assert "P(connected) = 0.875" in captured.err

    def test_json_format(self, capsys):
        assert run_cli(["oracle", "--family", "path", "--n", "3", "--p", "0.5",
                        "--kind", "a_delta", "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["n"] == 3
        assert len(payload["entries"]) == 8
        assert payload["entries"][0][2] == "inf"
        assert "P(statistic = inf)" in captured.err

    @pytest.mark.parametrize("argv, summary", [
        # no deviation norm is infinite, so no mass is; 1 - P(finite) left 1.1e-16
        (["--family", "cycle", "--n", "12", "--p", "0.7", "--alpha", "1.5",
          "--kind", "deviation_norm"],
         "mean deviation_norm (finite part) = 1.5916561196641117, P(statistic = inf) = 0.0\n"),
        # four of the eight masks leave at most one survivor
        (["--family", "path", "--n", "3", "--p", "0.5", "--kind", "a_delta"],
         "mean a_delta (finite part) = 0.625, P(statistic = inf) = 0.5\n"),
        (["--family", "cycle", "--n", "12", "--p", "0.7", "--kind", "connectivity_indicator"],
         "P(connected) = 0.13840224318999994\n"),
        # 512 entries, half a row block
        (["--family", "path", "--n", "9", "--p", "0.6", "--alpha", "0.5", "--kind", "a_delta"],
         "mean a_delta (finite part) = 0.03321943354723138, "
         "P(statistic = inf) = 0.003801088000000002\n"),
    ], ids=["none-infinite", "path3-a_delta", "cycle12-connected", "path9-a_delta"])
    def test_infinite_mass_is_the_sum_of_the_infinite_entries(self, capsys, monkeypatch, argv,
                                                               summary):
        # each summary is math.fsum of the whole selection, also where the
        # table is read in blocks of 1,000 rows, which divide no table length
        for row_block in (_chunking._ROW_BLOCK, 1000):
            monkeypatch.setattr(_chunking, "_ROW_BLOCK", row_block)
            assert run_cli(["oracle", *argv]) == EXIT_OK
            assert capsys.readouterr().err == summary

    @pytest.mark.parametrize("kind", ["deviation_norm", "a_delta"])
    def test_memory_does_not_grow_with_the_table(self, tmp_path, monkeypatch, capsys, kind):
        # beyond its table of 16 * 2^n bytes the command holds one chunk of
        # matrices and one row block of text and sums, so the excess is the
        # same at 2^15 masks as at 2^10; with 2^n-long lists of Python floats
        # for its summary it grew from about 0.7 to 1.3 MiB
        monkeypatch.setenv("PERCOBOUND_THREADS", "1")

        def oracle(n: int) -> None:
            assert run_cli(["oracle", "--family", "cycle", "--n", str(n), "--p", "0.8",
                            "--alpha", "1.5", "--kind", kind,
                            "--output", str(tmp_path / "oracle.csv")]) == EXIT_OK

        oracle(6)  # one-time set-up
        excess = []
        for n in (10, 15):
            tracemalloc.start()
            try:
                oracle(n)
                excess.append(tracemalloc.get_traced_memory()[1] - 16 * (1 << n))
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        small, large = excess
        assert large <= 1.25 * small

    def test_cap_is_a_clean_error(self, capsys):
        code = run_cli(["oracle", "--family", "complete", "--n", "25",
                        "--p", "0.5", "--kind", "a_delta"])
        assert code == EXIT_USAGE
        assert "capped at 20" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", STATISTIC_KINDS)
    @pytest.mark.parametrize("n, chunks", [(12, 19), (4, 1)])
    def test_outputs_identical_for_any_worker_count(self, tmp_path, monkeypatch, capsys, forks,
                                                     kind, n, chunks):
        assert -(-(1 << n) // _chunk_length(n * n)) == chunks
        # as on 3 CPUs or more, so PERCOBOUND_THREADS=3 is not capped
        monkeypatch.setattr(_chunking, "usable_cpus", lambda: 3)
        argv = ["oracle", "--family", "cycle", "--n", str(n), "--p", "0.7",
                "--alpha", "1.5", "--kind", kind]
        outputs = set()
        for workers in (None, "1", "2", "3"):
            if workers is None:
                monkeypatch.delenv("PERCOBOUND_THREADS", raising=False)
            else:
                monkeypatch.setenv("PERCOBOUND_THREADS", workers)
            forks.clear()
            csv_path, json_path = tmp_path / f"{workers}.csv", tmp_path / f"{workers}.json"
            assert run_cli(argv) == EXIT_OK
            to_stdout = capsys.readouterr()
            assert run_cli(argv + ["--output", str(csv_path)]) == EXIT_OK
            to_csv = capsys.readouterr()
            assert run_cli(argv + ["--format", "json", "--output", str(json_path)]) == EXIT_OK
            to_json = capsys.readouterr()
            assert to_csv.out == to_json.out == ""
            # unset means one worker per usable CPU; never more workers than chunks
            assert len(forks) == 3 * (min(int(workers or 3), chunks) - 1)
            outputs.add((to_stdout.out, to_stdout.err, csv_path.read_text(), to_csv.err,
                         json_path.read_text(), to_json.err))
        assert len(outputs) == 1

    @pytest.mark.parametrize("env, workers", [(None, 3), ("1", 1), ("0", 3), ("2", 2)])
    def test_workers_default_to_the_usable_cpus(self, monkeypatch, capsys, env, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        if env is None:
            monkeypatch.delenv("PERCOBOUND_THREADS", raising=False)
        else:
            monkeypatch.setenv("PERCOBOUND_THREADS", env)
        seen = []

        def recording(*args, workers=1):
            seen.append(workers)
            return exact_distribution(*args)

        monkeypatch.setattr(harness_cli, "exact_distribution", recording)
        assert run_cli(["oracle", "--family", "path", "--n", "3", "--p", "0.5",
                        "--kind", "connectivity_indicator"]) == EXIT_OK
        assert seen == [workers]


@pytest.mark.parametrize("command", [
    ["bound", "--epsilon", "0.1"],
    ["simulate", "--epsilon", "0.1", "--trials", "5"],
    ["oracle", "--kind", "deviation_norm", "--format", "json"],
], ids=["bound", "simulate", "oracle"])
def test_negative_zero_alpha_writes_the_bytes_of_zero(tmp_path, command):
    outputs = []
    for alpha in ("-0.0", "0"):
        out = tmp_path / f"alpha{alpha}.json"
        assert run_cli([command[0], "--family", "cycle", "--n", "4", "--p", "0.9",
                        "--alpha", alpha, *command[1:], "--output", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def parse_texts(parser, argv) -> tuple:
    """(stdout, stderr, exit code) of parser.parse_args(argv); code None if it parsed."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


class TestParser:
    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("command", list(harness_cli.COMMANDS))
    def test_one_command_parser_gives_the_full_parsers_bytes(self, monkeypatch, columns,
                                                             command):
        # the top-level usage, the command's help and usage, and its errors
        monkeypatch.setenv("COLUMNS", columns)
        full, one = harness_cli.build_parser(), harness_cli.build_parser(command)
        assert one.format_usage() == full.format_usage()
        for argv in ([command, "--help"], [command, "--bogus"], [command],
                     [command, "--seed", "x"], [command, "--family", "cycle", "extra"]):
            assert parse_texts(one, argv) == parse_texts(full, argv)

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("command", [None, "nope", "--help"])
    def test_parser_for_no_command_has_every_command(self, monkeypatch, columns, command):
        monkeypatch.setenv("COLUMNS", columns)
        full, other = harness_cli.build_parser(), harness_cli.build_parser(command)
        assert other.format_help() == full.format_help()
        assert other.format_usage() == full.format_usage()
        for argv in ([], ["--help"], ["nope"], ["--bogus"]):
            assert parse_texts(other, argv) == parse_texts(full, argv)


USAGE = "usage: percobound [-h] {generate,certify,bound,simulate,threshold,oracle} ...\n"


@pytest.mark.parametrize("argv, out, err", [
    (["--help"], USAGE + """
Spectral lower bounds on algebraic connectivity under random vertex deletion

positional arguments:
  {generate,certify,bound,simulate,threshold,oracle}
    generate            emit a named graph as JSON
    certify             certify regularity and the nontrivial spectral radius
    bound               closed-form deviation bound and connectivity lower
                        bound
    simulate            Monte Carlo percolation run with per-trial validation
    threshold           survival threshold certifying connectivity
    oracle              exhaustive enumeration of all survival patterns

options:
  -h, --help            show this help message and exit
""", ""),
    (["nope"], "", USAGE + "percobound: error: argument command: invalid choice: 'nope' "
     "(choose from 'generate', 'certify', 'bound', 'simulate', 'threshold', 'oracle')\n"),
    ([], "", USAGE + "percobound: error: the following arguments are required: command\n"),
    (["certify"], "", USAGE + "percobound: error: provide --graph FILE or --family NAME\n"),
    (["certify", "--graph", "g.json", "--family", "cycle"], "",
     USAGE + "percobound: error: --graph and --family are mutually exclusive\n"),
    (["bound", "--family", "cycle", "--n", "4", "--epsilon", "0.1"], "",
     USAGE + "percobound: error: provide exactly one of --p or --profile\n"),
], ids=["help", "unknown-command", "no-command", "no-source", "two-sources", "no-profile"])
def test_top_level_texts_list_every_command(monkeypatch, capsys, argv, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == (0 if argv == ["--help"] else EXIT_USAGE)
    assert capsys.readouterr() == (out, err)


class TestUsageErrors:
    def test_missing_profile_choice(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--family", "cycle", "--n", "4", "--epsilon", "0.1"])
        assert exc.value.code == 2

    def test_both_profile_choices(self, tmp_path):
        prof = tmp_path / "prof.json"
        prof.write_text("[0.5, 0.5, 0.5, 0.5]")
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.5",
                     "--profile", str(prof), "--epsilon", "0.1"])
        assert exc.value.code == 2

    def test_graph_and_family_conflict(self, tmp_path):
        path = tmp_path / "g.json"
        write_graph(generate("cycle", n=4), path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", "--graph", str(path), "--family", "cycle", "--n", "4"])
        assert exc.value.code == 2

    def test_missing_source(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, message", [
        ('{"n": 3, "edges": [[0, 1, null]]}', "edge (0,1) weight must be a number"),
        ('{"n": 3, "edges": [[0, 1, [2.0]]]}', "edge (0,1) weight must be a number"),
        ('{"n": 3, "edges": 5}', "edges must be a list"),
        ('{"n": 3, "edges": [[0, 1, "2"]]}', "edge (0,1) weight must be a number"),
        ('{"n": 3, "edges": [[0, 1, true]]}', "edge (0,1) weight must be a number"),
    ], ids=["null-weight", "list-weight", "edges-not-a-list", "string-weight", "bool-weight"])
    def test_malformed_graph_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["certify", "--graph", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_overflowing_weighted_degree_is_a_usage_error(self, tmp_path, capsys):
        # finite weights whose sum at vertex 1 overflows: one error line naming
        # the vertex, and no numpy RuntimeWarning from deeper layers
        path = tmp_path / "big.json"
        path.write_text('{"n": 3, "edges": [[0, 1, 1.7e308], [1, 2, 1.7e308]]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["simulate", "--graph", str(path), "--p", "0.5", "--alpha", "1",
                            "--epsilon", "0.1", "--trials", "100"]) == EXIT_USAGE
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: weighted degree of vertex 1 overflows: "
                                "its edge weights sum past the largest float\n")

    @pytest.mark.parametrize("command", [["bound"], ["simulate", "--trials", "20"]],
                             ids=["bound", "simulate"])
    @pytest.mark.parametrize("weight, term", [(1e78, "sigma"), (1e155, "k_bar")],
                             ids=["sigma", "k_bar"])
    def test_edge_weights_whose_bound_overflows_are_a_usage_error(self, tmp_path, capsys,
                                                                  command, weight, term):
        # (A c) A grows like w**4 and A * A like w**2: the product that
        # overflows is named before any eigensolve, with no numpy RuntimeWarning
        path = tmp_path / "heavy.json"
        for w, code in ((weight, EXIT_USAGE), (1e77, EXIT_OK)):
            path.write_text(json.dumps({"n": 3, "edges": [[0, 1, w], [1, 2, 1.0]]}))
            assert run_cli_warning_free([command[0], "--graph", str(path), "--p", "0.9",
                                         "--epsilon", "0.1", *command[1:]]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {term} overflows: the edge weights are too large\n"
        strict_json(captured.out)  # only the 1e77 run's report

    @pytest.mark.parametrize("weight", [10**400, -(10**400)], ids=["huge", "huge-negative"])
    def test_weight_beyond_the_float_range_is_a_usage_error(self, tmp_path, capsys, weight):
        # json reads a 401-digit integer as a Python int, which float() cannot take
        path = tmp_path / "big.json"
        path.write_text('{"n": 3, "edges": [[1, 2, 1.0], [0, 1, %d]]}' % weight)
        assert run_cli(["certify", "--graph", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: edge (0,1) weight must be finite and > 0, "
                                "got a number beyond the float range\n")

    @pytest.mark.parametrize("n", [10**400, 10**12], ids=["401-digits", "ten-to-the-12"])
    def test_vertex_count_beyond_flat_indexing_is_a_usage_error(self, tmp_path, capsys, n):
        # n * n must fit in an intp: 10**400 overflowed a C long deep in numpy,
        # and 10**12 asked numpy for a 7.28 TiB array
        path = tmp_path / "huge.json"
        path.write_text('{"n": %d, "edges": []}' % n)
        assert run_cli(["certify", "--graph", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: vertex count n = {n} is too large")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("family, message", [
        (["paley", "--q", "1000000000000000000000049"],
         "vertex count n = 1000000000000000000000049 is too large"),
        (["hypercube", "--k", str(10**30)], f"hypercube dimension k = {10**30} is too large"),
        (["hypercube", "--k", "40"], f"vertex count n = {2**40} is too large"),
        (["random_regular", "--n", str(10**30), "--d", "2"],
         f"vertex count n = {10**30} is too large"),
    ], ids=["paley", "hypercube", "hypercube-k40", "random_regular"])
    @pytest.mark.parametrize("command", [
        ["generate"], ["certify"], ["bound", "--p", "0.5", "--epsilon", "0.1"],
        ["simulate", "--p", "0.5", "--epsilon", "0.1", "--trials", "10"],
        ["oracle", "--p", "0.5", "--kind", "a_delta"],
    ], ids=lambda command: command[0])
    def test_graph_size_beyond_flat_indexing_reaches_no_builder(self, monkeypatch, capsys,
                                                                command, family, message):
        # unchecked, the primality test of this q runs for minutes, and the
        # pairing of 10**30 vertices fills memory; here each raises if reached
        def unreachable(*args):
            raise AssertionError("a graph builder was reached")

        monkeypatch.setattr(percobound.graph_core, "_is_prime", unreachable)
        monkeypatch.setattr(percobound.graph_core, "_sequential_pairing", unreachable)
        assert run_cli([*command, "--family", *family]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("command, text, message", [
        (["bound", "--epsilon", "0.1"], "[{}, 0.5, 0.5]", "survival probability 0 must be a number"),
        (["oracle", "--kind", "a_delta"], '[0.5, true, "0.5"]',
         "survival probability 1 must be a number, got True"),
        (["oracle", "--kind", "a_delta"], '[0.5, 0.5, "0.5"]',
         "survival probability 2 must be a number, got '0.5'"),
    ], ids=["object-entry", "bool-entry", "string-entry"])
    def test_non_number_profile_entry(self, tmp_path, capsys, command, text, message):
        prof = tmp_path / "bad.json"
        prof.write_text(text)
        code = run_cli([command[0], "--family", "cycle", "--n", "3",
                        "--profile", str(prof), *command[1:]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_profile_entry_beyond_the_float_range(self, tmp_path, capsys):
        # a 401-digit JSON integer: one error line and exit 2, not an OverflowError
        prof = tmp_path / "huge.json"
        prof.write_text("[0.5, %d, 0.5]" % 10**400)
        code = run_cli(["bound", "--family", "cycle", "--n", "3", "--profile", str(prof),
                        "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: survival probability 1 must lie in [0, 1], "
                                "got a number beyond the float range\n")

    def test_unparsable_profile_file_is_named(self, tmp_path, capsys):
        prof = tmp_path / "bad.json"
        prof.write_text("[0.5, 0.5\n")
        code = run_cli(["bound", "--family", "path", "--n", "3", "--profile", str(prof),
                        "--alpha", "1", "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not parse profile file {prof}: ")

    def test_bad_alpha_string(self, capsys):
        code = run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.5",
                        "--alpha", "lots", "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["bound", "--epsilon", "0.1"],
        ["simulate", "--epsilon", "0.1", "--trials", "5"],
    ], ids=["bound", "simulate"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "1e400", "-0.5"])
    def test_alpha_not_finite_and_non_negative(self, capsys, command, alpha):
        code = run_cli([command[0], "--family", "cycle", "--n", "4", "--p", "0.5",
                        "--alpha", alpha, *command[1:]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: --alpha must be non-negative and finite, got {alpha!r}\n"

    @pytest.mark.parametrize("command", [
        ["bound", "--epsilon", "0.1"],
        ["simulate", "--epsilon", "0.1", "--trials", "5"],
    ], ids=["bound", "simulate"])
    @pytest.mark.parametrize("alpha", ["1", "auto"])
    @pytest.mark.parametrize("grid", ["-5", "0", "1"])
    def test_alpha_grid_below_two_is_a_usage_error(self, capsys, monkeypatch, command, alpha,
                                                   grid):
        # checked before the graph is built, whatever --alpha is
        monkeypatch.setattr(harness_cli, "generate", lambda *args, **kwargs: pytest.fail())
        code = run_cli([command[0], "--family", "cycle", "--n", "4", "--p", "0.5",
                        "--alpha", alpha, "--alpha-grid", grid, *command[1:]])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --alpha-grid must be an integer of at least 2, got {grid}\n"

    def test_output_and_trials_csv_naming_one_file_is_a_usage_error(self, tmp_path, capsys,
                                                                     monkeypatch):
        # the same file by its absolute path, a relative one, a symlink and a
        # hard link, which realpath tells apart; rejected before the graph is
        # built, so the file keeps its bytes
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness_cli, "generate", lambda *args, **kwargs: pytest.fail())
        path = tmp_path / "run.out"
        path.write_text("kept\n")
        (tmp_path / "link").symlink_to(path)
        os.link(path, tmp_path / "hard")
        for other in (str(path), "run.out", "./run.out", "link", "hard"):
            code = run_cli(["simulate", "--family", "cycle", "--n", "4", "--p", "0.9",
                            "--alpha", "1.8", "--epsilon", "0.1", "--trials", "20",
                            "--output", str(path), "--trials-csv", other])
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: --output and --trials-csv name the same file: {path}\n")
            assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("kind", ["deviation_norm", "a_delta", "connectivity_indicator"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5"])
    def test_oracle_alpha_not_finite_and_non_negative(self, capsys, kind, alpha):
        code = run_cli(["oracle", "--family", "cycle", "--n", "4", "--p", "0.5",
                        "--alpha", alpha, "--kind", kind, "--format", "json"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: alpha must be non-negative and finite, got {float(alpha)!r}\n"
        )

    @pytest.mark.parametrize("command", [
        ["simulate", "--alpha", "1.0", "--epsilon", "0.1", "--trials", "5", "--trials-csv"],
        ["simulate", "--alpha", "1.0", "--epsilon", "0.1", "--trials", "5", "--output"],
        ["oracle", "--kind", "a_delta", "--output"],
        ["bound", "--epsilon", "0.1", "--output"],
    ], ids=["simulate-trials-csv", "simulate-output", "oracle-output", "bound-output"])
    def test_unwritable_path_is_a_clean_error(self, tmp_path, capsys, command):
        path = tmp_path / "missing" / "out.csv"
        code = run_cli([command[0], "--family", "cycle", "--n", "4", "--p", "0.5",
                        *command[1:], str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not path.parent.exists()

    def test_epsilon_out_of_range(self, capsys):
        code = run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.5",
                        "--epsilon", "1.5"])
        assert code == EXIT_USAGE
        assert "epsilon" in capsys.readouterr().err

    def test_profile_length_mismatch(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text("[0.5, 0.5]")
        code = run_cli(["bound", "--family", "cycle", "--n", "4",
                        "--profile", str(prof), "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        assert "4 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--family", "random_regular", "--n", "12", "--d", "3"],
        ["certify", "--family", "cycle", "--n", "4"],
        ["bound", "--family", "cycle", "--n", "4", "--p", "0.5", "--epsilon", "0.1"],
        ["threshold", "--n", "16", "--d", "15", "--lambda", "1", "--epsilon", "0.1"],
        ["oracle", "--family", "cycle", "--n", "4", "--p", "0.5", "--kind", "a_delta"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_rejected_by_every_command(self, capsys, argv, seed):
        assert run_cli(argv + ["--seed", seed]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    def test_bad_thread_env(self, monkeypatch, capsys):
        monkeypatch.setenv("PERCOBOUND_THREADS", "many")
        code = run_cli(["simulate", "--family", "cycle", "--n", "4", "--p", "0.9",
                        "--alpha", "1.8", "--epsilon", "0.1", "--trials", "5"])
        assert code == EXIT_USAGE
        assert "PERCOBOUND_THREADS" in capsys.readouterr().err


class TestResolveThreads:
    def test_explicit(self, monkeypatch):
        monkeypatch.setattr(_chunking, "usable_cpus", lambda: 3)
        monkeypatch.setenv("PERCOBOUND_THREADS", "3")
        assert resolve_threads() == 3

    def test_capped_at_the_usable_cpus(self, monkeypatch):
        # 5000 would fork 4,999 children for an oracle run of 12,946 chunks
        monkeypatch.setattr(_chunking, "usable_cpus", lambda: 2)
        monkeypatch.setenv("PERCOBOUND_THREADS", "5000")
        assert resolve_threads() == 2

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("PERCOBOUND_THREADS", "0")
        assert resolve_threads() == _chunking.usable_cpus()

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # as under taskset -c 0 on a machine with more CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("PERCOBOUND_THREADS", "0")
        assert _chunking.usable_cpus() == 1
        assert resolve_threads() == 1
        monkeypatch.delenv("PERCOBOUND_THREADS")
        assert resolve_threads() == 1
        assert resolve_threads(0) == 1

    @pytest.mark.parametrize("installed, usable", [(8, 8), (None, 1)])
    def test_auto_falls_back_to_the_installed_cpus(self, monkeypatch, installed, usable):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: installed)
        monkeypatch.setenv("PERCOBOUND_THREADS", "0")
        assert _chunking.usable_cpus() == usable
        assert resolve_threads() == usable

    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv("PERCOBOUND_THREADS", raising=False)
        assert resolve_threads() == 1

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("PERCOBOUND_THREADS", "-2")
        with pytest.raises(ValueError, match="non-negative"):
            resolve_threads()
