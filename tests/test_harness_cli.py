"""End-to-end command-line tests driven through main(argv)."""
from __future__ import annotations

import json
import math

import pytest

from percobound import (
    SurvivalProfile,
    exact_distribution,
    generate,
    graph_to_dict,
    read_graph,
    survival_threshold,
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

from conftest import petersen_graph


def run_cli(argv):
    return main(argv)


class TestGenerate:
    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "paley13.json"
        assert run_cli(["generate", "--family", "paley", "--q", "13",
                        "--output", str(out)]) == EXIT_OK
        assert read_graph(out) == generate("paley", q=13)

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

    def test_byte_identical_across_runs_and_thread_counts(self, tmp_path, monkeypatch):
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}.json"
            monkeypatch.setenv("PERCOBOUND_THREADS", threads)
            assert run_cli(self.ARGS + ["--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
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

    def test_cap_is_a_clean_error(self, capsys):
        code = run_cli(["oracle", "--family", "complete", "--n", "25",
                        "--p", "0.5", "--kind", "a_delta"])
        assert code == EXIT_USAGE
        assert "capped at 20" in capsys.readouterr().err


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
    ], ids=["null-weight", "list-weight", "edges-not-a-list"])
    def test_malformed_graph_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["certify", "--graph", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_bad_alpha_string(self, capsys):
        code = run_cli(["bound", "--family", "cycle", "--n", "4", "--p", "0.5",
                        "--alpha", "lots", "--epsilon", "0.1"])
        assert code == EXIT_USAGE
        assert "--alpha" in capsys.readouterr().err

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

    def test_bad_thread_env(self, monkeypatch, capsys):
        monkeypatch.setenv("PERCOBOUND_THREADS", "many")
        code = run_cli(["simulate", "--family", "cycle", "--n", "4", "--p", "0.9",
                        "--alpha", "1.8", "--epsilon", "0.1", "--trials", "5"])
        assert code == EXIT_USAGE
        assert "PERCOBOUND_THREADS" in capsys.readouterr().err


class TestResolveThreads:
    def test_explicit(self, monkeypatch):
        monkeypatch.setenv("PERCOBOUND_THREADS", "3")
        assert resolve_threads() == 3

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("PERCOBOUND_THREADS", "0")
        assert resolve_threads() >= 1

    def test_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv("PERCOBOUND_THREADS", raising=False)
        assert resolve_threads() >= 1

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("PERCOBOUND_THREADS", "-2")
        with pytest.raises(ValueError, match="non-negative"):
            resolve_threads()
