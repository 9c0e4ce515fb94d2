"""Acceptance suite: ten end-to-end validation criteria.

Each test prints exactly one line, "ACCEPTANCE <k> [<label>]: PASS" or
"... FAIL", so a -s run reads as a checklist.  Every criterion checks the
library against an independent route: closed forms, exhaustive enumeration,
brute-force linear algebra, or byte comparison.
"""
from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from percobound import (
    SurvivalProfile,
    bernoulli_series_tail_bound,
    bernoulli_series_variance,
    build_adjacency,
    build_laplacian,
    certify_ndl,
    deviation_bound,
    eig_sym,
    exact_bernoulli_series_tail,
    exact_distribution,
    exact_tail,
    expected_augmented_laplacian,
    expected_lambda2_regular,
    generate,
    kearns_saul_k,
    lambda2,
    sample,
    survival_threshold,
    survivor_connectivity,
    threshold_constants,
    trial_block,
)
from percobound import _chunking
from percobound.harness_cli import main

from conftest import petersen_graph, petersen_induced_8


def _report(criterion, label, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {criterion} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {criterion} [{label}]: PASS")


def test_acceptance_1_mgf_dominance():
    """The sub-Gaussian constant dominates the centered Bernoulli MGF."""

    def check():
        p = np.arange(1, 100) / 100.0
        t = np.arange(-200, 201) / 10.0
        k = np.array([kearns_saul_k(v) for v in p])
        lhs = p[:, None] * np.exp(t[None, :] * (1.0 - p[:, None]))
        lhs += (1.0 - p[:, None]) * np.exp(-t[None, :] * p[:, None])
        rhs = np.exp((k[:, None] * t[None, :]) ** 2)
        start = time.perf_counter()
        ok = bool(np.all(lhs <= rhs * (1.0 + 1e-12)))
        elapsed = time.perf_counter() - start
        assert ok, "MGF dominance violated on the grid"
        assert lhs.shape == (99, 401)
        assert elapsed < 1.0

    _report(1, "mgf dominance", check)


def test_acceptance_2_series_tail_bound():
    """Closed-form tail dominates the exact law of random matrix series."""

    def check():
        rng = np.random.default_rng(20240818)
        for _ in range(20):
            count = int(rng.integers(1, 7))
            dim = int(rng.integers(2, 11))
            terms = []
            for _ in range(count):
                raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
                terms.append(0.5 * (raw + raw.T))
            probs = rng.uniform(0.05, 0.95, size=count)
            profile = SurvivalProfile(probs)

            # exhaustive law of || sum (delta_i - p_i) X_i ||, bare numpy
            masks = np.arange(2**count)
            bits = (masks[:, None] >> np.arange(count)[None, :]) & 1
            coeff = bits - probs[None, :]
            stacked = np.einsum("mc,cij->mij", coeff, np.array(terms))
            norms = np.max(np.abs(np.linalg.eigvalsh(stacked)), axis=1)
            mass = np.prod(np.where(bits == 1, probs[None, :], 1.0 - probs[None, :]),
                           axis=1)

            sigma2 = bernoulli_series_variance(terms, profile)
            levels = np.linspace(1e-6, float(norms.max()) * 1.2, 100)
            for t in levels:
                exact = float(mass[norms >= t].sum())
                bound = bernoulli_series_tail_bound(sigma2, dim, float(t))
                assert exact <= bound + 1e-12, (count, dim, t, exact, bound)

            # the library's exhaustive route must agree with this one
            for t in (levels[10], levels[50], levels[90]):
                lib = exact_bernoulli_series_tail(terms, profile, float(t))
                mine = float(mass[norms >= t].sum())
                assert lib == pytest.approx(mine, abs=1e-12)

    _report(2, "matrix series tail", check)


def _profiles_for(n: int):
    return [
        SurvivalProfile.uniform(n, 0.5),
        SurvivalProfile.uniform(n, 0.9),
        SurvivalProfile(np.linspace(0.35, 0.95, n)),
    ]


def _mean_row_alpha(g, profile):
    return float(np.mean(build_adjacency(g) @ profile.p))


_SMALL_GRAPHS = [
    ("P3", generate("path", n=3)),
    ("C4", generate("cycle", n=4)),
    ("C6", generate("cycle", n=6)),
    ("K5", generate("complete", n=5)),
    ("petersen", petersen_graph()),
    ("petersen8", petersen_induced_8()),
]


def test_acceptance_3_deviation_tail_exact():
    """P(deviation > closed-form bound) <= epsilon, by exhaustive enumeration."""

    def check():
        for (_, g), profile_ix in itertools.product(_SMALL_GRAPHS, range(3)):
            profile = _profiles_for(g.n)[profile_ix]
            alpha = _mean_row_alpha(g, profile)
            dist = exact_distribution(g, profile, alpha,
                                      statistic_kind="deviation_norm")
            for epsilon in (0.5, 0.25, 0.1, 0.05):
                report = deviation_bound(g, profile, alpha, epsilon)
                tail = exact_tail(dist, report.total)
                assert tail <= epsilon + 1e-12, (g.n, epsilon, tail, report.total)

    _report(3, "deviation tail vs exact law", check)


def test_acceptance_4_per_trial_lower_bound():
    """Per-realization connectivity lower bound holds on every sampled trial."""

    def check():
        graphs = _SMALL_GRAPHS + [
            ("P5", generate("path", n=5)),
            ("Q3", generate("hypercube", k=3)),
        ]
        trials = 500
        total = 0
        violations = 0
        for index, ((_, g), profile_ix) in enumerate(
                itertools.product(graphs, range(3))):
            profile = _profiles_for(g.n)[profile_ix]
            mean_row = _mean_row_alpha(g, profile)
            alpha = [0.3 * mean_row, mean_row, 1.7 * mean_row][index % 3]
            lam2 = lambda2(expected_augmented_laplacian(g, profile, alpha))
            block = trial_block(g, profile, alpha, seed=909, start=0, count=trials)
            lower = np.minimum(lam2 - block.deviation_norm, alpha)
            total += len(block)
            violations += int(np.count_nonzero(block.a_delta < lower - 1e-8))
        assert total == 24 * trials >= 10_000
        assert violations == 0, f"{violations} of {total} trials violated the bound"

    _report(4, "per-trial lower bound", check)


def test_acceptance_5_regular_specializations():
    """Frozen constants and scalar closed forms of all five deviation terms."""

    def check():
        c1, c2 = threshold_constants(0.5)
        assert c1 == pytest.approx(math.exp(-200.0), rel=1e-12)
        assert c2 == 104976.0

        cases = [generate("complete", n=8), generate("paley", q=13), petersen_graph()]
        for g in cases:
            cert = certify_ndl(g)
            assert cert.is_regular
            d = cert.d
            for p in (0.6, 0.9, 0.99):
                profile = SurvivalProfile.uniform(g.n, p)
                report = deviation_bound(g, profile, alpha=p * d, epsilon=0.1)
                k = kearns_saul_k(p)
                log_term = math.log(4.0 * g.n / 0.1)
                assert report.k_bar == pytest.approx(k * math.sqrt(d), abs=1e-10)
                assert report.sigma == pytest.approx(
                    k * abs(1.0 - 2.0 * p) * d**1.5, abs=1e-10)
                assert report.term_kbar == pytest.approx(
                    2.0 * k * math.sqrt(d * log_term), abs=1e-10)
                assert report.term_alpha_mismatch == pytest.approx(0.0, abs=1e-10)
                assert report.term_dad == pytest.approx(p * (1.0 - p) * d, abs=1e-10)
                assert report.term_dpad == pytest.approx(
                    2.0 * p**1.5 * math.sqrt(1.0 - p) * d, abs=1e-10)
                assert report.term_sigma == pytest.approx(
                    4.5 * math.sqrt(report.sigma * math.sqrt(log_term)), abs=1e-10)

    _report(5, "regular-graph closed forms", check)


def test_acceptance_6_expected_lambda2_formula():
    """Scalar expected-lambda2 formula lower-bounds the true eigenvalue."""

    def check():
        cases = [
            generate("cycle", n=4),
            generate("cycle", n=6),
            generate("complete", n=5),
            generate("paley", q=13),
            generate("hypercube", k=3),
            petersen_graph(),
        ]
        for g in cases:
            cert = certify_ndl(g)
            for p in np.linspace(0.0, 1.0, 21):
                p = float(p)
                predicted = expected_lambda2_regular(g.n, cert.d, cert.lambda_, p)
                actual = lambda2(
                    expected_augmented_laplacian(g, SurvivalProfile.uniform(g.n, p),
                                                 p * cert.d))
                assert actual >= predicted - 1e-8, (g.n, p, predicted, actual)

        # bipartite C4 at p = 1/2: the formula gives 0.5, the matrix gives 1.0
        g = generate("cycle", n=4)
        assert expected_lambda2_regular(4, 2, 2.0, 0.5) == pytest.approx(0.5)
        actual = lambda2(expected_augmented_laplacian(g, SurvivalProfile.uniform(4, 0.5), 1.0))
        assert actual == pytest.approx(1.0, abs=1e-10)

    _report(6, "expected-spectrum formula", check)


def test_acceptance_7_threshold_monte_carlo():
    """Above the certified survival threshold, disconnection is epsilon-rare."""

    def check():
        trials = 10_000
        for n, d, lam, epsilon in ((16, 15, 1.0, 0.1), (64, 63, 1.0, 0.5)):
            g = generate("complete", n=n)
            sharp = survival_threshold(n, d, lam, epsilon, mode="bisection")
            closed = survival_threshold(n, d, lam, epsilon, mode="closed_form")
            assert closed.p_threshold >= sharp.p_threshold
            profile = SurvivalProfile.uniform(n, sharp.p_threshold)
            disconnected = 0
            for trial in range(trials):
                s = sample(profile, seed=55, trial_index=trial)
                _, connected = survivor_connectivity(g, s)
                disconnected += 0 if connected else 1
            limit = epsilon + 3.0 * math.sqrt(epsilon * (1.0 - epsilon) / trials)
            assert disconnected / trials <= limit, (n, disconnected)

    _report(7, "survival threshold Monte Carlo", check)


def test_acceptance_8_eigensolver_closed_forms():
    """Eigenvalues match textbook closed forms for cycles and the Petersen graph."""

    def check():
        for n in range(3, 65):
            g = generate("cycle", n=n)
            got = eig_sym(build_laplacian(g))
            expect = np.sort([2.0 - 2.0 * math.cos(2.0 * math.pi * k / n)
                              for k in range(n)])
            assert np.max(np.abs(got - expect)) <= 1e-8

        adj = eig_sym(build_adjacency(petersen_graph()))
        expect = np.sort([-2.0] * 4 + [1.0] * 5 + [3.0])
        assert np.max(np.abs(adj - expect)) <= 1e-8

    _report(8, "eigensolver closed forms", check)


def test_acceptance_9_thread_count_invariance(tmp_path, monkeypatch, forks):
    """Simulation reports are byte-identical for any worker count."""

    # PERCOBOUND_THREADS is capped at usable_cpus(); at 8 no count below is cut
    monkeypatch.setattr(_chunking, "usable_cpus", lambda: 8)

    def check():
        argv_base = ["simulate", "--family", "cycle", "--n", "6", "--p", "0.8",
                     "--alpha", "2.4", "--epsilon", "0.25", "--trials", "12000",
                     "--seed", "1234"]
        blobs, workers = [], []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"threads{threads}.json"
            monkeypatch.setenv("PERCOBOUND_THREADS", threads)
            forks.clear()
            assert main(argv_base + ["--output", str(out)]) == 0
            blobs.append(out.read_bytes())
            workers.append(1 + len(forks))
        # 5,461 trials per chunk on the 6-cycle: 3 chunks, so at most 3 workers
        assert workers == [1, 3, 3]
        assert blobs[0] == blobs[1] == blobs[2]
        payload = json.loads(blobs[0])
        assert payload["n_trials"] == 12000
        assert payload["lower_bound_violations"] == 0

    _report(9, "thread-count invariance", check)


def test_acceptance_10_deviation_bound_certifies_connectivity(tmp_path):
    """Where the deviation bound certifies connectivity, the Monte Carlo run agrees."""

    # complete-256 at p = 0.999 is the one setting found where a_lower_bound > 0
    # (2.93); the trials CSV makes the kernel solve every survivor block
    def check():
        out = tmp_path / "k256.json"
        assert main(["simulate", "--family", "complete", "--n", "256", "--p", "0.999",
                     "--alpha", "auto", "--epsilon", "0.1", "--trials", "300", "--seed", "0",
                     "--output", str(out), "--trials-csv", str(tmp_path / "trials.csv")]) == 0
        payload = json.loads(out.read_text())
        epsilon = payload["config"]["epsilon"]
        assert payload["bound_report"]["a_lower_bound"] > 0
        assert payload["lower_bound_violations"] == 0
        assert payload["tail_within_tolerance"] is True
        assert payload["connected_fraction"] >= (
            1.0 - epsilon - 3.0 * payload["connected_fraction_se"])

    _report(10, "certified connectivity on complete-256", check)
