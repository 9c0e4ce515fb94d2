"""Sampling determinism, Laplacian assembly, and survivor-connectivity tests."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percobound import (
    PercolationSample,
    SurvivalProfile,
    WeightedGraph,
    algebraic_connectivity_survivors,
    augmented_laplacian,
    build_laplacian,
    eig_sym,
    expected_augmented_laplacian,
    generate,
    percolated_laplacian,
    run_trial,
    sample,
    survivor_connectivity,
)
from percolation_reference import scalar_delta

from conftest import petersen_graph


class TestSurvivalProfile:
    def test_uniform_factory(self):
        prof = SurvivalProfile.uniform(3, 0.25)
        assert len(prof) == 3
        assert np.array_equal(prof.p, [0.25, 0.25, 0.25])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SurvivalProfile([0.5, 1.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SurvivalProfile([-0.1])

    def test_rejects_non_numbers_naming_the_entry(self):
        for values, index in (([{}, 0.5], 0), ([0.5, True], 1), ([0.5, 0.5, "0.5"], 2),
                              (np.array([0.5, True], dtype=object), 1),
                              (np.array([True, False]), 0)):
            with pytest.raises(ValueError, match=f"survival probability {index} must be a number"):
                SurvivalProfile(values)

    def test_accepts_numeric_arrays_and_scalars(self):
        for values in (np.array([0, 1]), np.array([0.25, 1.0], dtype=np.float32),
                       [np.float64(0.25), 1], (0.5, 0.5)):
            assert SurvivalProfile(values).p.dtype == np.float64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SurvivalProfile([])

    def test_read_only(self):
        prof = SurvivalProfile([0.5, 0.5])
        with pytest.raises(ValueError):
            prof.p[0] = 0.9


class TestSample:
    def test_deterministic(self):
        prof = SurvivalProfile.uniform(6, 0.5)
        a = sample(prof, seed=1234, trial_index=7)
        b = sample(prof, seed=1234, trial_index=7)
        assert np.array_equal(a.delta, b.delta)
        c = sample(prof, seed=1234, trial_index=8)
        d = sample(prof, seed=1235, trial_index=7)
        assert a.delta.shape == c.delta.shape == d.delta.shape

    def test_extreme_probabilities_exact(self):
        assert not sample(SurvivalProfile.uniform(50, 0.0), 3, 0).delta.any()
        assert sample(SurvivalProfile.uniform(50, 1.0), 3, 0).delta.all()

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample(SurvivalProfile.uniform(2, 0.5), 0, -1)

    def test_vector_path_matches_scalar_reference(self):
        # the fast uint64 path and the pure-int path must agree bit for bit
        for seed in (0, 1, 2**63 - 1, 2**64 - 1, -5):
            for trial in (0, 1, 999, 10**7):
                prof = SurvivalProfile.uniform(17, 0.5)
                s = sample(prof, seed, trial)
                assert np.array_equal(s.delta, scalar_delta(seed, trial, prof.p))

    def test_scalar_reference_module(self):
        # independent reimplementation of the hash in the test tree
        prof = SurvivalProfile(np.linspace(0.05, 0.95, 11))
        for seed, trial in ((0, 0), (42, 17), (987654321, 3)):
            expected = scalar_delta(seed, trial, prof.p)
            assert np.array_equal(sample(prof, seed, trial).delta, expected)

    def test_survival_frequency(self):
        # binomial 3-sigma band around p = 1/2 per vertex
        trials = 100_000
        prof = SurvivalProfile.uniform(4, 0.5)
        counts = np.zeros(4)
        for t in range(trials):
            counts += sample(prof, seed=20240818, trial_index=t).delta
        band = 3.0 * math.sqrt(0.25 / trials)
        assert np.abs(counts / trials - 0.5).max() <= band


class TestLaplacians:
    def test_percolated_drops_ghost_edges(self, c4):
        s = PercolationSample(delta=[True, True, True, False], seed=0, trial_index=0)
        L = percolated_laplacian(c4, s)
        expect = np.array([
            [1, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -1, 1, 0],
            [0, 0, 0, 0],
        ], dtype=float)
        assert np.array_equal(L, expect)

    def test_full_survival_is_plain_laplacian(self, petersen):
        s = PercolationSample(delta=[True] * 10, seed=0, trial_index=0)
        assert np.array_equal(percolated_laplacian(petersen, s), build_laplacian(petersen))

    def test_augmented_adds_ghost_diagonal(self, c4):
        s = PercolationSample(delta=[True, False, True, False], seed=0, trial_index=0)
        L = augmented_laplacian(c4, s, alpha=2.5)
        assert L[1, 1] == 2.5 and L[3, 3] == 2.5
        assert L[0, 0] == 0.0 and L[2, 2] == 0.0  # 0-2 is not an edge of C4

    def test_augmented_rejects_negative_alpha(self, c4):
        s = PercolationSample(delta=[True] * 4, seed=0, trial_index=0)
        with pytest.raises(ValueError, match="alpha"):
            augmented_laplacian(c4, s, alpha=-0.1)

    def test_length_mismatch(self, c4):
        s = PercolationSample(delta=[True] * 3, seed=0, trial_index=0)
        with pytest.raises(ValueError, match="length"):
            percolated_laplacian(c4, s)

    def test_expected_c4_closed_form(self, c4):
        prof = SurvivalProfile.uniform(4, 0.5)
        E = expected_augmented_laplacian(c4, prof, alpha=1.0)
        # 0.25 L + 0.5 I for the uniform profile
        assert np.allclose(E, 0.25 * build_laplacian(c4) + 0.5 * np.eye(4), atol=1e-15)
        vals = eig_sym(E).eigenvalues
        assert np.allclose(vals, [0.5, 1.0, 1.0, 1.5], atol=1e-12)

    def test_expected_degenerate_profiles(self, c4):
        all_on = expected_augmented_laplacian(c4, SurvivalProfile.uniform(4, 1.0), 3.0)
        assert np.array_equal(all_on, build_laplacian(c4))
        all_off = expected_augmented_laplacian(c4, SurvivalProfile.uniform(4, 0.0), 3.0)
        assert np.array_equal(all_off, 3.0 * np.eye(4))

    def test_expected_heterogeneous_entry(self):
        g = WeightedGraph(2, ((0, 1, 2.0),))
        E = expected_augmented_laplacian(g, SurvivalProfile([0.5, 0.25]), alpha=1.0)
        assert E[0, 1] == pytest.approx(-0.25)
        assert E[0, 0] == pytest.approx(0.25 + 0.5)
        assert E[1, 1] == pytest.approx(0.25 + 0.75)

    def test_expectation_matches_monte_carlo_mean(self, c4):
        # entrywise 5-standard-error agreement over 1e5 trials
        prof = SurvivalProfile([0.9, 0.7, 0.5, 0.3])
        alpha = 0.8
        trials = 100_000
        acc = np.zeros((4, 4))
        acc_sq = np.zeros((4, 4))
        for t in range(trials):
            s = sample(prof, seed=777, trial_index=t)
            L = augmented_laplacian(c4, s, alpha)
            acc += L
            acc_sq += L * L
        mean = acc / trials
        var = np.maximum(acc_sq / trials - mean * mean, 0.0)
        se = np.sqrt(var / trials)
        expected = expected_augmented_laplacian(c4, prof, alpha)
        assert np.all(np.abs(mean - expected) <= 5.0 * se + 1e-12)


class TestSurvivorConnectivity:
    def test_few_survivors_connected_by_convention(self, c4):
        for delta in ([False] * 4, [False, True, False, False]):
            s = PercolationSample(delta=delta, seed=0, trial_index=0)
            count, connected = survivor_connectivity(c4, s)
            assert connected and count == sum(delta)
            assert algebraic_connectivity_survivors(c4, s) == math.inf

    def test_disconnected_pair(self, c4):
        # opposite corners of the 4-cycle do not touch
        s = PercolationSample(delta=[True, False, True, False], seed=0, trial_index=0)
        count, connected = survivor_connectivity(c4, s)
        assert count == 2 and not connected
        assert algebraic_connectivity_survivors(c4, s) == 0.0

    def test_connected_path_of_survivors(self, c4):
        s = PercolationSample(delta=[True, True, True, False], seed=0, trial_index=0)
        count, connected = survivor_connectivity(c4, s)
        assert count == 3 and connected
        # survivors induce a 3-path
        assert algebraic_connectivity_survivors(c4, s) == pytest.approx(1.0)

    def test_full_survival(self, petersen):
        s = PercolationSample(delta=[True] * 10, seed=0, trial_index=0)
        assert survivor_connectivity(petersen, s) == (10, True)
        a = algebraic_connectivity_survivors(petersen, s)
        assert a == pytest.approx(2.0, abs=1e-9)  # Petersen Laplacian gap is 3 - 1


@st.composite
def graph_delta_alpha(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = WeightedGraph(n, tuple((i, j, 1.0 + ((i + j) % 3) * 0.5) for i, j in chosen))
    delta = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    alpha = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    return g, delta, alpha


@settings(max_examples=60, deadline=None)
@given(graph_delta_alpha())
def test_augmented_spectrum_splits_into_blocks(case):
    # eigenvalues of the augmented matrix = survivor-block spectrum plus one
    # copy of alpha per ghost
    g, delta, alpha = case
    s = PercolationSample(delta=delta, seed=0, trial_index=0)
    vals = eig_sym(augmented_laplacian(g, s, alpha)).eigenvalues

    survivors = [v for v in range(g.n) if delta[v]]
    block = np.zeros((len(survivors), len(survivors)))
    pos = {v: i for i, v in enumerate(survivors)}
    for i, j, w in g.edges:
        if delta[i] and delta[j]:
            a, b = pos[i], pos[j]
            block[a, a] += w
            block[b, b] += w
            block[a, b] -= w
            block[b, a] -= w
    expected = sorted(
        (list(np.linalg.eigvalsh(block)) if survivors else [])
        + [alpha] * (g.n - len(survivors))
    )
    assert np.allclose(vals, expected, atol=1e-8)


class TestRunTrial:
    def test_record_consistency(self, petersen):
        prof = SurvivalProfile.uniform(10, 0.7)
        rec = run_trial(petersen, prof, alpha=1.5, seed=99, trial_index=3)
        s = sample(prof, 99, 3)
        assert np.array_equal(rec.sample.delta, s.delta)
        assert rec.survivor_count == int(s.delta.sum())
        count, connected = survivor_connectivity(petersen, s)
        assert (rec.survivor_count, rec.is_connected) == (count, connected)
        # connectivity decision must agree with the spectral statistic
        if rec.survivor_count >= 2:
            assert rec.is_connected == (rec.a_delta > 1e-8)

    def test_precomputed_expected_equivalent(self, c4):
        prof = SurvivalProfile.uniform(4, 0.6)
        E = expected_augmented_laplacian(c4, prof, 1.2)
        a = run_trial(c4, prof, 1.2, seed=5, trial_index=11)
        b = run_trial(c4, prof, 1.2, seed=5, trial_index=11, _expected=E)
        assert a.deviation_norm == b.deviation_norm
        assert a.lambda2_augmented == b.lambda2_augmented

    def test_per_trial_lower_bound_holds(self):
        # a_delta >= min(lambda_2(expected) - deviation, alpha) on every trial
        from percobound import lambda2

        cases = [
            (generate("cycle", n=5), SurvivalProfile.uniform(5, 0.8), 1.2),
            (generate("complete", n=6), SurvivalProfile([0.9, 0.2, 0.7, 1.0, 0.5, 0.6]), 3.0),
            (petersen_graph(), SurvivalProfile.uniform(10, 0.5), 0.7),
        ]
        for g, prof, alpha in cases:
            lam2 = lambda2(expected_augmented_laplacian(g, prof, alpha))
            for t in range(300):
                rec = run_trial(g, prof, alpha, seed=31337, trial_index=t)
                lower = min(lam2 - rec.deviation_norm, alpha)
                assert rec.a_delta >= lower - 1e-8
