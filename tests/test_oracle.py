"""Exhaustive-enumeration oracle tests, cross-checked by independent routes."""
from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percobound import (
    SurvivalProfile,
    bernoulli_series_variance,
    exact_bernoulli_series_tail,
    exact_distribution,
    exact_tail,
    generate,
)
from percobound import spectral
from percobound.oracle import MAX_ENUM_VERTICES, STATISTIC_KINDS

from conftest import probabilities, weighted_graphs


def bfs_connected_on_survivors(g, delta):
    """Reference connectivity check, written without the union-find type."""
    alive = [i for i in range(g.n) if delta[i]]
    if len(alive) <= 1:
        return True
    adj = {i: [] for i in alive}
    for i, j, _ in g.edges:
        if delta[i] and delta[j]:
            adj[i].append(j)
            adj[j].append(i)
    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(alive)


class TestExactDistribution:
    def test_p3_connectivity_probability(self, p3):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="connectivity_indicator")
        mass = math.fsum(q for q, s in zip(dist.probabilities, dist.statistics) if s == 1.0)
        assert mass == pytest.approx(0.875, abs=1e-15)

    def test_probabilities_sum_to_one(self, c4):
        prof = SurvivalProfile([0.15, 0.5, 0.8, 0.95])
        for kind in ("deviation_norm", "a_delta", "connectivity_indicator"):
            dist = exact_distribution(c4, prof, alpha=0.7, statistic_kind=kind)
            assert dist.total_probability() == pytest.approx(1.0, abs=1e-12)
            assert len(dist) == 16

    def test_certain_survival_concentrates_mass(self, p3):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 1.0), alpha=1.0,
                                  statistic_kind="a_delta")
        by_mass = {t: q for t, q in enumerate(dist.probabilities) if q > 0.0}
        assert by_mass == {0b111: pytest.approx(1.0)}

    def test_a_delta_infinite_atoms(self, p3):
        # masks with at most one survivor are connected by convention
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="a_delta")
        infinite = [t for t, s in enumerate(dist.statistics) if math.isinf(s)]
        assert sorted(infinite) == [0b000, 0b001, 0b010, 0b100]

    def test_pattern_bits_little_endian(self, p3):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="connectivity_indicator")
        assert dist.pattern_bits(1) == "100"
        assert dist.pattern_bits(6) == "011"
        (bits, _, _), = dist.row_blocks()
        assert bits == [dist.pattern_bits(t) for t in range(len(dist))]
        assert bits[1] == "100" and bits[6] == "011"
        for t in (-1, len(dist)):
            with pytest.raises(IndexError):
                dist.pattern_bits(t)

    def test_heterogeneous_pattern_probabilities(self, p3):
        prof = SurvivalProfile([0.9, 0.5, 0.25])
        dist = exact_distribution(p3, prof, alpha=1.0,
                                  statistic_kind="connectivity_indicator")
        lookup = dict(enumerate(dist.probabilities))
        assert lookup[0b000] == pytest.approx(0.1 * 0.5 * 0.75, rel=1e-14)
        assert lookup[0b101] == pytest.approx(0.9 * 0.5 * 0.25, rel=1e-14)
        assert lookup[0b010] == pytest.approx(0.1 * 0.5 * 0.75, rel=1e-14)

    def test_connectivity_statistics_match_bfs(self, c4):
        prof = SurvivalProfile.uniform(4, 0.7)
        dist = exact_distribution(c4, prof, alpha=1.0,
                                  statistic_kind="connectivity_indicator")
        for mask, stat in enumerate(dist.statistics):
            delta = [bool((mask >> v) & 1) for v in range(4)]
            assert stat == float(bfs_connected_on_survivors(c4, delta))

    def test_enumeration_cap(self):
        g = generate("cycle", n=MAX_ENUM_VERTICES + 1)
        prof = SurvivalProfile.uniform(MAX_ENUM_VERTICES + 1, 0.5)
        with pytest.raises(ValueError, match="capped at 20"):
            exact_distribution(g, prof, alpha=1.0, statistic_kind="a_delta")

    def test_negative_alpha_rejected_before_enumeration(self, c4, monkeypatch):
        def no_eigensolve(M):
            raise AssertionError("enumeration started")

        # the oracle's eigensolves run in the percolation module's chunk code,
        # through the spectral module's reductions
        monkeypatch.setattr(spectral, "eig_sym", no_eigensolve)
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            exact_distribution(c4, SurvivalProfile.uniform(4, 0.5), alpha=-0.5,
                               statistic_kind="deviation_norm")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("kind", STATISTIC_KINDS)
    def test_bad_alpha_rejected_for_every_kind(self, c4, kind, alpha):
        with pytest.raises(ValueError, match="alpha must be non-negative and finite"):
            exact_distribution(c4, SurvivalProfile.uniform(4, 0.5), alpha=alpha,
                               statistic_kind=kind)

    def test_kind_and_length_validation(self, p3):
        with pytest.raises(ValueError, match="statistic_kind"):
            exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                               statistic_kind="median")
        with pytest.raises(ValueError, match="length"):
            exact_distribution(p3, SurvivalProfile.uniform(4, 0.5), alpha=1.0,
                               statistic_kind="a_delta")


@settings(max_examples=30, deadline=None)
@given(g=weighted_graphs(min_n=9, max_n=11), data=st.data(),
       alpha=st.just(0.0) | st.floats(0.0, 50.0), kind=st.sampled_from(STATISTIC_KINDS),
       workers=st.integers(2, 4))
# 2 to 8 chunks of masks, p = 0 and p = 1 entries, alpha = 0
@example(g=generate("cycle", n=10), data=None, alpha=0.0, kind="deviation_norm", workers=3)
@example(g=generate("cycle", n=11), data=None, alpha=0.0, kind="a_delta", workers=2)
def test_worker_count_changes_no_bit(g, data, alpha, kind, workers):
    if data is None:
        p = [0.0, 1.0, 0.5, 1.0, 0.0] + [0.8] * (g.n - 5)
    else:
        p = data.draw(st.lists(probabilities, min_size=g.n, max_size=g.n))
    profile = SurvivalProfile(p)
    serial = exact_distribution(g, profile, alpha, kind)
    parallel = exact_distribution(g, profile, alpha, kind, workers=workers)
    for name in ("probabilities", "statistics"):
        a, b = getattr(serial, name), getattr(parallel, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestExactTail:
    def test_strict_inequality_excludes_atom(self, p3):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="connectivity_indicator")
        # P(stat > 1) = 0 but P(stat > 1 - eps) = 0.875
        assert exact_tail(dist, 1.0) == 0.0
        assert exact_tail(dist, 1.0 - 1e-12) == pytest.approx(0.875, abs=1e-15)
        assert exact_tail(dist, -1.0) == pytest.approx(1.0, abs=1e-15)

    def test_infinite_atoms_always_count(self, p3):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="a_delta")
        # only the four small-survivor masks exceed every finite level
        assert exact_tail(dist, 1e12) == pytest.approx(4.0 / 8.0, abs=1e-15)

    def test_nan_level_rejected(self, p3):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="a_delta")
        # the +inf atoms (mass 0.5) exceed every level, so no tail can be 0.0
        with pytest.raises(ValueError, match="^level t must be a number, got nan$"):
            exact_tail(dist, math.nan)
        assert exact_tail(dist, math.inf) == 0.0

    def test_deviation_tail_monotone(self, c4):
        dist = exact_distribution(c4, SurvivalProfile.uniform(4, 0.6), alpha=1.2,
                                  statistic_kind="deviation_norm")
        levels = np.linspace(0.0, 6.0, 25)
        tails = [exact_tail(dist, t) for t in levels]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0


class TestExactBernoulliSeriesTail:
    def test_single_projector_levels(self):
        # sum = (delta - 0.9) * [[1]]: |sum| is 0.1 w.p. 0.9 and 0.9 w.p. 0.1
        prof = SurvivalProfile([0.9])
        X = [np.array([[1.0]])]
        assert exact_bernoulli_series_tail(X, prof, 0.09) == pytest.approx(1.0, abs=1e-15)
        assert exact_bernoulli_series_tail(X, prof, 0.5) == pytest.approx(0.1, abs=1e-15)
        assert exact_bernoulli_series_tail(X, prof, 0.9) == pytest.approx(0.1, abs=1e-15)
        assert exact_bernoulli_series_tail(X, prof, 0.90001) == 0.0

    def test_two_commuting_terms(self):
        prof = SurvivalProfile([0.5, 0.5])
        X = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        # each coordinate is +/-1/2, so the norm is always exactly 1/2
        assert exact_bernoulli_series_tail(X, prof, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert exact_bernoulli_series_tail(X, prof, 0.5 + 1e-12) == 0.0

    def test_nan_level_rejected(self):
        X, prof = [np.array([[1.0]])], SurvivalProfile([0.9])
        with pytest.raises(ValueError, match="^level t must be a number, got nan$"):
            exact_bernoulli_series_tail(X, prof, math.nan)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="profile"):
            exact_bernoulli_series_tail([np.eye(2)], SurvivalProfile([0.5, 0.5]), 0.1)

    def test_asymmetric_terms_rejected_like_the_variance(self):
        X, prof = [[[0.0, 1.0], [0.0, 0.0]]], SurvivalProfile([0.5])
        with pytest.raises(ValueError, match="^matrices must be symmetric$"):
            exact_bernoulli_series_tail(X, prof, 0.1)
        with pytest.raises(ValueError, match="^matrices must be symmetric$"):
            bernoulli_series_variance(X, prof)

    def test_count_cap(self):
        X = [np.eye(1)] * (MAX_ENUM_VERTICES + 1)
        prof = SurvivalProfile.uniform(MAX_ENUM_VERTICES + 1, 0.5)
        with pytest.raises(ValueError, match="capped at 20"):
            exact_bernoulli_series_tail(X, prof, 0.1)


class TestCsvOutput:
    def test_format_and_roundtrip(self, p3, tmp_path):
        dist = exact_distribution(p3, SurvivalProfile.uniform(3, 0.5), alpha=1.0,
                                  statistic_kind="a_delta")
        path = tmp_path / "dist.csv"
        with open(path, "w") as fh:
            dist.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "pattern_bits,probability,statistic"
        assert len(lines) == 1 + 8
        row1 = lines[2].split(",")
        assert row1[0] == "100"
        assert float(row1[1]) == pytest.approx(0.125)
        assert row1[2] == "inf"
        # every finite statistic reparses exactly
        for line in lines[1:]:
            bits, q, s = line.split(",")
            assert set(bits) <= {"0", "1"} and len(bits) == 3
            float(q)
            assert s == "inf" or float(s) >= 0.0


def test_exact_distributions_compare_by_value_and_have_no_hash():
    g, profile = generate("cycle", n=5), SurvivalProfile.uniform(5, 0.7)
    a, b = (exact_distribution(g, profile, 1.5, "a_delta") for _ in range(2))
    assert a == b and not a != b
    assert a != exact_distribution(g, profile, 1.5, "deviation_norm")
    b.probabilities.view(np.uint64)[3] ^= np.uint64(1)
    assert a != b
    assert a != vars(a)
    with pytest.raises(TypeError):
        hash(a)
