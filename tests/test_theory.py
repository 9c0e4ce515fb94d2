"""Closed-form bound tests: constants, five-term bound, tails, thresholds."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percobound import (
    SurvivalProfile,
    WeightedGraph,
    bernoulli_series_tail_bound,
    bernoulli_series_variance,
    build_adjacency,
    certify_ndl,
    check_gap_condition,
    deviation_bound,
    expected_lambda2_regular,
    generate,
    kearns_saul_k,
    optimize_alpha,
    survival_threshold,
    threshold_constants,
)
from percobound import theory
from percobound.theory import K_MAX

from conftest import graph_profile, petersen_graph

# 50-digit evaluations of the defining formula, rounded to double
K_HALF = 0.35355339059327376
K_09 = 0.30170171140164873


class TestKearnsSaul:
    def test_endpoints_vanish(self):
        assert kearns_saul_k(0.0) == 0.0
        assert kearns_saul_k(1.0) == 0.0

    def test_peak_at_half(self):
        assert kearns_saul_k(0.5) == pytest.approx(K_HALF, abs=1e-15)
        assert K_MAX == pytest.approx(K_HALF, abs=1e-15)

    def test_frozen_value(self):
        assert kearns_saul_k(0.9) == pytest.approx(K_09, abs=1e-12)

    def test_symmetry_grid(self):
        for i in range(1, 1000):
            p = i / 1000.0
            assert abs(kearns_saul_k(p) - kearns_saul_k(1.0 - p)) <= 1e-14

    def test_bounded_by_peak(self):
        for i in range(0, 1001):
            assert kearns_saul_k(i / 1000.0) <= K_MAX + 1e-15

    def test_branches_agree_near_switch_point(self):
        # 50-digit references bracketing the branch switch at |p - 1/2| = 1e-6;
        # the series side is exact to the ulp, the direct side cancels a little
        assert kearns_saul_k(0.5 + 9.9e-7) == pytest.approx(0.35355339059304275, abs=1e-15)
        assert kearns_saul_k(0.5 - 9.9e-7) == pytest.approx(0.35355339059304275, abs=1e-15)
        assert kearns_saul_k(0.5 + 5e-7) == pytest.approx(0.35355339059321483, abs=1e-15)
        assert kearns_saul_k(0.5 + 1.01e-6) == pytest.approx(0.3535533905930333, abs=1e-11)
        assert kearns_saul_k(0.5 - 1.01e-6) == pytest.approx(0.3535533905930333, abs=1e-11)

    def test_domain_errors(self):
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                kearns_saul_k(p)

    def test_mgf_dominance_spot_grid(self):
        # E exp(t(delta - p)) <= exp((K t)^2), the defining property
        for p in (0.05, 0.3, 0.5, 0.77, 0.95):
            k = kearns_saul_k(p)
            for t in np.linspace(-20.0, 20.0, 81):
                lhs = p * math.exp(t * (1.0 - p)) + (1.0 - p) * math.exp(-t * p)
                assert lhs <= math.exp((k * t) ** 2) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_kearns_saul_range_property(p):
    k = kearns_saul_k(p)
    assert 0.0 <= k <= K_MAX + 1e-15


def _regular_closed_forms(n, d, p, epsilon):
    """Scalar route to the five terms for a unit-weight d-regular graph."""
    k = kearns_saul_k(p)
    log_term = math.log(4.0 * n / epsilon)
    sigma = k * abs(1.0 - 2.0 * p) * d**1.5
    return {
        "k_bar": k * math.sqrt(d),
        "term_kbar": 2.0 * k * math.sqrt(d) * math.sqrt(log_term),
        "term_dad": p * (1.0 - p) * d,
        "term_dpad": 2.0 * p**1.5 * math.sqrt(1.0 - p) * d,
        "sigma": sigma,
        "term_sigma": 4.5 * math.sqrt(sigma * math.sqrt(log_term)),
    }


class TestDeviationBound:
    def test_c4_frozen_case(self, c4):
        report = deviation_bound(c4, SurvivalProfile.uniform(4, 0.9), alpha=1.8, epsilon=0.1)
        closed = _regular_closed_forms(4, 2, 0.9, 0.1)
        assert report.term_kbar == pytest.approx(closed["term_kbar"], abs=1e-10)
        assert report.term_alpha_mismatch == pytest.approx(0.0, abs=1e-12)
        assert report.term_dad == pytest.approx(0.18, abs=1e-10)
        assert report.term_dpad == pytest.approx(1.08, abs=1e-10)
        assert report.term_sigma == pytest.approx(closed["term_sigma"], abs=1e-10)
        # 50-digit reference for the total
        assert report.total == pytest.approx(8.7630291177550832, abs=1e-9)
        assert report.lambda2_expected == pytest.approx(1.8, abs=1e-12)
        assert report.a_lower_bound == pytest.approx(min(1.8 - report.total, 1.8), abs=1e-12)

    def test_total_is_sum_of_terms(self, petersen):
        prof = SurvivalProfile(np.linspace(0.3, 0.95, 10))
        r = deviation_bound(petersen, prof, alpha=1.1, epsilon=0.25)
        s = r.term_kbar + r.term_alpha_mismatch + r.term_dad + r.term_dpad + r.term_sigma
        assert r.total == s
        assert min(r.term_kbar, r.term_alpha_mismatch, r.term_dad, r.term_dpad, r.term_sigma) >= 0.0

    def test_certain_survival_leaves_only_mismatch(self):
        g = generate("path", n=4)  # degrees 1, 2, 2, 1
        r = deviation_bound(g, SurvivalProfile.uniform(4, 1.0), alpha=1.5, epsilon=0.5)
        assert r.k_bar == 0.0 and r.sigma == 0.0
        assert r.term_kbar == 0.0 and r.term_dad == 0.0
        assert r.term_dpad == 0.0 and r.term_sigma == 0.0
        assert r.term_alpha_mismatch == pytest.approx(0.5)
        assert r.total == pytest.approx(0.5)

    def test_mismatch_uses_max_row(self):
        g = generate("path", n=3)  # expected rows at p=1: 1, 2, 1
        r = deviation_bound(g, SurvivalProfile.uniform(3, 1.0), alpha=0.0, epsilon=0.5)
        assert r.term_alpha_mismatch == pytest.approx(2.0)

    def test_heterogeneous_sigma_route(self):
        # matrix route must equal the series-variance route on the columns
        g = generate("complete", n=5)
        prof = SurvivalProfile([0.9, 0.2, 0.7, 0.55, 0.35])
        r = deviation_bound(g, prof, alpha=1.0, epsilon=0.1)
        A = build_adjacency(g)
        X = [(1.0 - 2.0 * prof.p[i]) * np.outer(A[:, i], A[:, i]) for i in range(5)]
        assert r.sigma**2 == pytest.approx(bernoulli_series_variance(X, prof), rel=1e-10)

    def test_domain_errors(self, c4):
        prof = SurvivalProfile.uniform(4, 0.5)
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                deviation_bound(c4, prof, 1.0, eps)
        with pytest.raises(ValueError, match="alpha"):
            deviation_bound(c4, prof, -1.0, 0.1)
        for alpha in (math.nan, math.inf):
            message = f"^alpha must be non-negative and finite, got {alpha!r}$"
            with pytest.raises(ValueError, match=message):
                deviation_bound(c4, prof, alpha, 0.1)
            with pytest.raises(ValueError, match=message):
                expected_lambda2_regular(8, 3, 1.0, 0.5, alpha=alpha)
        with pytest.raises(ValueError, match="length"):
            deviation_bound(c4, SurvivalProfile.uniform(3, 0.5), 1.0, 0.1)

    def test_report_serialization_keys(self, c4):
        d = deviation_bound(c4, SurvivalProfile.uniform(4, 0.5), 1.0, 0.1).to_dict()
        assert list(d) == [
            "epsilon", "alpha", "k_bar", "sigma", "term_kbar",
            "term_alpha_mismatch", "term_dad", "term_dpad", "term_sigma",
            "total", "lambda2_expected", "a_lower_bound",
        ]


@settings(max_examples=60, deadline=None)
@given(graph_profile(min_n=2), st.floats(0.0, 10.0), st.floats(1e-6, 0.999), st.floats(1e-6, 0.999))
def test_total_does_not_increase_with_epsilon(case, alpha, eps_a, eps_b):
    # only log(4n/epsilon) depends on epsilon, and every term is monotone in it
    g, profile = case
    small, large = sorted((eps_a, eps_b))
    assert (deviation_bound(g, profile, alpha, large).total
            <= deviation_bound(g, profile, alpha, small).total)


class TestSeriesVarianceAndTail:
    def test_single_projector(self):
        prof = SurvivalProfile([0.9])
        X = [np.array([[1.0]])]
        sigma2 = bernoulli_series_variance(X, prof)
        assert sigma2 == pytest.approx(K_09**2, rel=1e-12)
        # the closed-form tail clamps at 1 here while the exact tail is 0.1
        assert bernoulli_series_tail_bound(sigma2, 1, 0.5) == 1.0

    def test_tail_decays(self):
        sigma2 = 0.04
        values = [bernoulli_series_tail_bound(sigma2, 3, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(6.0 * math.exp(-100.0), rel=1e-12)

    def test_zero_variance_means_zero_tail(self):
        assert bernoulli_series_tail_bound(0.0, 5, 1e-9) == 0.0

    def test_tail_domain_errors(self):
        with pytest.raises(ValueError, match="t must be positive"):
            bernoulli_series_tail_bound(1.0, 2, 0.0)
        with pytest.raises(ValueError, match="sigma2"):
            bernoulli_series_tail_bound(-1.0, 2, 1.0)
        with pytest.raises(ValueError, match="count"):
            bernoulli_series_tail_bound(1.0, 0, 1.0)

    def test_tail_nan_rejected(self):
        with pytest.raises(ValueError, match="^t must be positive$"):
            bernoulli_series_tail_bound(1.0, 2, math.nan)
        with pytest.raises(ValueError, match="^sigma2 must be non-negative$"):
            bernoulli_series_tail_bound(math.nan, 2, 1.0)

    def test_variance_input_validation(self):
        prof = SurvivalProfile([0.5, 0.5])
        with pytest.raises(ValueError, match="profile"):
            bernoulli_series_variance([np.eye(2)], prof)
        with pytest.raises(ValueError, match="symmetric"):
            bernoulli_series_variance([np.array([[0.0, 1.0], [0.0, 0.0]])] * 2, prof)
        with pytest.raises(ValueError, match="square"):
            bernoulli_series_variance([np.zeros((2, 3))] * 2, prof)

    def test_variance_additive_example(self):
        # disjoint diagonal blocks: norm of the sum is the max block entry
        prof = SurvivalProfile([0.5, 0.5])
        X = [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])]
        expect = max(K_HALF**2, K_HALF**2 * 4.0)
        assert bernoulli_series_variance(X, prof) == pytest.approx(expect, rel=1e-12)


class TestOptimizeAlpha:
    def test_uniform_regular_prefers_mean_row(self, c4):
        prof = SurvivalProfile.uniform(4, 0.8)
        alpha, report = optimize_alpha(c4, prof, epsilon=0.2)
        # the mean-row candidate p*d = 1.6 zeroes the mismatch term
        assert alpha == pytest.approx(1.6, abs=1e-12)
        assert report.term_alpha_mismatch == pytest.approx(0.0, abs=1e-12)

    def test_certain_survival_path(self):
        g = generate("path", n=3)
        alpha, report = optimize_alpha(g, SurvivalProfile.uniform(3, 1.0), epsilon=0.5)
        # best alpha balances the degree spread 1..2 around 1.5
        assert alpha == pytest.approx(1.5, abs=0.02)
        assert report.a_lower_bound == pytest.approx(0.5, abs=0.02)

    def test_never_worse_than_fixed_candidates(self, petersen):
        prof = SurvivalProfile.uniform(10, 0.9)
        _, best = optimize_alpha(petersen, prof, epsilon=0.1, alpha_grid_size=64)
        for alpha in (0.0, 1.0, 2.7, 5.0):
            fixed = deviation_bound(petersen, prof, alpha, 0.1)
            assert best.a_lower_bound >= fixed.a_lower_bound - 1e-9

    def test_grid_size_validation(self, c4):
        with pytest.raises(ValueError, match="grid"):
            optimize_alpha(c4, SurvivalProfile.uniform(4, 0.5), 0.1, alpha_grid_size=1)

    @pytest.mark.parametrize("size", [0, -5, 2.5, 8.0, "8", None, True])
    def test_grid_size_must_be_an_integer_of_at_least_two(self, c4, size):
        with pytest.raises(ValueError, match="alpha_grid_size must be an integer of at least 2"):
            optimize_alpha(c4, SurvivalProfile.uniform(4, 0.5), 0.1, size)

    def test_numpy_integer_grid_size_is_the_same_grid(self, c4):
        profile = SurvivalProfile.uniform(4, 0.5)
        assert (optimize_alpha(c4, profile, 0.1, np.int64(8))
                == optimize_alpha(c4, profile, 0.1, 8))

    def test_profile_length_validated_first(self):
        with pytest.raises(ValueError, match="profile has length 4 but the graph has 5 vertices"):
            optimize_alpha(generate("cycle", n=5), SurvivalProfile.uniform(4, 0.5), 0.1)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            optimize_alpha(WeightedGraph(1), SurvivalProfile.uniform(1, 0.5), 0.1)


class TestExpectedLambda2Regular:
    def test_c4_half(self):
        assert expected_lambda2_regular(4, 2, 2.0, 0.5) == pytest.approx(0.5)

    def test_certain_survival_gives_spectral_gap(self):
        assert expected_lambda2_regular(10, 3, 2.0, 1.0) == pytest.approx(1.0)

    def test_zero_survival_gives_zero(self):
        assert expected_lambda2_regular(10, 3, 2.0, 0.0) == 0.0

    def test_alpha_override(self):
        got = expected_lambda2_regular(8, 3, 1.0, 0.5, alpha=2.0)
        assert got == pytest.approx(0.25 * 2.0 + 2.0 * 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="lambda"):
            expected_lambda2_regular(8, 3, 4.0, 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            expected_lambda2_regular(8, 3, 1.0, 1.5)
        with pytest.raises(ValueError, match="d must be"):
            expected_lambda2_regular(3, 3, 1.0, 0.5)

    @pytest.mark.parametrize("lam", [math.nan, -50.0, -1e-300])
    def test_lambda_is_a_magnitude(self, lam):
        with pytest.raises(ValueError, match="^lambda must be non-negative"):
            expected_lambda2_regular(10, 3, lam, 0.5)

    def test_lambda_zero_allowed(self):
        assert expected_lambda2_regular(10, 3, 0.0, 0.5) == pytest.approx(0.25 * 3 + 1.5 * 0.5)

    @pytest.mark.parametrize("alpha", [None, 2.0])
    def test_numpy_integer_degree(self, alpha):
        # the same value, and the same type, as for the Python integer
        got = expected_lambda2_regular(8, np.int64(3), 1.0, 0.5, alpha=alpha)
        assert type(got) is float
        assert got == expected_lambda2_regular(8, 3, 1.0, 0.5, alpha=alpha)

    @pytest.mark.parametrize("d", [True, np.True_, 3.0, np.float64(3.0), "3"])
    def test_degree_must_be_an_integer(self, d):
        with pytest.raises(ValueError, match="^d must be an integer with 0 <= d < n"):
            expected_lambda2_regular(8, d, 1.0, 0.5)


# direct 50-digit evaluations of both sides at (n=1000, d=20, lambda=10,
# epsilon=0.1); the condition fails at every scanned p
GAP_CONDITION_SCAN = [
    (0.90, False, 0.45, 3.134959287155357),
    (0.99, False, 0.495, 2.379917574385682),
    (0.999, False, 0.4995, 2.0136768552220916),
    (0.9999, False, 0.49995, 1.8180909984003477),
]


class TestGapCondition:
    def test_certain_survival_always_holds(self):
        holds, lhs, rhs = check_gap_condition(100, 10, 3.0, 1.0, 0.1)
        assert holds and rhs == 0.0
        assert lhs == pytest.approx(0.7)

    def test_half_never_holds(self):
        for n, d, lam, eps in ((10, 3, 1.0, 0.5), (10**6, 500, 10.0, 0.01)):
            holds, lhs, rhs = check_gap_condition(n, d, lam, 0.5, eps)
            assert not holds
            assert rhs >= 1.0 > lhs

    def test_frozen_scan(self):
        for p, expect_holds, expect_lhs, expect_rhs in GAP_CONDITION_SCAN:
            holds, lhs, rhs = check_gap_condition(1000, 20, 10.0, p, 0.1)
            assert holds == expect_holds
            assert lhs == pytest.approx(expect_lhs, rel=1e-9)
            assert rhs == pytest.approx(expect_rhs, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            check_gap_condition(10, 3, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="lambda"):
            check_gap_condition(10, 3, 3.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            check_gap_condition(10, 3, 1.0, 0.5, 0.0)


@pytest.mark.parametrize("n, d, lam, message", [
    (0, 3, 1.0, "^n must be a positive integer, got 0$"),
    (True, 3, 1.0, "^n must be a positive integer, got True$"),
    (10.0, 3, 1.0, "^n must be a positive integer, got 10.0$"),
    (10, 0, 0.0, "^d must be a positive integer, got 0$"),
    (4, 10, 1.0, "^d must be less than n, got d=10, n=4$"),
    (10, 10, 1.0, "^d must be less than n, got d=10, n=10$"),
    (10, 3, 3.0, "^lambda must satisfy 0 <= lambda < d, got lambda=3.0, d=3$"),
    (10, 3, -1.0, "^lambda must satisfy 0 <= lambda < d, got lambda=-1.0, d=3$"),
    (10, 3, math.nan, "^lambda must satisfy 0 <= lambda < d, got lambda=nan, d=3$"),
])
def test_gap_condition_and_threshold_share_the_ndl_rules(n, d, lam, message):
    with pytest.raises(ValueError, match=message):
        check_gap_condition(n, d, lam, 0.9, 0.1)
    with pytest.raises(ValueError, match=message):
        survival_threshold(n, d, lam, 0.1)


class TestThresholdConstants:
    def test_half(self):
        c1, c2 = threshold_constants(0.5)
        assert c1 == pytest.approx(math.exp(-200.0), rel=1e-12)
        assert c2 == 104976.0

    def test_zero(self):
        c1, c2 = threshold_constants(0.0)
        assert c1 == pytest.approx(math.exp(-72.0), rel=1e-12)
        assert c2 == 6561.0

    def test_monotone_in_ratio(self):
        grid = [threshold_constants(r) for r in (0.0, 0.2, 0.5, 0.8, 0.95)]
        c1s = [c1 for c1, _ in grid]
        c2s = [c2 for _, c2 in grid]
        assert c1s == sorted(c1s, reverse=True)
        assert c2s == sorted(c2s)

    def test_domain_errors(self):
        for r in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="lambda/d"):
                threshold_constants(r)


# 50-digit bisection of the gap condition for (n=64, d=63, lambda=1, eps=0.5)
K64_SHARP_THRESHOLD = 0.99999977074113894


class TestSurvivalThreshold:
    def test_closed_form_is_always_vacuous(self):
        # the additive constant in the exponent is at least 72, so the
        # survival gap sits below one ulp of 1 for every input
        report = survival_threshold(1000, 20, 10.0, 0.1, mode="closed_form")
        assert report.vacuous
        assert report.p_threshold == math.nextafter(1.0, 0.0)
        c1, c2 = threshold_constants(0.5)
        expect_beta4 = c2 * math.log(4000.0 / 0.1) / 20.0 + 200.0
        assert report.beta4_min == pytest.approx(expect_beta4, rel=1e-12)
        assert report.c1 == pytest.approx(c1, rel=1e-12)
        assert report.c2 == c2
        assert report.log_c1 == pytest.approx(-200.0, rel=1e-12)
        assert report.sweep_violations == 0

    def test_closed_form_log_space_survives_underflow(self):
        # lambda/d = 0.9 drives c1 itself below the double range
        report = survival_threshold(100, 10, 9.0, 0.1, mode="closed_form")
        assert report.c1 == 0.0
        assert report.log_c1 == pytest.approx(-8.0 * (2.1 / 0.1) ** 2, rel=1e-12)
        assert report.vacuous

    def test_bisection_interior_threshold(self):
        report = survival_threshold(64, 63, 1.0, 0.5, mode="bisection")
        assert not report.vacuous
        assert report.p_threshold == pytest.approx(K64_SHARP_THRESHOLD, abs=5e-12)
        assert report.sweep_violations == 0
        assert report.beta4_min == pytest.approx(-math.log1p(-report.p_threshold), rel=1e-12)
        holds, _, _ = check_gap_condition(64, 63, 1.0, report.p_threshold, 0.5)
        assert holds
        below = report.p_threshold - 1e-9
        assert not check_gap_condition(64, 63, 1.0, below, 0.5)[0]

    def test_bisection_degenerate_when_no_double_satisfies(self):
        # at this size the condition first holds closer to 1 than one ulp
        report = survival_threshold(16, 15, 1.0, 0.1, mode="bisection")
        assert report.vacuous
        assert report.p_threshold == math.nextafter(1.0, 0.0)

    def test_closed_form_dominates_bisection(self):
        for n, d, lam, eps in ((64, 63, 1.0, 0.5), (16, 15, 1.0, 0.1),
                               (1000, 20, 10.0, 0.1), (200, 40, 5.0, 0.25)):
            closed = survival_threshold(n, d, lam, eps, mode="closed_form")
            sharp = survival_threshold(n, d, lam, eps, mode="bisection")
            assert closed.p_threshold >= sharp.p_threshold

    def test_stricter_epsilon_raises_threshold(self):
        loose = survival_threshold(64, 63, 1.0, 0.5, mode="bisection")
        strict = survival_threshold(64, 63, 1.0, 0.1, mode="bisection")
        assert strict.p_threshold >= loose.p_threshold
        loose_c = survival_threshold(64, 63, 1.0, 0.5, mode="closed_form")
        strict_c = survival_threshold(64, 63, 1.0, 0.1, mode="closed_form")
        assert strict_c.beta4_min > loose_c.beta4_min

    @pytest.mark.parametrize("mode", theory.THRESHOLD_MODES)
    def test_inputs_checked_once(self, monkeypatch, mode):
        # bisection evaluates the condition about a thousand times on inputs
        # the entry point has already checked
        calls = []
        check_ndl = theory._check_ndl

        def counting(*args):
            calls.append(args)
            return check_ndl(*args)

        monkeypatch.setattr(theory, "_check_ndl", counting)
        survival_threshold(64, 63, 1.0, 0.5, mode=mode)
        assert calls == [(64, 63, 1.0)]

    def test_report_keys(self):
        d = survival_threshold(64, 63, 1.0, 0.5, mode="bisection").to_dict()
        assert list(d) == ["c1", "c2", "beta4_min", "p_threshold", "mode",
                          "vacuous", "log_c1", "sweep_violations"]

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="mode"):
            survival_threshold(10, 3, 1.0, 0.1, mode="exact")
        with pytest.raises(ValueError, match="lambda"):
            survival_threshold(10, 3, 3.0, 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            survival_threshold(10, 3, 1.0, 0.0)


def test_certified_graphs_feed_the_condition(paley13):
    # end to end: certificate values plug straight into the gap condition
    cert = certify_ndl(paley13)
    holds, lhs, rhs = check_gap_condition(13, cert.d, cert.lambda_, 0.95, 0.1)
    assert isinstance(holds, bool)
    assert lhs == pytest.approx((1.0 - cert.lambda_over_d) * 0.95)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**400), st.floats(5e-324, 1.0, exclude_max=True))
def test_log_4n_over_epsilon_is_finite_and_keeps_the_quotients_bits(n, epsilon):
    # the log of the quotient wherever that is finite, as the bound, the gap
    # condition and the threshold took it; log(4n) - log(epsilon) elsewhere
    value = theory._log_4n_over(n, epsilon)
    assert value == pytest.approx(math.log(4 * n) - math.log(epsilon), rel=1e-12)
    if n < 2**1000 and 4.0 * n / epsilon < math.inf:
        assert value == math.log(4.0 * n / epsilon)


def test_edge_weights_whose_products_overflow_are_named():
    # (A c) A grows like w**4, A * A like w**2.  B B^T overflows first on a
    # star whose centre survives surely (K = 0 there) and whose leaves have
    # p = 0.632, where p (1 - p) / K(p)^2 peaks.  With p = 1/2 the sigma
    # product vanishes, and a weight of 1e77 is solved as before
    uniform = SurvivalProfile.uniform(3, 0.9)
    star = WeightedGraph(7, [(0, j, math.sqrt(0.99 * 1.7976931348623157e308))
                             for j in range(1, 7)])
    for g, profile, term in (
            (WeightedGraph(3, [(0, 1, 1e78), (1, 2, 1.0)]), uniform, "sigma"),
            (WeightedGraph(3, [(0, 1, 1e155), (1, 2, 1.0)]), uniform, "k_bar"),
            (star, SurvivalProfile([1.0] + [0.632] * 6), "term_dpad")):
        for call in (lambda: deviation_bound(g, profile, 1.0, 0.1),
                     lambda: optimize_alpha(g, profile, 0.1)):
            with pytest.raises(ValueError, match=f"^{term} overflows: the edge weights"):
                call()
    report = deviation_bound(WeightedGraph(3, [(0, 1, 1e78), (1, 2, 1.0)]),
                             SurvivalProfile.uniform(3, 0.5), 1.0, 0.1)
    assert report.sigma == 0.0 and math.isfinite(report.total)
    assert math.isfinite(deviation_bound(WeightedGraph(3, [(0, 1, 1e77), (1, 2, 1.0)]),
                                         uniform, 1.0, 0.1).total)
