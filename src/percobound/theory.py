"""Closed-form machinery: sub-Gaussian Bernoulli constants, the deviation
bound on the augmented percolated Laplacian, matrix-series tail bounds, and
connectivity thresholds for regular expander-like graphs.

The central object is a five-term high-probability bound on the spectral
norm of the difference between the augmented Laplacian and its expectation.
Combined with Weyl's inequality it yields, for every realization in the
good event, the lower bound

    a_delta >= min(lambda_2(expected augmented Laplacian) - deviation, alpha)

on the algebraic connectivity of the surviving subgraph.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .graph_core import WeightedGraph, _require_positive_int, build_adjacency, is_integer
from .percolation import (
    SurvivalProfile,
    _check_alpha,
    _check_lengths,
    expected_augmented_laplacian,
)
from .spectral import lambda2, spectral_norm

__all__ = [
    "K_MAX",
    "BoundReport",
    "ThresholdReport",
    "kearns_saul_k",
    "deviation_bound",
    "bernoulli_series_variance",
    "bernoulli_series_tail_bound",
    "optimize_alpha",
    "expected_lambda2_regular",
    "check_gap_condition",
    "threshold_constants",
    "survival_threshold",
]

# sup of kearns_saul_k over [0, 1], attained at p = 1/2
K_MAX = 0.5 / math.sqrt(2.0)

THRESHOLD_MODES = ("closed_form", "bisection")
# points of each optimize_alpha grid pass, unless the caller gives another count
ALPHA_GRID_SIZE = 256

_BISECTION_TOL = 1e-12
_SWEEP_POINTS = 1000


def kearns_saul_k(p: float) -> float:
    """Sharp sub-Gaussian constant of a centered Bernoulli(p) variable.

    This is the Kearns-Saul constant K(p) = sqrt((1 - 2p) / log((1-p)/p)) / 2,
    the smallest K with E exp(t(delta - p)) <= exp((K t)^2) for all real t.
    It vanishes at p in {0, 1}, peaks at 1/(2 sqrt 2) for p = 1/2, and is
    symmetric about 1/2.  The ratio is 0/0 at p = 1/2, so within 1e-6 of 1/2
    a two-term series replaces the direct quotient.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    u = p - 0.5
    if abs(u) < 1e-6:
        ratio = 0.5 - (2.0 / 3.0) * u * u
    else:
        ratio = (1.0 - 2.0 * p) / math.log((1.0 - p) / p)
    return 0.5 * math.sqrt(ratio)


@dataclass(frozen=True)
class BoundReport:
    """Five-term deviation bound and the connectivity lower bound it implies.

    total = term_kbar + term_alpha_mismatch + term_dad + term_dpad + term_sigma
    holds for the spectral-norm deviation with probability at least
    1 - epsilon; a_lower_bound = min(lambda2_expected - total, alpha).
    """

    epsilon: float
    alpha: float
    k_bar: float
    sigma: float
    term_kbar: float
    term_alpha_mismatch: float
    term_dad: float
    term_dpad: float
    term_sigma: float
    total: float
    lambda2_expected: float
    a_lower_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ThresholdReport:
    """Survival threshold certifying connectivity with probability >= 1 - epsilon.

    c1 and c2 depend only on lambda/d; log_c1 carries log(c1) exactly even
    when c1 itself underflows.  beta4_min satisfies p_threshold =
    1 - exp(-beta4_min) up to rounding; in closed_form mode it is the exact
    closed-form exponent and stays meaningful even when the survival gap
    underflows.  vacuous is set when the threshold is within one ulp of 1,
    i.e. no double below 1 satisfies the certificate.  sweep_violations
    counts failures of the post-bisection monotonicity sweep (bisection mode
    only; 0 otherwise).
    """

    c1: float
    c2: float
    beta4_min: float
    p_threshold: float
    mode: str
    vacuous: bool
    log_c1: float
    sweep_violations: int

    def to_dict(self) -> dict:
        return asdict(self)


def _validate_epsilon(epsilon: float) -> float:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return float(epsilon)


def _log_4n_over(n: int, epsilon: float) -> float:
    """log(4n/epsilon): the log of the quotient wherever that is finite, else
    (a subnormal epsilon, or n beyond the float range) log(4n) - log(epsilon)."""
    four_n = 4 * int(n)
    try:
        quotient = four_n / epsilon
    except OverflowError:  # 4n itself exceeds the float range
        quotient = math.inf
    if quotient < math.inf:
        return math.log(quotient)
    return math.log(four_n) - math.log(epsilon)


def _finite(term: str, values):
    """values, refused if an entry overflowed: each product in the bound
    grows as a power of the edge weights."""
    if not np.isfinite(values).all():
        raise ValueError(f"{term} overflows: the edge weights are too large")
    return values


def _check_grid_size(name: str, size) -> None:
    """Reject an alpha grid size that is not an integer of at least 2; a bool
    is not an integer here."""
    if not is_integer(size) or size < 2:
        raise ValueError(f"{name} must be an integer of at least 2, got {size!r}")


# a product that overflows is refused before it is solved (the eigensolver
# does not converge on inf), so numpy's warnings would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def _alpha_free_part(g: WeightedGraph, profile: SurvivalProfile, epsilon: float):
    """Validate the inputs deviation_bound and optimize_alpha share, then
    compute everything in the bound that does not depend on alpha.

    Returns the expected row sums sum_j p_j w_ij and two functions of alpha.
    bound_at finishes the bound: the mismatch term, plus one lambda_2 of the
    alpha-free expected Laplacian L0 with alpha (1 - p) added to its diagonal.
    upper_at(alphas, lambda2_free), given lambda2_free = lambda_2(L0), bounds
    bound_at(alpha).a_lower_bound from above with no eigensolve, for every
    alpha of the array alphas at once.
    """
    epsilon = _validate_epsilon(epsilon)
    _check_lengths(g, len(profile), "profile")
    if g.n < 2:
        raise ValueError("deviation_bound needs a graph on at least 2 vertices")

    A = build_adjacency(g)
    p = profile.p
    kv = np.array([kearns_saul_k(float(pi)) for pi in p])
    sqrt_log = math.sqrt(_log_4n_over(g.n, epsilon))

    k_bar = float(np.sqrt(_finite("k_bar", (A * A) @ (kv * kv)).max()))
    term_kbar = 2.0 * k_bar * sqrt_log

    expected_row = A @ p

    s_sqrt = np.sqrt(p * (1.0 - p))
    term_dad = spectral_norm(s_sqrt[:, None] * A * s_sqrt[None, :])

    # diag(p) A diag(sqrt(s)) is not symmetric; its operator norm is the
    # square root of the spectral norm of B B^T.
    B = p[:, None] * A * s_sqrt[None, :]
    term_dpad = 2.0 * math.sqrt(spectral_norm(_finite("term_dpad", B @ B.T)))

    # sum_i c_i a_i a_i^T with a_i the i-th column of A equals A diag(c) A
    col_norm_sq = (A * A).sum(axis=0)
    c = kv * kv * (1.0 - 2.0 * p) ** 2 * col_norm_sq
    sigma = math.sqrt(spectral_norm(_finite("sigma", (A * c[None, :]) @ A)))
    term_sigma = 4.5 * math.sqrt(sigma * sqrt_log)

    alpha_free_laplacian = expected_augmented_laplacian(g, profile, 0.0)
    ghost = 1.0 - p
    max_ghost = float(ghost.max())
    l0_norm = float(np.abs(alpha_free_laplacian).sum(axis=1).max())

    row_min, row_max = float(expected_row.min()), float(expected_row.max())

    def mismatch_and_total(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # fl(alpha - r) falls as r grows, so max_r |fl(alpha - r)|, the
        # mismatch term, is taken at the least or the greatest r
        mismatch = np.maximum(np.abs(alphas - row_min), np.abs(alphas - row_max))
        return mismatch, term_kbar + mismatch + term_dad + term_dpad + term_sigma

    def upper_at(alphas, lambda2_free: float) -> np.ndarray:
        # Weyl: adding the diagonal alpha (1 - p) >= 0 raises lambda_2 by at
        # most alpha max(1 - p).  The margin exceeds the rounding of both
        # eigensolves, of the diagonal shift and of the subtraction of total.
        alphas = np.asarray(alphas, dtype=float)
        shift = alphas * max_ghost
        total = mismatch_and_total(alphas)[1]
        margin = 1e-8 * (l0_norm + shift + total + 1.0)
        return np.minimum(lambda2_free + shift - total, alphas) + margin

    def bound_at(alpha: float) -> BoundReport:
        term_alpha_mismatch, total = map(float, mismatch_and_total(np.float64(alpha)))
        L = alpha_free_laplacian.copy()
        L[np.diag_indices(g.n)] += alpha * ghost
        lam2 = lambda2(L)
        return BoundReport(
            epsilon=epsilon,
            alpha=float(alpha),
            k_bar=k_bar,
            sigma=sigma,
            term_kbar=term_kbar,
            term_alpha_mismatch=term_alpha_mismatch,
            term_dad=term_dad,
            term_dpad=term_dpad,
            term_sigma=term_sigma,
            total=total,
            lambda2_expected=lam2,
            a_lower_bound=min(lam2 - total, float(alpha)),
        )

    return expected_row, bound_at, upper_at


def deviation_bound(g: WeightedGraph, profile: SurvivalProfile, alpha: float,
                    epsilon: float) -> BoundReport:
    """High-probability bound on ||augmented Laplacian - its expectation||.

    The five terms, with A the weighted adjacency, K_i the Kearns-Saul
    constant of p_i, s_i = p_i (1 - p_i) and a_i the i-th column of A:

      term_kbar           2 * kbar * sqrt(log(4n/epsilon)),
                          kbar = max_i sqrt(sum_j w_ij^2 K_j^2)
      term_alpha_mismatch max_i |alpha - sum_j p_j w_ij|
      term_dad            || diag(sqrt(s)) A diag(sqrt(s)) ||
      term_dpad           2 || diag(p) A diag(sqrt(s)) ||
      term_sigma          4.5 * sqrt(sigma * sqrt(log(4n/epsilon))),
                          sigma^2 = || sum_i K_i^2 (1-2p_i)^2 ||a_i||^2 a_i a_i^T ||

    Their sum bounds the deviation with probability at least 1 - epsilon.
    Only term_alpha_mismatch and lambda2_expected depend on alpha; the other
    four terms, kbar and sigma are fixed by the graph, profile and epsilon.
    Edge weights whose products overflow raise ValueError naming the term.
    """
    _check_alpha(alpha)
    _, bound_at, _ = _alpha_free_part(g, profile, epsilon)
    return bound_at(alpha)


def _series_terms(matrices, profile: SurvivalProfile) -> np.ndarray:
    """The terms X_i of a matrix series as a (count, m, m) stack, checked to be
    square, symmetric and one per entry of the profile."""
    X = np.asarray(matrices, dtype=float)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError("expected a sequence of square matrices of equal size")
    max_scale = max(1.0, float(np.abs(X).max()))
    if float(np.abs(X - X.mT).max()) > 1e-10 * max_scale:
        raise ValueError("matrices must be symmetric")
    if X.shape[0] != len(profile):
        raise ValueError(f"{X.shape[0]} matrices but profile has length {len(profile)}")
    return X


def bernoulli_series_variance(matrices, profile: SurvivalProfile) -> float:
    """Variance proxy sigma^2 = || sum_i K(p_i)^2 X_i^2 || for a matrix series.

    The series is sum_i (delta_i - p_i) X_i with independent delta_i ~
    Bernoulli(p_i) and fixed symmetric X_i.
    """
    X = _series_terms(matrices, profile)
    kv = np.array([kearns_saul_k(float(pi)) for pi in profile.p])
    S = np.einsum("i,ijk,ikl->jl", kv * kv, X, X)
    return spectral_norm(S)


def bernoulli_series_tail_bound(sigma2: float, count: int, t: float) -> float:
    """Tail bound min(1, 2 N exp(-t^2 / (4 sigma^2))) for the matrix series.

    count is the matrix dimension N.  A zero variance proxy forces the series
    to vanish almost surely, so the tail is 0 for every t > 0.
    """
    # written so that NaN fails too
    if not t > 0:
        raise ValueError("t must be positive")
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be non-negative")
    _require_positive_int("count", count)
    if sigma2 == 0.0:
        return 0.0
    return min(1.0, 2.0 * count * math.exp(-t * t / (4.0 * sigma2)))


def _better(candidate: BoundReport, incumbent: BoundReport | None) -> bool:
    if incumbent is None:
        return True
    if candidate.a_lower_bound != incumbent.a_lower_bound:
        return candidate.a_lower_bound > incumbent.a_lower_bound
    return candidate.alpha < incumbent.alpha


def optimize_alpha(g: WeightedGraph, profile: SurvivalProfile, epsilon: float,
                   alpha_grid_size: int = ALPHA_GRID_SIZE) -> tuple[float, BoundReport]:
    """Pick alpha maximizing a_lower_bound on a deterministic grid.

    The grid spans [0, 2 * max_i sum_j p_j w_ij] plus the mean-row-sum
    candidate, followed by one refinement pass of alpha_grid_size points
    over one grid step either side of the best grid point.  Ties go to the
    smallest alpha.  Returns (alpha, its BoundReport), which equals
    deviation_bound's at that alpha.

    Only term_alpha_mismatch and lambda2_expected vary with alpha, and only
    lambda2_expected needs an eigensolve.  By Weyl's inequality it is at most
    lambda_2 at alpha = 0 plus alpha * max(1 - p), which bounds a_lower_bound
    from above in closed form, with a margin above the rounding error.  Each
    pass bounds all its candidates in one array pass, solves them in order of
    decreasing bound (ties to the smaller alpha) and stops at the first whose
    bound is strictly below the best a_lower_bound found so far: every
    candidate left is then provably worse, so it could neither win nor tie.
    The result is the one a scan of every candidate gives, from as few as two
    eigensolves when p is uniform.
    """
    _check_grid_size("alpha_grid_size", alpha_grid_size)
    expected_row, bound_at, upper_at = _alpha_free_part(g, profile, epsilon)
    hi = 2.0 * float(expected_row.max())
    reports: dict[float, BoundReport] = {}

    def solve(alpha: float) -> BoundReport:
        if alpha not in reports:
            reports[alpha] = bound_at(alpha)
        return reports[alpha]

    # alpha = 0 is a grid point, and its lambda_2 anchors every upper bound
    best = solve(0.0)
    lambda2_free = best.lambda2_expected

    def search(candidates, best: BoundReport) -> BoundReport:
        alphas = list(dict.fromkeys(map(float, candidates)))
        upper = upper_at(alphas, lambda2_free)
        # by decreasing bound, ties to the smaller alpha
        for k in np.lexsort((alphas, -upper)).tolist():
            if upper[k] < best.a_lower_bound:
                break
            report = solve(alphas[k])
            if _better(report, best):
                best = report
        return best

    best = search([*np.linspace(0.0, hi, alpha_grid_size), float(expected_row.mean())], best)
    step = hi / (alpha_grid_size - 1) if hi > 0 else 0.0
    if step > 0:
        lo_w = max(0.0, best.alpha - step)
        hi_w = min(hi, best.alpha + step)
        best = search(np.linspace(lo_w, hi_w, alpha_grid_size), best)
    return best.alpha, best


def expected_lambda2_regular(n: int, d: int, lam: float, p: float,
                             alpha: float | None = None) -> float:
    """lambda_2 lower bound for the expected augmented Laplacian of an
    (n, d, lambda)-graph under uniform survival probability p.

    Equals p^2 (d - lambda) + alpha (1 - p); the default alpha = p d gives
    the closed form p d - p^2 lambda.
    """
    _require_positive_int("n", n)
    if not is_integer(d) or not 0 <= d < n:
        raise ValueError(f"d must be an integer with 0 <= d < n, got {d!r}")
    d = int(d)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if lam > d:
        raise ValueError(f"lambda must not exceed d, got lambda={lam}, d={d}")
    # written so that NaN fails too; lambda is a magnitude
    if not lam >= 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam!r}")
    if alpha is None:
        alpha = p * d
    _check_alpha(alpha)
    return p * p * (d - lam) + alpha * (1.0 - p)


def _check_ndl(n: int, d: int, lam: float) -> None:
    """The (n, d, lambda) rules shared by the gap condition and the threshold."""
    _require_positive_int("n", n)
    _require_positive_int("d", d)
    if d >= n:
        raise ValueError(f"d must be less than n, got d={d}, n={n}")
    if not 0.0 <= lam < d:
        raise ValueError(f"lambda must satisfy 0 <= lambda < d, got lambda={lam}, d={d}")
    # lambda / d and the threshold's exponent divide floats by d
    if d > sys.float_info.max:
        raise ValueError(f"d must not exceed the largest float, {sys.float_info.max!r}")


def check_gap_condition(n: int, d: int, lam: float, p: float,
                        epsilon: float) -> tuple[bool, float, float]:
    """Sufficient condition for the certified gap to be positive on an
    (n, d, lambda)-graph at uniform survival probability p and alpha = p d.

    Returns (holds, lhs, rhs) for the strict comparison

      (1 - lambda/d) p  >  2 sqrt(c) + 2 sqrt(p(1-p))
                           + (9 / (2p)) sqrt(|1 - 2p|) c^(1/4)

    with c = log(4n/epsilon) / d * K(p)^2.  The left side scales the
    relative spectral gap; the right side collects the deviation terms.
    """
    epsilon = _validate_epsilon(epsilon)
    _check_ndl(n, d, lam)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return _gap_condition(n, d, lam, p, epsilon)


def _gap_condition(n: int, d: int, lam: float, p: float,
                   epsilon: float) -> tuple[bool, float, float]:
    """check_gap_condition on inputs it has already checked."""
    k = kearns_saul_k(p)
    c = _log_4n_over(n, epsilon) / d * k * k
    lhs = (1.0 - lam / d) * p
    rhs = (
        2.0 * math.sqrt(c)
        + 2.0 * math.sqrt(p * (1.0 - p))
        + (9.0 / (2.0 * p)) * math.sqrt(abs(1.0 - 2.0 * p)) * c**0.25
    )
    return lhs > rhs, lhs, rhs


def _log_c1(r: float) -> float:
    return -8.0 * (3.0 - r) ** 2 / (1.0 - r) ** 2


def threshold_constants(lambda_over_d: float) -> tuple[float, float]:
    """Constants (c1, c2) of the closed-form survival threshold
    p = 1 - c1 * (4n/epsilon)^(-c2/d) as functions of r = lambda/d:

      c1 = exp(-8 (3 - r)^2 / (1 - r)^2),    c2 = 81^2 / (1 - r)^4.
    """
    r = float(lambda_over_d)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"lambda/d must lie in [0, 1), got {r}")
    return math.exp(_log_c1(r)), 6561.0 / (1.0 - r) ** 4


def survival_threshold(n: int, d: int, lam: float, epsilon: float,
                       mode: str = "closed_form") -> ThresholdReport:
    """Uniform survival probability above which connectivity of the surviving
    subgraph is certified with probability at least 1 - epsilon.

    closed_form mode evaluates the explicit threshold
    1 - c1 * (4n/epsilon)^(-c2/d) in log space.  bisection mode finds the
    smallest p (to 1e-12) where check_gap_condition holds, assuming the
    condition stays satisfied from there up to p = 1; a 1000-point sweep over
    [p, 1] afterwards counts any violations of that assumption.  When the
    true threshold is within one ulp of 1 the report is flagged vacuous and
    p_threshold is the largest double below 1.
    """
    epsilon = _validate_epsilon(epsilon)
    _check_ndl(n, d, lam)
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")

    r = lam / d
    c1, c2 = threshold_constants(r)
    log_c1 = _log_c1(r)
    log_term = _log_4n_over(n, epsilon)
    sweep_violations = 0

    if mode == "closed_form":
        beta4_min = c2 * log_term / d - log_c1
        gap = math.exp(-beta4_min)  # may underflow to 0.0
        raw = 1.0 - gap
        vacuous = raw >= 1.0
        p_threshold = math.nextafter(1.0, 0.0) if vacuous else max(0.0, raw)
    else:
        # condition is false at p = 1/2 for every input (the 2 sqrt(p(1-p))
        # term alone reaches 1 there) and true at p = 1, so bisect between
        lo, hi = 0.5, 1.0
        while hi - lo > _BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if _gap_condition(n, d, lam, mid, epsilon)[0]:
                hi = mid
            else:
                lo = mid
        vacuous = hi >= 1.0
        if vacuous:
            # only p = 1.0 itself satisfied the condition; no double below 1
            # certifies anything, so the sweep is meaningless
            p_threshold = math.nextafter(1.0, 0.0)
        else:
            p_threshold = hi
            for q in np.linspace(p_threshold, 1.0, _SWEEP_POINTS):
                if not _gap_condition(n, d, lam, float(q), epsilon)[0]:
                    sweep_violations += 1
        beta4_min = -math.log1p(-p_threshold)

    return ThresholdReport(
        c1=c1,
        c2=c2,
        beta4_min=beta4_min,
        p_threshold=p_threshold,
        mode=mode,
        vacuous=vacuous,
        log_c1=log_c1,
        sweep_violations=sweep_violations,
    )
