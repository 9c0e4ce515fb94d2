"""Exhaustive alpha search, kept as the reference the pruned
theory.optimize_alpha must match with ==: every grid alpha and every
refinement alpha is solved, in ascending order, with no bound and no cache.
Also the scalar Weyl bound of one alpha, and the pruned search that ranks
its candidates by that bound one at a time, which the vectorized ranking
must match in every bit and in every alpha it solves."""
from __future__ import annotations

import numpy as np

from percobound import expected_augmented_laplacian, theory


def grid(expected_row: np.ndarray, alpha_grid_size: int) -> list[float]:
    """The first pass's candidates: the grid over [0, 2 max row] plus the mean row."""
    hi = 2.0 * float(expected_row.max())
    return sorted(set([*np.linspace(0.0, hi, alpha_grid_size), float(expected_row.mean())]))


def optimize_alpha(g, profile, epsilon: float, alpha_grid_size: int = 256):
    """(alpha, report) of the full scan, as theory.optimize_alpha returns them."""
    if alpha_grid_size < 2:
        raise ValueError("alpha_grid_size must be at least 2")
    expected_row, bound_at, _ = theory._alpha_free_part(g, profile, epsilon)
    hi = 2.0 * float(expected_row.max())
    best = None
    for alpha in grid(expected_row, alpha_grid_size):
        report = bound_at(alpha)
        if theory._better(report, best):
            best = report

    # one refinement pass: rescan a window of one grid step around the winner
    step = hi / (alpha_grid_size - 1) if hi > 0 else 0.0
    if step > 0:
        lo_w = max(0.0, best.alpha - step)
        hi_w = min(hi, best.alpha + step)
        for alpha in np.linspace(lo_w, hi_w, alpha_grid_size):
            report = bound_at(float(alpha))
            if theory._better(report, best):
                best = report
    return best.alpha, best


def upper_bound(g, profile, epsilon: float):
    """upper(alpha, lambda2_free): the bound of _alpha_free_part's upper_at on
    one alpha, min(lambda2_free + alpha max(1 - p) - total, alpha) plus the
    margin, with the mismatch term taken over every expected row sum."""
    expected_row, bound_at, _ = theory._alpha_free_part(g, profile, epsilon)
    fixed = bound_at(0.0)
    l0_norm = float(np.abs(expected_augmented_laplacian(g, profile, 0.0)).sum(axis=1).max())
    max_ghost = float((1.0 - profile.p).max())

    def upper(alpha: float, lambda2_free: float) -> float:
        mismatch = float(np.abs(alpha - expected_row).max())
        total = fixed.term_kbar + mismatch + fixed.term_dad + fixed.term_dpad + fixed.term_sigma
        shift = alpha * max_ghost
        margin = 1e-8 * (l0_norm + shift + total + 1.0)
        return min(lambda2_free + shift - total, float(alpha)) + margin

    return upper


def pruned_search_alphas(g, profile, epsilon: float, alpha_grid_size: int = 256) -> list:
    """The alphas the pruned search solves, in order, ranking each pass's
    candidates by upper_bound one alpha at a time."""
    expected_row, bound_at, _ = theory._alpha_free_part(g, profile, epsilon)
    upper_at = upper_bound(g, profile, epsilon)
    hi = 2.0 * float(expected_row.max())
    reports = {0.0: bound_at(0.0)}
    best = reports[0.0]
    lambda2_free = best.lambda2_expected

    def search(candidates, best):
        upper = {float(a): upper_at(float(a), lambda2_free) for a in candidates}
        for alpha in sorted(upper, key=lambda a: (-upper[a], a)):
            if upper[alpha] < best.a_lower_bound:
                break
            if alpha not in reports:
                reports[alpha] = bound_at(alpha)
            if theory._better(reports[alpha], best):
                best = reports[alpha]
        return best

    best = search([*np.linspace(0.0, hi, alpha_grid_size), float(expected_row.mean())], best)
    step = hi / (alpha_grid_size - 1) if hi > 0 else 0.0
    if step > 0:
        search(np.linspace(max(0.0, best.alpha - step), min(hi, best.alpha + step),
                           alpha_grid_size), best)
    return list(reports)
