"""Exhaustive alpha search, kept as the reference the pruned
theory.optimize_alpha must match with ==: every grid alpha and every
refinement alpha is solved, in ascending order, with no bound and no cache."""
from __future__ import annotations

import numpy as np

from percobound import theory


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
