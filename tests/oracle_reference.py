"""Mask-by-mask enumeration of the oracle statistics, kept independent of the
library's chunked enumeration as the reference it must match bit for bit."""
from __future__ import annotations

import numpy as np

from percobound.percolation import (
    PercolationSample,
    algebraic_connectivity_survivors,
    augmented_laplacian,
    expected_augmented_laplacian,
    survivor_connectivity,
)
from percobound.spectral import spectral_norm


def statistics(g, profile, alpha: float, statistic_kind: str) -> np.ndarray:
    """The statistic of every mask 0 .. 2^n - 1, one sample at a time."""
    n = g.n
    count = 1 << n
    out = np.empty(count)
    expected = None
    if statistic_kind == "deviation_norm":
        expected = expected_augmented_laplacian(g, profile, alpha)

    bit = np.arange(n)
    for mask in range(count):
        delta = (mask >> bit) & 1 == 1
        s = PercolationSample(delta=delta, seed=0, trial_index=mask)
        if statistic_kind == "deviation_norm":
            out[mask] = spectral_norm(augmented_laplacian(g, s, alpha) - expected)
        elif statistic_kind == "a_delta":
            out[mask] = algebraic_connectivity_survivors(g, s)
        else:
            out[mask] = 1.0 if survivor_connectivity(g, s)[1] else 0.0
    return out
