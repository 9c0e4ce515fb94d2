"""Mask-by-mask enumeration of the oracle statistics, kept independent of the
library's chunked enumeration as the reference it must match bit for bit."""
from __future__ import annotations

import numpy as np

import percolation_reference as ref
from assembly_reference import expected_augmented_laplacian
from percobound.spectral import spectral_norm


def statistics(g, profile, alpha: float, statistic_kind: str) -> np.ndarray:
    """The statistic of every mask 0 .. 2^n - 1, one sample at a time."""
    n = g.n
    count = 1 << n
    out = np.empty(count)
    expected = None
    if statistic_kind == "deviation_norm":
        expected = expected_augmented_laplacian(g, profile.p, alpha)

    bit = np.arange(n)
    for mask in range(count):
        delta = (mask >> bit) & 1 == 1
        if statistic_kind == "deviation_norm":
            out[mask] = spectral_norm(ref.augmented_laplacian(g, delta, alpha) - expected)
        elif statistic_kind == "a_delta":
            out[mask] = ref.algebraic_connectivity_survivors(g, delta)
        else:
            out[mask] = 1.0 if ref.survivor_connectivity(g, delta)[1] else 0.0
    return out
