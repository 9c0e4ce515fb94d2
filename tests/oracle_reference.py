"""Mask-by-mask enumeration of the oracle statistics and of the matrix
Bernoulli-series tail, kept independent of the library's chunked enumeration
as the reference it must match bit for bit."""
from __future__ import annotations

import math

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


def series_norms(matrices, profile) -> np.ndarray:
    """|| sum_i (delta_i - p_i) X_i || of every mask 0 .. 2^n - 1, one mask at
    a time, each partial sum S solved as 0.5 * (S + S^T)."""
    X = np.asarray(matrices, dtype=float)
    n = X.shape[0]
    p = profile.p
    norms = np.empty(1 << n)
    for mask in range(1 << n):
        coeff = np.array([(mask >> i) & 1 for i in range(n)]) - p
        S = np.einsum("i,ijk->jk", coeff, X)
        norms[mask] = np.abs(np.linalg.eigvalsh(0.5 * (S + S.T))).max()
    return norms


def bernoulli_series_tail(matrices, profile, t: float) -> float:
    """P(|| sum_i (delta_i - p_i) X_i || >= t), summed exactly over the masks."""
    p = profile.p
    hits = []
    for mask, norm in enumerate(series_norms(matrices, profile).tolist()):
        if norm >= t:
            # multiplied up from vertex 0, the order the library rounds in
            q = 1.0
            for i in range(len(p)):
                q *= p[i] if (mask >> i) & 1 else 1.0 - p[i]
            hits.append(q)
    return math.fsum(hits)


def write_csv(dist, fh) -> None:
    """The oracle CSV with every value formatted on its own, row by row."""
    fh.write("pattern_bits,probability,statistic\n")
    for t in range(len(dist)):
        fh.write(f"{dist.pattern_bits(t)},{float(dist.probabilities[t])!r},"
                 f"{float(dist.statistics[t])!r}\n")
