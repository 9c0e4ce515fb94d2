"""Per-trial slow path of the Monte Carlo kernel, kept independent of the
library's vectorized implementation as the reference it must match bit for bit:
plain-integer sampling, edge-by-edge assembly, one eigensolve per matrix and
union-find one edge at a time."""
from __future__ import annotations

import math

import numpy as np

from assembly_reference import expected_augmented_laplacian
from percobound.spectral import lambda2, spectral_norm

_M = (1 << 64) - 1


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def component_count(self, members=None) -> int:
        """Number of distinct components among `members` (default: all)."""
        if members is None:
            members = range(len(self.parent))
        return len({self.find(x) for x in members})


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M
    return x ^ (x >> 31)


def scalar_delta(seed: int, trial_index: int, p: np.ndarray) -> np.ndarray:
    out = np.zeros(len(p), dtype=bool)
    for v in range(len(p)):
        h = _mix(seed & _M)
        h = _mix(h ^ (trial_index & _M))
        h = _mix(h ^ v)
        out[v] = (h >> 11) * 2.0**-53 < p[v]
    return out


def percolated_laplacian(g, delta) -> np.ndarray:
    L = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        if delta[i] and delta[j]:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
    return L


def augmented_laplacian(g, delta, alpha: float) -> np.ndarray:
    L = percolated_laplacian(g, delta)
    L[np.diag_indices(g.n)] += alpha * ~np.asarray(delta, dtype=bool)
    return L


def survivor_connectivity(g, delta) -> tuple[int, bool]:
    survivors = np.flatnonzero(delta)
    m = survivors.shape[0]
    if m <= 1:
        return m, True
    uf = UnionFind(g.n)
    for i, j, _ in g.edges:
        if delta[i] and delta[j]:
            uf.union(i, j)
    return m, uf.component_count(survivors) == 1


def algebraic_connectivity_survivors(g, delta) -> float:
    survivors = np.flatnonzero(delta)
    m = survivors.shape[0]
    if m <= 1:
        return math.inf
    position = {int(v): idx for idx, v in enumerate(survivors)}
    L = np.zeros((m, m))
    for i, j, w in g.edges:
        if delta[i] and delta[j]:
            a, b = position[i], position[j]
            L[a, a] += w
            L[b, b] += w
            L[a, b] -= w
            L[b, a] -= w
    return lambda2(L)


def run_trial(g, profile, alpha: float, seed: int, trial_index: int) -> tuple:
    """(delta, survivor_count, is_connected, a_delta, deviation_norm,
    lambda2_augmented) of one trial."""
    delta = scalar_delta(seed, trial_index, profile.p)
    aug = augmented_laplacian(g, delta, alpha)
    expected = expected_augmented_laplacian(g, profile.p, alpha)
    deviation = spectral_norm(aug - expected)
    survivor_count, is_connected = survivor_connectivity(g, delta)
    return (delta, survivor_count, is_connected,
            algebraic_connectivity_survivors(g, delta), deviation, lambda2(aug))
