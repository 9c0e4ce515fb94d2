"""Independent site percolation: sampling, percolated and augmented Laplacians.

Vertex i survives with probability p_i, independently.  Deleting a vertex
removes every incident edge.  The augmented Laplacian adds alpha on the
diagonal entry of each deleted (ghost) vertex, which decouples ghosts from
survivors: its spectrum is the survivor-block Laplacian spectrum together
with one copy of alpha per ghost.

Sampling is counter-based: each survival flag is a pure function of
(seed, trial_index, vertex), so trials can be evaluated in any order, on any
number of threads, with identical results on every platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import UnionFind, WeightedGraph, edge_laplacian
from .spectral import lambda2, spectral_norm

__all__ = [
    "SurvivalProfile",
    "PercolationSample",
    "TrialRecord",
    "sample",
    "percolated_laplacian",
    "augmented_laplacian",
    "expected_augmented_laplacian",
    "survivor_connectivity",
    "algebraic_connectivity_survivors",
    "run_trial",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def _splitmix64(x: int) -> int:
    """One splitmix64 step on a 64-bit integer (pure Python reference)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    # splitmix64 on a uint64 array; unsigned arithmetic wraps mod 2**64
    z = z + _U64(_GOLDEN)
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _unit_uniform_vector(seed: int, trial_index: int, n: int) -> np.ndarray:
    h = _splitmix64(seed & _MASK64)
    h = _splitmix64(h ^ (trial_index & _MASK64))
    z = _mix_array(_U64(h) ^ np.arange(n, dtype=np.uint64))
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SurvivalProfile:
    """Per-vertex survival probabilities, each in [0, 1]."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float, copy=True)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("survival profile must be a non-empty 1-d vector")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("survival probabilities must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls, n: int, p: float) -> "SurvivalProfile":
        if n < 1:
            raise ValueError("profile length must be at least 1")
        return cls(np.full(n, float(p)))

    def __len__(self) -> int:
        return int(self.p.shape[0])


@dataclass(frozen=True)
class PercolationSample:
    """One realization of the survival flags, with its provenance."""

    delta: np.ndarray
    seed: int
    trial_index: int

    def __post_init__(self):
        arr = np.array(self.delta, dtype=bool, copy=True)
        if arr.ndim != 1:
            raise ValueError("delta must be a 1-d boolean vector")
        arr.setflags(write=False)
        object.__setattr__(self, "delta", arr)

    @property
    def survivor_count(self) -> int:
        return int(self.delta.sum())


@dataclass(frozen=True)
class TrialRecord:
    """Everything the harness keeps per Monte Carlo trial."""

    sample: PercolationSample
    survivor_count: int
    is_connected: bool
    a_delta: float
    deviation_norm: float
    lambda2_augmented: float


def _check_lengths(g: WeightedGraph, length: int, what: str) -> None:
    if length != g.n:
        raise ValueError(f"{what} has length {length} but the graph has {g.n} vertices")


def sample(profile: SurvivalProfile, seed: int, trial_index: int) -> PercolationSample:
    """Draw the survival flags for one trial.

    delta_i = 1 iff a hash-derived uniform for (seed, trial_index, i) falls
    below p_i, so p_i = 0 and p_i = 1 are exact.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    u = _unit_uniform_vector(seed, trial_index, len(profile))
    return PercolationSample(delta=u < profile.p, seed=seed, trial_index=trial_index)


def _percolated_from_delta(g: WeightedGraph, delta: np.ndarray) -> np.ndarray:
    L = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        if delta[i] and delta[j]:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
    return L


def percolated_laplacian(g: WeightedGraph, s: PercolationSample) -> np.ndarray:
    """Laplacian of the graph after deleting non-survivors (n x n, zero rows for ghosts)."""
    _check_lengths(g, s.delta.shape[0], "sample")
    return _percolated_from_delta(g, s.delta)


def augmented_laplacian(g: WeightedGraph, s: PercolationSample, alpha: float) -> np.ndarray:
    """Percolated Laplacian plus alpha on each ghost's diagonal entry."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    _check_lengths(g, s.delta.shape[0], "sample")
    L = _percolated_from_delta(g, s.delta)
    ghosts = ~s.delta
    L[np.diag_indices(g.n)] += alpha * ghosts
    return L


def expected_augmented_laplacian(g: WeightedGraph, profile: SurvivalProfile,
                                 alpha: float) -> np.ndarray:
    """Entrywise expectation of the augmented Laplacian.

    Edge (i, j, w) contributes with weight p_i * p_j * w; the ghost diagonal
    contributes alpha * (1 - p_i).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    _check_lengths(g, len(profile), "profile")
    p = profile.p
    L = edge_laplacian(g, p[g.src] * p[g.dst] * g.w)
    L[np.diag_indices(g.n)] += alpha * (1.0 - p)
    return L


def survivor_connectivity(g: WeightedGraph, s: PercolationSample) -> tuple[int, bool]:
    """(survivor count, connected flag) for the surviving induced subgraph.

    Connectivity is decided combinatorially by union-find; zero or one
    survivor counts as connected.
    """
    _check_lengths(g, s.delta.shape[0], "sample")
    delta = s.delta
    survivors = np.flatnonzero(delta)
    m = survivors.shape[0]
    if m <= 1:
        return m, True
    uf = UnionFind(g.n)
    for i, j, _ in g.edges:
        if delta[i] and delta[j]:
            uf.union(i, j)
    return m, uf.component_count(survivors) == 1


def algebraic_connectivity_survivors(g: WeightedGraph, s: PercolationSample) -> float:
    """lambda_2 of the surviving induced subgraph's Laplacian.

    With zero or one survivor there is nothing to disconnect and the value
    is +infinity by convention.
    """
    _check_lengths(g, s.delta.shape[0], "sample")
    delta = s.delta
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


def run_trial(g: WeightedGraph, profile: SurvivalProfile, alpha: float,
              seed: int, trial_index: int, _expected: np.ndarray | None = None) -> TrialRecord:
    """Sample one realization and record its connectivity and deviation data.

    _expected lets callers amortize the expected augmented Laplacian across
    trials; it must equal expected_augmented_laplacian(g, profile, alpha).
    """
    _check_lengths(g, len(profile), "profile")
    s = sample(profile, seed, trial_index)
    aug = augmented_laplacian(g, s, alpha)
    if _expected is None:
        _expected = expected_augmented_laplacian(g, profile, alpha)
    deviation = spectral_norm(aug - _expected)
    survivor_count, is_connected = survivor_connectivity(g, s)
    a_delta = algebraic_connectivity_survivors(g, s)
    return TrialRecord(
        sample=s,
        survivor_count=survivor_count,
        is_connected=is_connected,
        a_delta=a_delta,
        deviation_norm=deviation,
        lambda2_augmented=lambda2(aug),
    )
