"""Exhaustive enumeration over all 2^n deletion patterns.

Ground truth for everything the sampler and the closed-form bounds claim:
exact distributions of per-realization statistics and exact tails of matrix
Bernoulli series.  Enumeration is capped at n = 20 vertices.

Both enumerations walk the masks in ascending order, one fixed-size chunk at
a time, with no per-mask Python: one shift-and-mask decodes a chunk's
survival flags.  exact_distribution hands that grid to the percolation
module's per-pattern functions, as the Monte Carlo kernel does;
exact_bernoulli_series_tail forms the chunk's partial sums with one einsum
and solves them as one stack.  The chunks come from the _chunking module,
each as many masks as _CHUNK_ENTRIES entries of matrices hold, so beyond the
2^n-long arrays the memory is O(_CHUNK_ENTRIES).

Every exact sum, over a table (total_probability, exact_tail and the oracle
command's summary) or over the hits of exact_bernoulli_series_tail, goes
through _exact_sum: one math.fsum call reads the values through one lazy
chain, one row block or chunk at a time, so it rounds once, as fsum of the
whole list would, without holding a 2^n-long list.

ExactDistribution.write_csv prints each value as its repr, one row block of
the _chunking module (1,024 entries) at a time, and formats each distinct
probability and statistic of a block once: a table holds few distinct
probabilities (68 of 32,768 on the 15-cycle at a uniform p) and often
repeats its statistics.  So beyond its table of 16 * 2^n bytes, the oracle
command's CSV output and summary hold one row block.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._chunking import _chunks, _distinct_rows, _row_slices
from .graph_core import WeightedGraph, _EqualByKey, _real, _require_positive_int
from .percolation import (
    SurvivalProfile,
    _check_alpha,
    _check_lengths,
    _deviation_norms,
    _workspace,
    algebraic_connectivity_survivors,
    expected_augmented_laplacian,
    survivor_connectivity,
)
from .spectral import spectral_norm
from .theory import _series_terms

__all__ = [
    "MAX_ENUM_VERTICES",
    "STATISTIC_KINDS",
    "ExactDistribution",
    "exact_distribution",
    "exact_tail",
    "exact_bernoulli_series_tail",
]

MAX_ENUM_VERTICES = 20
STATISTIC_KINDS = ("deviation_norm", "a_delta", "connectivity_indicator")


def _mask_bits(first: int, last: int, n: int) -> np.ndarray:
    """The (last - first, n) uint8 grid of the bits of the masks first, ...,
    last - 1: entry [t, i] is bit i of mask first + t (little-endian)."""
    return ((np.arange(first, last)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _bit_strings(first: int, last: int, n: int) -> list:
    """Binary string of each mask first, ..., last - 1, vertex 0 first."""
    # one "0"/"1" byte per vertex, read back as one n-byte string per row
    digits = _mask_bits(first, last, n) + np.uint8(ord("0"))
    return digits.view(f"S{n}")[:, 0].astype(str).tolist()


def _float_reprs(values: np.ndarray) -> list:
    """repr of each float64 value, formatted once per distinct bit pattern."""
    # grouped by bits: -0.0 and 0.0 compare equal but print apart
    first, inverse = _distinct_rows(values.view(np.uint64)[:, None])
    reprs = np.array([repr(x) for x in values[first].tolist()], dtype=object)
    return reprs[inverse].tolist()


def _exact_sum(parts) -> float:
    """math.fsum of the values of the arrays parts yields, in order.

    One fsum call reads them through one lazy chain, one array's list at a
    time, so the sum, and the OverflowError of a sum that overflows, are
    those of fsum over their whole list; a sum of per-array sums would round
    twice.
    """
    return math.fsum(itertools.chain.from_iterable(part.tolist() for part in parts))


@dataclass(frozen=True, eq=False)
class ExactDistribution(_EqualByKey):
    """Exact joint table of (pattern, probability, statistic).

    Entry t is the survival pattern whose flags are the bits of t, little-
    endian: bit i is delta_i.  The entries cover all 2^n masks in ascending
    order, so probabilities sum to 1.  statistics may contain +inf (a_delta
    with fewer than two survivors).  Two tables are equal when n, the kind
    and each array's dtype, shape and bits are (_EqualByKey); a table has no
    hash, since its arrays are writable.
    """

    __hash__ = None

    n: int
    statistic_kind: str
    probabilities: np.ndarray
    statistics: np.ndarray

    def __len__(self) -> int:
        return int(self.probabilities.shape[0])

    def total_probability(self) -> float:
        return _exact_sum(q for q, _ in self._blocks())

    def _blocks(self):
        """Yield (probabilities, statistics) views of consecutive row blocks
        of entries, in entry order."""
        for rows in _row_slices(len(self)):
            yield self.probabilities[rows], self.statistics[rows]

    def pattern_bits(self, t: int) -> str:
        """Binary string of entry t, vertex 0 first."""
        if not 0 <= t < len(self):
            raise IndexError(f"entry {t} is outside [0, {len(self)})")
        return _bit_strings(t, t + 1, self.n)[0]

    def row_blocks(self):
        """Yield (bits, probabilities, statistics) lists for consecutive blocks
        of entries in entry order: pattern_bits strings and Python floats."""
        for rows in _row_slices(len(self)):
            yield (_bit_strings(rows.start, rows.stop, self.n),
                   self.probabilities[rows].tolist(),
                   self.statistics[rows].tolist())

    def write_csv(self, fh) -> None:
        """Write a header and one row per entry, one block of entries at a time."""
        fh.write("pattern_bits,probability,statistic\n")
        # repr(math.inf) is "inf", the CSV's spelling; no statistic is -inf
        for rows in _row_slices(len(self)):
            text = zip(_bit_strings(rows.start, rows.stop, self.n),
                       _float_reprs(self.probabilities[rows]),
                       _float_reprs(self.statistics[rows]))
            fh.write("".join([f"{b},{q},{s}\n" for b, q, s in text]))


def _pattern_probabilities(p: np.ndarray) -> np.ndarray:
    """Probability of every mask, index little-endian in the vertex bits."""
    # filled in place, doubling the filled prefix per vertex: the table is the
    # only 2^n-long array made
    q = np.empty(1 << len(p))
    q[0] = 1.0
    for i, pi in enumerate(p):
        low, high = q[:1 << i], q[1 << i:2 << i]
        np.multiply(low, pi, out=high)
        np.multiply(low, 1.0 - pi, out=low)
    return q


def _check_enumerable(n: int) -> None:
    if n > MAX_ENUM_VERTICES:
        raise ValueError(
            f"exhaustive enumeration is capped at {MAX_ENUM_VERTICES} vertices, got {n}"
        )


def exact_distribution(g: WeightedGraph, profile: SurvivalProfile, alpha: float,
                       statistic_kind: str, workers: int = 1) -> ExactDistribution:
    """Enumerate all 2^n survival patterns and their statistic.

    statistic_kind is one of deviation_norm (spectral norm of the augmented
    Laplacian minus its expectation, needs alpha), a_delta (algebraic
    connectivity of the survivors, +inf below two survivors), or
    connectivity_indicator (1.0 if the survivors are connected).  Each
    chunk's grid of flags goes through the percolation module's per-pattern
    functions, so every statistic is, bit for bit, what they give that
    pattern alone.  alpha must be finite and non-negative for every kind,
    also those that do not use it.  The chunks of masks run on `workers`
    processes, a positive integer.
    """
    _check_enumerable(g.n)
    alpha = _check_alpha(alpha)
    workers = _require_positive_int("workers", workers)
    if statistic_kind not in STATISTIC_KINDS:
        raise ValueError(
            f"statistic_kind must be one of {STATISTIC_KINDS}, got {statistic_kind!r}"
        )
    _check_lengths(g, len(profile), "profile")

    n = g.n
    count = 1 << n
    probabilities = _pattern_probabilities(profile.p)
    statistics = np.empty(count)
    if statistic_kind == "deviation_norm":
        expected = expected_augmented_laplacian(g, profile, alpha)
        workspace = _workspace(n)

    def chunk_statistics(first: int, last: int) -> np.ndarray:
        delta = _mask_bits(first, last, n).astype(bool)
        if statistic_kind == "connectivity_indicator":
            return survivor_connectivity(g, delta)[1]
        if statistic_kind == "deviation_norm":
            return _deviation_norms(g, alpha, expected, delta, workspace)[1]
        return algebraic_connectivity_survivors(g, delta)

    with contextlib.closing(_chunks(chunk_statistics, 0, count, n * n, workers)) as chunks:
        for first, values in chunks:
            statistics[first:first + len(values)] = values

    return ExactDistribution(
        n=n,
        statistic_kind=statistic_kind,
        probabilities=probabilities,
        statistics=statistics,
    )


def _check_level(t: float) -> None:
    # every comparison against NaN is false, so a NaN level would read as tail 0
    _real(t, lambda t: not math.isnan(t), f"level t must be a number, got {t!r}")


def exact_tail(dist: ExactDistribution, t: float) -> float:
    """Exact P(statistic > t), summed with compensated summation."""
    _check_level(t)
    return _exact_sum(q[s > t] for q, s in dist._blocks())


def exact_bernoulli_series_tail(matrices, profile: SurvivalProfile, t: float) -> float:
    """Exact P(|| sum_i (delta_i - p_i) X_i || >= t) by enumeration.

    matrices are symmetric (as bernoulli_series_variance checks them) and
    share a common size; delta_i ~ Bernoulli(p_i) independent.  Capped at 20
    Bernoulli variables.  Each partial sum S is solved as 0.5 * (S + S^T).
    """
    _check_level(t)
    X = _series_terms(matrices, profile)
    n = X.shape[0]
    _check_enumerable(n)
    count = 1 << n
    probabilities = _pattern_probabilities(profile.p)

    def chunk_hits(first: int, last: int) -> np.ndarray:
        # uint8 - float64 gives the values int64 - float64 would
        coeff = _mask_bits(first, last, n) - profile.p
        S = np.einsum("ci,ijk->cjk", coeff, X)
        norms = spectral_norm(0.5 * (S + S.mT))
        return probabilities[first:last][norms >= t]

    return _exact_sum(hits for _, hits in _chunks(chunk_hits, 0, count, X.shape[1] ** 2))
