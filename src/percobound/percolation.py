"""Independent site percolation: sampling, percolated and augmented Laplacians.

Vertex i survives with probability p_i, independently.  Deleting a vertex
removes every incident edge.  The augmented Laplacian adds alpha on the
diagonal entry of each deleted (ghost) vertex, which decouples ghosts from
survivors: its spectrum is the survivor-block Laplacian spectrum together
with one copy of alpha per ghost.

Sampling is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): each survival flag is a pure function of (seed,
trial_index, vertex), so trials can be evaluated in any order, in any number
of processes, with identical results on every platform.

Monte Carlo trials run through one chunk kernel, _evaluate_chunk, which one
stream feeds: _trial_chunks checks the inputs, then walks the trials through
the chunk driver of the _chunking module, whose docstring gives the chunk
sizes and says how chunks are spread over worker processes.  For a chunk of
trials the stream draws the (trials x n) grid of survival flags with one
vectorized hash, groups the grid's rows into distinct survival patterns by
their packed flags (_distinct_rows), the one grouping of a chunk, and sends
the distinct patterns to the kernel in order, one call per stack of n x n
matrices.  The stream yields the chunk's distinct patterns' results and the
pattern each trial drew; trial_block alone copies them to trials, and
simulate folds them per pattern.
Every per-trial statistic depends on the trial's flags alone, entry k of a
stack's spectral_norm or lambda2 equals the value for matrix k alone (see
the spectral module), and levels depend on the deviation norm alone, so each
distinct pattern is evaluated once per chunk, and every trial of the chunk
that draws it has its results: the same bits as evaluating every trial.  On
the 6-cycle at p = 0.8 (seed 0), 5,000 trials are one chunk of 60 distinct
patterns; 50,000 trials are 10 chunks, which solve 605 patterns, 64 of them
distinct.  Nothing is kept from one chunk to the next.
The four per-pattern functions (percolated_laplacian, augmented_laplacian,
survivor_connectivity, algebraic_connectivity_survivors) take one (n,)
pattern of flags or a (c, n) grid and give each row of a grid, bit for bit,
that row's own result.  The kernel takes its connectivity flags from
survivor_connectivity and its augmented Laplacians from the step
augmented_laplacian runs (_augmented, over graph_core.edge_laplacian, the one
assembly routine), and the exhaustive oracle does the same on its grids of
masks.  The kernel reduces the patterns' augmented Laplacians through
spectral_norm and lambda2, one stacked eigensolve each, in this order: the
deviation norms, a_delta (one stack per survivor count), then lambda_2 of the
augmented Laplacians.  Every one of those matrices equals its transpose bit
for bit by construction, so spectral.eig_sym's symmetry check passes each on
as it is.  The ghost diagonal adds alpha * 0 = +0.0 to each survivor's
diagonal entry, a weighted-degree sum that is never -0.0, so the survivor
blocks read from the augmented stack keep their bits.  Connectivity is
union-find over the patterns' live edges, with whole-array hooking and path
compression.

Each run makes one workspace (_workspace), before anything is forked: a
stack of augmented Laplacians and a stack of deviations, each with room for
the longest stack of patterns _chunks hands a chunk.  With the chunk's grid
of flags that is O(_CHUNK_ENTRIES) memory, whatever the trial count, and
each process faults its pages in once.  _deviation_norms, shared with the
oracle's deviation_norm chunks, assembles the augmented Laplacians into the
first stack (edge_laplacian fills it with 0.0, then writes what a new array
would get) and forms the deviations in the second with np.subtract(...,
out=); the survivor blocks are read from the first.  Nothing returned
aliases the workspace: every array of a TrialBlock is a new one.

Each distinct pattern of a chunk thus costs up to three eigensolves, and
trial_block records every statistic.
The stream has one mode switch, levels, which only simulate turns: a caller
that only compares a_delta with a level, as simulate's per-trial lower-bound
check does, passes those levels (a function of the deviation norms).  A
survivor block is then solved only where its level reaches
_a_delta_floor(g), which is below every a_delta the eigensolver can return,
so below it the comparison cannot fail and a_delta is left NaN;
lambda2_augmented, which no such comparison reads, is not computed and is
NaN throughout.  NaN is the one marker of a value the level mode skipped:
no TrialBlock field is ever None.  On the 8-cube at p = 0.9 and alpha = 7.2
every trial's lower bound is below -0.7, and no survivor block is solved.
Only the per-trial CSV reports lambda2_augmented, so simulate passes levels
whenever it writes no such file.
lambda2_augmented keeps its own eigensolve: the block split above gives it
from the survivor-block spectrum plus the ghost alphas in exact arithmetic,
but not bit for bit: the two routes round differently, and the values
differed in their last bits on 199 of 200 hypercube-8 trials and on
1,215-1,250 of 5,000 cycle-6 trials (four seeds), which would change the
per-trial CSV.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._chunking import _chunk_length, _chunks, _distinct_rows
from .graph_core import (WeightedGraph, _check_seed, _EqualByKey, _integer, _real,
                         _require_positive_int, _vertex_count, diagonal_view, edge_laplacian,
                         is_real)
from .spectral import lambda2, spectral_norm

__all__ = [
    "SurvivalProfile",
    "TrialBlock",
    "sample",
    "percolated_laplacian",
    "augmented_laplacian",
    "expected_augmented_laplacian",
    "survivor_connectivity",
    "algebraic_connectivity_survivors",
    "trial_block",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def _mix_array(z: np.ndarray) -> np.ndarray:
    # splitmix64 on a uint64 array, in place, so a grid and one shifted copy
    # of it are all it holds; unsigned arithmetic wraps mod 2**64
    z += _U64(_GOLDEN)
    z ^= z >> _U64(30)
    z *= _U64(_MIX1)
    z ^= z >> _U64(27)
    z *= _U64(_MIX2)
    z ^= z >> _U64(31)
    return z


def _unit_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """(count, n) grid of uniforms in [0, 1): row k for trial start + k.

    The trials start, ..., start + count - 1 lie in [0, 2**64), as
    _check_trial_index and _trial_chunks ensure.
    """
    trials = _U64(start) + np.arange(count, dtype=np.uint64)
    h = _mix_array(_mix_array(np.full(1, seed, np.uint64)) ^ trials)
    z = _mix_array(h[:, None] ^ np.arange(n, dtype=np.uint64))
    z >>= _U64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


@dataclass(frozen=True, eq=False)
class SurvivalProfile(_EqualByKey):
    """Per-vertex survival probabilities, each in [0, 1].

    Two profiles are equal, and hash equal, when their probabilities are,
    -0.0 and 0.0 alike.
    """

    p: np.ndarray

    def __post_init__(self):
        # an object array keeps each entry's own type (numpy numbers become
        # Python ones), so booleans and strings can be told from numbers
        arr = np.array(self.p, dtype=object)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("survival profile must be a non-empty 1-d vector")
        values = []
        for index, value in enumerate(arr.tolist()):
            if not is_real(value):
                raise ValueError(
                    f"survival probability {index} must be a number, got {value!r}")
            try:
                values.append(float(value))
            except OverflowError:
                raise ValueError(f"survival probability {index} must lie in [0, 1], "
                                 "got a number beyond the float range") from None
        arr = np.array(values)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("survival probabilities must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls, n: int, p: float) -> "SurvivalProfile":
        n = _vertex_count(n)
        # the constructor's range check refuses NaN, which a p beyond the
        # float range reads as
        return cls(np.full(n, _real(p, lambda p: True,
                                    f"survival probability must be a number, got {p!r}")))

    def __len__(self) -> int:
        return int(self.p.shape[0])

    def _key(self) -> bytes:
        # + 0.0 turns -0.0 into 0.0; no probability is NaN
        return (self.p + 0.0).tobytes()


@dataclass(frozen=True, eq=False)
class TrialBlock(_EqualByKey):
    """Results of consecutive trials or of distinct patterns, one entry each.

    a_delta is +inf for trials with fewer than two survivors.  NaN marks
    what the level mode of _trial_chunks skipped (see the module docstring):
    a_delta where the level lies below every value a_delta could take, and
    every lambda2_augmented.  trial_block records every statistic.  Two
    blocks are equal when each array has the same dtype, shape and bits
    (_EqualByKey); a block has no hash, since its arrays are writable.
    """

    __hash__ = None

    survivor_count: np.ndarray
    is_connected: np.ndarray
    a_delta: np.ndarray
    deviation_norm: np.ndarray
    lambda2_augmented: np.ndarray

    def __len__(self) -> int:
        return int(self.survivor_count.shape[0])


def _check_lengths(g: WeightedGraph, length: int, what: str) -> None:
    if length != g.n:
        raise ValueError(f"{what} has length {length} but the graph has {g.n} vertices")


def _flag_grid(g: WeightedGraph, delta) -> tuple[np.ndarray, bool]:
    """Survival flags as a (c, n) bool grid, and whether they were one (n,) pattern."""
    grid = np.asarray(delta, dtype=bool)
    if grid.ndim not in (1, 2):
        raise ValueError("survival flags must be one (n,) pattern or a (c, n) grid, "
                         f"got {grid.ndim} dimensions")
    _check_lengths(g, grid.shape[-1], "sample")
    return (grid[None], True) if grid.ndim == 1 else (grid, False)


def _check_alpha(alpha: float) -> float:
    return _real(alpha, lambda a: 0 <= a < math.inf,
                 f"alpha must be non-negative and finite, got {alpha!r}")


def _check_trial_index(trial_index: int) -> int:
    # the hash takes 64 bits, so trial 2**64 would repeat trial 0
    return _integer(trial_index, lambda t: 0 <= t <= _MASK64,
                    f"trial_index must be non-negative and below 2**64, got {trial_index!r}")


def sample(profile: SurvivalProfile, seed: int, trial_index: int) -> np.ndarray:
    """The read-only (n,) bool survival flags of one trial.

    delta_i = 1 iff a hash-derived uniform for (seed, trial_index, i) falls
    below p_i, so p_i = 0 and p_i = 1 are exact.  Row k of the grid that
    trial_block draws for trials start, start + 1, ... is sample(profile,
    seed, start + k).  The seed and trial_index are integers in [0, 2**64).
    """
    seed, trial_index = _check_seed(seed), _check_trial_index(trial_index)
    delta = _unit_uniforms(seed, trial_index, 1, len(profile))[0] < profile.p
    delta.setflags(write=False)
    return delta


def _survivor_lambda2(laplacians: np.ndarray, delta: np.ndarray,
                      solve: np.ndarray | None = None) -> np.ndarray:
    """lambda_2 of each row's survivor block, +inf below two survivors.

    Where the flags solve are false, a block of two or more survivors is not
    solved and its row gets NaN.
    """
    # the survivor block of a percolated Laplacian is the survivors' own
    # Laplacian, entry for entry; blocks of equal order m share one eigensolve
    counts = delta.sum(axis=1)
    # every block of two or more survivors is NaN until it is solved
    blocks_of_two = counts >= 2
    out = np.where(blocks_of_two, math.nan, math.inf)
    solved = blocks_of_two if solve is None else blocks_of_two & solve
    # np.unique would import numpy.ma, about 1 MiB of resident memory
    for m in sorted(set(counts[solved].tolist())):
        rows = np.flatnonzero(solved & (counts == m))
        survivors = np.nonzero(delta[rows])[1].reshape(-1, m)
        blocks = laplacians[rows[:, None, None], survivors[:, :, None], survivors[:, None, :]]
        out[rows] = lambda2(blocks)
    return out


def _survivors_connected(g: WeightedGraph, delta: np.ndarray) -> np.ndarray:
    """Whether each row's survivors form one component; at most one counts as connected.

    Union-find over the live edges (both ends alive) of every row at once:
    vertex v of row r is node r * n + v, each round hooks the larger root of
    every edge whose ends are still apart onto the smaller one, then
    compresses every path to its root.  Ghosts have no live edge, so they
    stay roots of their own.
    """
    c, n = delta.shape
    rows, edges = np.nonzero(delta[:, g.src] & delta[:, g.dst])
    offsets = rows * n
    a, b = offsets + g.src[edges], offsets + g.dst[edges]
    root = np.arange(c * n)
    while a.size:
        ra, rb = root[a], root[b]
        if not (ra != rb).any():
            break
        # an edge whose ends share a root hooks that root onto itself
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]
    # every path is compressed, so each component has one node that is its
    # own root, its smallest; a row is connected iff at most one survivor is
    own_roots = (root == np.arange(c * n)).reshape(c, n) & delta
    return own_roots.sum(axis=1) <= 1


def _a_delta_floor(g: WeightedGraph) -> float:
    """A level below every a_delta the eigensolver can return for a subgraph of g.

    A survivor Laplacian L_S is positive semidefinite with ||L_S|| <= 2 * its
    largest weighted degree, and LAPACK's dsyevd returns eigenvalues within
    p(m) * eps * ||L_S|| of the exact ones, so a computed lambda_2 is at least
    -p(m) * eps * 2 * max degree; 1e-8 leaves p(m) room for any order.
    WeightedGraph keeps every weighted degree finite.
    """
    return -1e-8 * (1.0 + 2.0 * float(g.degree_vector().max()))


def _workspace(n: int) -> np.ndarray:
    """The (2, c, n, n) stacks of augmented Laplacians and deviations, where
    c = _chunk_length(n * n) is the longest stack _chunks hands a chunk.

    np.empty reserves the memory and writes none of it, so only the pages a
    stack writes become resident, and a process forked after the call
    faults in its own pages on first write.  Every stack of a run writes
    into this one array, so nothing a chunk returns may alias it.
    """
    return np.empty((2, _chunk_length(n * n), n, n))


def _live_values(g: WeightedGraph, grid: np.ndarray) -> np.ndarray:
    # w on live edges (both ends alive), +0.0 on dead ones
    return np.where(grid[:, g.src] & grid[:, g.dst], g.w, 0.0)


def _augmented(g: WeightedGraph, grid: np.ndarray, alpha: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """The (c, n, n) augmented Laplacians of a (c, n) grid, in a new array or in out."""
    laplacians = edge_laplacian(g, _live_values(g, grid), out)
    diagonal_view(laplacians)[...] += alpha * ~grid
    return laplacians


def _deviation_norms(g: WeightedGraph, alpha: float, expected: np.ndarray,
                     grid: np.ndarray, workspace) -> tuple[np.ndarray, np.ndarray]:
    """(augmented Laplacians, deviation norms) of a (c, n) grid.

    The Laplacians are assembled into the first c matrices of workspace[0]
    and the deviations formed in those of workspace[1]; the norms are a new
    array.
    """
    laplacians, deviations = workspace[:, :grid.shape[0]]
    _augmented(g, grid, alpha, laplacians)
    np.subtract(laplacians, expected, out=deviations)
    return laplacians, spectral_norm(deviations)


def _evaluate_chunk(g: WeightedGraph, alpha: float, expected: np.ndarray,
                    patterns: np.ndarray, levels, floor: float, workspace) -> TrialBlock:
    # one entry per row of patterns, its matrices solved in a fixed order
    # (see the module docstring); floor is _a_delta_floor(g).  With levels,
    # NaN marks each value skipped: a_delta below the floor, and every
    # lambda2_augmented
    laplacians, deviation_norm = _deviation_norms(g, alpha, expected, patterns, workspace)
    solve = None if levels is None else levels(deviation_norm) >= floor
    a_delta = _survivor_lambda2(laplacians, patterns, solve)
    survivor_count, is_connected = survivor_connectivity(g, patterns)
    return TrialBlock(survivor_count, is_connected, a_delta, deviation_norm,
                      lambda2(laplacians) if levels is None else np.full(len(patterns), math.nan))


def percolated_laplacian(g: WeightedGraph, delta) -> np.ndarray:
    """Laplacian of the graph after deleting non-survivors (n x n, zero rows for ghosts).

    delta is one (n,) pattern of survival flags, or a (c, n) grid for a (c, n, n) stack.
    """
    grid, single = _flag_grid(g, delta)
    # adding 0.0 keeps every weighted degree's bits
    laplacians = _augmented(g, grid, 0.0)
    return laplacians[0] if single else laplacians


def augmented_laplacian(g: WeightedGraph, delta, alpha: float) -> np.ndarray:
    """Percolated Laplacian plus alpha on each ghost's diagonal entry."""
    alpha = _check_alpha(alpha)
    grid, single = _flag_grid(g, delta)
    laplacians = _augmented(g, grid, alpha)
    return laplacians[0] if single else laplacians


def expected_augmented_laplacian(g: WeightedGraph, profile: SurvivalProfile,
                                 alpha: float) -> np.ndarray:
    """Entrywise expectation of the augmented Laplacian.

    Edge (i, j, w) contributes with weight p_i * p_j * w; the ghost diagonal
    contributes alpha * (1 - p_i).
    """
    alpha = _check_alpha(alpha)
    _check_lengths(g, len(profile), "profile")
    p = profile.p
    L = edge_laplacian(g, p[g.src] * p[g.dst] * g.w)
    diagonal_view(L)[...] += alpha * (1.0 - p)
    return L


def survivor_connectivity(g: WeightedGraph, delta) -> tuple:
    """(survivor count, connected flag) for the surviving induced subgraph.

    Connectivity is decided combinatorially by union-find; zero or one
    survivor counts as connected.  A (c, n) grid gives two arrays: the
    counts and the flags of its rows.
    """
    grid, single = _flag_grid(g, delta)
    counts = grid.sum(axis=1)
    connected = _survivors_connected(g, grid)
    return (int(counts[0]), bool(connected[0])) if single else (counts, connected)


def algebraic_connectivity_survivors(g: WeightedGraph, delta) -> float | np.ndarray:
    """lambda_2 of the surviving induced subgraph's Laplacian.

    With zero or one survivor there is nothing to disconnect and the value
    is +infinity by convention.  A (c, n) grid gives an array, one value per row.
    """
    grid, single = _flag_grid(g, delta)
    values = _survivor_lambda2(_augmented(g, grid, 0.0), grid)
    return float(values[0]) if single else values


def _trial_chunks(g: WeightedGraph, profile: SurvivalProfile, alpha: float, seed: int,
                  start: int, count: int, levels=None, workers: int = 1):
    """Check the inputs, then return a generator of (first, (block,
    inverse)) for the chunks of trials start, ..., start + count - 1, in
    trial order, run on `workers` processes: block has one entry per
    distinct survival pattern of the chunk, and trial first + t drew entry
    inverse[t].  Every trial index lies in [0, 2**64).

    levels, for callers that only test a_delta < level, maps an array of
    deviation norms to the level of each entry, element by element.  A
    survivor block is then solved only where its level is at least
    _a_delta_floor(g); below that no computed a_delta is less than the
    level, and a_delta is NaN there (NaN < level is false as well).  The
    eigensolve of the augmented Laplacians is skipped, and lambda2_augmented
    is NaN.  Every other entry of every array keeps its bits.

    The checks, the expected augmented Laplacian, _a_delta_floor(g) and the
    workspace run here, once per run and before anything is forked, so a bad
    input raises before the generator is started.
    """
    alpha, seed, start = _check_alpha(alpha), _check_seed(seed), _check_trial_index(start)
    count = _require_positive_int("count", count)
    if start + count > _MASK64 + 1:
        raise ValueError(f"trial indices must lie below 2**64, got {start}, ..., "
                         f"{start + count - 1}")
    _check_lengths(g, len(profile), "profile")
    if g.n < 2:
        raise ValueError("trials need a graph on at least 2 vertices: lambda_2 of "
                         "the augmented Laplacian is undefined below that")
    expected = expected_augmented_laplacian(g, profile, alpha)
    floor = _a_delta_floor(g)
    workspace = _workspace(g.n)

    def solve(patterns: np.ndarray) -> TrialBlock:
        # a chunk's distinct patterns, one workspace stack of n x n matrices at a time
        blocks = [block for _, block in _chunks(
            lambda first, last: _evaluate_chunk(g, alpha, expected, patterns[first:last],
                                                levels, floor, workspace),
            0, len(patterns), g.n * g.n)]
        return TrialBlock(*[np.concatenate([getattr(b, f.name) for b in blocks])
                            for f in fields(TrialBlock)])

    def evaluate(first: int, last: int) -> tuple[TrialBlock, np.ndarray]:
        delta = _unit_uniforms(seed, first, last - first, g.n) < profile.p
        first_rows, inverse = _distinct_rows(np.packbits(delta, axis=1))
        return solve(delta[first_rows]), inverse

    # a chunk of trials is sized by its (c, n) grid of survival flags
    return _chunks(evaluate, start, start + count, g.n, workers)


def trial_block(g: WeightedGraph, profile: SurvivalProfile, alpha: float, seed: int,
                start: int, count: int) -> TrialBlock:
    """Sample and evaluate trials start, start + 1, ..., start + count - 1.

    Entry k of each array is, bit for bit, entry 0 of trial_block(g,
    profile, alpha, seed, start + k, 1), and is what the per-pattern
    functions give the flags sample(profile, seed, start + k).  The trials
    are evaluated a chunk at a time, with up to three eigensolves per
    distinct survival pattern of a chunk (see the module docstring).  Trials
    of a chunk that draw the same pattern share its results.  Every
    statistic is computed; none is skipped.  The seed and the trial indices
    are integers in [0, 2**64).
    """
    chunks = [chunk for _, chunk in _trial_chunks(g, profile, alpha, seed, start, count)]
    return TrialBlock(*(np.concatenate([getattr(b, f.name)[inverse] for b, inverse in chunks])
                        for f in fields(TrialBlock)))
