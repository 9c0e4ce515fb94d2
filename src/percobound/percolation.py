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

Monte Carlo trials run through one chunk kernel, trial_block.  For a chunk of
trials it draws the (trials x n) grid of survival flags with one vectorized
hash and groups the grid's rows into distinct survival patterns.  Every
per-trial statistic depends on the trial's flags alone, and entry k of a
stack's spectral_norm or lambda2 equals the value for matrix k alone (see
the spectral module), so each distinct pattern is evaluated once and its
results are copied to the trials that drew it: the same bits as evaluating
every trial.  On the 6-cycle at p = 0.8, 5,000 trials (seed 0) hold 299
distinct (chunk, pattern) pairs.  The kernel assembles the patterns'
percolated Laplacians as one stack from the graph's edge arrays, adds the
ghost diagonal and reduces stacks through spectral_norm and lambda2, one
eigensolve each, in this order: the deviation norms, a_delta (one stack per
survivor count), then lambda_2 of the augmented Laplacians.  The deviation
stack is formed out of place, and the ghost diagonal adds alpha * 0 = +0.0
to each survivor's diagonal entry, a weighted-degree sum that is never -0.0,
so the survivor blocks read after it keep their bits.
Connectivity is union-find over the patterns' live edges, with whole-array
hooking and path compression.  A chunk holds at most _CHUNK_ENTRIES matrix
entries, so memory is O(chunk * n^2) whatever the trial count.  The
per-sample functions (percolated_laplacian, augmented_laplacian,
survivor_connectivity, algebraic_connectivity_survivors) and the exhaustive
oracle go through the same assembly and the same connectivity rule.

Without levels, each distinct pattern of a chunk thus costs up to three
eigensolves, and every statistic is recorded.  A caller that only compares
a_delta with a level, as simulate's per-trial lower-bound check does, passes
those levels (a function of the deviation norms) instead.  A survivor block
is then solved only where its level reaches _a_delta_floor(g), which is below
every a_delta the eigensolver can return, so below it the comparison cannot
fail and a_delta is left NaN; lambda2_augmented, which no such comparison
reads, is not computed.  On the 8-cube at p = 0.9 and alpha = 7.2 every
trial's lower bound is below -0.7, and no survivor block is solved.  Only
the per-trial CSV reports lambda2_augmented, so simulate passes levels
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
import os
import pickle
import sys
from dataclasses import dataclass, fields

import numpy as np

from .graph_core import WeightedGraph, edge_laplacian, is_real
from .spectral import lambda2, spectral_norm

__all__ = [
    "SurvivalProfile",
    "PercolationSample",
    "TrialRecord",
    "TrialBlock",
    "sample",
    "percolated_laplacian",
    "augmented_laplacian",
    "expected_augmented_laplacian",
    "survivor_connectivity",
    "algebraic_connectivity_survivors",
    "trial_block",
    "run_trial",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64

# Matrix entries in one chunk's stack of n x n matrices: 910 trials at n = 6,
# 145 masks at n = 15, one matrix from n = 182 on.  Larger chunks raise peak
# memory without running faster.  Shared by trial_block and the oracle.
_CHUNK_ENTRIES = 1 << 15


def _chunk_length(n: int) -> int:
    """Trials (or masks) per chunk: as many n x n matrices as fit, at least one."""
    return max(1, _CHUNK_ENTRIES // (n * n))


def _map_in_order(fn, args, workers: int):
    """Yield fn(a) for each a of the sequence args, in order, on `workers` processes.

    Item i runs on worker i % workers.  Worker 0 is the calling process; each
    other worker is a child, forked at the first next(), that pickles its
    results, in order, into a pipe of its own.  A full pipe stops a child, so it
    runs at most a pipe buffer ahead of the caller, and memory does not grow
    with len(args).  A child inherits the caller's state, BLAS thread count
    included, so the results are the bits the serial loop gives.  An
    exception that fn raises in a child is raised here at that item's place
    in the order.  When the generator finishes, fails or is closed, every
    child is killed and reaped.  Off Linux, or with one worker, the items run
    serially in this process.
    """
    workers = min(workers, len(args))
    if workers <= 1 or not sys.platform.startswith("linux") or not hasattr(os, "fork"):
        yield from map(fn, args)
        return
    import signal  # only here: the import costs every run about a millisecond

    pids, pipes = [], []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    for pipe in pipes:
                        pipe.close()
                    _serve(fn, args[k::workers], write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        for i, a in enumerate(args):
            k = i % workers
            if k == 0:
                yield fn(a)
                continue
            try:
                ok, value = pickle.load(pipes[k - 1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pids[k - 1]} exited early") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(fn, args, fd: int):
    """Child side of _map_in_order: write (True, fn(a)) for each a to fd, or
    (False, exception) for the first call that raises, then exit."""
    try:
        with os.fdopen(fd, "wb") as out:
            for a in args:
                try:
                    message = pickle.dumps((True, fn(a)), pickle.HIGHEST_PROTOCOL)
                except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                    out.write(_pickled_error(exc))
                    break
                out.write(message)
                out.flush()
    finally:
        # skip atexit handlers and the flush of buffers inherited from the caller
        os._exit(0)


def _pickled_error(exc: BaseException) -> bytes:
    """(False, exc) pickled, or a RuntimeError naming exc where exc does not
    survive a pickle round trip; the child's traceback is added as a note."""
    import traceback

    if hasattr(exc, "add_note"):  # Python 3.11 and later
        exc.add_note("".join(traceback.format_exception(exc)).rstrip())
    try:
        message = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(message)
    except Exception:  # noqa: BLE001 - any failure means: send a plain error
        message = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")),
                               pickle.HIGHEST_PROTOCOL)
    return message


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


def _unit_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """(count, n) grid of uniforms in [0, 1): row k for trial start + k."""
    # trial indices wrap mod 2**64, as (start + k) & _MASK64 would
    trials = _U64(start & _MASK64) + np.arange(count, dtype=np.uint64)
    h = _mix_array(_U64(_splitmix64(seed & _MASK64)) ^ trials)
    z = _mix_array(h[:, None] ^ np.arange(n, dtype=np.uint64))
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SurvivalProfile:
    """Per-vertex survival probabilities, each in [0, 1]."""

    p: np.ndarray

    def __post_init__(self):
        # an object array keeps each entry's own type (numpy numbers become
        # Python ones), so booleans and strings can be told from numbers
        arr = np.array(self.p, dtype=object)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("survival profile must be a non-empty 1-d vector")
        for index, value in enumerate(arr.tolist()):
            if not is_real(value):
                raise ValueError(
                    f"survival probability {index} must be a number, got {value!r}")
        arr = arr.astype(float)
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
    """One Monte Carlo trial as run_trial returns it: its sample and statistics."""

    sample: PercolationSample
    survivor_count: int
    is_connected: bool
    a_delta: float
    deviation_norm: float
    lambda2_augmented: float


@dataclass(frozen=True)
class TrialBlock:
    """Per-trial results of consecutive trials, one array entry each.

    a_delta is +inf for trials with fewer than two survivors, and NaN where
    trial_block was given levels and the trial's level lies below every
    value a_delta could take.  lambda2_augmented is None when trial_block
    was given levels.
    """

    survivor_count: np.ndarray
    is_connected: np.ndarray
    a_delta: np.ndarray
    deviation_norm: np.ndarray
    lambda2_augmented: np.ndarray | None

    def __len__(self) -> int:
        return int(self.survivor_count.shape[0])


def _check_lengths(g: WeightedGraph, length: int, what: str) -> None:
    if length != g.n:
        raise ValueError(f"{what} has length {length} but the graph has {g.n} vertices")


def _sample_rows(g: WeightedGraph, s: PercolationSample) -> np.ndarray:
    """The sample's flags as a one-row (1, n) grid, after checking its length."""
    _check_lengths(g, s.delta.shape[0], "sample")
    return s.delta[None]


def _check_alpha(alpha: float) -> None:
    # written so that NaN fails too
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be non-negative and finite, got {alpha!r}")


def _check_trial_index(trial_index: int) -> None:
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")


def sample(profile: SurvivalProfile, seed: int, trial_index: int) -> PercolationSample:
    """Draw the survival flags for one trial.

    delta_i = 1 iff a hash-derived uniform for (seed, trial_index, i) falls
    below p_i, so p_i = 0 and p_i = 1 are exact.
    """
    _check_trial_index(trial_index)
    u = _unit_uniforms(seed, trial_index, 1, len(profile))[0]
    return PercolationSample(delta=u < profile.p, seed=seed, trial_index=trial_index)


def _live_edges(g: WeightedGraph, delta: np.ndarray) -> np.ndarray:
    """(c, E) flags: edge k of row r has both endpoints alive."""
    return delta[:, g.src] & delta[:, g.dst]


def _percolated(g: WeightedGraph, live: np.ndarray) -> np.ndarray:
    # w on live edges, +0.0 on dead ones: the (c, n, n) percolated Laplacians
    return edge_laplacian(g, np.where(live, g.w, 0.0))


def _add_ghost_diagonal(laplacians: np.ndarray, delta: np.ndarray, alpha: float) -> None:
    diagonal = np.arange(delta.shape[1])
    laplacians[:, diagonal, diagonal] += alpha * ~delta


def _survivor_lambda2(laplacians: np.ndarray, delta: np.ndarray,
                      solve: np.ndarray | None = None) -> np.ndarray:
    """lambda_2 of each row's survivor block, +inf below two survivors.

    Where the flags solve are false, a block of two or more survivors is not
    solved and its row gets NaN.
    """
    # the survivor block of a percolated Laplacian is the survivors' own
    # Laplacian, entry for entry; blocks of equal order m share one eigensolve
    out = np.full(delta.shape[0], math.inf)
    counts = delta.sum(axis=1)
    if solve is not None:
        out[~solve & (counts >= 2)] = math.nan
        counts = np.where(solve, counts, 0)
    # np.unique would import numpy.ma, about 1 MiB of resident memory
    orders = np.flatnonzero(np.bincount(counts))
    for m in orders[orders >= 2].tolist():
        rows = np.flatnonzero(counts == m)
        survivors = np.nonzero(delta[rows])[1].reshape(-1, m)
        blocks = laplacians[rows[:, None, None], survivors[:, :, None], survivors[:, None, :]]
        out[rows] = lambda2(blocks)
    return out


def _survivors_connected(g: WeightedGraph, delta: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Whether each row's survivors form one component; at most one counts as connected.

    Union-find over the live edges of every row at once: vertex v of row r is
    node r * n + v, each round hooks the larger root of every edge whose ends
    are still apart onto the smaller one, then compresses every path to its
    root.  Ghosts have no live edge, so they stay roots of their own.
    """
    c, n = delta.shape
    rows, edges = np.nonzero(live)
    a = rows * n + g.src[edges]
    b = rows * n + g.dst[edges]
    root = np.arange(c * n)
    while a.size:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    root = root.reshape(c, n)
    # a row is connected iff every survivor shares the smallest survivor root
    smallest = np.where(delta, root, c * n).min(axis=1)
    return ~np.any(delta & (root != smallest[:, None]), axis=1)


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for a 2-D unsigned-integer key matrix: keys[first]
    holds each distinct row once, and keys[first][inverse] equals keys."""
    # rows sorted stably; np.unique would import numpy.ma
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.ones(order.shape[0], dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _a_delta_floor(g: WeightedGraph) -> float:
    """A level below every a_delta the eigensolver can return for a subgraph of g.

    A survivor Laplacian L_S is positive semidefinite with ||L_S|| <= 2 * its
    largest weighted degree, and LAPACK's dsyevd returns eigenvalues within
    p(m) * eps * ||L_S|| of the exact ones, so a computed lambda_2 is at least
    -p(m) * eps * 2 * max degree; 1e-8 leaves p(m) room for any order.
    WeightedGraph keeps every weighted degree finite.
    """
    return -1e-8 * (1.0 + 2.0 * float(g.degree_vector().max()))


def _evaluate_chunk(g: WeightedGraph, alpha: float, expected: np.ndarray,
                    delta: np.ndarray, levels) -> TrialBlock:
    # each distinct pattern is evaluated once, its matrices solved in a fixed
    # order (see the module docstring)
    first, inverse = _distinct_rows(np.packbits(delta, axis=1))
    patterns = delta[first]
    live = _live_edges(g, patterns)
    laplacians = _percolated(g, live)
    _add_ghost_diagonal(laplacians, patterns, alpha)
    deviation_norm = spectral_norm(laplacians - expected)
    solve = None if levels is None else levels(deviation_norm) >= _a_delta_floor(g)
    a_delta = _survivor_lambda2(laplacians, patterns, solve)
    return TrialBlock(
        survivor_count=patterns.sum(axis=1)[inverse],
        is_connected=_survivors_connected(g, patterns, live)[inverse],
        a_delta=a_delta[inverse],
        deviation_norm=deviation_norm[inverse],
        lambda2_augmented=lambda2(laplacians)[inverse] if levels is None else None,
    )


def percolated_laplacian(g: WeightedGraph, s: PercolationSample) -> np.ndarray:
    """Laplacian of the graph after deleting non-survivors (n x n, zero rows for ghosts)."""
    return _percolated(g, _live_edges(g, _sample_rows(g, s)))[0]


def augmented_laplacian(g: WeightedGraph, s: PercolationSample, alpha: float) -> np.ndarray:
    """Percolated Laplacian plus alpha on each ghost's diagonal entry."""
    _check_alpha(alpha)
    delta = _sample_rows(g, s)
    laplacians = _percolated(g, _live_edges(g, delta))
    _add_ghost_diagonal(laplacians, delta, alpha)
    return laplacians[0]


def expected_augmented_laplacian(g: WeightedGraph, profile: SurvivalProfile,
                                 alpha: float) -> np.ndarray:
    """Entrywise expectation of the augmented Laplacian.

    Edge (i, j, w) contributes with weight p_i * p_j * w; the ghost diagonal
    contributes alpha * (1 - p_i).
    """
    _check_alpha(alpha)
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
    delta = _sample_rows(g, s)
    connected = _survivors_connected(g, delta, _live_edges(g, delta))
    return s.survivor_count, bool(connected[0])


def algebraic_connectivity_survivors(g: WeightedGraph, s: PercolationSample) -> float:
    """lambda_2 of the surviving induced subgraph's Laplacian.

    With zero or one survivor there is nothing to disconnect and the value
    is +infinity by convention.
    """
    delta = _sample_rows(g, s)
    return float(_survivor_lambda2(_percolated(g, _live_edges(g, delta)), delta)[0])


def trial_block(g: WeightedGraph, profile: SurvivalProfile, alpha: float, seed: int,
                start: int, count: int, expected: np.ndarray | None = None,
                levels=None) -> TrialBlock:
    """Sample and evaluate trials start, start + 1, ..., start + count - 1.

    Entry k of each array is, bit for bit, what run_trial(g, profile, alpha,
    seed, start + k) records.  The trials are evaluated a chunk at a time,
    with up to three eigensolves per distinct survival pattern of a chunk
    (see the module docstring).  Trials that draw the same pattern share its
    results.  expected lets callers amortize the expected augmented
    Laplacian across calls; it must equal
    expected_augmented_laplacian(g, profile, alpha).

    levels, for callers that only test a_delta < level, maps an array of
    deviation norms to the level of each entry, element by element.  A
    survivor block is then solved only where its level is at least
    _a_delta_floor(g); below that no computed a_delta is less than the
    level, and a_delta is NaN there (NaN < level is false as well).  The
    eigensolve of the augmented Laplacians is skipped and lambda2_augmented
    is None.  Every other entry of every array keeps its bits.
    """
    _check_alpha(alpha)
    _check_trial_index(start)
    if count < 1:
        raise ValueError("count must be at least 1")
    _check_lengths(g, len(profile), "profile")
    if g.n < 2:
        raise ValueError("trials need a graph on at least 2 vertices: lambda_2 of "
                         "the augmented Laplacian is undefined below that")
    if expected is None:
        expected = expected_augmented_laplacian(g, profile, alpha)
    stop = start + count
    step = _chunk_length(g.n)
    blocks = [
        _evaluate_chunk(g, alpha, expected,
                        _unit_uniforms(seed, first, min(step, stop - first), g.n) < profile.p,
                        levels)
        for first in range(start, stop, step)
    ]
    if len(blocks) == 1:
        return blocks[0]
    columns = ([getattr(b, f.name) for b in blocks] for f in fields(TrialBlock))
    return TrialBlock(*(None if parts[0] is None else np.concatenate(parts)
                        for parts in columns))


def run_trial(g: WeightedGraph, profile: SurvivalProfile, alpha: float,
              seed: int, trial_index: int, _expected: np.ndarray | None = None) -> TrialRecord:
    """Sample one realization and record its connectivity and deviation data.

    This is trial_block for one trial.  _expected lets callers amortize the
    expected augmented Laplacian across trials; it must equal
    expected_augmented_laplacian(g, profile, alpha).
    """
    block = trial_block(g, profile, alpha, seed, trial_index, 1, _expected)
    return TrialRecord(
        sample=sample(profile, seed, trial_index),
        survivor_count=int(block.survivor_count[0]),
        is_connected=bool(block.is_connected[0]),
        a_delta=float(block.a_delta[0]),
        deviation_norm=float(block.deviation_norm[0]),
        lambda2_augmented=float(block.lambda2_augmented[0]),
    )
