"""How work is cut into chunks, and which process runs each chunk.

Every loop over many survival patterns, the Monte Carlo trials
(percolation._trial_chunks), the stacks their distinct patterns are solved
in, and both oracle enumerations, walks its range through _chunks, the one
chunk driver.  Its caller says how many entries one item holds, and a chunk
holds as many items as _CHUNK_ENTRIES entries hold, and at least one.  This
is the one place the sizes are stated.  A matrix of order n is n * n
entries: 910 matrices at n = 6, 145 at n = 15, one from n = 182 on, in the
oracle's chunks and in the Monte Carlo stacks.  A trial is its n survival
flags: 5,461 trials at n = 6, 128 at n = 256.  So a loop's memory is
O(_CHUNK_ENTRIES), whatever the length of its range.

_chunks runs its chunks through _map_in_order on `workers` processes and
yields the results in order.  Chunk i runs on worker i % workers.  Worker 0
is the calling process.  Every other worker is a child, forked at the first
next(), that pickles its results, in order, into a pipe of its own (_serve).
A full pipe stops a child, so a child runs at most a pipe buffer ahead of the
caller, and memory does not grow with the chunk count.  An exception raised
in a child is raised in the caller at its chunk's place in the order, with
the child's traceback as a note (_pickled_error).  When the stream finishes,
fails or is closed, every child is killed and reaped.  Off Linux, or with one
worker, the chunks run serially in the calling process.  Threads cannot do
this work: numpy's eigvalsh holds the GIL, and two threads lost all 10
alternating benchmark pairs against one.

Results are byte-identical for any worker count at a fixed BLAS thread
count.  Sampling is counter-based, a child inherits the caller's state, its
BLAS thread count included, and the caller takes the results in chunk order.

resolve_threads picks the worker count.  PERCOBOUND_THREADS, when set,
replaces the command's default, and one rule applies to both: 0 means
usable_cpus(), the CPUs in this process's affinity mask, and any count is
capped at usable_cpus(), so no setting forks more workers than there are
CPUs to run them.
- simulate defaults to 1 worker.  Its order-256 eigensolves already keep two
  OpenBLAS threads busy.  On a 2-core machine two forked workers, each with
  OpenBLAS threads of its own, took simulate-hypercube8 from 1.38-1.43 s to
  2.27-3.89 s (3 runs each), and gave simulate-cycle6 no gain.  A short run
  has few chunks to share among more workers: 200 trials of the 8-cube are
  2 chunks, of 128 and 72 trials, and 5,000 of the 6-cycle are 1.
- oracle defaults to 0, one worker per usable CPU.  Its matrices have order
  at most 20, which OpenBLAS solves on one thread.  With 2 workers on a
  2-core machine, oracle-cycle15's op_ref fell from 5.83 to 3.88 (medians of
  10 alternating benchmark pairs, all 10 won).

_distinct_rows groups equal rows of a key matrix: the Monte Carlo stream
groups each chunk's survival patterns once and solves each distinct one
once, keeping nothing for later chunks, and the oracle formats each
distinct value of a chunk once.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import sys

import numpy as np

# Entries one chunk holds: n * n per matrix, n per trial's survival flags.
# Larger chunks raise peak memory without running faster.
_CHUNK_ENTRIES = 1 << 15


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the CPUs installed."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(unset: int = 1) -> int:
    """Worker count: PERCOBOUND_THREADS, or `unset` where it is not set; 0
    means usable_cpus(), and any count is capped at usable_cpus()."""
    raw = os.environ.get("PERCOBOUND_THREADS")
    value = unset
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"PERCOBOUND_THREADS must be an integer, got {raw!r}") from exc
        if value < 0:
            raise ValueError(f"PERCOBOUND_THREADS must be non-negative, got {value}")
    cpus = usable_cpus()
    return min(value, cpus) if value else cpus


def _chunk_length(entries: int) -> int:
    """Items per chunk: as many items of `entries` entries as fit, at least one."""
    return max(1, _CHUNK_ENTRIES // entries)


def _chunks(fn, start: int, stop: int, entries: int, workers: int = 1):
    """Yield (first, fn(first, last)) for consecutive ranges [first, last)
    covering [start, stop), each at most _chunk_length(entries) items long,
    run on `workers` processes.  Closing this generator kills and reaps every
    child."""
    step = _chunk_length(entries)
    firsts = range(start, stop, step)
    results = _map_in_order(lambda first: fn(first, min(first + step, stop)), firsts, workers)
    with contextlib.closing(results):
        yield from zip(firsts, results)


def _map_in_order(fn, args, workers: int):
    """Yield fn(a) for each a of the sequence args, in order, on `workers`
    processes, as the module docstring describes."""
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
