"""_chunking._map_in_order: forked workers give the serial results, in
order, and leave no child process behind."""
from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from percobound._chunking import _map_in_order

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "fork"),
                                reason="workers are forked on Linux only")


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def chunk(a: int) -> np.ndarray:
    # 64 KiB of results each, so a child fills its pipe and waits for the caller
    return np.sqrt(np.arange(a, a + 8192, dtype=float))


def as_bytes(arrays) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def serial_bytes(args) -> list:
    return as_bytes(chunk(a) for a in args)


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 40])
def test_results_in_order_match_the_serial_loop(forks, workers):
    args = range(0, 170, 10)
    with_workers = list(_map_in_order(chunk, args, workers))
    assert as_bytes(with_workers) == serial_bytes(args)
    # one fork per worker besides the caller, never more workers than items
    assert len(forks) == min(workers, len(args)) - 1
    assert_reaped(forks)


def test_child_exception_is_raised_in_its_place(forks):
    def failing(a):
        if a == 3:  # item 3 runs on the child of two workers
            raise ValueError(f"no chunk at {a}")
        return a

    seen = []
    with pytest.raises(ValueError) as info:
        for value in _map_in_order(failing, range(8), 2):
            seen.append(value)
    assert str(info.value) == "no chunk at 3"
    if sys.version_info >= (3, 11):  # the child's traceback rides along as a note
        assert "in failing" in info.value.__notes__[-1]
    assert seen == [0, 1, 2]
    assert len(forks) == 1
    assert_reaped(forks)


def test_exception_that_does_not_pickle_becomes_a_runtime_error(forks):
    class Local(Exception):  # defined in a function, so pickle cannot find it
        pass

    def failing(a):
        if a == 1:
            raise Local("local trouble")
        return a

    with pytest.raises(RuntimeError, match="^Local: local trouble$"):
        list(_map_in_order(failing, range(4), 2))
    assert_reaped(forks)


def test_child_that_dies_is_an_error(forks):
    def dying(a):
        if a == 1:
            os._exit(3)
        return a

    with pytest.raises(RuntimeError, match="exited early"):
        list(_map_in_order(dying, range(4), 2))
    assert_reaped(forks)


def test_generator_closed_early_reaps_every_child(forks):
    results = _map_in_order(chunk, range(0, 600, 10), 3)
    assert as_bytes([next(results), next(results)]) == serial_bytes([0, 10])
    results.close()
    assert len(forks) == 2
    assert_reaped(forks)


def test_interrupt_in_the_caller_reaps_every_child(forks):
    parent = os.getpid()

    def interrupted(a):
        if a == 2 and os.getpid() == parent:
            raise KeyboardInterrupt
        return chunk(a)

    with pytest.raises(KeyboardInterrupt):
        list(_map_in_order(interrupted, range(30), 2))
    assert len(forks) == 1
    assert_reaped(forks)


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    args = range(0, 70, 10)
    assert as_bytes(_map_in_order(chunk, args, 3)) == serial_bytes(args)


def test_serial_off_linux(forks, monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    args = range(0, 70, 10)
    assert as_bytes(_map_in_order(chunk, args, 3)) == serial_bytes(args)
    assert forks == []
