"""Ordered maps over independent tasks, on a pool where the job is large enough.

``pool_size`` is the one rule that chooses between a pool and a plain
serial ``map``, and ``ordered_map`` applies it.  A job is pooled only when
it has at least ``MIN_TASKS`` tasks and the process may run on at least 2
CPUs; the pool then has ``min(usable CPUs, tasks)`` workers, so the number
of threads or processes is bounded by the hardware, never by the size of a
run.  The rule reads only the task count and the CPUs, and results come
back in task order on either schedule, so a caller that uses them in that
order gives the same output, byte for byte, however the tasks were
scheduled.

Threads suit tasks that spend their time in numpy calls, which release the
GIL.  Processes suit tasks that hold the GIL, such as ``repr``.  They are
forked, so they start with the caller's modules and data and pay no import;
that is done only on Linux, and elsewhere such a job runs serially.  A
forked task must not need a lock that another thread of the caller could
hold at the fork, so no pool of this module runs while one forks.  A
forked worker's memory is its own: its RSS is not part of the calling
process's ``RUSAGE_SELF``, only of its ``RUSAGE_CHILDREN`` once reaped.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, Iterator

#: fewest tasks that are worth a pool's start-up
MIN_TASKS = 4


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def pool_size(n_tasks: int, processes: bool = False) -> int:
    """Workers for a job of ``n_tasks``: ``min(usable CPUs, n_tasks)``, or 1,
    which means serial, below ``MIN_TASKS`` tasks, on one CPU, or for
    processes off Linux."""
    workers = min(usable_cpus(), n_tasks)
    if n_tasks < MIN_TASKS or workers < 2 or (processes and sys.platform != "linux"):
        return 1
    return workers


def ordered_map(fn: Callable, tasks: Iterable, processes: bool = False) -> Iterator:
    """``fn(task)`` for each task, yielded in task order, on a pool of
    ``pool_size`` threads (forked processes with ``processes``) or serially.

    With ``processes``, ``fn``, the tasks and the results must pickle.  An
    exception raised by a task reaches the caller with its own type (a dead
    worker as an ``OSError``), and every pool is shut down, its workers
    joined, before the iteration ends or raises.
    """
    tasks = list(tasks)
    workers = pool_size(len(tasks), processes)
    if workers == 1:
        yield from map(fn, tasks)
        return
    # imported here, so a command that never pools does not pay for them
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
    if processes:
        import multiprocessing
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    else:
        pool = ThreadPoolExecutor(workers)
    with pool:
        try:
            # closing pool.map's iterator early cancels the tasks not yet started
            yield from pool.map(fn, tasks)
        except BrokenExecutor as exc:
            raise OSError(f"a pool worker died: {exc}") from exc


def trim_heap() -> None:
    """Return free heap memory to the system where the C library is glibc.

    Each worker thread allocates from its own malloc arena, and glibc keeps
    much of the memory freed there resident, fragmented between arrays that
    lived longer; the main thread cannot reuse it, so without a trim it adds
    to every later peak of the process.
    """
    import ctypes
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    malloc_trim(0)
