"""Ordered maps over independent tasks, on a thread pool where the job is large enough.

``pool_size`` is the one rule that chooses between a pool and a plain
serial ``map``, and ``ordered_map`` applies it.  A job is pooled only when
it has at least ``MIN_TASKS`` tasks and the process may run on at least 2
CPUs; the pool then has ``min(usable CPUs, tasks)`` threads, so the number
of threads is bounded by the hardware, never by the size of a run.  The
rule reads only the task count and the CPUs, and results come back in task
order on either schedule, so a caller that uses them in that order gives
the same output, byte for byte, however the tasks were scheduled.

The pool's tasks must spend their time in numpy calls that release the
GIL, as stream generation does.  No work is forked: every thread runs in
the calling process, whose ``RUSAGE_SELF`` peak covers it.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

#: fewest tasks that are worth a pool's start-up
MIN_TASKS = 4


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def pool_size(n_tasks: int) -> int:
    """Threads for a job of ``n_tasks``: ``min(usable CPUs, n_tasks)``, or 1,
    which means serial, below ``MIN_TASKS`` tasks or on one CPU."""
    workers = min(usable_cpus(), n_tasks)
    return 1 if n_tasks < MIN_TASKS or workers < 2 else workers


def ordered_map(fn: Callable, tasks: Iterable) -> Iterator:
    """``fn(task)`` for each task, yielded in task order, on a pool of
    ``pool_size`` threads or serially.

    An exception raised by a task reaches the caller with its own type, and
    the pool is shut down, its threads joined, before the iteration ends or
    raises.
    """
    tasks = list(tasks)
    workers = pool_size(len(tasks))
    if workers == 1:
        yield from map(fn, tasks)
        return
    # imported here, so a command that never pools does not pay for it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        # closing pool.map's iterator early cancels the tasks not yet started
        yield from pool.map(fn, tasks)


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
