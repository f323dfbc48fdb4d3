"""One helper thread pool per process.

A map task's segment commits (``engine._commit_segments``) and the
network shuffle's wire staging (``ShuffleService``) hand work to
another thread.  They share this one executor, so the threads a process
runs -- and the glibc malloc arenas that keep freed memory resident,
one per thread that allocates -- stay fixed however many spills and
services it makes.  A reduce task fetches on its own thread.

The pool is sized to the CPUs this process may run on minus the
caller's own (:func:`threads`), is created on first use, and starts its
threads as work arrives.  On one CPU there is none and every caller
runs inline.  A forked child starts with no pool of its own: its
parent's threads did not fork with it.

Pool work never waits for other pool work: a commit or a wire stage
waits on nothing queued, and the server handler that waits for a wire
stage runs on its own thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Iterable

__all__ = ["THREAD_PREFIX", "threads", "pool", "drain"]

#: name prefix of the pool's threads
THREAD_PREFIX = "helper"

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def threads() -> int:
    """Helper threads this process runs: one per CPU it may run on
    beyond the caller's own, so none on one CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus - 1


def pool() -> ThreadPoolExecutor | None:
    """This process's helper pool, created on first use; ``None`` when
    :func:`threads` is zero and callers run their work inline."""
    global _pool
    if _pool is None:
        with _lock:
            if _pool is None:
                count = threads()
                if count < 1:
                    return None
                _pool = ThreadPoolExecutor(count,
                                           thread_name_prefix=THREAD_PREFIX)
    return _pool


def drain(futures: Iterable[Future]) -> None:
    """Cancel every future that has not started and wait for the rest,
    so no submitted work outlives its caller."""
    futures = list(futures)
    for future in futures:
        future.cancel()
    wait(futures)


def _forget_in_child() -> None:
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


os.register_at_fork(after_in_child=_forget_in_child)
