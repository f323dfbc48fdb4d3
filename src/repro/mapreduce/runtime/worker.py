"""What runs inside one task worker process.

A worker process runs many attempts of one job, one at a time (see
:mod:`~repro.mapreduce.runtime.pool`); :func:`prepare_process` sets it
up once, right after fork, and :func:`worker_entry` is one attempt.

:func:`worker_entry` wraps the attempt executor every pool shares
(:func:`repro.mapreduce.runtime.attempt.execute_attempt`) in what only
a process needs: a heartbeat, an rlimit, process-shaped faults, and a
durable result file that hands the record -- the ok-record, or
:func:`~repro.mapreduce.runtime.attempt.classify`'s error record --
back to the scheduler on shared disk.  The result file is committed
durably (tmp + fsync + rename), so the scheduler observes either a
complete result or none at all -- a worker killed mid-task simply
leaves no result, which is the retry signal; :func:`load_result`
additionally treats a torn or truncated pickle as "no result" rather
than crashing the scheduler.

While the attempt runs, a daemon **heartbeat thread** touches
``<attempt_dir>/_heartbeat`` every ``heartbeat_interval`` seconds.  The
scheduler uses the file's mtime to detect a worker that is *alive but
wedged* (e.g. stopped by the kernel, or stuck in uninterruptible I/O):
``is_alive()`` still says yes, but the heartbeat goes stale and the
attempt is killed and retried.

Process-shaped faults from a :class:`~repro.mapreduce.runtime.fault.
FaultInjector` (``kill`` / ``crash`` / ``hang`` / ``stall``) are applied
*only* here, in the child process, so an injected ``kill`` can never
take down the scheduler.  A ``kill``, ``hang`` or ``stall`` takes the
worker with it (the scheduler kills what it cannot wait for), and the
next launch forks a replacement.

**Signals.**  A worker is forked from a runner that routes SIGTERM and
SIGINT to its cancel event.  The worker restores SIGTERM's default, so
the scheduler's ``terminate`` kills it at once, and ignores SIGINT: a
Ctrl-C reaches the whole process group, and cancelling is the runner's
job.

**Allocator.**  A worker runs attempt after attempt, so the heap one
attempt frees should serve the next without being faulted in again.
glibc returns freed memory to the kernel eagerly -- large blocks are
``mmap``-ed and unmapped on free, and the heap top is trimmed past
128 KiB -- so :func:`prepare_process` raises both thresholds through
``mallopt`` (:data:`MMAP_THRESHOLD_BYTES`, :data:`TRIM_THRESHOLD_BYTES`);
elsewhere it skips the step.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import threading
import time
from typing import Any

from repro.mapreduce.runtime.attempt import AttemptSpec, execute_attempt
from repro.util.fsio import fsync_file, replace_durably

__all__ = ["worker_entry", "load_result", "prepare_process",
           "HEARTBEAT_NAME", "MMAP_THRESHOLD_BYTES", "TRIM_THRESHOLD_BYTES"]

#: heartbeat filename inside an attempt directory
HEARTBEAT_NAME = "_heartbeat"

#: a worker's ``M_MMAP_THRESHOLD``: smaller blocks come from the heap,
#: which a later attempt reuses
MMAP_THRESHOLD_BYTES = 4 << 20
#: a worker's ``M_TRIM_THRESHOLD``: free heap top it keeps mapped
TRIM_THRESHOLD_BYTES = 32 << 20
#: ``mallopt`` parameter numbers (glibc ``<malloc.h>``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _tune_allocator() -> None:
    """Keep freed heap for the next attempt (glibc only)."""
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return  # not glibc
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def prepare_process() -> None:
    """Set up a freshly forked worker: signal dispositions, allocator."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _tune_allocator()


def _apply_rlimit(rlimit_bytes: int | None) -> None:
    """Cap this worker's address space with a *real* ``RLIMIT_AS``.

    Opt-in (``REPRO_WORKER_RLIMIT_BYTES``), POSIX-only; anywhere the
    ``resource`` module is missing or the kernel refuses, the cap is
    silently skipped -- the simulated budget still governs.
    """
    if not rlimit_bytes:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = int(rlimit_bytes)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - kernel said no
        pass


def _start_heartbeat(attempt_dir: str, interval: float) -> threading.Event:
    """Touch the attempt's heartbeat file on a cadence until the
    returned event is set.

    Runs as a daemon thread so it dies with the process; any OSError
    (e.g. the scheduler already deleted the attempt directory while
    killing us) silently ends the beat -- a missing heartbeat is the
    *signal*, never an error.
    """
    path = os.path.join(attempt_dir, HEARTBEAT_NAME)
    done = threading.Event()

    def beat() -> None:
        while not done.is_set():
            try:
                with open(path, "a"):
                    os.utime(path)
            except OSError:
                return
            done.wait(interval)

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()
    return done


def _write_result(result_path: str, result: dict[str, Any]) -> None:
    tmp = f"{result_path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fsync_file(fh)
    replace_durably(tmp, result_path)


def load_result(result_path: str) -> dict[str, Any] | None:
    """Read a worker's result file; ``None`` if absent or torn.

    A torn pickle cannot appear through the durable-commit path, but a
    hostile filesystem (or a pre-durability manifest left on disk) may
    still surface one; treating it as "no result" turns it into an
    ordinary retry instead of a scheduler crash.
    """
    if not os.path.exists(result_path):
        return None
    try:
        with open(result_path, "rb") as fh:
            return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError, ValueError):
        return None


def _apply_process_fault(spec: AttemptSpec) -> None:
    """Process-shaped faults only a worker can suffer (the serial runner
    rejects a plan naming them): data-shaped ones belong to
    :func:`~repro.mapreduce.runtime.attempt.run_attempt`."""
    fault = spec.fault
    if fault is None:
        return
    if fault.mode == "kill":
        # Abrupt death: no result file, no cleanup, no goodbye.
        os._exit(fault.exit_code)
    if fault.mode == "crash":
        raise RuntimeError(
            f"injected crash in {spec.task_id} attempt {spec.number}")
    if fault.mode == "hang":
        time.sleep(fault.seconds)
    if fault.mode == "stall":
        # Freeze every thread (heartbeat included): the process stays
        # alive but its heartbeat goes stale -- the case only the
        # scheduler's staleness check can catch.
        os.kill(os.getpid(), signal.SIGSTOP)


def worker_entry(spec: AttemptSpec) -> None:
    """One attempt on a worker: execute it and persist its record.

    Heartbeat + rlimit + :func:`~repro.mapreduce.runtime.attempt.
    execute_attempt` with the process-shaped faults as its prelude and
    a durable result write as its commit.  A planned disk fault moves
    only spills and segments to the spare volume: the attempt directory
    keeps its heartbeat and result file.
    """
    heartbeat = _start_heartbeat(spec.attempt_dir, spec.heartbeat_interval)
    _apply_rlimit(spec.rlimit_bytes)
    commit = functools.partial(_write_result, spec.result_path)

    def oom_killed(record: dict[str, Any]) -> None:
        # The simulated kernel OOM killer: SIGKILL's exit status, but
        # with the error record already durable.
        commit(record)
        os._exit(137)

    try:
        execute_attempt(spec, spec.attempt_dir, prelude=_apply_process_fault,
                        kill=oom_killed, commit=commit)
    finally:
        heartbeat.set()
