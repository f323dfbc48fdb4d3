"""What runs inside one task worker process.

A worker process runs many attempts of one job, one at a time (see
:mod:`~repro.mapreduce.runtime.pool`); :func:`prepare_process` sets it
up once, right after fork, and :func:`worker_entry` is one attempt.

The worker executes exactly the attempt body the serial runner calls
inline (:func:`repro.mapreduce.runtime.attempt.run_attempt`) inside its
own attempt directory, then hands the pickled result -- the ok-record,
or :func:`~repro.mapreduce.runtime.attempt.classify`'s error record --
back to the scheduler through a file on shared disk.  The result file is committed durably
(tmp + fsync + rename), so the scheduler observes either a complete
result or none at all -- a worker killed mid-task simply leaves no
result, which is the retry signal; :func:`load_result` additionally
treats a torn or truncated pickle as "no result" rather than crashing
the scheduler.

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
import os
import pickle
import signal
import threading
import time
from typing import Any

from repro.mapreduce.runtime.attempt import classify, run_attempt
from repro.mapreduce.runtime.fault import Fault
from repro.mapreduce.runtime.hosts import provision_failover_workdir
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




def _apply_process_fault(fault: Fault | None, task_id: str,
                         attempt: int) -> None:
    """Process-shaped faults only a worker can suffer (the serial runner
    rejects a plan naming them): data-shaped ones belong to
    :func:`~repro.mapreduce.runtime.attempt.run_attempt`."""
    if fault is None:
        return
    if fault.mode == "kill":
        # Abrupt death: no result file, no cleanup, no goodbye.
        os._exit(fault.exit_code)
    if fault.mode == "crash":
        raise RuntimeError(f"injected crash in {task_id} attempt {attempt}")
    if fault.mode == "hang":
        time.sleep(fault.seconds)
    if fault.mode == "stall":
        # Freeze every thread (heartbeat included): the process stays
        # alive but its heartbeat goes stale -- the case only the
        # scheduler's staleness check can catch.
        os.kill(os.getpid(), signal.SIGSTOP)


def worker_entry(
    task_id: str,
    kind: str,
    attempt: int,
    attempt_dir: str,
    result_path: str,
    job: Any,
    dataset: Any,
    payload: Any,
    fault: Fault | None,
    heartbeat_interval: float = 0.25,
    skip_mode: bool = False,
    shuffle: Any = None,
    fetch_faults: Any = None,
    host: str | None = None,
    disk_fault: Fault | None = None,
    rlimit_bytes: int | None = None,
    degrade: int = 0,
) -> None:
    """One attempt on a worker: run the task attempt and persist its
    result.

    Heartbeat + rlimit + :func:`~repro.mapreduce.runtime.attempt.
    run_attempt` + a durable result write; ``payload``, ``fault``,
    ``skip_mode``, ``shuffle``, ``fetch_faults`` and ``degrade`` are
    forwarded to the attempt body unchanged.

    ``host`` is the simulated host this attempt was placed on, and
    ``disk_fault`` a planned ``disk_fault`` against that host: the task
    body then runs in a spare workdir (the attempt directory keeps its
    heartbeat and result file -- only spills and segments fail over).
    """
    heartbeat = _start_heartbeat(attempt_dir, heartbeat_interval)
    _apply_rlimit(rlimit_bytes)

    def oom_killed(exc: MemoryError) -> None:
        # The simulated kernel OOM killer: SIGKILL's exit status, but
        # with the error record already durable.
        _write_result(result_path, classify(exc, job))
        os._exit(137)

    try:
        workdir = attempt_dir
        if disk_fault is not None:
            workdir = provision_failover_workdir(
                attempt_dir, task_id, host or "", disk_fault)
        _apply_process_fault(fault, task_id, attempt)
        result = run_attempt(
            kind, job, payload, dataset, workdir, task_id=task_id,
            attempt=attempt, fault=fault, skip_mode=skip_mode,
            shuffle=shuffle, fetch_faults=fetch_faults, degrade=degrade,
            kill=oom_killed)
    except BaseException as exc:
        result = classify(exc, job)
    try:
        _write_result(result_path, result)
    except BaseException as exc:  # e.g. unpicklable user output
        record = classify(exc, job)
        record["message"] = f"failed to serialize task result: {exc}"
        _write_result(result_path, record)
    finally:
        heartbeat.set()
