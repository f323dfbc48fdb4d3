"""What runs inside one task worker process.

A worker process runs many attempts of one job, one at a time (see
:mod:`~repro.mapreduce.runtime.pool`); :func:`prepare_process` sets it
up once, right after fork, and :func:`worker_entry` is one attempt.

:func:`worker_entry` wraps the attempt executor every pool shares
(:func:`repro.mapreduce.runtime.attempt.execute_attempt`) in what only
a process needs: a heartbeat, an rlimit, process-shaped faults, and the
worker's pipe to its runner, its only channel to the scheduler
(:class:`Channel`).  While the attempt runs, a daemon **heartbeat
thread** sends its ``time.monotonic()`` every ``heartbeat_interval``
seconds; on Linux that clock is system-wide, so the scheduler ages the
beat on its own clock to detect a worker that is *alive but wedged*
(stopped by the kernel, or stuck in uninterruptible I/O).  A pipelined
reducer's starvation reports travel on the pipe too, and so does the
record -- the ok-record or
:func:`~repro.mapreduce.runtime.attempt.classify`'s error record --
once the beat thread has stopped.  A worker killed mid-task sends no
record, which is the retry signal.  Only a ``durable`` attempt (a
recoverable wave's) also commits its record to a result file, before
sending it; :func:`load_result` reads one back to adopt a checkpoint.

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
from typing import Any, Callable

from repro.mapreduce.runtime.attempt import AttemptSpec, execute_attempt
from repro.util.fsio import atomic_write_bytes

__all__ = ["Channel", "worker_entry", "commit_record", "load_result",
           "prepare_process", "BEAT", "STARVED", "DONE", "EXIT",
           "MMAP_THRESHOLD_BYTES", "TRIM_THRESHOLD_BYTES"]

#: the kinds of message a worker sends: a heartbeat (its monotonic
#: clock), a starvation report (the missing maps), and its attempt's
#: pickled record -- as its last word (``EXIT``) when it exits next
BEAT, STARVED, DONE, EXIT = "beat", "starved", "done", "exit"

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


class Channel:
    """A worker's end of the pipe to its runner: one lock guards every
    :meth:`send` of a ``(kind, payload)`` message."""

    def __init__(self, conn: Any) -> None:
        self._conn, self._lock = conn, threading.Lock()

    def send(self, kind: str, payload: Any) -> None:
        with self._lock:
            self._conn.send((kind, payload))


def _start_heartbeat(channel: Channel,
                     interval: float) -> Callable[[], None]:
    """Send ``time.monotonic()`` as a :data:`BEAT` every ``interval``
    seconds; returns the function that stops and joins the thread.

    A daemon thread, so it dies with the process; an OSError (the
    scheduler closed its end while killing us) silently ends the beat.
    """
    done = threading.Event()

    def beat() -> None:
        while not done.is_set():
            try:
                channel.send(BEAT, time.monotonic())
            except OSError:
                return
            done.wait(interval)

    thread = threading.Thread(target=beat, daemon=True, name="heartbeat")
    thread.start()

    def stop() -> None:
        done.set()
        thread.join()
    return stop


def commit_record(spec: AttemptSpec, record: dict[str, Any]) -> bytes:
    """An attempt's record, pickled; a ``durable`` attempt also commits
    it to ``spec.result_path`` (tmp + fsync + rename)."""
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    if spec.durable:
        os.makedirs(spec.attempt_dir, exist_ok=True)
        atomic_write_bytes(spec.result_path, blob)
    return blob


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
        # Abrupt death: no record, no cleanup, no goodbye.
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


def worker_entry(spec: AttemptSpec, channel: Channel) -> bytes:
    """One attempt on a worker; returns its pickled record for the
    :data:`DONE` message.

    Heartbeat + rlimit + :func:`~repro.mapreduce.runtime.attempt.
    execute_attempt` with the process-shaped faults as its prelude and
    :func:`commit_record` as its commit.  The beat thread is joined
    before the record is returned, so no beat trails into the worker's
    next attempt.
    """
    stop_heartbeat = _start_heartbeat(channel, spec.heartbeat_interval)
    _apply_rlimit(spec.rlimit_bytes)
    blob = b""

    def commit(record: dict[str, Any]) -> None:
        nonlocal blob
        blob = commit_record(spec, record)

    def oom_killed(record: dict[str, Any]) -> None:
        # The simulated kernel OOM killer: SIGKILL's exit status, but
        # with the error record already sent.
        commit(record)
        stop_heartbeat()
        channel.send(EXIT, blob)
        os._exit(137)

    try:
        execute_attempt(spec, spec.attempt_dir, prelude=_apply_process_fault,
                        kill=oom_killed, commit=commit,
                        on_starved=functools.partial(channel.send, STARVED))
    finally:
        stop_heartbeat()
    return blob
