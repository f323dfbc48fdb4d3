"""Shared worker-process pool: the service owns the slots, schedulers
borrow them.

Before the job service existed, every :class:`~repro.mapreduce.runtime.
scheduler.TaskScheduler` owned its worker processes outright: it forked
attempts freely up to its private ``max_workers`` and nothing else on
the machine had a say.  A long-lived daemon running many tenants' jobs
concurrently needs the opposite ownership: **one** pool of worker slots
for the whole process, with every scheduler *leasing* capacity from it.
That inversion is this module.

:class:`WorkerPool` tracks two budgets under one lock:

* a **global slot count** (``max_workers``) -- the hard bound on
  attempts in flight across every concurrently running job; and
* **per-tenant quotas** -- a tenant may be capped below the global
  bound, so one tenant's wide job cannot starve the rest of the pool
  even when slots are free (the service sets quotas from its config).

A scheduler asks for a :class:`PoolLease` (tagged with its tenant) and
then *spawns attempts through the lease*: every successful spawn charges
one global slot and one tenant slot; every release returns both.  The
pool also keeps the multiprocessing context (start-method choice) alive
across jobs.

**Workers outlive attempts.**  A lease keeps the worker processes it
forked (Hadoop's ``mapred.job.reuse.jvm.num.tasks``).  An attempt runs
on an idle worker of the lease, and a new worker is forked only when
none is idle, so a job forks at most as many workers as it runs
attempts at once.  A worker inherits, at fork, the objects the spawn
names as ``inherit`` (the job and the dataset); each attempt's target
and arguments then reach it over a pipe, with those inherited objects
passed by reference rather than pickled.  The pipe is also the
worker's only channel back (:mod:`~repro.mapreduce.runtime.worker`
names its messages).  An attempt that is killed or exits takes its
worker with it.  An idle worker holds no slot;
:meth:`PoolLease.shutdown` stops and reaps every worker, and a worker
whose runner dies exits by itself.

A scheduler constructed *without* a pool builds a private single-tenant
one, so standalone ``repro run`` behaves exactly as before -- the
refactor changes ownership, not behavior.

:class:`InlinePool` is the other executor behind the same ``launch``:
one slot, no process -- the serial runner's.  Both run an
:class:`~repro.mapreduce.runtime.attempt.AttemptSpec` through one
:func:`~repro.mapreduce.runtime.attempt.execute_attempt` and hand its
record back in memory.
"""

from __future__ import annotations

import functools
import io
import multiprocessing
import multiprocessing.connection
import os
import pickle
import select
import shutil
import threading
import time
from typing import Any

from repro.mapreduce.runtime.attempt import AttemptSpec, execute_attempt
from repro.mapreduce.runtime.memory import MemoryBudget
from repro.mapreduce.runtime.worker import (
    COMMIT,
    DONE,
    EXIT,
    Channel,
    commit_record,
    prepare_process,
    worker_entry,
)

__all__ = ["PoolSaturatedError", "WorkerPool", "PoolLease", "AttemptHandle",
           "InlinePool", "FinishedAttempt"]


class PoolSaturatedError(RuntimeError):
    """A spawn was attempted with no slot available.

    Schedulers are expected to check :meth:`PoolLease.available` before
    launching; this error firing means a bookkeeping bug, not overload
    (overload is handled by *not launching*, never by crashing).
    """


class WorkerPool:
    """Bounded, tenant-aware slots for task attempts.

    Thread-safe: the service's concurrent job executors all spawn
    through the same pool.  ``max_workers`` bounds attempts in flight
    globally; :meth:`set_quota` bounds one tenant's share.  The pool
    never *queues* spawn requests -- capacity checks are the caller's
    poll loop's job -- it only accounts; leases fork.
    """

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None,
                 max_memory_bytes: int | None = None) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.context = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._running = 0
        #: live worker processes per tenant
        self._tenant_running: dict[str, int] = {}
        #: concurrent-task cap per tenant (absent = global bound only)
        self._quotas: dict[str, int] = {}
        #: pool-global memory ledger: the admission controller charges
        #: each admitted job's *priced* peak memory per tenant here, so
        #: one tenant's memory-hungry jobs cannot overcommit the machine
        #: even when worker slots are free
        self.memory = MemoryBudget(max_memory_bytes, name="pool")

    # -------------------------------------------------------------- config

    def set_quota(self, tenant: str, max_tasks: int) -> None:
        """Cap ``tenant`` at ``max_tasks`` attempts in flight."""
        if max_tasks < 1:
            raise ValueError(f"quota must be >= 1, got {max_tasks}")
        with self._lock:
            self._quotas[tenant] = max_tasks

    def set_memory_quota(self, tenant: str, nbytes: int | None) -> None:
        """Cap ``tenant``'s outstanding priced job memory."""
        self.memory.set_quota(tenant, nbytes)

    def lease(self, tenant: str = "default") -> "PoolLease":
        """A spawn handle charged to ``tenant``'s quota."""
        return PoolLease(self, tenant)

    # ------------------------------------------------------------ accounting

    def _available(self, tenant: str) -> int:
        with self._lock:
            free = self.max_workers - self._running
            quota = self._quotas.get(tenant)
            if quota is not None:
                free = min(free, quota - self._tenant_running.get(tenant, 0))
            return max(0, free)

    def _acquire(self, tenant: str) -> bool:
        with self._lock:
            if self._running >= self.max_workers:
                return False
            quota = self._quotas.get(tenant)
            if (quota is not None
                    and self._tenant_running.get(tenant, 0) >= quota):
                return False
            self._running += 1
            self._tenant_running[tenant] = (
                self._tenant_running.get(tenant, 0) + 1)
            return True

    def _release(self, tenant: str) -> None:
        with self._lock:
            # Defensive floor: a double release must not open phantom
            # capacity (the invariant the lease's bookkeeping protects).
            self._running = max(0, self._running - 1)
            held = self._tenant_running.get(tenant, 0)
            if held <= 1:
                self._tenant_running.pop(tenant, None)
            else:
                self._tenant_running[tenant] = held - 1

    # --------------------------------------------------------------- queries

    def running(self) -> int:
        """Attempts in flight across every lease."""
        with self._lock:
            return self._running

    def running_for(self, tenant: str) -> int:
        """Attempts in flight charged to one tenant."""
        with self._lock:
            return self._tenant_running.get(tenant, 0)

    def stats(self) -> dict[str, Any]:
        """Snapshot for health endpoints and traces."""
        with self._lock:
            out = {
                "max_workers": self.max_workers,
                "running": self._running,
                "per_tenant": dict(sorted(self._tenant_running.items())),
                "quotas": dict(sorted(self._quotas.items())),
            }
        out["memory"] = self.memory.stats()
        return out


#: stands for the worker's :class:`~repro.mapreduce.runtime.worker.
#: Channel` in a spawn's arguments
CHANNEL = object()


class _Worker:
    """A lease's worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn", "inherit", "refs")

    def __init__(self, context: Any, inherit: tuple) -> None:
        parent_end, child_end = context.Pipe()
        self.process = context.Process(target=_serve,
                                       args=(child_end, inherit),
                                       daemon=True)
        self.process.start()
        child_end.close()
        self.conn = parent_end
        #: held, so no later object can take an inherited one's ``id``
        self.inherit = inherit
        #: ``id`` of each inherited object -> its index in ``inherit``
        self.refs = {id(obj): i for i, obj in enumerate(inherit)
                     if obj is not None}
        self.refs[id(CHANNEL)] = len(inherit)

    def covers(self, inherit: tuple) -> bool:
        """Whether every object ``inherit`` names was inherited here."""
        return all(obj is None or id(obj) in self.refs for obj in inherit)

    def submit(self, target: Any, args: tuple) -> None:
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: self.refs.get(id(obj))
        pickler.dump((target, args))
        self.conn.send_bytes(buf.getvalue())


def _serve(conn: Any, inherit: tuple) -> None:
    """A worker's process target: run attempts until told to stop; each
    ends with a ``DONE`` message carrying what its target returned.

    An empty message stops the worker.  So does its runner's death:
    every worker forked after this one holds a copy of the runner's
    end of this pipe, so EOF alone would not say the runner is gone.
    A ``COMMIT`` message here was sent for an attempt that has ended,
    and is dropped.
    """
    prepare_process()
    channel = Channel(conn, multiprocessing.parent_process().sentinel)
    refs = (*inherit, channel)
    while True:
        if conn not in multiprocessing.connection.wait(channel.watched):
            return  # the runner died
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        if not message:
            return
        unpickler = pickle.Unpickler(io.BytesIO(message))
        unpickler.persistent_load = refs.__getitem__
        target, args = unpickler.load()
        del message, unpickler
        if target == COMMIT:
            continue
        channel.send(DONE, target(*args))
        del target, args  # an idle worker holds no attempt's arguments


class AttemptHandle:
    """One attempt on a leased worker, shaped like the
    :class:`multiprocessing.Process` the scheduler used to poll:
    ``sentinel``, ``is_alive``, ``join``, ``exitcode``, ``terminate``
    and ``kill``.

    The attempt ends when its worker sends the record (exit code 0; the
    worker goes back to the lease, unless the record was its last word)
    or dies.  ``terminate`` and ``kill`` act on the worker while the
    attempt still owns it, and that worker is never reused.
    """

    def __init__(self, lease: "PoolLease", worker: _Worker) -> None:
        self._lease = lease
        self._worker: _Worker | None = worker
        self._process = worker.process
        self._lost = False
        #: the latest payload of each message kind the worker sent
        self._heard: dict[str, Any] = {}

    def heard(self, kind: str) -> Any:
        """The latest payload of ``kind`` the worker sent, or ``None``."""
        self._settle()
        return self._heard.get(kind)

    def send(self, kind: str, payload: Any) -> bool:
        """Send the attempt's worker a message if its pipe has room
        (polled writable, it takes a small message whole); ``False``,
        sending nothing, if a worker not reading it filled it.  One to
        a worker that has died is dropped (the reap notices that)."""
        if self._worker is None:
            return True
        poller = select.poll()
        poller.register(self._worker.conn.fileno(), select.POLLOUT)
        if not poller.poll(0):
            return False
        try:
            self._worker.conn.send((kind, payload))
        except OSError:
            pass
        return True

    def record(self) -> dict[str, Any] | None:
        """The task attempt's record; ``None`` when the worker died
        without sending one."""
        blob = self._heard.get(DONE) or self._heard.get(EXIT)
        return None if blob is None else pickle.loads(blob)

    @property
    def pid(self) -> int | None:
        return self._process.pid

    @property
    def sentinel(self) -> Any:
        """Ready when the attempt may have ended."""
        if self._worker is not None:
            return self._worker.conn
        return self._process.sentinel

    @property
    def exitcode(self) -> int | None:
        if self._lost:
            return self._process.exitcode
        return None if self._worker is not None else 0

    def _settle(self) -> None:
        """Read what the worker sent; notice the record or its death."""
        worker = self._worker
        if worker is None:
            return
        # Asked first: what a dead worker sent is already in the pipe.
        alive = self._process.is_alive()
        try:
            while worker.conn.poll():
                kind, payload = worker.conn.recv()
                self._heard[kind] = payload
                if kind == DONE:
                    self._worker = None
                    self._lease._idle.append(worker)
                    return
                alive = alive and kind != EXIT  # EXIT: its last word
        except (EOFError, OSError):
            alive = False
        if not alive:
            self._lose()

    def _lose(self) -> None:
        """The worker died, or is being killed, mid-attempt: it stays
        with the lease only to be reaped."""
        self._worker.conn.close()
        self._worker = None
        self._lost = True

    def is_alive(self) -> bool:
        self._settle()
        if self._lost:
            return self._process.is_alive()
        return self._worker is not None

    def join(self, timeout: float | None = None) -> None:
        end = None if timeout is None else time.monotonic() + timeout
        while self._worker is not None and (
                end is None or time.monotonic() < end):
            multiprocessing.connection.wait(
                [self._worker.conn, self._process.sentinel],
                None if end is None else end - time.monotonic())
            self._settle()
        if self._lost:
            self._process.join(timeout)

    def terminate(self) -> None:
        if self._worker is not None:
            self._lose()
        if self._lost:
            self._process.terminate()

    def kill(self) -> None:
        if self._worker is not None:
            self._lose()
        if self._lost:
            self._process.kill()


class PoolLease:
    """One scheduler's borrowing handle on a shared :class:`WorkerPool`,
    and the owner of that scheduler's worker processes.

    Every :meth:`spawn` charges a slot; the matching :meth:`release`
    must follow when the attempt is reaped or killed.  The lease keeps
    its own outstanding count so :meth:`close` can return slots leaked
    by an error path -- a crashed scheduler must never permanently
    shrink the daemon's pool.  :meth:`shutdown` also stops and reaps
    the workers.  A lease is driven by one thread.
    """

    def __init__(self, pool: WorkerPool, tenant: str) -> None:
        self.pool = pool
        self.tenant = tenant
        self._lock = threading.Lock()
        self._outstanding = 0
        #: every worker not yet reaped, and the idle ones among them
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []

    def available(self) -> int:
        """Slots a spawn could take right now (global AND tenant caps)."""
        return self.pool._available(self.tenant)

    def spawn(self, target: Any, args: tuple, *,
              inherit: tuple = ()) -> AttemptHandle:
        """Run ``target(*args)`` on an idle worker, or on a new one
        forked when none is idle, inside a charged slot.

        A worker forked here inherits ``inherit``; an idle worker is
        used only if it inherited those same objects (an idle worker
        that did not is stopped, so the lease never holds more workers
        than it has run attempts at once).
        """
        if not self.pool._acquire(self.tenant):
            raise PoolSaturatedError(
                f"no worker slot free for tenant {self.tenant!r} "
                f"({self.pool.stats()})")
        try:
            worker = self._start(target, args, inherit)
        except BaseException:
            self.pool._release(self.tenant)
            raise
        with self._lock:
            self._outstanding += 1
        return AttemptHandle(self, worker)

    def launch(self, spec: AttemptSpec, *,
               inherit: tuple = ()) -> AttemptHandle:
        """Run one task attempt (:func:`~repro.mapreduce.runtime.worker.
        worker_entry`) on a worker, in its own attempt directory."""
        os.makedirs(spec.attempt_dir, exist_ok=True)
        try:
            return self.spawn(worker_entry, (spec, CHANNEL), inherit=inherit)
        except BaseException:
            shutil.rmtree(spec.attempt_dir, ignore_errors=True)
            raise

    def _start(self, target: Any, args: tuple, inherit: tuple) -> _Worker:
        while self._idle:
            worker = self._idle.pop()
            if worker.covers(inherit):
                try:
                    worker.submit(target, args)
                    return worker
                except OSError:  # it died since it reported
                    pass
                except BaseException:  # the arguments did not pickle
                    self._idle.append(worker)
                    raise
            self._stop(worker)
        self._workers = [w for w in self._workers
                         if w.process.exitcode is None]
        worker = _Worker(self.pool.context, inherit)
        self._workers.append(worker)
        try:
            worker.submit(target, args)
        except BaseException:
            self._stop(worker)
            raise
        return worker

    def _stop(self, worker: _Worker) -> None:
        """Stop and reap one worker that runs no attempt (or was
        killed)."""
        try:
            worker.conn.send_bytes(b"")
        except OSError:
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - wedged
            worker.process.kill()
            worker.process.join()
        worker.conn.close()
        if worker in self._workers:
            self._workers.remove(worker)

    def release(self) -> None:
        """Return one slot (the attempt was reaped or killed)."""
        with self._lock:
            if self._outstanding <= 0:
                return  # already balanced; never double-credit the pool
            self._outstanding -= 1
        self.pool._release(self.tenant)

    def close(self) -> None:
        """Return every slot this lease still holds (error-path sweep)."""
        while True:
            with self._lock:
                if self._outstanding <= 0:
                    return
                self._outstanding -= 1
            self.pool._release(self.tenant)

    def shutdown(self) -> None:
        """Stop and reap every worker, then return every slot.

        Idle workers are told to stop; a worker still running an
        attempt is killed.
        """
        for worker in list(self._workers):
            if worker not in self._idle:
                worker.process.kill()
            self._stop(worker)
        self._idle = []
        self.close()


class FinishedAttempt:
    """An inline attempt's handle, shaped like :class:`AttemptHandle`:
    finished before it is returned.  ``error`` is the exception an error
    record classifies, which a job the attempt ends raises itself."""

    exitcode = 0

    def __init__(self, record: dict[str, Any],
                 error: BaseException | None) -> None:
        self._record = record
        self.error = error

    def record(self) -> dict[str, Any]:
        """The attempt's record."""
        return self._record

    def heard(self, kind: str) -> None:
        """Nothing: an inline attempt sends no message."""

    def is_alive(self) -> bool:
        """Never: the attempt ran to completion at launch."""
        return False

    def join(self, timeout: float | None = None) -> None:
        """Nothing to wait for, stop or kill."""

    terminate = kill = join


class InlinePool:
    """One slot in the calling process; a :class:`WorkerPool` stand-in
    that is its own lease.

    :meth:`launch` runs the attempt to completion before it returns --
    no process, thread or heartbeat -- in its wave directory: with one
    slot no two attempts run at once, so a retry overwrites what its
    predecessor left at the same paths.  It writes a result file only
    for a ``durable`` attempt (a recoverable job's checkpoint), as a
    worker does.
    """

    max_workers = 1

    def lease(self, tenant: str = "default") -> "InlinePool":
        """The pool itself: there is one slot and one user."""
        return self

    def available(self) -> int:
        """The one slot (the scheduler never holds it across polls)."""
        return 1

    def launch(self, spec: AttemptSpec, *,
               inherit: tuple = ()) -> FinishedAttempt:
        """Run one task attempt here and now."""
        commit = (functools.partial(commit_record, spec) if spec.durable
                  else None)
        return FinishedAttempt(*execute_attempt(
            spec, os.path.dirname(spec.attempt_dir), commit=commit))

    def release(self) -> None:
        """No slot accounting to return."""

    close = shutdown = release
