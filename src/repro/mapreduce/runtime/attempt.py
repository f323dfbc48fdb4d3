"""One task attempt: what it executes, and what its failure means.

:func:`run_attempt` is the whole body of one map or reduce attempt --
fault application, memory degrade, budget arming, body selection -- and
:func:`classify` turns whatever it raised into the error record the
scheduler's recovery ladder dispatches on.  :func:`execute_attempt`
joins them for every executor: it takes an :class:`AttemptSpec`, fails
its workdir over on a planned disk fault, runs the body and classifies
the outcome.  The inline pool the serial runner schedules on calls it in
the driving process; :func:`~repro.mapreduce.runtime.worker.worker_entry`
calls it inside a forked worker and sends the record back on the
worker's pipe.  Serial/parallel identity of output and counters
under every data-shaped fault is therefore structural: there is no
second copy of any of these decisions to drift.

Body selection turns on skip mode alone: a map attempt runs
:func:`~repro.mapreduce.engine.run_map_task` or its skipping twin, a
reduce attempt :func:`~repro.mapreduce.engine.run_reduce_task` or its
skipping twin, over resolved refs and a pipelined shuffle's plan
alike, and every body is handed the attempt's memory ledger.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Any, Callable

from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.ifile import IFileCorruptError
from repro.mapreduce.runtime.fault import Fault, corrupt_file, poisoned_job
from repro.mapreduce.runtime.hosts import provision_failover_workdir
from repro.mapreduce.runtime.memory import MemoryBudget
from repro.mapreduce.runtime.pipeline import PipelinePlan, drain_refs
from repro.mapreduce.runtime.shuffle import FetchFailedError, SegmentRef
from repro.mapreduce.runtime.skipping import (
    is_skip_eligible,
    run_map_task_skipping,
    run_reduce_task_skipping,
)

__all__ = ["AttemptSpec", "execute_attempt", "run_attempt", "classify"]


@dataclass(frozen=True)
class AttemptSpec:
    """One launch of one task, as the scheduler hands it to an executor:
    :func:`run_attempt`'s arguments plus the attempt directory, the
    placement (``host``, a planned ``disk_fault`` on the home host), a
    worker's ``heartbeat_interval`` and ``rlimit_bytes``, and whether
    the record is also committed to ``result_path`` (``durable``: the
    wave keeps result files for a resume)."""

    task_id: str
    kind: str
    number: int
    attempt_dir: str
    job: Any
    dataset: Any
    payload: Any
    fault: Fault | None = None
    skip_mode: bool = False
    shuffle: Any = None
    fetch_faults: Any = None
    degrade: int = 0
    host: str | None = None
    disk_fault: Fault | None = None
    heartbeat_interval: float = 0.25
    rlimit_bytes: int | None = None
    durable: bool = False

    @property
    def result_path(self) -> str:
        """Where a ``durable`` attempt commits its record."""
        return os.path.join(self.attempt_dir, "_result.pkl")


def classify(exc: BaseException, job: Any) -> dict[str, Any]:
    """The error record for a failed attempt -- the ladder's dispatch key.

    At most one of the four recovery fields is set, checked by the
    runners in this order:

    * ``failed_map`` -- an exhausted fetch names its producing map task
      so the link is charged a strike and escalation re-executes the map;
    * ``oom`` -- an out-of-memory death (injected, budget overrun,
      simulated OOM kill, or a real rlimit ``MemoryError``) is the cue to
      retry on deterministically halved memory knobs, not to burn a
      regular failure budget;
    * ``skip_eligible`` -- under a job ``SkipPolicy``, a failure that
      localizes to records sends later attempts into skipping mode;
    * ``corrupt_path`` -- whole-segment corruption names the file so the
      producing map can be re-run in place.  Mutually exclusive with
      ``skip_eligible``: block-local damage under a skip policy is
      skipping's to salvage, not repair's.
    """
    oom = isinstance(exc, MemoryError)
    skippable = (isinstance(exc, Exception) and not oom
                 and getattr(job, "skipping", None) is not None
                 and is_skip_eligible(exc))
    return {
        "status": "error",
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(traceback.format_exception(exc)),
        "failed_map": (exc.map_id if isinstance(exc, FetchFailedError)
                       else None),
        "oom": oom,
        "skip_eligible": skippable,
        "corrupt_path": (exc.path if isinstance(exc, IFileCorruptError)
                         and not skippable else None),
    }


def _arm_budget(name: str, shuffle: Any, fault: Fault | None,
                kill: Callable[[MemoryError], None] | None) -> Any:
    """This attempt's memory ledger, with any ``oom`` fault armed.

    A budget exists when the job configured ``memory_budget`` *or* an
    oom fault targets this attempt -- the clean, unbudgeted path stays
    allocation-free.  The ``kill`` op models the kernel OOM killer: the
    moment the site's charged bytes cross the threshold the attempt dies
    with a ``MemoryError``.  How it dies is the one runner-specific part:
    a worker passes ``kill`` to send the error record and
    ``os._exit(137)`` (the SIGKILL status, except the scheduler gets a
    deterministic record instead of none); inline there
    is no process to kill, so the ``MemoryError`` simply propagates and
    takes the same degrade ladder.
    """
    capacity = getattr(shuffle, "memory_budget", None)
    oom = fault is not None and fault.mode == "oom"
    if capacity is None and not oom:
        return None
    budget = MemoryBudget(capacity, name=name)
    if oom:
        site = fault.where
        if fault.op == "raise":
            budget.fail_next(site)
        elif fault.op == "alloc":
            budget.alloc_next(site, fault.record)
        else:  # "kill"
            def _killed(nbytes: int) -> None:
                exc = MemoryError(
                    f"simulated oom kill: {site} charged {nbytes} "
                    f"bytes over threshold")
                if kill is not None:
                    kill(exc)
                raise exc
            budget.kill_above(fault.record, _killed, site=site)
    return budget


def run_attempt(
    kind: str,
    job: Any,
    payload: Any,
    dataset: Any,
    workdir: str,
    *,
    task_id: str,
    attempt: int = 0,
    fault: Fault | None = None,
    skip_mode: bool = False,
    shuffle: Any = None,
    fetch_faults: Any = None,
    degrade: int = 0,
    kill: Callable[[MemoryError], None] | None = None,
    link: Any = None,
) -> dict[str, Any]:
    """Execute one task attempt in ``workdir``; returns its ok-record
    ``{"status": "ok", "value": ..., "memory": ...}`` or raises.

    ``payload`` is the task input: an ``InputSplit`` for map tasks, a
    ``(partition, segments)`` pair for reduce tasks, where ``segments``
    is either resolved :class:`SegmentRef` s (barrier shuffle) or a
    :class:`PipelinePlan` (pipelined shuffle) -- the reduce body takes
    both.  ``fault`` is the
    injector's data-shaped fault for this attempt (``poison`` /
    ``corrupt`` / ``oom``; process faults are the worker's business),
    ``skip_mode`` runs the body in record-level skipping mode (set after
    a skip-eligible failure of a previous attempt), ``fetch_faults`` is
    a reduce task's slice of the injector's fetch plan, and ``link``
    is a pipelined reducer's channel to the scheduler (a worker's
    :class:`~repro.mapreduce.runtime.worker.Channel`).

    ``degrade`` is how many OOM deaths this task has already suffered:
    each level deterministically halves the sort buffer (floored at the
    Job minimum), so an injected OOM run spills identically wherever
    the attempt executes.
    """
    if fault is not None and fault.mode == "poison":
        # Built inside the process that runs the task: the factory
        # closure is not picklable, and does not need to be.
        job = poisoned_job(job, fault, kind)
    if degrade:
        job = dc_replace(job, sort_buffer_bytes=max(
            1024, job.sort_buffer_bytes >> degrade))
    budget = _arm_budget(f"{task_id}.{attempt}", shuffle, fault, kill)
    corrupt = fault is not None and fault.mode == "corrupt"

    if kind == "map":
        body = run_map_task_skipping if skip_mode else run_map_task
        value: Any = body(job, payload, dataset, workdir, memory=budget)
        if corrupt and fault.where == "map-output":
            # The task *believes* it succeeded; the damage is only
            # discoverable by a reducer's checksum verification.
            target = (fault.segment if fault.segment in value.segments
                      else min(value.segments))
            corrupt_file(value.segments[target][0], fault.offset_frac,
                         fault.op)
    elif kind == "reduce":
        part, segments = payload
        if corrupt and fault.where == "reduce-input":
            if isinstance(segments, PipelinePlan):
                # The damage goes into a segment file before the body
                # fetches it, so this one attempt waits for every
                # producer to commit (barrier semantics, byte-identical
                # by definition).
                segments = drain_refs(segments, link)
            if segments:
                index = fault.segment if fault.segment is not None else 0
                target = segments[index % len(segments)]
                corrupt_file(target.path if isinstance(target, SegmentRef)
                             else target[0],
                             fault.offset_frac, fault.op)
        body = run_reduce_task_skipping if skip_mode else run_reduce_task
        value = body(job, part, segments, workdir, shuffle=shuffle,
                     fetch_faults=fetch_faults, memory=budget, link=link)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return {"status": "ok", "value": value,
            "memory": budget.stats() if budget is not None else None}


def execute_attempt(
    spec: AttemptSpec,
    workdir: str,
    *,
    prelude: Callable[[AttemptSpec], None] | None = None,
    kill: Callable[[dict[str, Any]], None] | None = None,
    commit: Callable[[dict[str, Any]], None] | None = None,
    link: Any = None,
) -> tuple[dict[str, Any], BaseException | None]:
    """Run one attempt in ``workdir``; returns its record and, for an
    error record, the exception it classifies.

    Every executor's path: the spare workdir on a planned disk fault,
    the executor's ``prelude`` (a worker's process faults),
    :func:`run_attempt`, and :func:`classify` of whatever raised.
    ``kill`` takes a simulated OOM kill's error record and must not
    return.  ``commit`` readies the record for delivery (a worker
    pickles it); a record it cannot commit is replaced by an error
    record.  ``link`` goes to :func:`run_attempt`.
    """
    job = spec.job
    error = None
    try:
        if spec.disk_fault is not None:
            workdir = provision_failover_workdir(
                workdir, spec.task_id, spec.host or "", spec.disk_fault)
        if prelude is not None:
            prelude(spec)
        record = run_attempt(
            spec.kind, job, spec.payload, spec.dataset, workdir,
            task_id=spec.task_id, attempt=spec.number, fault=spec.fault,
            skip_mode=spec.skip_mode, shuffle=spec.shuffle,
            fetch_faults=spec.fetch_faults, degrade=spec.degrade,
            kill=None if kill is None else (
                lambda exc: kill(classify(exc, job))),
            link=link)
    except BaseException as exc:
        record, error = classify(exc, job), exc
    if commit is not None:
        try:
            commit(record)
        except BaseException as exc:
            record, error = classify(exc, job), exc
            record["message"] = f"failed to serialize task result: {exc}"
            commit(record)
    return record, error
