"""Bounded task scheduler: retries, backoff, speculation, attempt
deadlines, heartbeat monitoring, and checkpoint adoption.

The scheduler executes one *wave* of independent tasks (all maps, then
all reduces -- the shuffle barrier between them is the job DAG) on a
bounded pool.  A :class:`~repro.mapreduce.runtime.pool.WorkerPool`
runs attempts in worker processes, which the scheduler's lease keeps
for the whole job: an attempt runs on an idle worker, and a worker is
forked only when none is idle (see :mod:`~repro.mapreduce.runtime.pool`).
:meth:`TaskScheduler.close` stops them.  An :class:`~repro.mapreduce.
runtime.pool.InlinePool` runs each attempt in the calling process
instead -- the serial runner is this scheduler on one inline slot, so
both runners climb one recovery ladder (``handle_error`` in
:meth:`TaskScheduler.run_wave`).  It owns the whole robustness story:

* **Retry with backoff** -- an attempt that dies (no result file) or
  returns an error is re-queued with exponential backoff, up to
  ``max_retries`` extra attempts; the job fails only when a task
  exhausts its budget with no rival attempt still in flight.
* **Speculative execution** -- once enough tasks have finished to
  estimate a typical duration, a running attempt that exceeds
  ``straggler_factor`` x the median is duplicated.  First finisher
  wins; the loser is terminated and its output directory discarded.
* **Attempt deadlines** -- ``task_timeout`` is a hard per-attempt wall
  clock: an attempt that exceeds it is killed and the kill counts as a
  retryable failure.  This is what guarantees progress when speculation
  is disabled: a hung worker used to stall ``run_wave`` forever.
* **Heartbeat staleness** -- workers touch a heartbeat file on a
  cadence; with ``heartbeat_timeout`` set, an attempt whose heartbeat
  mtime goes stale is killed even though ``is_alive()`` still reports
  true (a stopped or wedged process, not a dead one).
* **Wave deadline** -- ``wave_deadline`` bounds the whole wave; on
  breach the wave fails with a :class:`WaveDeadlineError` carrying a
  per-task diagnosis from the :class:`~repro.mapreduce.runtime.trace.
  RuntimeTrace` (which tasks were stuck, and what they were last doing).
* **Corrupt-segment repair** -- a reduce attempt failing a segment
  checksum reports the offending path; the caller-supplied ``repair``
  hook re-generates that map output in place and the reduce retries
  (Hadoop's fetch-failure -> re-execute-the-mapper protocol), without
  spending ``max_retries``, at most ``max_repairs`` times per task.
* **Record skipping** -- when a job carries a
  :class:`~repro.mapreduce.job.SkipPolicy` and an attempt fails with a
  skip-eligible error (user-code or record-local corruption), every
  later attempt of that task runs in record-level skipping mode (see
  :mod:`~repro.mapreduce.runtime.skipping`): poison records are
  bisected out into quarantine and the task completes over the rest.
  Entering skip mode is free; a failure in skip mode is charged.
* **Checkpoint adoption** -- ``run_wave(..., precomputed=...)`` seeds
  the wave with results recovered from a job manifest (see
  :mod:`~repro.mapreduce.runtime.recovery`); adopted tasks are recorded
  in the trace and never scheduled.

Tasks are deterministic functions of the job configuration, so *which*
attempt wins never changes the result -- the property the equivalence
tests pin down against the serial runner.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import shutil
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.mapreduce.metrics import C
from repro.mapreduce.runtime.attempt import AttemptSpec
from repro.mapreduce.runtime.fault import Fault, FaultInjector
from repro.mapreduce.runtime.hosts import HostHealthMonitor
from repro.mapreduce.runtime.pipeline import STARVED_NAME
from repro.mapreduce.runtime.pool import InlinePool, PoolSaturatedError, WorkerPool
from repro.mapreduce.runtime.trace import RuntimeTrace
from repro.mapreduce.runtime.worker import HEARTBEAT_NAME
from repro.util.backoff import backoff_delay

__all__ = ["TaskSpec", "TaskFailedError", "WaveDeadlineError",
           "JobCancelledError", "TaskScheduler", "check_knobs"]


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable task: identity, kind, and its input payload."""

    task_id: str
    kind: str   # "map" or "reduce"
    payload: Any  # InputSplit for maps, (partition, segments) for reduces


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget."""

    def __init__(self, task_id: str, attempts: int, detail: str) -> None:
        super().__init__(
            f"task {task_id} failed after {attempts} attempt(s): {detail}")
        self.task_id = task_id
        self.attempts = attempts
        self.detail = detail


class WaveDeadlineError(TaskFailedError):
    """The whole wave overran ``wave_deadline``.

    ``detail`` carries :meth:`RuntimeTrace.diagnose` output for every
    unfinished task, so the failure names the stuck work instead of
    just reporting that time ran out.
    """

    def __init__(self, unfinished: Sequence[str], deadline: float,
                 diagnosis: str) -> None:
        self.unfinished = list(unfinished)
        detail = (f"wave exceeded deadline of {deadline:.3f}s with "
                  f"{len(self.unfinished)} unfinished task(s):\n{diagnosis}")
        super().__init__(self.unfinished[0] if self.unfinished else "<none>",
                         0, detail)


class JobCancelledError(RuntimeError):
    """The wave was interrupted through its cancel event.

    Raised by the scheduler's poll loop when the runner's
    ``cancel_event`` is set -- a SIGTERM/SIGINT on a standalone run, or
    an explicit ``repro cancel`` / daemon shutdown on a service job.
    Every in-flight worker has been killed (the ``finally`` sweep) and,
    on a recovery-enabled run, the manifest holds every task completed
    before the interrupt -- a later ``resume=True`` run picks up from
    there instead of from scratch.
    """

    def __init__(self, unfinished: Sequence[str],
                 reason: str = "cancelled") -> None:
        self.unfinished = list(unfinished)
        self.reason = reason
        super().__init__(
            f"job {reason} with {len(self.unfinished)} unfinished "
            f"task(s): {', '.join(self.unfinished[:8])}"
            f"{'...' if len(self.unfinished) > 8 else ''}")


class _Attempt:
    """Book-keeping for one in-flight attempt; ``process`` is its
    executor's handle (:class:`~repro.mapreduce.runtime.pool.
    AttemptHandle` or :class:`~repro.mapreduce.runtime.pool.
    FinishedAttempt`)."""

    __slots__ = ("spec", "number", "process", "dir", "result_path",
                 "heartbeat_path", "started", "speculative", "host")

    def __init__(self, spec: TaskSpec, launch: AttemptSpec,
                 speculative: bool) -> None:
        self.spec = spec
        self.number = launch.number
        self.process: Any = None
        self.dir = launch.attempt_dir
        self.result_path = launch.result_path
        self.heartbeat_path = os.path.join(self.dir, HEARTBEAT_NAME)
        self.started = time.monotonic()
        self.speculative = speculative
        self.host = launch.host


def _kill_process(process, grace: float = 0.5) -> None:
    """Terminate an attempt's worker, escalating to SIGKILL for stopped
    processes (SIGTERM never reaches a SIGSTOPped worker)."""
    process.terminate()
    process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join(timeout=5)


def check_knobs(*, max_retries: int, retry_backoff: float,
                retry_backoff_max: float, fetch_failure_threshold: int,
                max_map_reexecs: int, straggler_factor: float,
                speculation_min_completed: int, task_timeout: float | None,
                heartbeat_interval: float, heartbeat_timeout: float | None,
                wave_deadline: float | None, **_others: Any) -> None:
    """Raise ``ValueError`` on an invalid :class:`TaskScheduler` knob --
    the scheduler's own check, which a runner makes at construction
    (other keywords are ignored)."""
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
    if retry_backoff_max < 0:
        raise ValueError(
            f"retry_backoff_max must be >= 0, got {retry_backoff_max}")
    if fetch_failure_threshold < 1:
        raise ValueError(
            f"fetch_failure_threshold must be >= 1, "
            f"got {fetch_failure_threshold}")
    if max_map_reexecs < 0:
        raise ValueError(
            f"max_map_reexecs must be >= 0, got {max_map_reexecs}")
    if straggler_factor <= 1.0:
        raise ValueError(
            f"straggler_factor must be > 1, got {straggler_factor}")
    if speculation_min_completed < 1:
        raise ValueError("speculation_min_completed must be >= 1")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
    if heartbeat_interval <= 0:
        raise ValueError(
            f"heartbeat_interval must be > 0, got {heartbeat_interval}")
    if heartbeat_timeout is not None:
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})")
    if wave_deadline is not None and wave_deadline <= 0:
        raise ValueError(f"wave_deadline must be > 0, got {wave_deadline}")


class TaskScheduler:
    """Run waves of tasks on a bounded pool: worker processes, or one
    inline slot.

    Parameters
    ----------
    max_workers:
        Concurrent worker processes (default: CPU count).
    max_retries:
        Extra attempts a task may use after its first failure.
    retry_backoff / retry_backoff_max:
        Base delay before a retry launches; doubles per failure, capped
        at ``retry_backoff_max``, with deterministic per-task jitter
        (:func:`~repro.util.backoff.backoff_delay`).
    fetch_failure_threshold / max_map_reexecs:
        A reduce attempt that cannot fetch a map's segments charges that
        map one *strike* (without spending the reduce's retry budget).
        At ``fetch_failure_threshold`` strikes the scheduler invokes the
        caller's ``reexec`` hook to re-execute the completed map and
        re-points waiting reducers at the fresh segments; one map may be
        re-executed at most ``max_map_reexecs`` times before the wave
        fails (a permanently unfetchable segment must not loop forever).
    shuffle:
        Optional :class:`~repro.mapreduce.runtime.shuffle.ShuffleConfig`
        forwarded to reduce workers (transport choice + fetch knobs).
    speculation / straggler_factor / min_straggler_seconds /
    speculation_min_completed:
        A non-speculative attempt running longer than
        ``max(straggler_factor * median(done), min_straggler_seconds)``
        is duplicated, once at least ``speculation_min_completed`` tasks
        have finished.
    task_timeout:
        Hard per-attempt deadline in seconds; ``None`` disables.  A
        breaching attempt is killed and the kill is a retryable failure.
    heartbeat_interval:
        Cadence (seconds) at which workers touch their heartbeat file.
    heartbeat_timeout:
        Kill an attempt whose heartbeat file mtime is older than this
        many seconds (and whose age exceeds it); ``None`` disables.
        Must be comfortably larger than ``heartbeat_interval``.
    wave_deadline:
        Overall wall-clock budget for one ``run_wave`` call; ``None``
        disables.  Breach raises :class:`WaveDeadlineError`.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (a worker inherits the job and dataset; other methods
        pickle them once per worker).  Only
        consulted when the scheduler builds its own private pool --
        a borrowed ``pool`` brings its own context.
    pool / tenant:
        The :class:`~repro.mapreduce.runtime.pool.WorkerPool` worker
        slots are leased from (or an :class:`~repro.mapreduce.runtime.
        pool.InlinePool`), and the tenant the lease is charged to.
        Without a pool the scheduler builds a private one sized
        ``max_workers`` -- the pre-service ownership model, byte-for-
        byte.  With a shared pool (the job service), every launch
        also needs a free global slot *and* tenant-quota headroom, so
        concurrent jobs split the machine instead of over-forking it.
    cancel_event:
        Optional :class:`threading.Event`; when set, the poll loop
        stops the wave with :class:`JobCancelledError` after killing
        every in-flight worker.  The runner wires SIGTERM/SIGINT and
        service-side cancellation to this.
    fault_injector:
        Optional :class:`FaultInjector`, forwarded to workers.
    hosts:
        Optional :class:`~repro.mapreduce.runtime.hosts.
        HostHealthMonitor`.  When present, every attempt is *placed* on
        a simulated host (skipping blacklisted and dead ones), attempt
        outcomes / heartbeat breaches / fetch strikes feed the host
        state machine, and a host declared dead mid-wave has its
        attempts killed-and-requeued and its completed maps bulk
        re-executed through the ``reexec`` hook.  Planned ``disk_fault``
        injections against a task's home host ride into its workers.
    trace:
        The :class:`RuntimeTrace` events are recorded into.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        fetch_failure_threshold: int = 2,
        max_map_reexecs: int = 2,
        shuffle: Any = None,
        speculation: bool = True,
        straggler_factor: float = 3.0,
        min_straggler_seconds: float = 1.0,
        speculation_min_completed: int = 2,
        task_timeout: float | None = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float | None = None,
        wave_deadline: float | None = None,
        poll_interval: float = 0.005,
        start_method: str | None = None,
        pool: WorkerPool | InlinePool | None = None,
        tenant: str = "default",
        cancel_event: threading.Event | None = None,
        fault_injector: FaultInjector | None = None,
        hosts: HostHealthMonitor | None = None,
        trace: RuntimeTrace | None = None,
        worker_rlimit_bytes: int | None = None,
    ) -> None:
        if max_workers is None and pool is not None:
            max_workers = pool.max_workers
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        check_knobs(
            max_retries=max_retries, retry_backoff=retry_backoff,
            retry_backoff_max=retry_backoff_max,
            fetch_failure_threshold=fetch_failure_threshold,
            max_map_reexecs=max_map_reexecs,
            straggler_factor=straggler_factor,
            speculation_min_completed=speculation_min_completed,
            task_timeout=task_timeout, heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout, wave_deadline=wave_deadline)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.fetch_failure_threshold = fetch_failure_threshold
        self.max_map_reexecs = max_map_reexecs
        self.shuffle = shuffle
        self.speculation = speculation
        self.straggler_factor = straggler_factor
        self.min_straggler_seconds = min_straggler_seconds
        self.speculation_min_completed = speculation_min_completed
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.wave_deadline = wave_deadline
        self.poll_interval = poll_interval
        self.fault_injector = fault_injector
        self.hosts = hosts
        self.worker_rlimit_bytes = worker_rlimit_bytes
        #: ledger telemetry aggregated across waves -- consumed by the
        #: assembler for ``JobResult.memory_stats`` and the MEMORY_*
        #: counters
        self.memory_tally: dict[str, Any] = {
            "oom_events": 0, "degraded_attempts": 0, "peak_bytes": 0,
            "used_budget": False}
        #: planned disk faults by home host, applied inside workers
        self._disk_faults: dict[str, Fault] = {}
        if fault_injector is not None:
            self._disk_faults = {
                h: f for h, f in fault_injector.host_plan().items()
                if f.mode == "disk_fault"}
        self.trace = trace if trace is not None else RuntimeTrace()
        if pool is None:
            # Standalone mode: a private pool sized to this scheduler,
            # exactly the pre-service ownership model.
            pool = WorkerPool(max_workers=self.max_workers,
                              start_method=start_method)
        self.pool = pool
        self.tenant = tenant
        self.cancel_event = cancel_event
        self._lease = pool.lease(tenant)

    def close(self) -> None:
        """Stop and reap this scheduler's worker processes."""
        self._lease.shutdown()

    # ------------------------------------------------------------------ wave

    def run_wave(
        self,
        specs: Sequence[TaskSpec],
        job: Any,
        dataset: Any,
        wave_dir: str,
        repair: Callable[[str], None] | None = None,
        precomputed: Mapping[str, Any] | None = None,
        on_complete: Callable[[TaskSpec, int, str, str, Any], None] | None = None,
        keep_result_files: bool = False,
        reexec: Callable[[str], Mapping[str, Any]] | None = None,
        pipeline: bool = False,
        max_repairs: int = 0,
    ) -> dict[str, Any]:
        """Run every task in ``specs`` to completion; returns results by id.

        Raises :class:`TaskFailedError` when any task exhausts its retry
        budget, or :class:`WaveDeadlineError` on ``wave_deadline``
        breach; an attempt run inline that ends the wave raises its own
        exception instead.  ``repair`` is invoked with the corrupt
        segment path when a reduce attempt fails integrity
        verification, before that task's retry is queued -- at most
        ``max_repairs`` times per task (the runner passes the job's map
        count); a corrupt segment past that bound is a charged failure.

        ``precomputed`` maps task ids to already-recovered results
        (checkpoint adoption): those tasks are marked ``adopted`` in the
        trace and never scheduled.  ``on_complete(spec, attempt_number,
        attempt_dir, result_path, value)`` fires once per freshly won
        task -- the manifest-recording hook.  With ``keep_result_files``
        the winning attempt's pickled result survives on disk so a
        later resume can reload it.

        ``reexec`` is the map re-execution hook for reduce waves: called
        with a map task id whose segments have accumulated
        ``fetch_failure_threshold`` fetch-failure strikes, it must
        re-run that completed map and return ``{reduce_id: new_payload}``
        for every reduce task in this wave.  The scheduler re-points
        queued reduces at the new payloads, kills and requeues running
        attempts that were reading the invalidated segments, and resets
        the map's strike count.

        ``pipeline`` marks a *combined* wave (maps and reduces admitted
        together; reduce payloads carry a :class:`~repro.mapreduce.
        runtime.pipeline.PipelinePlan` instead of resolved refs).  It
        changes two policies: median-based speculation considers only
        map attempts (a pipelined reducer's duration is mostly waiting
        on late maps, not work), and reducers that report starvation
        (the ``_starved`` marker in their attempt dir naming at most
        ``shuffle.starvation_threshold`` missing producers) trigger
        immediate speculation of those straggling maps -- progress-based
        rather than deadline-based straggler detection.
        """
        specs = list(specs)
        by_id = {s.task_id: s for s in specs}
        if len(by_id) != len(specs):
            raise ValueError("duplicate task ids in wave")
        os.makedirs(wave_dir, exist_ok=True)

        trace = self.trace
        results: dict[str, Any] = {}
        if precomputed:
            unknown = sorted(set(precomputed) - set(by_id))
            if unknown:
                raise ValueError(
                    f"precomputed results for tasks not in wave: {unknown}")
            for task_id, value in precomputed.items():
                results[task_id] = value
                trace.record(task_id, 0, by_id[task_id].kind, "adopted",
                             "validated checkpoint from manifest")
        #: (spec, not-before monotonic time), FIFO with backoff gates
        pending: list[tuple[TaskSpec, float]] = [
            (s, 0.0) for s in specs if s.task_id not in results]
        running: list[_Attempt] = []
        failures: dict[str, int] = defaultdict(int)
        #: fetch-failure strikes per *map* task (reduce waves only);
        #: cleared when the map is re-executed
        fetch_strikes: dict[str, int] = defaultdict(int)
        #: how many times each map has been re-executed this wave
        map_reexecs: dict[str, int] = defaultdict(int)
        #: fetch-failure requeues per reduce -- paces the retry backoff
        #: without charging the reduce's ``max_retries`` budget
        fetch_requeues: dict[str, int] = defaultdict(int)
        #: OOM deaths per task: the degrade level ``run_attempt`` halves
        #: the task's sort buffer by on the next launch,
        #: uncharged against ``max_retries`` but bounded by
        #: ``max_memory_retries``.
        oom_requeues: dict[str, int] = defaultdict(int)
        #: tasks whose next attempts run in record-skipping mode; sticky
        #: for the rest of the wave once a skip-eligible failure is seen
        skip_tasks: set[str] = set()
        #: corrupt-segment repairs per reduce, uncharged against
        #: ``max_retries`` but bounded by ``max_repairs``
        repairs: dict[str, int] = defaultdict(int)
        next_attempt: dict[str, int] = defaultdict(int)
        #: completed-attempt durations by task kind: a combined
        #: (pipelined) wave must not let long wait-bound reduce attempts
        #: skew the map straggler median, or vice versa
        durations: dict[str, list[float]] = {"map": [], "reduce": []}
        wave_started = time.monotonic()

        for s, _ in pending:
            trace.record(s.task_id, 0, s.kind, "queued")

        def launch(spec: TaskSpec, speculative: bool) -> bool:
            # Always launch the *current* spec for this task id: a map
            # re-execution may have re-pointed the payload since this
            # spec object was queued.
            spec = by_id[spec.task_id]
            number = next_attempt[spec.task_id]
            attempt_dir = os.path.join(wave_dir, f"{spec.task_id}.{number}")
            skip_mode = spec.task_id in skip_tasks
            host = disk_fault = None
            if self.hosts is not None:
                host = self.hosts.place(spec.task_id)
                if self._disk_faults:
                    # Disk faults follow the task's *home* host (the
                    # stable hash, not the placement, decides who fails
                    # over, wherever the attempt runs).
                    disk_fault = self._disk_faults.get(
                        self.hosts.host_for(spec.task_id))
            injector = self.fault_injector
            attempt_spec = AttemptSpec(
                spec.task_id, spec.kind, number, attempt_dir, job,
                dataset if spec.kind == "map" else None, spec.payload,
                fault=(injector.fault_for(spec.task_id, number)
                       if injector is not None else None),
                skip_mode=skip_mode, shuffle=self.shuffle,
                fetch_faults=(injector.fetch_plan_for(spec.task_id)
                              if injector is not None
                              and spec.kind == "reduce" else None) or None,
                # Degrade-on-retry: the OOM deaths this task has
                # suffered; the attempt body halves its memory knobs
                # once per level.
                degrade=oom_requeues[spec.task_id],
                host=host, disk_fault=disk_fault,
                heartbeat_interval=self.heartbeat_interval,
                rlimit_bytes=self.worker_rlimit_bytes)
            attempt = _Attempt(spec, attempt_spec, speculative)
            # Recorded before the launch: an inline executor has run the
            # attempt by the time ``launch`` returns.
            if disk_fault is not None:
                trace.record(spec.task_id, number, spec.kind,
                             "disk_failover",
                             f"workdir on {host} raises {disk_fault.op}; "
                             f"spilling to spare volume")
            if speculative:
                trace.record(spec.task_id, number, spec.kind, "speculated")
            if skip_mode:
                trace.record(spec.task_id, number, spec.kind, "skipping",
                             "record-level skipping after eligible failure")
            trace.record(spec.task_id, number, spec.kind, "started")
            try:
                attempt.process = self._lease.launch(
                    attempt_spec, inherit=(job, dataset))
            except PoolSaturatedError:
                # Lost the race for the last shared slot to a concurrent
                # job between the availability check and the spawn; the
                # attempt number stays unspent (its retry records
                # ``started`` again) and the caller requeues.
                return False
            next_attempt[spec.task_id] += 1
            running.append(attempt)
            return True

        def retire(attempt: _Attempt) -> None:
            """Drop a reaped/killed attempt and return its pool slot."""
            running.remove(attempt)
            self._lease.release()

        def kill_rivals(task_id: str, winner: _Attempt) -> None:
            for rival in [a for a in running
                          if a.spec.task_id == task_id and a is not winner]:
                _kill_process(rival.process)
                retire(rival)
                trace.record(task_id, rival.number, rival.spec.kind,
                             "killed", "rival attempt won")
                trace.record(task_id, rival.number, rival.spec.kind,
                             "discarded")
                shutil.rmtree(rival.dir, ignore_errors=True)

        def note_failure(attempt: _Attempt, detail: str,
                         charge_host: bool = True) -> None:
            """Trace a failed attempt and discard its directory."""
            spec = attempt.spec
            trace.record(spec.task_id, attempt.number, spec.kind, "failed",
                         detail)
            shutil.rmtree(attempt.dir, ignore_errors=True)
            if (charge_host and self.hosts is not None
                    and attempt.host is not None):
                self.hosts.record_task_failure(attempt.host, detail)

        def covered(task_id: str) -> bool:
            """A rival attempt or a queued retry already stands in."""
            return (any(a.spec.task_id == task_id for a in running)
                    or any(s.task_id == task_id for s, _ in pending))

        def requeue(attempt: _Attempt, why: str, count: int) -> None:
            """Queue a retry that ``max_retries`` does not pay for;
            ``count`` (this rung's requeues of the task) paces it."""
            task_id = attempt.spec.task_id
            delay = backoff_delay(self.retry_backoff, count,
                                  self.retry_backoff_max,
                                  key=f"{task_id}:{why}")
            pending.append((by_id[task_id], time.monotonic() + delay))
            trace.record(task_id, attempt.number, attempt.spec.kind,
                         "retried", f"{why}, backoff {delay:.3f}s "
                         f"(retry budget uncharged)")

        def record_failure(attempt: _Attempt, detail: str) -> None:
            """A failure the task's ``max_retries`` budget pays for:
            requeue, or raise once the budget is spent."""
            task_id = attempt.spec.task_id
            note_failure(attempt, detail)
            failures[task_id] += 1
            rival_running = any(a.spec.task_id == task_id for a in running)
            if failures[task_id] > self.max_retries:
                if rival_running:
                    return  # a speculative rival may still win
                raise TaskFailedError(task_id, failures[task_id] + 1, detail)
            if rival_running:
                return  # the rival attempt *is* the retry
            delay = backoff_delay(self.retry_backoff, failures[task_id],
                                  self.retry_backoff_max, key=task_id)
            pending.append((by_id[task_id], time.monotonic() + delay))
            trace.record(task_id, attempt.number, attempt.spec.kind,
                         "retried", f"backoff {delay:.3f}s")

        def reexec_map(map_id: str, detail: str) -> None:
            """Re-execute a completed map and re-point its consumers."""
            map_reexecs[map_id] += 1
            if map_reexecs[map_id] > self.max_map_reexecs:
                raise TaskFailedError(
                    map_id, map_reexecs[map_id],
                    f"map re-executed {self.max_map_reexecs} time(s) and "
                    f"its segments remain unfetchable: {detail}")
            fetch_strikes[map_id] = 0
            new_payloads = reexec(map_id)
            trace.record(map_id, map_reexecs[map_id], "map", "map_reexec",
                         f"fetch-failure threshold "
                         f"({self.fetch_failure_threshold}) reached: {detail}")
            for reduce_id, payload in new_payloads.items():
                if reduce_id not in by_id or reduce_id in results:
                    continue
                new_spec = TaskSpec(reduce_id, "reduce", payload)
                by_id[reduce_id] = new_spec
                for i, (queued_spec, not_before) in enumerate(pending):
                    if queued_spec.task_id == reduce_id:
                        pending[i] = (new_spec, not_before)
                # Running attempts are reading segments that no longer
                # exist: kill them and requeue the task immediately.
                stale = [a for a in running if a.spec.task_id == reduce_id]
                for a in stale:
                    _kill_process(a.process)
                    retire(a)
                    trace.record(reduce_id, a.number, "reduce", "killed",
                                 f"segments of {map_id} invalidated by "
                                 f"re-execution")
                    shutil.rmtree(a.dir, ignore_errors=True)
                if stale and not any(s.task_id == reduce_id
                                     for s, _ in pending):
                    pending.append((new_spec, 0.0))

        def handle_fetch_failure(attempt: _Attempt, map_id: str,
                                 detail: str) -> None:
            """A reduce exhausted its fetch retries against one map.

            The failure is charged to the *link* (a strike against the
            producing map), not to the reduce's retry budget: the reduce
            did nothing wrong and must survive as many requeues as map
            re-execution needs.  Termination is still guaranteed --
            strikes accumulate to ``fetch_failure_threshold``, and
            ``max_map_reexecs`` bounds how often one map may be re-run
            before the wave fails.
            """
            task_id = attempt.spec.task_id
            note_failure(attempt, detail, charge_host=False)
            trace.record(task_id, attempt.number, attempt.spec.kind,
                         "fetch_failure", f"{map_id}: {detail}")
            if self.hosts is not None:
                # The strike lands on the host *serving* the unfetchable
                # segments -- evidence toward DEAD only if that host has
                # also gone silent (partition-vs-death rule).
                self.hosts.record_fetch_strike(self.hosts.host_for(map_id))
            fetch_strikes[map_id] += 1
            if fetch_strikes[map_id] >= self.fetch_failure_threshold:
                if reexec is None:
                    raise TaskFailedError(
                        task_id, fetch_requeues[task_id] + 1,
                        f"{detail} (no re-execution hook installed)")
                reexec_map(map_id, detail)
            if not covered(task_id):  # else a rival or reexec requeue
                fetch_requeues[task_id] += 1
                requeue(attempt, "fetch failure", fetch_requeues[task_id])

        def handle_oom(attempt: _Attempt, detail: str) -> None:
            """An attempt died out of memory (injected, budget overrun,
            simulated OOM kill, or a real rlimit ``MemoryError``).

            Requeued *uncharged* against ``max_retries`` -- the memory
            ladder has its own bound (``max_memory_retries``) -- with
            the degrade level bumped so the next launch runs on halved
            memory knobs.  Hosts are not charged either: the task's
            footprint, not the host's disks, is at fault.
            """
            task_id = attempt.spec.task_id
            note_failure(attempt, detail, charge_host=False)
            limit = (getattr(self.shuffle, "max_memory_retries", 2)
                     if self.shuffle is not None else 2)
            oom_requeues[task_id] += 1
            if oom_requeues[task_id] > limit:
                if any(a.spec.task_id == task_id for a in running):
                    return  # a speculative rival may still win
                raise TaskFailedError(
                    task_id, oom_requeues[task_id],
                    f"{detail} (exhausted {limit} memory retries)")
            # Tallied only for deaths that earn a degraded retry -- the
            # exhausting death raises untallied, so the counters are a
            # function of the fault plan whenever a job completes.
            self.memory_tally["oom_events"] += 1
            self.memory_tally["degraded_attempts"] += 1
            trace.record(task_id, attempt.number, attempt.spec.kind,
                         "oom_degraded",
                         f"degrade level {oom_requeues[task_id]}: sort "
                         f"buffer halved")
            if not covered(task_id):
                requeue(attempt, "oom", oom_requeues[task_id])

        def handle_error(attempt: _Attempt, result: dict[str, Any]) -> None:
            """Climb the recovery ladder on ``classify``'s error record:
            the one dispatch on a failed attempt, in the record's order.

            Fetch failures, OOM deaths, the entry into skip mode (once
            per task, sticky) and corrupt-segment repairs (at most
            ``max_repairs`` per reduce) requeue without charging
            ``max_retries``; any other failure is charged.
            """
            task_id = attempt.spec.task_id
            detail = f"{result['error_type']}: {result['message']}"
            if result["failed_map"] is not None:
                handle_fetch_failure(attempt, result["failed_map"], detail)
            elif result["oom"]:
                handle_oom(attempt, detail)
            elif result["skip_eligible"] and task_id not in skip_tasks:
                note_failure(attempt, detail)
                skip_tasks.add(task_id)
                if not covered(task_id):
                    requeue(attempt, "skip mode", 1)
            elif (attempt.spec.kind == "reduce" and repair is not None
                    and result["corrupt_path"] is not None
                    and repairs[task_id] < max_repairs):
                note_failure(attempt, detail)
                repair(result["corrupt_path"])
                repairs[task_id] += 1
                if not covered(task_id):
                    requeue(attempt, "segment repaired", repairs[task_id])
            else:
                record_failure(attempt, detail)

        def handle_exit(attempt: _Attempt) -> None:
            spec = attempt.spec
            task_id = spec.task_id
            if task_id in results:
                # A rival attempt already won while this one was finishing.
                trace.record(task_id, attempt.number, spec.kind,
                             "discarded", "lost to rival attempt")
                shutil.rmtree(attempt.dir, ignore_errors=True)
                return
            result = attempt.process.record()
            if result is None:
                record_failure(attempt, f"worker exited with code "
                               f"{attempt.process.exitcode} and no result")
                return
            if result["status"] != "ok":
                try:
                    handle_error(attempt, result)
                except TaskFailedError:
                    # An inline attempt that ends the job raises as
                    # itself, not as the scheduler's summary of it.
                    error = getattr(attempt.process, "error", None)
                    if error is None:
                        raise
                    raise error from None
                return
            results[task_id] = result["value"]
            durations[spec.kind].append(time.monotonic() - attempt.started)
            trace.record(task_id, attempt.number, spec.kind, "finished")
            if self.hosts is not None and attempt.host is not None:
                # A completed attempt is both liveness evidence and a
                # clean attempt toward probation reinstatement.
                self.hosts.record_heartbeat(attempt.host)
                self.hosts.record_task_success(attempt.host)
            counters = getattr(result["value"], "counters", None)
            skipped = (counters.get(C.RECORDS_SKIPPED)
                       if counters is not None else 0)
            if skipped:
                trace.record(
                    task_id, attempt.number, spec.kind, "quarantined",
                    f"{skipped} record(s) skipped into quarantine")
            mem = result.get("memory")
            if mem:
                tally = self.memory_tally
                tally["used_budget"] = True
                tally["peak_bytes"] = max(tally["peak_bytes"],
                                          mem.get("peak", 0))
                trace.record(
                    task_id, attempt.number, spec.kind, "memory_peak",
                    f"{mem.get('peak', 0)}/{mem.get('capacity')}")
            if on_complete is not None:
                on_complete(spec, attempt.number, attempt.dir,
                            attempt.result_path, result["value"])
            if not keep_result_files:
                try:
                    os.unlink(attempt.result_path)
                except OSError:  # no file (inline), or already gone
                    pass
            kill_rivals(task_id, attempt)

        def deadline_breach(attempt: _Attempt, now: float) -> str | None:
            """Why this attempt must die now, or ``None`` to let it run."""
            age = now - attempt.started
            if self.task_timeout is not None and age > self.task_timeout:
                return (f"attempt exceeded task_timeout="
                        f"{self.task_timeout:.3f}s (ran {age:.3f}s)")
            if self.heartbeat_timeout is not None and age > self.heartbeat_timeout:
                try:
                    beat_age = time.time() - os.path.getmtime(
                        attempt.heartbeat_path)
                except OSError:
                    # No heartbeat file at all after the grace window:
                    # the worker never got far enough to start beating.
                    if self.hosts is not None and attempt.host is not None:
                        self.hosts.record_missed_heartbeat(attempt.host)
                    return (f"no heartbeat after {age:.3f}s "
                            f"(timeout {self.heartbeat_timeout:.3f}s)")
                if beat_age > self.heartbeat_timeout:
                    if self.hosts is not None and attempt.host is not None:
                        self.hosts.record_missed_heartbeat(attempt.host)
                    return (f"heartbeat stale for {beat_age:.3f}s "
                            f"(timeout {self.heartbeat_timeout:.3f}s)")
                if self.hosts is not None and attempt.host is not None:
                    self.hosts.record_heartbeat(attempt.host)
            return None

        def enforce_deadlines(now: float) -> None:
            for attempt in list(running):
                reason = deadline_breach(attempt, now)
                if reason is None:
                    continue
                _kill_process(attempt.process)
                retire(attempt)
                trace.record(attempt.spec.task_id, attempt.number,
                             attempt.spec.kind, "timeout", reason)
                record_failure(attempt, reason)
            if (self.wave_deadline is not None
                    and now - wave_started > self.wave_deadline):
                unfinished = [t for t in by_id if t not in results]
                raise WaveDeadlineError(unfinished, self.wave_deadline,
                                        trace.diagnose(unfinished))

        def drain_dead_hosts() -> None:
            """Absorb hosts the monitor declared dead since last poll.

            Every in-flight attempt placed on a dead host is killed and
            requeued *uncharged* (the task did nothing wrong), and --
            in a reduce wave -- every completed map whose only segment
            copies lived on the host is bulk re-executed through the
            ``reexec`` hook, bounded by the monitor's
            ``max_host_reexecs`` budget.
            """
            if self.hosts is None:
                return
            for host in self.hosts.take_newly_dead():
                for a in [x for x in running if x.host == host]:
                    _kill_process(a.process)
                    retire(a)
                    trace.record(a.spec.task_id, a.number, a.spec.kind,
                                 "killed", f"{host} declared dead")
                    shutil.rmtree(a.dir, ignore_errors=True)
                    task_id = a.spec.task_id
                    if (task_id not in results
                            and not any(x.spec.task_id == task_id
                                        for x in running)
                            and not any(s.task_id == task_id
                                        for s, _ in pending)):
                        pending.append((by_id[task_id], 0.0))
                        trace.record(task_id, a.number, a.spec.kind,
                                     "retried", f"{host} died under it "
                                     f"(retry budget uncharged)")
                if reexec is None:
                    continue
                # Completed maps served from the dead host: their only
                # segment copies are gone, so re-execute them before the
                # reducers starve against vanished files.
                try:
                    lost = sorted({
                        ref.map_id
                        for s in by_id.values() if s.kind == "reduce"
                        for ref in s.payload[1]
                        if self.hosts.host_for(ref.map_id) == host})
                except (AttributeError, IndexError, TypeError):
                    lost = []  # payloads are not segment-ref shaped
                if not lost:
                    # Pipelined (combined) waves carry no refs in the
                    # reduce payloads; the completed maps homed on the
                    # dead host are exactly this wave's map results.
                    lost = sorted(
                        t for t, s in by_id.items()
                        if s.kind == "map" and t in results
                        and self.hosts.host_for(t) == host)
                if lost:
                    self.hosts.charge_host_reexec(host, len(lost))
                    for map_id in lost:
                        reexec_map(map_id,
                                   f"{host} died holding its segments")

        def maybe_speculate(now: float) -> None:
            if not self.speculation:
                return
            thresholds = {
                kind: max(self.straggler_factor * statistics.median(done),
                          self.min_straggler_seconds)
                for kind, done in durations.items()
                if len(done) >= self.speculation_min_completed}
            if not thresholds:
                return
            in_flight = defaultdict(int)
            for a in running:
                in_flight[a.spec.task_id] += 1
            queued = {s.task_id for s, _ in pending}
            for a in list(running):
                if (len(running) >= self.max_workers
                        or self._lease.available() <= 0):
                    return
                if pipeline and a.spec.kind == "reduce":
                    # A pipelined reducer's age is dominated by waiting
                    # on late maps; duplicating it burns a slot the map
                    # stragglers (the actual bottleneck) may need.  The
                    # starvation path below covers the pipeline.
                    continue
                threshold = thresholds.get(a.spec.kind)
                if threshold is None:
                    continue
                if (a.speculative or in_flight[a.spec.task_id] > 1
                        or a.spec.task_id in results
                        or a.spec.task_id in queued):
                    continue
                if now - a.started > threshold:
                    if launch(a.spec, speculative=True):
                        in_flight[a.spec.task_id] += 1

        def check_starvation(now: float) -> None:
            """Progress-triggered speculation for pipelined waves.

            A pipelined reducer that has consumed every committed
            segment but still waits on a small set of missing producers
            writes a ``_starved`` marker naming them.  Those maps are
            the measured bottleneck of the whole wave *right now* --
            speculate them immediately (bounded by the starvation
            threshold and the attempt-age floor) instead of waiting for
            the duration median to notice.
            """
            if not pipeline or not self.speculation:
                return
            threshold = (getattr(self.shuffle, "starvation_threshold", 2)
                         if self.shuffle is not None else 2)
            in_flight: dict[str, list[_Attempt]] = defaultdict(list)
            for a in running:
                in_flight[a.spec.task_id].append(a)
            queued = {s.task_id for s, _ in pending}
            reducers = [a for a in running
                        if a.spec.kind == "reduce" and not a.speculative]
            for reducer in reducers:
                try:
                    with open(os.path.join(reducer.dir, STARVED_NAME),
                              encoding="utf-8") as fh:
                        missing = json.load(fh).get("missing", [])
                except (OSError, ValueError):
                    continue
                missing = [m for m in missing
                           if m in by_id and by_id[m].kind == "map"
                           and m not in results]
                if not missing or len(missing) > threshold:
                    # Starved on many maps = the wave is young, not
                    # straggling; let ordinary scheduling catch up.
                    continue
                for map_id in missing:
                    if (len(running) >= self.max_workers
                            or self._lease.available() <= 0):
                        return
                    attempts = in_flight.get(map_id, [])
                    if (len(attempts) != 1 or attempts[0].speculative
                            or map_id in queued):
                        continue
                    if now - attempts[0].started <= self.min_straggler_seconds:
                        continue
                    trace.record(map_id, attempts[0].number, "map",
                                 "pipeline_starved",
                                 f"{reducer.spec.task_id} starved on "
                                 f"{len(missing)} missing segment(s)")
                    if launch(by_id[map_id], speculative=True):
                        in_flight[map_id].append(running[-1])

        def preempt_for_maps(now: float) -> None:
            """Combined-wave deadlock breaker: maps outrank reducers.

            With fewer slots than tasks, every slot can end up holding a
            pipelined reducer that waits on a map which will never get a
            slot (e.g. a map retry queued after the reducers launched).
            Hadoop resolves this with reduce preemption; so do we: when
            a map is launchable and no slot is free, the youngest
            running reduce attempt is killed and requeued *uncharged*
            (it did nothing wrong, and its restart is byte-identical by
            determinism).
            """
            if not pipeline:
                return
            if (len(running) < self.max_workers
                    and self._lease.available() > 0):
                return  # a free slot exists; no need to evict anyone
            launchable_map = any(
                s.kind == "map" and nb <= now and s.task_id not in results
                for s, nb in pending)
            if not launchable_map:
                return
            victims = [a for a in running if a.spec.kind == "reduce"]
            if not victims:
                return
            victim = max(victims, key=lambda a: a.started)
            _kill_process(victim.process)
            retire(victim)
            task_id = victim.spec.task_id
            trace.record(task_id, victim.number, "reduce", "killed",
                         "preempted for pending map work")
            shutil.rmtree(victim.dir, ignore_errors=True)
            if (task_id not in results
                    and not any(a.spec.task_id == task_id for a in running)
                    and not any(s.task_id == task_id for s, _ in pending)):
                pending.append((by_id[task_id], 0.0))
                trace.record(task_id, victim.number, "reduce", "retried",
                             "preempted (retry budget uncharged)")

        try:
            while len(results) < len(by_id):
                if (self.cancel_event is not None
                        and self.cancel_event.is_set()):
                    # The finally sweep kills in-flight workers; every
                    # already-won task is in the manifest (on_complete
                    # fired), so a resume continues from here.
                    raise JobCancelledError(
                        [t for t in by_id if t not in results])
                now = time.monotonic()
                if pipeline:
                    # Maps outrank reduces for free slots (a pipelined
                    # reduce can only drain after every map commits);
                    # stable, so within-kind FIFO order is preserved.
                    pending.sort(key=lambda e: e[0].kind != "map")
                preempt_for_maps(now)
                # Launch work while slots are free (both this wave's own
                # concurrency cap and the shared pool must have room).
                i = 0
                while (i < len(pending)
                       and len(running) < self.max_workers
                       and self._lease.available() > 0):
                    spec, not_before = pending[i]
                    if spec.task_id in results:
                        pending.pop(i)
                        continue
                    if not_before > now:
                        i += 1
                        continue
                    pending.pop(i)
                    if not launch(spec, speculative=False):
                        # Spawn raced a concurrent job for the last
                        # slot and lost; put the task back and wait.
                        pending.insert(i, (spec, not_before))
                        break
                maybe_speculate(now)
                check_starvation(now)
                enforce_deadlines(now)
                # Reap finished workers.
                progressed = False
                for attempt in list(running):
                    if attempt not in running or attempt.process.is_alive():
                        continue
                    attempt.process.join()
                    retire(attempt)
                    progressed = True
                    handle_exit(attempt)
                drain_dead_hosts()
                if not progressed:
                    sentinels = [a.process.sentinel for a in running]
                    if sentinels:
                        # Wake the instant any worker exits instead of
                        # burning a fixed poll quantum.
                        multiprocessing.connection.wait(
                            sentinels, timeout=self.poll_interval)
                    elif pending:
                        # Nothing in flight: sleep just long enough for
                        # the earliest backoff gate to open -- or, when
                        # the shared pool has no slot for us, one poll
                        # quantum (never hot-spin while other jobs hold
                        # the machine).
                        gate = min(nb for _, nb in pending)
                        delay = min(max(gate - now, 0.0),
                                    self.poll_interval)
                        if delay <= 0 and self._lease.available() <= 0:
                            delay = self.poll_interval
                        time.sleep(delay)
                    else:  # pragma: no cover - defensive
                        time.sleep(self.poll_interval)
        finally:
            # Error-path safety net: never leak worker processes.
            for attempt in running:
                attempt.process.terminate()
            for attempt in running:
                attempt.process.join(timeout=2)
                if attempt.process.is_alive():
                    attempt.process.kill()
                    attempt.process.join(timeout=5)
            # Return every slot still charged to this wave: a shared
            # pool must come out whole no matter how the wave ended.
            self._lease.close()
        return results
