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
both runners climb one recovery ladder (``_Wave.handle_error``).

:meth:`TaskScheduler.run_wave` is a loop around one ``_Wave``, which
makes every decision; only the loop reads the clock and what each
attempt's worker last sent, and passes them in as arguments.
``tests/mapreduce/test_wave_machine.py`` drives ``_Wave`` on a fake
executor at chosen times and checks the ladder's invariants in seconds,
beside ``tests/mapreduce/test_one_ladder.py``, which runs its rungs
end to end under both executors.  The scheduler owns the whole
robustness story:

* **Retry with backoff** -- an attempt that dies (no record) or
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
* **Heartbeat staleness** -- workers send heartbeats on a cadence;
  with ``heartbeat_timeout`` set, an attempt whose latest beat goes
  stale is killed even though ``is_alive()`` still reports true (a
  stopped or wedged process, not a dead one).
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
from repro.mapreduce.runtime.pool import InlinePool, PoolSaturatedError, WorkerPool
from repro.mapreduce.runtime.trace import RuntimeTrace
from repro.mapreduce.runtime.worker import BEAT, STARVED
from repro.util.backoff import backoff_delay

__all__ = ["TaskSpec", "TaskFailedError", "WaveDeadlineError",
           "JobCancelledError", "TaskScheduler", "check_knobs"]

#: the longest the wave loop waits for a worker to exit or a backoff
#: gate to open before it looks again
POLL_INTERVAL = 0.005


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
    """Book-keeping for one in-flight ``launch``; ``process`` is its
    executor's handle (:class:`~repro.mapreduce.runtime.pool.
    AttemptHandle` or :class:`~repro.mapreduce.runtime.pool.
    FinishedAttempt`)."""

    __slots__ = ("spec", "launch", "number", "process", "dir", "started",
                 "speculative", "host")

    def __init__(self, spec: TaskSpec, launch: AttemptSpec,
                 speculative: bool, started: float) -> None:
        self.spec = spec
        self.launch = launch
        self.number = launch.number
        self.process: Any = None
        self.dir = launch.attempt_dir
        self.started = started
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
        Cadence (seconds) at which workers send a heartbeat.
    heartbeat_timeout:
        Kill an attempt whose latest heartbeat is older than this many
        seconds (and whose age exceeds it); ``None`` disables.  Must be
        comfortably larger than ``heartbeat_interval``.
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

        Raises :class:`TaskFailedError` when a task exhausts its retry
        budget, or :class:`WaveDeadlineError` on ``wave_deadline``
        breach; an inline attempt that ends the wave raises its own
        exception instead.  ``repair(corrupt_path)`` re-generates a
        segment a reduce attempt found corrupt, at most ``max_repairs``
        times per task (the runner passes the job's map count).
        ``precomputed`` maps task ids to adopted checkpoint results,
        never scheduled.  ``on_complete(spec, attempt_number,
        attempt_dir, result_path, value)`` fires once per freshly won
        task; with ``keep_result_files`` every attempt commits its
        record durably to ``result_path`` for a later resume.
        ``reexec(map_id)`` re-runs a completed map whose segments drew
        ``fetch_failure_threshold`` fetch-failure strikes and returns
        ``{reduce_id: new_payload}`` for this wave's reduces.
        ``pipeline`` marks a *combined* wave (reduce payloads carry a
        :class:`~repro.mapreduce.runtime.pipeline.PipelinePlan`): only
        maps are speculated on the duration median, and maps a
        reducer's starvation report names are speculated at once.

        The loop reads the clock and what each attempt's worker last
        sent, and hands them to the wave's decisions (:class:`_Wave`);
        then it waits.
        """
        wave = _Wave(self, specs, job, dataset, wave_dir, time.monotonic(),
                     repair=repair, precomputed=precomputed,
                     on_complete=on_complete,
                     keep_result_files=keep_result_files, reexec=reexec,
                     pipeline=pipeline, max_repairs=max_repairs)
        os.makedirs(wave_dir, exist_ok=True)
        try:
            while not wave.done():
                if (self.cancel_event is not None
                        and self.cancel_event.is_set()):
                    # The finally sweep kills in-flight workers; every
                    # already-won task is in the manifest (on_complete
                    # fired), so a resume continues from here.
                    raise JobCancelledError(wave.unfinished())
                now = time.monotonic()
                wave.admit(now)
                wave.maybe_speculate(now)
                wave.check_starvation(now, {
                    r: r.process.heard(STARVED) or []
                    for r in wave.starvation_watch()})
                beats = {a: a.process.heard(BEAT)
                         for a in wave.heartbeats_due(now)}
                # an age per beat; None: the worker never started beating
                wave.enforce_deadlines(now, {
                    a: None if beat is None else now - beat
                    for a, beat in beats.items()})
                progressed = wave.reap(now)
                wave.drain_dead_hosts()
                if not progressed:
                    sentinels = [a.process.sentinel for a in wave.running]
                    if sentinels:
                        # Wake the instant any worker sends a message or
                        # exits instead of burning a fixed poll quantum.
                        multiprocessing.connection.wait(
                            sentinels, timeout=POLL_INTERVAL)
                    else:
                        time.sleep(wave.idle_delay(now))
        finally:
            # Never leak a worker, and return every slot still charged
            # to this wave: a shared pool must come out whole.
            for attempt in wave.running:
                _kill_process(attempt.process)
            self._lease.close()
        return wave.results


class _Wave:
    """One :meth:`TaskScheduler.run_wave` call: its tasks' state and the
    recovery ladder they climb.

    Each decision is a method that takes the loop's ``now`` and what
    the loop observed as arguments: heartbeat ages (``None`` where no
    beat has arrived) and the maps a starvation report names.
    Beyond those it touches only the executor (the lease and each
    attempt's handle), the trace, the host monitor and the hooks.
    """

    def __init__(self, scheduler: TaskScheduler, specs: Sequence[TaskSpec],
                 job: Any, dataset: Any, wave_dir: str, now: float, *,
                 repair=None, precomputed=None, on_complete=None,
                 keep_result_files=False, reexec=None, pipeline=False,
                 max_repairs=0) -> None:
        """``run_wave``'s arguments, and the ``now`` it starts at."""
        specs = list(specs)
        self.by_id = {s.task_id: s for s in specs}
        if len(self.by_id) != len(specs):
            raise ValueError("duplicate task ids in wave")
        self.scheduler = scheduler
        self.trace = scheduler.trace
        self.hosts = scheduler.hosts
        self.lease = scheduler._lease
        self.job, self.dataset, self.wave_dir = job, dataset, wave_dir
        self.repair, self.reexec, self.on_complete = repair, reexec, on_complete
        self.keep_result_files, self.pipeline = keep_result_files, pipeline
        self.max_repairs, self.started = max_repairs, now
        self.results: dict[str, Any] = {}
        if precomputed:
            unknown = sorted(set(precomputed) - set(self.by_id))
            if unknown:
                raise ValueError(
                    f"precomputed results for tasks not in wave: {unknown}")
            for task_id, value in precomputed.items():
                self.results[task_id] = value
                self.trace.record(task_id, 0, self.by_id[task_id].kind,
                                  "adopted",
                                  "validated checkpoint from manifest")
        #: (spec, not-before monotonic time), FIFO with backoff gates
        self.pending: list[tuple[TaskSpec, float]] = [
            (s, 0.0) for s in specs if s.task_id not in self.results]
        self.running: list[_Attempt] = []
        #: per task: charged failures (against ``max_retries``), OOM
        #: deaths (the next launch's degrade level, bounded by
        #: ``max_memory_retries``), repairs (by ``max_repairs``),
        #: fetch-failure requeues (pacing their backoff) and attempts
        self.failures: dict[str, int] = defaultdict(int)
        self.oom_requeues: dict[str, int] = defaultdict(int)
        self.repairs: dict[str, int] = defaultdict(int)
        self.fetch_requeues: dict[str, int] = defaultdict(int)
        self.next_attempt: dict[str, int] = defaultdict(int)
        #: per map: fetch-failure strikes since its last re-execution,
        #: and its re-executions
        self.fetch_strikes: dict[str, int] = defaultdict(int)
        self.map_reexecs: dict[str, int] = defaultdict(int)
        #: tasks whose attempts run in record-skipping mode (sticky)
        self.skip_tasks: set[str] = set()
        #: completed-attempt durations by kind: a combined wave's
        #: wait-bound reduces must not skew the map straggler median
        self.durations: dict[str, list[float]] = {"map": [], "reduce": []}
        for s, _ in self.pending:
            self.trace.record(s.task_id, 0, s.kind, "queued")

    def done(self) -> bool:
        return len(self.results) >= len(self.by_id)

    def unfinished(self) -> list[str]:
        return [t for t in self.by_id if t not in self.results]

    def full(self) -> bool:
        """No slot for another attempt: this wave's cap or the pool's."""
        return (len(self.running) >= self.scheduler.max_workers
                or self.lease.available() <= 0)

    def is_running(self, task_id: str) -> bool:
        return any(a.spec.task_id == task_id for a in self.running)

    def covered(self, task_id: str) -> bool:
        """A rival attempt or a queued retry already stands in."""
        return (self.is_running(task_id)
                or any(s.task_id == task_id for s, _ in self.pending))

    def starvation_watch(self) -> list[_Attempt]:
        """The reducers whose starvation reports the loop reads."""
        if not self.pipeline or not self.scheduler.speculation:
            return []
        return [a for a in self.running
                if a.spec.kind == "reduce" and not a.speculative]

    def heartbeats_due(self, now: float) -> list[_Attempt]:
        """The attempts whose heartbeat age the loop reads."""
        timeout = self.scheduler.heartbeat_timeout
        if timeout is None:
            return []
        return [a for a in self.running if now - a.started > timeout]

    def idle_delay(self, now: float) -> float:
        """How long a loop with nothing in flight sleeps: until the
        earliest backoff gate, at most one poll quantum -- a whole one
        when the shared pool has no slot for us (never hot-spin)."""
        if not self.pending:  # pragma: no cover - defensive
            return POLL_INTERVAL
        gate = min(nb for _, nb in self.pending)
        if gate <= now and self.lease.available() <= 0:
            return POLL_INTERVAL
        return min(max(gate - now, 0.0), POLL_INTERVAL)

    def launch(self, spec: TaskSpec, speculative: bool, now: float) -> bool:
        # Always launch the *current* spec for this task id: a map
        # re-execution may have re-pointed the payload since this
        # spec object was queued.
        sched = self.scheduler
        spec = self.by_id[spec.task_id]
        number = self.next_attempt[spec.task_id]
        attempt_dir = os.path.join(self.wave_dir, f"{spec.task_id}.{number}")
        skip_mode = spec.task_id in self.skip_tasks
        host = disk_fault = None
        if self.hosts is not None:
            host = self.hosts.place(spec.task_id)
            if sched._disk_faults:
                # Disk faults follow the task's *home* host (the stable
                # hash, not the placement, decides who fails over,
                # wherever the attempt runs).
                disk_fault = sched._disk_faults.get(
                    self.hosts.host_for(spec.task_id))
        injector = sched.fault_injector
        attempt_spec = AttemptSpec(
            spec.task_id, spec.kind, number, attempt_dir, self.job,
            self.dataset if spec.kind == "map" else None, spec.payload,
            fault=(injector.fault_for(spec.task_id, number)
                   if injector is not None else None),
            skip_mode=skip_mode, shuffle=sched.shuffle,
            fetch_faults=(injector.fetch_plan_for(spec.task_id)
                          if injector is not None
                          and spec.kind == "reduce" else None) or None,
            # Degrade-on-retry: the OOM deaths this task has suffered;
            # the attempt body halves its memory knobs once per level.
            degrade=self.oom_requeues[spec.task_id],
            host=host, disk_fault=disk_fault,
            heartbeat_interval=sched.heartbeat_interval,
            rlimit_bytes=sched.worker_rlimit_bytes,
            durable=self.keep_result_files)
        attempt = _Attempt(spec, attempt_spec, speculative, now)
        # Recorded before the launch: an inline executor has run the
        # attempt by the time ``launch`` returns.
        if disk_fault is not None:
            self.record(attempt, "disk_failover",
                        f"workdir on {host} raises {disk_fault.op}; "
                        f"spilling to spare volume")
        if speculative:
            self.record(attempt, "speculated")
        if skip_mode:
            self.record(attempt, "skipping",
                        "record-level skipping after eligible failure")
        self.record(attempt, "started")
        try:
            attempt.process = self.lease.launch(
                attempt_spec, inherit=(self.job, self.dataset))
        except PoolSaturatedError:
            # Lost the race for the last shared slot to a concurrent job
            # between the availability check and the spawn; the attempt
            # number stays unspent (its retry records ``started`` again)
            # and the caller requeues.
            return False
        self.next_attempt[spec.task_id] += 1
        self.running.append(attempt)
        return True

    def record(self, attempt: _Attempt, event: str, detail: str = "") -> None:
        self.trace.record(attempt.spec.task_id, attempt.number,
                          attempt.spec.kind, event, detail)

    def retire(self, attempt: _Attempt) -> None:
        """Drop a reaped/killed attempt and return its pool slot."""
        self.running.remove(attempt)
        self.lease.release()

    def kill(self, attempt: _Attempt, reason: str,
             event: str = "killed") -> None:
        """Stop a running attempt, trace why, discard its directory."""
        _kill_process(attempt.process)
        self.retire(attempt)
        self.record(attempt, event, reason)
        shutil.rmtree(attempt.dir, ignore_errors=True)

    def restart(self, attempt: _Attempt, why: str | None) -> None:
        """Requeue a killed attempt's task at once, uncharged, unless it
        won or is covered; ``why`` (if any) is traced as ``retried``."""
        task_id = attempt.spec.task_id
        if task_id in self.results or self.covered(task_id):
            return
        self.pending.append((self.by_id[task_id], 0.0))
        if why is not None:
            self.record(attempt, "retried", f"{why} (retry budget uncharged)")

    def note_failure(self, attempt: _Attempt, detail: str,
                     charge_host: bool = True) -> None:
        """Trace a failed attempt and discard its directory."""
        self.record(attempt, "failed", detail)
        shutil.rmtree(attempt.dir, ignore_errors=True)
        if (charge_host and self.hosts is not None
                and attempt.host is not None):
            self.hosts.record_task_failure(attempt.host, detail)

    def requeue(self, attempt: _Attempt, now: float, count: int,
                why: str | None = None) -> None:
        """Queue a retry behind its backoff gate; ``count`` (the task's
        failures on this rung) paces it.  ``why`` names a rung that
        ``max_retries`` does not pay for; ``None`` is a charged retry."""
        sched = self.scheduler
        task_id = attempt.spec.task_id
        delay = backoff_delay(
            sched.retry_backoff, count, sched.retry_backoff_max,
            key=task_id if why is None else f"{task_id}:{why}")
        self.pending.append((self.by_id[task_id], now + delay))
        detail = f"backoff {delay:.3f}s"
        if why is not None:
            detail = f"{why}, {detail} (retry budget uncharged)"
        self.record(attempt, "retried", detail)

    def record_failure(self, attempt: _Attempt, detail: str,
                       now: float) -> None:
        """A failure the task's ``max_retries`` budget pays for:
        requeue, or raise once the budget is spent."""
        task_id = attempt.spec.task_id
        self.note_failure(attempt, detail)
        self.failures[task_id] += 1
        rival_running = self.is_running(task_id)
        if self.failures[task_id] > self.scheduler.max_retries:
            if rival_running:
                return  # a speculative rival may still win
            raise TaskFailedError(task_id, self.failures[task_id] + 1, detail)
        if not rival_running:  # else the rival attempt *is* the retry
            self.requeue(attempt, now, self.failures[task_id])

    def reexec_map(self, map_id: str, detail: str) -> None:
        """Re-execute a completed map and re-point its consumers."""
        sched = self.scheduler
        self.map_reexecs[map_id] += 1
        if self.map_reexecs[map_id] > sched.max_map_reexecs:
            raise TaskFailedError(
                map_id, self.map_reexecs[map_id],
                f"map re-executed {sched.max_map_reexecs} time(s) and "
                f"its segments remain unfetchable: {detail}")
        self.fetch_strikes[map_id] = 0
        new_payloads = self.reexec(map_id)
        self.trace.record(map_id, self.map_reexecs[map_id], "map",
                          "map_reexec",
                          f"fetch-failure threshold "
                          f"({sched.fetch_failure_threshold}) reached: "
                          f"{detail}")
        for reduce_id, payload in new_payloads.items():
            if reduce_id not in self.by_id or reduce_id in self.results:
                continue
            self.by_id[reduce_id] = TaskSpec(reduce_id, "reduce", payload)
            # A queued retry launches the new spec (``launch`` looks
            # it up by id).  Running attempts are reading segments that no longer
            # exist: kill them and requeue the task immediately.
            for a in [a for a in self.running
                      if a.spec.task_id == reduce_id]:
                self.kill(a, f"segments of {map_id} invalidated by "
                             f"re-execution")
                self.restart(a, None)

    def handle_fetch_failure(self, attempt: _Attempt, map_id: str,
                             detail: str, now: float) -> None:
        """A reduce exhausted its fetch retries against one map: a
        strike against the *link* (the producing map), not the reduce's
        retry budget.  Strikes reach ``fetch_failure_threshold`` and
        ``max_map_reexecs`` bounds the re-runs, so the wave terminates.
        """
        task_id = attempt.spec.task_id
        self.note_failure(attempt, detail, charge_host=False)
        self.record(attempt, "fetch_failure", f"{map_id}: {detail}")
        if self.hosts is not None:
            # The strike lands on the host *serving* the unfetchable
            # segments -- evidence toward DEAD only if that host has
            # also gone silent (partition-vs-death rule).
            self.hosts.record_fetch_strike(self.hosts.host_for(map_id))
        self.fetch_strikes[map_id] += 1
        if self.fetch_strikes[map_id] >= self.scheduler.fetch_failure_threshold:
            if self.reexec is None:
                raise TaskFailedError(
                    task_id, self.fetch_requeues[task_id] + 1,
                    f"{detail} (no re-execution hook installed)")
            self.reexec_map(map_id, detail)
        if not self.covered(task_id):  # else a rival or reexec requeue
            self.fetch_requeues[task_id] += 1
            self.requeue(attempt, now, self.fetch_requeues[task_id],
                         "fetch failure")

    def handle_oom(self, attempt: _Attempt, detail: str, now: float) -> None:
        """An attempt died out of memory: requeued uncharged (the memory
        ladder's bound is ``max_memory_retries``) one degrade level
        down, so the next launch halves its memory knobs.  No host is
        charged: the task's footprint is at fault, not the host.
        """
        shuffle = self.scheduler.shuffle
        task_id = attempt.spec.task_id
        self.note_failure(attempt, detail, charge_host=False)
        limit = (getattr(shuffle, "max_memory_retries", 2)
                 if shuffle is not None else 2)
        self.oom_requeues[task_id] += 1
        if self.oom_requeues[task_id] > limit:
            if self.is_running(task_id):
                return  # a speculative rival may still win
            raise TaskFailedError(
                task_id, self.oom_requeues[task_id],
                f"{detail} (exhausted {limit} memory retries)")
        # Tallied only for deaths that earn a degraded retry -- the
        # exhausting death raises untallied, so the counters are a
        # function of the fault plan whenever a job completes.
        tally = self.scheduler.memory_tally
        tally["oom_events"] += 1
        tally["degraded_attempts"] += 1
        self.record(attempt, "oom_degraded",
                    f"degrade level {self.oom_requeues[task_id]}: sort "
                    f"buffer halved")
        if not self.covered(task_id):
            self.requeue(attempt, now, self.oom_requeues[task_id], "oom")

    def handle_error(self, attempt: _Attempt, result: dict[str, Any],
                     now: float) -> None:
        """The one dispatch on a failed attempt's ``classify`` record.
        Fetch failures, OOM deaths, the entry into skip mode (once per
        task, sticky) and corrupt-segment repairs (``max_repairs`` per
        reduce) requeue uncharged; any other failure is charged."""
        task_id = attempt.spec.task_id
        detail = f"{result['error_type']}: {result['message']}"
        if result["failed_map"] is not None:
            self.handle_fetch_failure(attempt, result["failed_map"], detail,
                                      now)
        elif result["oom"]:
            self.handle_oom(attempt, detail, now)
        elif result["skip_eligible"] and task_id not in self.skip_tasks:
            self.note_failure(attempt, detail)
            self.skip_tasks.add(task_id)
            if not self.covered(task_id):
                self.requeue(attempt, now, 1, "skip mode")
        elif (attempt.spec.kind == "reduce" and self.repair is not None
                and result["corrupt_path"] is not None
                and self.repairs[task_id] < self.max_repairs):
            self.note_failure(attempt, detail)
            self.repair(result["corrupt_path"])
            self.repairs[task_id] += 1
            if not self.covered(task_id):
                self.requeue(attempt, now, self.repairs[task_id],
                             "segment repaired")
        else:
            self.record_failure(attempt, detail, now)

    def handle_exit(self, attempt: _Attempt, now: float) -> None:
        """Judge an exited attempt: a win, a lost race, or a failure."""
        spec = attempt.spec
        task_id = spec.task_id
        if task_id in self.results:
            # A rival attempt already won while this one was finishing.
            self.record(attempt, "discarded", "lost to rival attempt")
            shutil.rmtree(attempt.dir, ignore_errors=True)
            return
        result = attempt.process.record()
        if result is None:
            self.record_failure(attempt, f"worker exited with code "
                                f"{attempt.process.exitcode} and no result",
                                now)
            return
        if result["status"] != "ok":
            try:
                self.handle_error(attempt, result, now)
            except TaskFailedError:
                # An inline attempt that ends the job raises as itself,
                # not as the scheduler's summary of it.
                error = getattr(attempt.process, "error", None)
                if error is None:
                    raise
                raise error from None
            return
        self.results[task_id] = result["value"]
        self.durations[spec.kind].append(now - attempt.started)
        self.record(attempt, "finished")
        if self.hosts is not None and attempt.host is not None:
            # A completed attempt is both liveness evidence and a clean
            # attempt toward probation reinstatement.
            self.hosts.record_heartbeat(attempt.host)
            self.hosts.record_task_success(attempt.host)
        counters = getattr(result["value"], "counters", None)
        skipped = (counters.get(C.RECORDS_SKIPPED)
                   if counters is not None else 0)
        if skipped:
            self.record(attempt, "quarantined",
                        f"{skipped} record(s) skipped into quarantine")
        mem = result.get("memory")
        if mem:
            tally = self.scheduler.memory_tally
            tally["used_budget"] = True
            tally["peak_bytes"] = max(tally["peak_bytes"], mem.get("peak", 0))
            self.record(attempt, "memory_peak",
                        f"{mem.get('peak', 0)}/{mem.get('capacity')}")
        if self.on_complete is not None:
            self.on_complete(spec, attempt.number, attempt.dir,
                             attempt.launch.result_path, result["value"])
        for rival in [a for a in self.running
                      if a.spec.task_id == task_id]:
            self.kill(rival, "rival attempt won")
            self.record(rival, "discarded")

    def admit(self, now: float) -> None:
        """Launch queued work whose backoff gate is open while slots
        are free."""
        if self.pipeline:
            # Maps outrank reduces for free slots (a pipelined reduce
            # can only drain after every map commits); stable, so
            # within-kind FIFO order is preserved.
            self.pending.sort(key=lambda e: e[0].kind != "map")
        self.preempt_for_maps(now)
        i = 0
        while i < len(self.pending) and not self.full():
            spec, not_before = self.pending[i]
            if not_before > now:
                i += 1
                continue
            self.pending.pop(i)
            if not self.launch(spec, False, now):
                # Spawn raced a concurrent job for the last slot and
                # lost; put the task back and wait.
                self.pending.insert(i, (spec, not_before))
                break

    def reap(self, now: float) -> bool:
        """Retire and judge every exited attempt; ``True`` if any."""
        progressed = False
        for attempt in list(self.running):
            if attempt not in self.running or attempt.process.is_alive():
                continue
            attempt.process.join()
            self.retire(attempt)
            progressed = True
            self.handle_exit(attempt, now)
        return progressed

    def deadline_breach(self, attempt: _Attempt, now: float,
                        beats: Mapping[_Attempt, float | None]) -> str | None:
        """Why this attempt must die now, or ``None`` to let it run;
        ``beats`` has the heartbeat age of each attempt
        :meth:`heartbeats_due` named (``None``: no beat yet)."""
        sched = self.scheduler
        hosts = self.hosts if attempt.host is not None else None
        age = now - attempt.started
        if sched.task_timeout is not None and age > sched.task_timeout:
            return (f"attempt exceeded task_timeout="
                    f"{sched.task_timeout:.3f}s (ran {age:.3f}s)")
        timeout = sched.heartbeat_timeout
        if timeout is None or age <= timeout:
            return None
        beat_age = beats[attempt]
        if beat_age is not None and beat_age <= timeout:
            if hosts is not None:
                hosts.record_heartbeat(attempt.host)
            return None
        if hosts is not None:
            hosts.record_missed_heartbeat(attempt.host)
        if beat_age is None:
            # No beat at all after the grace window: the worker never
            # got far enough to start beating.
            return f"no heartbeat after {age:.3f}s (timeout {timeout:.3f}s)"
        return f"heartbeat stale for {beat_age:.3f}s (timeout {timeout:.3f}s)"

    def enforce_deadlines(self, now: float,
                          beats: Mapping[_Attempt, float | None]) -> None:
        """Kill attempts past a deadline (a charged failure); fail the
        wave past ``wave_deadline``."""
        for attempt in list(self.running):
            reason = self.deadline_breach(attempt, now, beats)
            if reason is not None:
                self.kill(attempt, reason, event="timeout")
                self.record_failure(attempt, reason, now)
        deadline = self.scheduler.wave_deadline
        if deadline is not None and now - self.started > deadline:
            unfinished = self.unfinished()
            raise WaveDeadlineError(unfinished, deadline,
                                    self.trace.diagnose(unfinished))

    def drain_dead_hosts(self) -> None:
        """Absorb hosts the monitor declared dead since last poll: kill
        and requeue (uncharged) their attempts, and re-execute the
        completed maps whose only segment copies lived there (bounded
        by the monitor's ``max_host_reexecs``)."""
        if self.hosts is None:
            return
        for host in self.hosts.take_newly_dead():
            for a in [x for x in self.running if x.host == host]:
                self.kill(a, f"{host} declared dead")
                self.restart(a, f"{host} died under it")
            if self.reexec is None:
                continue
            host_for = self.hosts.host_for
            if self.pipeline:
                # A combined wave's reduce payloads carry a plan, not
                # refs: the completed maps homed on the dead host are
                # exactly this wave's finished maps.
                lost = sorted(t for t, s in self.by_id.items()
                              if s.kind == "map" and t in self.results
                              and host_for(t) == host)
            else:
                # A barrier reduce wave: the maps its refs read from the
                # dead host.
                lost = sorted({ref.map_id for s in self.by_id.values()
                               if s.kind == "reduce"
                               for ref in s.payload[1]
                               if host_for(ref.map_id) == host})
            if lost:
                self.hosts.charge_host_reexec(host, len(lost))
                for map_id in lost:
                    self.reexec_map(map_id,
                                    f"{host} died holding its segments")

    def maybe_speculate(self, now: float) -> None:
        """Duplicate stragglers past ``straggler_factor`` x median."""
        sched = self.scheduler
        if not sched.speculation:
            return
        thresholds = {
            kind: max(sched.straggler_factor * statistics.median(done),
                      sched.min_straggler_seconds)
            for kind, done in self.durations.items()
            if len(done) >= sched.speculation_min_completed}
        if not thresholds:
            return
        in_flight: dict[str, int] = defaultdict(int)
        for a in self.running:
            in_flight[a.spec.task_id] += 1
        for a in list(self.running):
            if self.full():
                return
            if self.pipeline and a.spec.kind == "reduce":
                # A pipelined reducer's age is dominated by waiting on
                # late maps; duplicating it burns a slot the map
                # stragglers (the actual bottleneck) may need.  The
                # starvation path covers the pipeline.
                continue
            threshold = thresholds.get(a.spec.kind)
            if threshold is None:
                continue
            if (not a.speculative and in_flight[a.spec.task_id] == 1
                    and now - a.started > threshold
                    and self.launch(a.spec, True, now)):
                in_flight[a.spec.task_id] += 1

    def check_starvation(self, now: float,
                         starved: Mapping[_Attempt, Sequence[str]]) -> None:
        """Progress-triggered speculation for pipelined waves: a reducer
        that waits on a few missing producers names them in its
        starvation report (``starved`` maps each watched reducer to
        those names).  They are the wave's bottleneck right now, so they
        are speculated at once, within the starvation threshold and the
        attempt-age floor.
        """
        if not starved:
            return
        shuffle = self.scheduler.shuffle
        threshold = (getattr(shuffle, "starvation_threshold", 2)
                     if shuffle is not None else 2)
        in_flight: dict[str, list[_Attempt]] = defaultdict(list)
        for a in self.running:
            in_flight[a.spec.task_id].append(a)
        for reducer, missing in starved.items():
            missing = [m for m in missing
                       if m in self.by_id and self.by_id[m].kind == "map"
                       and m not in self.results]
            if not missing or len(missing) > threshold:
                # Starved on many maps = the wave is young, not
                # straggling; let ordinary scheduling catch up.
                continue
            for map_id in missing:
                if self.full():
                    return
                attempts = in_flight.get(map_id, [])
                if (len(attempts) != 1 or attempts[0].speculative
                        or now - attempts[0].started
                        <= self.scheduler.min_straggler_seconds):
                    continue
                self.record(attempts[0], "pipeline_starved",
                            f"{reducer.spec.task_id} starved on "
                            f"{len(missing)} missing segment(s)")
                if self.launch(self.by_id[map_id], True, now):
                    in_flight[map_id].append(self.running[-1])

    def preempt_for_maps(self, now: float) -> None:
        """Combined-wave deadlock breaker (Hadoop's reduce preemption):
        when every slot holds a pipelined reducer waiting on a map that
        cannot get one, the youngest reduce attempt (the last launched)
        is killed and requeued uncharged -- its restart is
        byte-identical by determinism.
        """
        if not self.pipeline or not self.full():
            return
        if not any(s.kind == "map" and nb <= now
                   and s.task_id not in self.results
                   for s, nb in self.pending):
            return
        victims = [a for a in self.running if a.spec.kind == "reduce"]
        if victims:
            self.kill(victims[-1], "preempted for pending map work")
            self.restart(victims[-1], "preempted")
