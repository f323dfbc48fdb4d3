"""The job runners: one wave loop, on worker processes or inline.

:class:`ParallelJobRunner` drives a job's tasks through a
:class:`~repro.mapreduce.runtime.scheduler.TaskScheduler` around one
:class:`~repro.mapreduce.runtime.ledger.MapOutputLedger`, and folds
the result with :func:`~repro.mapreduce.runtime.ledger.
assemble_result`.  :class:`LocalJobRunner` -- the serial runner -- is
the same wave loop on a scheduler with one inline slot
(:class:`~repro.mapreduce.runtime.pool.InlinePool`): no retry budget,
no speculation, no deadlines.  Both run every attempt through one
:func:`~repro.mapreduce.runtime.attempt.execute_attempt` and climb one
recovery ladder, so their output and
:class:`~repro.mapreduce.metrics.Counters` are byte-identical by
construction; only the executor differs (worker processes over
segments on shared disk, or the driving process).

The job DAG is two waves with a shuffle barrier: every map task runs
first, writing one final IFile segment per reducer partition into its
attempt directory; reduce tasks then receive their partition's segment
*paths* and fetch the bytes themselves.  Retries, speculative
execution, attempt deadlines, and corrupt-segment repair are the
scheduler's department; the resulting
:class:`~repro.mapreduce.runtime.trace.RuntimeTrace` is attached to the
job result as ``result.trace``.

**Durable recovery.**  With ``recovery_dir`` set, the runner executes
inside that directory instead of a throwaway temp dir and maintains a
:class:`~repro.mapreduce.runtime.recovery.JobManifest` there: the job
fingerprint, wave membership, and a checkpoint record (attempt dir,
result file, per-file CRC32s) for every completed task, each committed
atomically.  If the runner process dies mid-job, constructing the next
runner with the same ``recovery_dir`` and ``resume=True`` validates
the manifest and **adopts** every intact completed task -- the job
restarts from the last durable state transition instead of from
scratch.  Counters and output of a resumed run are byte-identical to
an uninterrupted one (the chaos soak harness pins this down).
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
from typing import Any, Collection, Sequence

from repro import settings
from repro.mapreduce.engine import JobResult
from repro.mapreduce.job import Job
from repro.mapreduce.runtime.fault import FaultInjector
from repro.mapreduce.runtime.hosts import HostHealthMonitor, HostRegistry
from repro.mapreduce.runtime.ledger import MapOutputLedger, assemble_result
from repro.mapreduce.runtime.recovery import (
    MANIFEST_NAME,
    JobManifest,
    TaskRecord,
    file_crc32,
    job_fingerprint,
)
from repro.mapreduce.runtime.pool import InlinePool, WorkerPool
from repro.mapreduce.runtime.scheduler import (
    TaskScheduler,
    TaskSpec,
    check_knobs,
)
from repro.mapreduce.runtime.shuffle import ShuffleConfig
from repro.mapreduce.runtime.trace import RuntimeTrace
from repro.mapreduce.runtime.worker import load_result
from repro.scidata.dataset import Dataset
from repro.scidata.splits import ArraySplitter, InputSplit

__all__ = ["ParallelJobRunner", "LocalJobRunner"]


class ParallelJobRunner:
    """Run jobs on a bounded pool of worker processes.

    Constructor keywords mirror :class:`TaskScheduler`'s knobs.  Usable
    as a context manager: leaving the ``with`` block removes an owned
    (auto-created) workdir.

    ``recovery_dir`` enables durable checkpointing there; ``resume``
    additionally adopts any valid completed work a previous (killed)
    run left in that directory.  ``resume=True`` requires
    ``recovery_dir``.

    ``pool``/``tenant`` borrow worker slots from a shared
    :class:`~repro.mapreduce.runtime.pool.WorkerPool` (the job
    service's warm pool) instead of owning a private one;
    ``cancel_event`` aborts the run cooperatively -- every in-flight
    worker is killed, segment servers stop, and a recovery-enabled
    run leaves its manifest behind for a later ``resume=True``.
    ``run()`` also wires SIGTERM/SIGINT to that event when called on
    the main thread with worker processes, so a terminated standalone
    run drains cleanly instead of leaking children.
    """

    def __init__(
        self,
        workdir: str | None = None,
        keep_files: bool = False,
        *,
        max_workers: int | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        fetch_failure_threshold: int = 2,
        max_map_reexecs: int = 2,
        shuffle: ShuffleConfig | None = None,
        speculation: bool = True,
        straggler_factor: float = 3.0,
        min_straggler_seconds: float = 1.0,
        speculation_min_completed: int = 2,
        task_timeout: float | None = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float | None = None,
        wave_deadline: float | None = None,
        recovery_dir: str | None = None,
        resume: bool = False,
        start_method: str | None = None,
        pool: WorkerPool | InlinePool | None = None,
        tenant: str = "default",
        cancel_event: threading.Event | None = None,
        fault_injector: FaultInjector | None = None,
        num_hosts: int = 2,
        max_host_reexecs: int = 2,
        worker_rlimit_bytes: int | None = None,
    ) -> None:
        if resume and recovery_dir is None:
            raise ValueError("resume=True requires recovery_dir")
        settings.check("REPRO_NUM_HOSTS", num_hosts, "num_hosts")
        settings.check("REPRO_MAX_HOST_REEXECS", max_host_reexecs,
                       "max_host_reexecs")
        self.num_hosts = num_hosts
        self.max_host_reexecs = max_host_reexecs
        self.max_workers = max_workers
        self.recovery_dir = recovery_dir
        self.resume = resume
        self.pool = pool
        self.tenant = tenant
        self.cancel_event = (cancel_event if cancel_event is not None
                             else threading.Event())
        self._scheduler_kwargs = dict(
            max_workers=max_workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            retry_backoff_max=retry_backoff_max,
            fetch_failure_threshold=fetch_failure_threshold,
            max_map_reexecs=max_map_reexecs,
            shuffle=shuffle,
            speculation=speculation,
            straggler_factor=straggler_factor,
            min_straggler_seconds=min_straggler_seconds,
            speculation_min_completed=speculation_min_completed,
            task_timeout=task_timeout,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            wave_deadline=wave_deadline,
            start_method=start_method,
            pool=pool,
            tenant=tenant,
            fault_injector=fault_injector,
            worker_rlimit_bytes=worker_rlimit_bytes,
        )
        check_knobs(**self._scheduler_kwargs)
        self._own_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-mrp-")
        self.keep_files = keep_files
        os.makedirs(self.workdir, exist_ok=True)
        #: trace of the most recent run (also on ``JobResult.trace``)
        self.last_trace: RuntimeTrace | None = None
        #: tasks adopted from the manifest in the most recent run
        self.last_adopted: int = 0
        #: completed maps re-executed for fetch failures, most recent run
        self.last_map_reexecs: int = 0
        #: host health monitor of the most recent run
        self.last_hosts: HostHealthMonitor | None = None

    def __enter__(self) -> "ParallelJobRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Remove an owned workdir (no-op for caller-supplied dirs)."""
        if self._own_workdir and os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir, ignore_errors=True)

    def cancel(self) -> None:
        """Abort the in-flight run cooperatively (thread-safe).

        The scheduler's poll loop observes the event, kills every
        worker, and raises :class:`~repro.mapreduce.runtime.scheduler.
        JobCancelledError`; a recovery-enabled run keeps its manifest
        so ``resume=True`` continues from the interrupt.
        """
        self.cancel_event.set()

    # ------------------------------------------------------------------ run

    def run(
        self,
        job: Job,
        dataset: Dataset,
        splits: Sequence[InputSplit] | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``dataset``; returns outputs and metrics."""
        os.makedirs(self.workdir, exist_ok=True)
        if splits is None:
            variables = (list(job.input_variables)
                         if job.input_variables is not None else None)
            splits = ArraySplitter(job.num_map_tasks).split(dataset, variables)
        if not splits:
            raise ValueError("job has no input splits")

        trace = RuntimeTrace()
        monitor = HostHealthMonitor(
            HostRegistry(self.num_hosts), trace=trace,
            max_host_reexecs=self.max_host_reexecs)
        self.last_hosts = monitor
        scheduler = TaskScheduler(trace=trace, hosts=monitor,
                                  cancel_event=self.cancel_event,
                                  **self._scheduler_kwargs)
        self.last_adopted = 0
        self.last_map_reexecs = 0

        # Graceful termination: SIGTERM/SIGINT set the cancel event so
        # the scheduler drains (kills workers, stops segment servers via
        # the wave's ``finally``) and the manifest survives for resume.
        # Signal handlers only work on the main thread; service executor
        # threads use per-job cancel events instead.
        previous_handlers: dict[int, Any] = {}
        if (threading.current_thread() is threading.main_thread()
                and not isinstance(self.pool, InlinePool)):
            def _on_signal(signum: int, frame: Any) -> None:
                self.cancel_event.set()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous_handlers[sig] = signal.signal(sig, _on_signal)
                except (ValueError, OSError):  # pragma: no cover
                    pass

        if self.recovery_dir is None:
            run_dir = self._open_run_dir()
            manifest, adopted = None, {}
        else:
            run_dir = self.recovery_dir
            manifest, adopted = self._open_manifest(job, splits, run_dir,
                                                    trace)

        completed = False
        try:
            result = self._run_waves(job, dataset, splits, scheduler,
                                     trace, run_dir, manifest, adopted,
                                     monitor)
            completed = True
        finally:
            scheduler.close()
            # A failed recovery run keeps its directory: the manifest and
            # checkpoints *are* the resume state.  A completed one is
            # emptied (the caller-supplied directory itself survives,
            # like a caller-supplied workdir).
            if self.recovery_dir is None:
                self._close_run_dir(run_dir, completed)
            elif completed and not self.keep_files:
                self._clear_run_dir(run_dir)
                try:
                    os.unlink(os.path.join(run_dir, MANIFEST_NAME))
                except OSError:  # pragma: no cover - already gone
                    pass
            if (self._own_workdir and os.path.isdir(self.workdir)
                    and not os.listdir(self.workdir)):
                shutil.rmtree(self.workdir, ignore_errors=True)
            for sig, handler in previous_handlers.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        self.last_trace = trace
        return result

    def _open_run_dir(self) -> str:
        """A fresh directory under the workdir for this run's attempts."""
        return tempfile.mkdtemp(prefix="run-", dir=self.workdir)

    def _close_run_dir(self, run_dir: str, completed: bool) -> None:
        if not self.keep_files:
            shutil.rmtree(run_dir, ignore_errors=True)

    def _make_ledger(self, *args: Any, **kwargs: Any) -> MapOutputLedger:
        """The run's map-output ledger (a seam tests and harnesses use
        to inject ledger-level failures)."""
        return MapOutputLedger(*args, **kwargs)

    # ------------------------------------------------------------- recovery

    def _open_manifest(
        self,
        job: Job,
        splits: Sequence[InputSplit],
        run_dir: str,
        trace: RuntimeTrace | None = None,
    ) -> tuple[JobManifest, dict[str, TaskRecord]]:
        """Create or adopt the manifest for a recovery-enabled run.

        Returns the live manifest plus the validated records of a prior
        run (empty unless ``resume=True`` and the on-disk manifest
        matches this job's fingerprint).  A corrupt or truncated
        manifest is *not* an error: it is traced as ``manifest_corrupt``
        and the run falls back to a clean restart, clearing the stale
        checkpoints it can no longer vouch for.
        """
        os.makedirs(run_dir, exist_ok=True)
        fingerprint = job_fingerprint(job, splits)
        path = os.path.join(run_dir, MANIFEST_NAME)
        previous = None
        if self.resume:
            previous, problem = JobManifest.load_verified(path)
            if problem is not None:
                if trace is not None:
                    trace.record("manifest", 0, "job", "manifest_corrupt",
                                 problem)
                # The checkpoints may be fine, but without a trustworthy
                # manifest nothing vouches for them: clean restart.
                self._clear_run_dir(run_dir)
        if previous is not None and previous.job_hash != fingerprint:
            previous = None  # different job: nothing is adoptable

        manifest = JobManifest(path, fingerprint)
        adopted: dict[str, TaskRecord] = {}
        if previous is not None:
            map_ids = previous.waves.get("map", [])
            adopted.update(previous.adoptable("map", map_ids))
            reduce_ids = previous.waves.get("reduce", [])
            adopted.update(previous.adoptable("reduce", reduce_ids))
            # Carry the validated records into the fresh manifest so a
            # second interruption still sees them.
            for record in adopted.values():
                manifest.tasks[record.task_id] = record
        if not self.resume:
            # A deliberate fresh start invalidates any stale checkpoints.
            self._clear_run_dir(run_dir)
        manifest.save()
        return manifest, adopted

    @staticmethod
    def _clear_run_dir(run_dir: str,
                       keep: Collection[str] = (MANIFEST_NAME,)) -> None:
        """Remove every entry of ``run_dir`` not named in ``keep``."""
        for name in set(os.listdir(run_dir)).difference(keep):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - already gone
                    pass

    @staticmethod
    def _load_adopted(records: dict[str, TaskRecord],
                      kind: str) -> dict[str, Any]:
        """Reload checkpointed task values for one wave.

        Records already passed CRC validation; a result that still fails
        to load (e.g. deleted between validation and here) is simply
        dropped so the scheduler re-runs the task.
        """
        values: dict[str, Any] = {}
        for task_id, record in records.items():
            if record.kind != kind:
                continue
            result = load_result(record.result_path)
            if result is not None and result.get("status") == "ok":
                values[task_id] = result["value"]
        return values

    @staticmethod
    def _checkpoint(manifest: JobManifest, spec: TaskSpec, attempt: int,
                    attempt_dir: str, result_path: str, value: Any) -> None:
        """Record one freshly completed task in the manifest."""
        files = {result_path: file_crc32(result_path)}
        if spec.kind == "map":
            for path, _ in value.segments.values():
                files[path] = file_crc32(path)
        manifest.record_task(TaskRecord(
            task_id=spec.task_id,
            kind=spec.kind,
            attempt=attempt,
            attempt_dir=attempt_dir,
            result_path=result_path,
            files=files,
        ))

    # ---------------------------------------------------------------- waves

    def _run_waves(
        self,
        job: Job,
        dataset: Dataset,
        splits: Sequence[InputSplit],
        scheduler: TaskScheduler,
        trace: RuntimeTrace,
        run_dir: str,
        manifest: JobManifest | None,
        adopted: dict[str, TaskRecord],
        monitor: HostHealthMonitor,
    ) -> JobResult:
        """Drive the job's tasks through the scheduler, barrier or
        pipelined, around one :class:`MapOutputLedger`.

        *Barrier* (default): every map runs first; at the shuffle
        barrier their outputs are published, injected ``host_crash``
        faults land (exactly where Hadoop's lost-tasktracker handling
        runs), and each reducer is handed its partition's resolved
        segment refs.  The segment servers live for the reduce wave.

        *Pipelined* (``shuffle.pipeline``): one combined wave.  Each
        completed map's ``on_complete`` publishes its segments -- the
        completion-event stream the scheduler sends running reducers --
        so reducers fetch and merge as producers commit, holding final
        output until their pending-set drains.  Re-pointing after a
        re-execution is the re-publication's job (readers are sent the
        new segment, or hit a STALE_EPOCH fetch), so the ``reexec`` hook
        returns no payload updates; an injected ``host_crash`` fires the moment the host's
        last homed map commits -- the pipelined analogue of the barrier
        crash.  Overlap measurements land in ``pipeline_stats``, never
        in counters.

        Either way output and counters are the same on every executor:
        same attempt body, same ladder, same ledger, same assembler.  A
        re-executed map writes into a fresh directory per epoch.
        """
        recovering = manifest is not None
        injector = self._scheduler_kwargs.get("fault_injector")
        shuffle_cfg = self._scheduler_kwargs.get("shuffle")
        pipeline = bool(getattr(shuffle_cfg, "pipeline", False))

        def fresh_dir(map_id: str, epoch: int) -> str:
            path = os.path.join(run_dir, f"{map_id}.reexec{epoch}")
            os.makedirs(path, exist_ok=True)
            return path

        ledger = self._make_ledger(
            job, dataset, splits, hosts=monitor, rerun_dir=fresh_dir,
            shuffle=shuffle_cfg, injector=injector, trace=trace,
            pipeline=pipeline)
        map_specs = [TaskSpec(map_id, "map", split)
                     for map_id, split in zip(ledger.map_ids, splits)]
        if recovering:
            manifest.record_wave("map", list(ledger.map_ids))
        adopted_maps = self._load_adopted(adopted, "map")
        adopted_reduces = self._load_adopted(adopted, "reduce")
        self.last_adopted += len(adopted_maps) + len(adopted_reduces)

        def forget_checkpoint(map_id: str) -> None:
            # The checkpointed result pickle now points at deleted
            # segment paths; drop the record so a resume re-runs the
            # map instead of adopting a dangling checkpoint.
            if recovering and map_id in manifest.tasks:
                del manifest.tasks[map_id]
                manifest.save()

        def reduce_payloads() -> dict[str, Any]:
            return {rid: ledger.payload(part)
                    for part, rid in enumerate(ledger.reduce_ids)}

        def reexec(map_id: str) -> dict[str, Any]:
            """Fetch-failure escalation (or a mid-wave host death):
            re-run the completed map; returns the re-pointed payload of
            every reduce task (none when re-publication re-points)."""
            ledger.rerun(map_id)
            forget_checkpoint(map_id)
            return {} if pipeline else reduce_payloads()

        def repair(corrupt_path: str) -> None:
            map_id = ledger.repair(corrupt_path)
            if recovering and map_id in manifest.tasks:
                # Refresh the checkpoint CRCs: the repaired bytes are
                # identical for a healthy filesystem, but the record
                # must reflect what is on disk *now*.
                record = manifest.tasks[map_id]
                record.files = {p: file_crc32(p) for p in record.files
                                if os.path.exists(p)}
                manifest.record_task(record)

        crash_pending = set(ledger.hosts_with("host_crash"))

        def crash_hosts(reason: str) -> None:
            """Fire each pending injected host crash whose homed maps
            have all been published."""
            for host in sorted(crash_pending):
                if all(m in ledger.results for m in ledger.map_ids
                       if monitor.host_for(m) == host):
                    crash_pending.discard(host)
                    for map_id in ledger.lose_host(host, reason):
                        forget_checkpoint(map_id)

        def on_complete(spec, attempt, attempt_dir, result_path, value):
            if recovering:
                self._checkpoint(manifest, spec, attempt, attempt_dir,
                                 result_path, value)
            if not pipeline:
                return
            if spec.kind == "map":
                ledger.publish(spec.task_id, value, attempt=attempt)
                crash_hosts("injected host_crash mid-pipeline")
            elif getattr(value, "pipeline", None):
                stats = value.pipeline
                trace.record(
                    spec.task_id, attempt, "reduce", "pipeline_drain",
                    f"overlapped {stats.get('overlapped_fetches', 0)} "
                    f"fetch(es), waited "
                    f"{stats.get('wait_seconds', 0.0):.3f}s")

        def reduce_specs() -> list[TaskSpec]:
            if recovering:
                # In a barrier run the reduce wave's presence doubles as
                # the manifest's shuffle-barrier marker.
                manifest.record_wave("reduce", list(ledger.reduce_ids))
            return [TaskSpec(rid, "reduce", payload)
                    for rid, payload in reduce_payloads().items()]

        try:
            if pipeline:
                specs = map_specs + reduce_specs()
                with ledger:
                    # Adopted tasks never fire on_complete: publish
                    # their segments up front so pipelined
                    # reducers see them immediately, and fire any crash
                    # whose homed maps were all adopted (or which homes
                    # no maps at all).
                    for map_id in sorted(adopted_maps):
                        ledger.publish(map_id, adopted_maps[map_id],
                                       detail="adopted from checkpoint")
                    crash_hosts("injected host_crash mid-pipeline")
                    reduce_results = scheduler.run_wave(
                        specs, job, dataset, run_dir,
                        repair=repair,
                        precomputed={**adopted_maps, **adopted_reduces},
                        reexec=reexec, on_complete=on_complete,
                        keep_result_files=recovering, pipeline=True,
                        max_repairs=len(ledger.map_ids))
            else:
                wave_kwargs: dict[str, Any] = {}
                if recovering:
                    wave_kwargs = dict(on_complete=on_complete,
                                       keep_result_files=True)
                map_results = scheduler.run_wave(
                    map_specs, job, dataset, run_dir,
                    precomputed=adopted_maps, **wave_kwargs)
                with ledger:
                    for map_id in ledger.map_ids:
                        ledger.publish(map_id, map_results[map_id])
                    crash_hosts("injected host_crash at barrier")
                    # Dataset not needed in reduce workers.
                    reduce_results = scheduler.run_wave(
                        reduce_specs(), job, None, run_dir, repair=repair,
                        precomputed=adopted_reduces, reexec=reexec,
                        max_repairs=len(ledger.map_ids), **wave_kwargs)
        finally:
            self.last_map_reexecs = ledger.map_reexecs
        return assemble_result(job, ledger, reduce_results,
                               scheduler.memory_tally, shuffle=shuffle_cfg,
                               trace=trace)


class LocalJobRunner(ParallelJobRunner):
    """Run :class:`~repro.mapreduce.job.Job` objects serially, in-process.

    :class:`ParallelJobRunner` on one inline slot
    (:class:`~repro.mapreduce.runtime.pool.InlinePool`), with
    ``max_retries=0``, no backoff, no speculation and no deadlines: the
    same wave loop, ladder, ledger and assembler, so output, counters and
    ``result.trace`` match a parallel run's.  A failure no rung absorbs
    raises as itself.  Files live in the workdir itself; a run removes
    what it added there unless it completes with ``keep_files``.

    ``fault_injector`` accepts every data-shaped and host-level fault; a
    plan naming a process fault (``kill`` / ``crash`` / ``hang`` /
    ``stall``) is rejected before any task runs.
    """

    def __init__(self, workdir: str | None = None, keep_files: bool = False,
                 fault_injector: FaultInjector | None = None, *,
                 shuffle: ShuffleConfig | None = None,
                 fetch_failure_threshold: int = 2,
                 max_map_reexecs: int = 2,
                 num_hosts: int = 2,
                 max_host_reexecs: int = 2) -> None:
        super().__init__(
            workdir, keep_files, max_retries=0, retry_backoff=0.0,
            speculation=False, pool=InlinePool(),
            fault_injector=fault_injector, shuffle=shuffle,
            fetch_failure_threshold=fetch_failure_threshold,
            max_map_reexecs=max_map_reexecs, num_hosts=num_hosts,
            max_host_reexecs=max_host_reexecs)

    def run(
        self,
        job: Job,
        dataset: Dataset,
        splits: Sequence[InputSplit] | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``dataset``; returns outputs and metrics."""
        injector = self._scheduler_kwargs["fault_injector"]
        if injector is not None:
            # Validate the whole plan before any work: a process fault
            # aimed at the last reducer must not surface only after
            # every other task has run and written files.
            for task_id, fault in injector.planned():
                if fault.mode in ("kill", "crash", "hang", "stall"):
                    raise ValueError(
                        f"fault mode {fault.mode!r} (planned for {task_id}) "
                        f"is not supported by the serial runner (no worker "
                        f"process to fail)")
        return super().run(job, dataset, splits)

    def _open_run_dir(self) -> str:
        self._preexisting = set(os.listdir(self.workdir))
        return self.workdir

    def _close_run_dir(self, run_dir: str, completed: bool) -> None:
        if not (completed and self.keep_files):
            self._clear_run_dir(run_dir, keep=self._preexisting)
