"""The job daemon: warm pool, fair scheduler, crash-safe execution.

:class:`JobService` ties the service layers together around the one
ownership inversion this package exists for: the **service** owns the
:class:`~repro.mapreduce.runtime.pool.WorkerPool` (slots stay warm
across jobs; per-tenant quotas cap concurrent tasks), and every
:class:`~repro.mapreduce.runtime.runner.ParallelJobRunner` it starts
*borrows* capacity from it.

Lifecycle of one submission::

    submit(spec) -> price (cost model) -> admit (budgets) ->
    registry.create (durable accept) -> DRR queue ->
    executor thread -> RUNNING -> runner (shared pool, per-job
    recovery manifest) -> result.pkl committed -> DONE

Crash safety is delegated downward on purpose: acceptance durability
is the registry's spec commit, execution durability is the runner's
recovery manifest, result durability is the CRC-enveloped result file
committed *before* the DONE transition.  The daemon itself keeps no
state worth saving -- ``recover()`` rebuilds the queue and the cost
ledger from the registry alone, which is why ``kill -9`` on the
daemon loses nothing.

Cost-model pricing starts from the spec-bandwidth fallback (no
profiles) and is refitted from the most recent completed job's task
profiles, so admission predictions sharpen as the service runs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any

from repro import settings
from repro.mapreduce.metrics import TaskProfile
from repro.mapreduce.runtime.costmodel import CostModel, estimate_peak_memory
from repro.mapreduce.runtime.pool import WorkerPool
from repro.mapreduce.runtime.scheduler import JobCancelledError
from repro.mapreduce.runtime.service.admission import (
    AdmissionConfig,
    AdmissionController,
)
from repro.mapreduce.runtime.service.fairshare import DeficitScheduler
from repro.mapreduce.runtime.service.registry import JobRecord, JobRegistry
from repro.mapreduce.runtime.service.workloads import (
    JobSpec,
    build_injector,
    build_workload,
    estimate_workload,
)

__all__ = ["ServiceConfig", "JobService"]


@dataclass
class ServiceConfig:
    """Everything the daemon needs, resolvable from REPRO_SERVICE_*."""

    root: str
    max_workers: int | None = settings.default("REPRO_SERVICE_WORKERS")
    #: concurrently *executing* jobs (each borrows pool slots)
    executors: int = settings.default("REPRO_SERVICE_EXECUTORS")
    #: tenant -> (DRR weight, concurrent-task quota, memory quota|None)
    tenants: dict[str, tuple[float, int, int | None]] = field(
        default_factory=dict)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    quantum_seconds: float = settings.default("REPRO_SERVICE_QUANTUM")
    #: extra ParallelJobRunner keywords applied to every job
    runner_kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        settings.check_fields(self)
        for tenant, entry in self.tenants.items():
            if not isinstance(entry, (tuple, list)) or len(entry) != 3:
                raise ValueError(
                    f"tenant {tenant!r}: expected (weight, quota, "
                    f"memory_quota_or_None), got {entry!r}")

    @classmethod
    def from_env(cls, root: str) -> "ServiceConfig":
        """Resolve the ``REPRO_SERVICE_*`` knobs (:mod:`repro.settings`);
        a malformed or out-of-range value raises
        :class:`~repro.settings.ConfigError` naming the variable."""
        return cls(root=root,
                   admission=AdmissionConfig(
                       **settings.read_fields(AdmissionConfig)),
                   **settings.read_fields(cls))


class JobService:
    """The daemon's engine; the REST layer is a thin shim over this."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        os.makedirs(config.root, exist_ok=True)
        self.registry = JobRegistry(config.root)
        self.pool = WorkerPool(max_workers=config.max_workers)
        self.admission = AdmissionController(config.admission)
        self.scheduler = DeficitScheduler(
            quantum_seconds=config.quantum_seconds)
        for tenant, (weight, quota, mem) in config.tenants.items():
            self.scheduler.set_weight(tenant, weight)
            self.pool.set_quota(tenant, quota)
            if mem is not None:
                self.pool.set_memory_quota(tenant, mem)
        self._cond = threading.Condition()
        #: job_id -> (priced peak bytes, tenant) for the pool ledger
        self._job_memory: dict[str, tuple[int, str]] = {}
        self._memory_lock = threading.Lock()
        self._stopping = False
        self._threads: list[threading.Thread] = []
        #: per-job cooperative cancellation
        self._cancel: dict[str, threading.Event] = {}
        self._cancel_lock = threading.Lock()
        #: most recent completed job's profiles, for cost-model refits
        self._fit_profiles: list[TaskProfile] = []
        self._fit_lock = threading.Lock()

    # -------------------------------------------------------------- lifecycle

    def start(self) -> int:
        """Recover the durable backlog, then start the executor pool.

        Returns the number of jobs recovered from a previous daemon.
        """
        recovered = self.recover()
        for i in range(max(1, self.config.executors)):
            thread = threading.Thread(target=self._executor_loop,
                                      name=f"job-executor-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return recovered

    def recover(self) -> int:
        """Re-enqueue every accepted-but-unfinished job from disk.

        QUEUED jobs simply re-queue; RUNNING jobs (the daemon died
        mid-flight) re-queue with their recovery manifests intact, so
        the runner adopts completed tasks instead of redoing them.
        Re-pricing from the spec rebuilds the admission ledger the
        crash erased.
        """
        recovered = 0
        for record in self.registry.resumable():
            spec = record.load_spec()
            if spec is None:  # pragma: no cover - load_all filtered these
                continue
            state, _ = record.state()
            predicted = self.price(spec)
            mem = self.price_memory(spec)
            self.admission.charge(record.job_id, predicted,
                                  predicted_memory_bytes=mem)
            # Forced: a durably accepted job must never be re-rejected
            # by its own tenant quota on restart.
            self.pool.memory.charge(mem, site="jobs", owner=spec.tenant,
                                    force=True)
            with self._memory_lock:
                self._job_memory[record.job_id] = (mem, spec.tenant)
            if state == "RUNNING":
                record.append_event(
                    "recovered", "daemon restarted mid-run; job re-queued "
                    "to resume from its manifest")
                record.set_state("QUEUED", "re-queued after daemon restart")
            self.scheduler.push(spec.tenant, record.job_id, predicted)
            recovered += 1
        if recovered:
            with self._cond:
                self._cond.notify_all()
        return recovered

    def shutdown(self) -> None:
        """Graceful stop: interrupt running jobs, keep them resumable.

        Running jobs get their cancel events set and raise
        :class:`JobCancelledError`; because the stop flag is up they
        are left in RUNNING state -- the next daemon start resumes
        them from their manifests rather than treating them as
        user-cancelled.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        with self._cancel_lock:
            for event in self._cancel.values():
                event.set()
        for thread in self._threads:
            thread.join(timeout=30)

    @property
    def stopping(self) -> bool:
        return self._stopping

    # ------------------------------------------------------------ operations

    def price(self, spec: JobSpec) -> float:
        """Predicted wall-clock seconds for a spec, pre-execution."""
        with self._fit_lock:
            profiles = list(self._fit_profiles)
        model = CostModel.fit(profiles, estimate_workload(spec))
        return model.predict().total_seconds

    def price_memory(self, spec: JobSpec) -> int:
        """Predicted peak resident bytes for a spec, pre-execution."""
        return estimate_peak_memory(
            estimate_workload(spec),
            num_workers=self.pool.max_workers)

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Price, admit, durably accept, and enqueue one submission.

        Raises :class:`~repro.mapreduce.runtime.service.admission.
        AdmissionRejected` with a structured payload on overload; a
        non-exceptional return means the job is accepted durably.
        """
        if self._stopping:
            from repro.mapreduce.runtime.service.admission import (
                AdmissionRejected,
            )
            raise AdmissionRejected("SHUTTING_DOWN", 503,
                                    "service is shutting down",
                                    retry_after=5.0)
        predicted = self.price(spec)
        mem = self.price_memory(spec)
        self.admission.admit(
            spec.tenant, predicted,
            queued_total=self.scheduler.queued_total(),
            queued_tenant=self.scheduler.queued_for(spec.tenant),
            predicted_memory_bytes=mem)
        # Tenant memory quota: charged before the durable accept so a
        # rejection leaves no registry record behind.
        if not self.pool.memory.try_charge(mem, site="jobs",
                                           owner=spec.tenant):
            from repro.mapreduce.runtime.service.admission import (
                AdmissionRejected,
            )
            raise AdmissionRejected(
                "OVERCOMMITTED_MEMORY", 429,
                f"tenant {spec.tenant!r} memory quota cannot absorb a job "
                f"priced at {mem} peak bytes "
                f"({self.pool.memory.owner_used(spec.tenant)} outstanding)",
                retry_after=5.0)
        try:
            record = self.registry.create(spec)
        except BaseException:
            self.pool.memory.release(mem, site="jobs", owner=spec.tenant)
            raise
        with self._memory_lock:
            self._job_memory[record.job_id] = (mem, spec.tenant)
        self.admission.charge(record.job_id, predicted,
                              predicted_memory_bytes=mem)
        self.scheduler.push(spec.tenant, record.job_id, predicted)
        with self._cond:
            self._cond.notify()
        return {"job_id": record.job_id, "state": "QUEUED",
                "predicted_seconds": predicted,
                "predicted_memory_bytes": mem}

    def status(self, job_id: str) -> dict[str, Any] | None:
        record = self.registry.get(job_id)
        return record.summary() if record is not None else None

    def jobs(self) -> list[dict[str, Any]]:
        return [r.summary() for r in self.registry.load_all()]

    def cancel(self, job_id: str) -> dict[str, Any] | None:
        """Cancel a queued or running job; no-op for finished ones."""
        record = self.registry.get(job_id)
        if record is None:
            return None
        state, _ = record.state()
        if state == "QUEUED" and self.scheduler.remove(job_id):
            self._credit(job_id)
            record.set_state("CANCELLED", "cancelled while queued")
        elif state in ("QUEUED", "RUNNING"):
            # Queued-but-claimed (an executor popped it) or running:
            # the executor observes the event and finalizes the state.
            self._cancel_event(job_id).set()
        return record.summary()

    def stats(self) -> dict[str, Any]:
        return {
            "pool": self.pool.stats(),
            "queued": self.scheduler.queued_total(),
            "outstanding_seconds": self.admission.outstanding_seconds(),
            "outstanding_memory_bytes":
                self.admission.outstanding_memory_bytes(),
            "memory_cap_bytes":
                self.config.admission.max_outstanding_memory_bytes,
            "stopping": self._stopping,
        }

    # -------------------------------------------------------------- execution

    def _credit(self, job_id: str) -> None:
        """Return a finished job's cost *and* priced memory.

        Called before the job's terminal state is written, so a client
        that reads DONE, FAILED or CANCELLED never finds the job still
        counted as outstanding."""
        self.admission.credit(job_id)
        with self._memory_lock:
            entry = self._job_memory.pop(job_id, None)
        if entry is not None:
            mem, tenant = entry
            self.pool.memory.release(mem, site="jobs", owner=tenant)

    def _cancel_event(self, job_id: str) -> threading.Event:
        with self._cancel_lock:
            return self._cancel.setdefault(job_id, threading.Event())

    def _executor_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping:
                    job_id = self.scheduler.pop()
                    if job_id is not None:
                        break
                    self._cond.wait(timeout=0.5)
                else:
                    return
            record = self.registry.get(job_id)
            if record is not None:
                self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        from repro.mapreduce.runtime.runner import ParallelJobRunner

        job_id = record.job_id
        spec = record.load_spec()
        cancel_event = self._cancel_event(job_id)
        if spec is None:  # pragma: no cover - accepted jobs have specs
            self._credit(job_id)
            record.set_state("FAILED", "spec unreadable at execution time")
            return
        if cancel_event.is_set():
            self._credit(job_id)
            record.set_state("CANCELLED", "cancelled before start")
            return
        record.set_state("RUNNING", f"executing for tenant {spec.tenant}")
        runner_kwargs = dict(self.config.runner_kwargs)
        if spec.memory_budget is not None:
            # A per-spec memory budget overrides the service-wide
            # shuffle config (or a default one) for this job only.
            from repro.mapreduce.runtime.shuffle import ShuffleConfig

            base = runner_kwargs.get("shuffle") or ShuffleConfig()
            runner_kwargs["shuffle"] = dc_replace(
                base, memory_budget=spec.memory_budget)
        try:
            job, dataset = build_workload(spec)
            runner = ParallelJobRunner(
                workdir=os.path.join(record.dir, "work"),
                recovery_dir=record.recovery_dir,
                resume=True,
                pool=self.pool,
                tenant=spec.tenant,
                cancel_event=cancel_event,
                fault_injector=build_injector(spec),
                **runner_kwargs,
            )
            result = runner.run(job, dataset)
        except JobCancelledError:
            if self._stopping:
                # Shutdown interrupt: stay RUNNING so the next daemon
                # start resumes from the manifest.
                record.append_event(
                    "interrupted",
                    "daemon shutdown; resumable from manifest")
            else:
                self._credit(job_id)
                record.set_state("CANCELLED", "cancelled while running")
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            # One tenant's failure must never take the daemon down.
            self._credit(job_id)
            record.set_state("FAILED", f"{type(exc).__name__}: {exc}")
            return
        # Result durability, the ledger credit and the profiles the next
        # price() refits from all precede the DONE claim.
        record.save_result(result.output, result.counters)
        self._credit(job_id)
        with self._fit_lock:
            self._fit_profiles = list(result.task_profiles)
        record.set_state("DONE",
                         f"{len(result.output)} output record(s)")
        with self._cancel_lock:
            self._cancel.pop(job_id, None)
