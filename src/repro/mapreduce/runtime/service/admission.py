"""Admission control: overload is a structured *no*, never a silent drop.

Every submission is priced before it is accepted: the spec's analytic
:class:`~repro.mapreduce.runtime.costmodel.WorkloadSummary` runs
through the fitted :class:`~repro.mapreduce.runtime.costmodel.
CostModel` (refitted from the most recent completed job's task
profiles; the spec-bandwidth fallback prices the very first job, so
admission never needs a warm-up pass).  The controller then enforces
four budgets, cheapest check first:

* **global queue bound** -- total queued jobs across tenants;
* **per-tenant queue bound** -- one tenant cannot own the whole queue;
* **per-job cost cap** -- a single job predicted to exceed the cap is
  rejected outright (413-style: resubmitting it unchanged can never
  succeed, so ``retry_after`` is null);
* **outstanding-cost cap** -- the predicted seconds of everything
  admitted-but-unfinished; beyond it the cluster is over-committed and
  new work is shed (429-style, with a ``retry_after`` hint derived
  from the backlog).

A rejection raises :class:`AdmissionRejected` carrying a JSON-ready
payload (code, HTTP status, message, retry hint); the REST layer
returns it verbatim.  Acceptance charges the ledger; completion (or
cancellation) credits it back.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro import settings

__all__ = ["AdmissionConfig", "AdmissionController", "AdmissionRejected"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Budgets the controller enforces (service-config supplied)."""

    max_queued: int = settings.default("REPRO_SERVICE_MAX_QUEUE")
    max_queued_per_tenant: int = settings.default(
        "REPRO_SERVICE_TENANT_QUEUE")
    #: predicted seconds above which a single job is unservable
    max_job_seconds: float = settings.default(
        "REPRO_SERVICE_MAX_JOB_SECONDS")
    #: predicted seconds of admitted-but-unfinished work
    max_outstanding_seconds: float = settings.default(
        "REPRO_SERVICE_MAX_OUTSTANDING_SECONDS")
    #: priced peak bytes of admitted-but-unfinished work; ``None``
    #: disables the memory budget (pre-memory-model behavior)
    max_outstanding_memory_bytes: int | None = settings.default(
        "REPRO_SERVICE_MAX_MEMORY")

    def __post_init__(self) -> None:
        settings.check_fields(self)


class AdmissionRejected(RuntimeError):
    """A submission the service explicitly refused.

    ``payload`` is the structured error the REST layer serializes:
    ``code`` names the budget that fired, ``http_status`` follows the
    429/413/400 convention, ``retry_after`` is seconds (or ``None``
    when retrying the same submission cannot help).
    """

    def __init__(self, code: str, http_status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.payload: dict[str, Any] = {
            "error": code,
            "http_status": http_status,
            "message": message,
            "retry_after": retry_after,
        }

    @property
    def http_status(self) -> int:
        return int(self.payload["http_status"])


class AdmissionController:
    """Bounded-queue, cost-capped gate in front of the fair scheduler."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        #: predicted seconds per admitted-but-unfinished job
        self._outstanding: dict[str, float] = {}
        #: priced peak bytes per admitted-but-unfinished job
        self._outstanding_memory: dict[str, int] = {}

    # ------------------------------------------------------------------ gate

    def admit(self, tenant: str, predicted_seconds: float,
              queued_total: int, queued_tenant: int,
              predicted_memory_bytes: int = 0) -> None:
        """Raise :class:`AdmissionRejected` unless every budget holds.

        ``queued_total``/``queued_tenant`` are the scheduler's current
        queue depths; the cost ledger is the controller's own.  Order
        matters: queue bounds are load shedding (retryable), the
        per-job cap is a property of the job itself (not retryable).
        """
        cfg = self.config
        if predicted_seconds > cfg.max_job_seconds:
            raise AdmissionRejected(
                "JOB_TOO_LARGE", 413,
                f"job predicted at {predicted_seconds:.1f}s exceeds the "
                f"per-job cap of {cfg.max_job_seconds:.1f}s; shrink the "
                f"workload or raise REPRO_SERVICE_MAX_JOB_SECONDS",
                retry_after=None)
        if queued_total >= cfg.max_queued:
            raise AdmissionRejected(
                "OVERLOADED", 429,
                f"queue full ({queued_total}/{cfg.max_queued} jobs)",
                retry_after=self._retry_hint())
        if queued_tenant >= cfg.max_queued_per_tenant:
            raise AdmissionRejected(
                "TENANT_OVERLOADED", 429,
                f"tenant {tenant!r} queue full "
                f"({queued_tenant}/{cfg.max_queued_per_tenant} jobs)",
                retry_after=self._retry_hint())
        with self._lock:
            outstanding = sum(self._outstanding.values())
            if outstanding + predicted_seconds > cfg.max_outstanding_seconds:
                raise AdmissionRejected(
                    "OVERCOMMITTED", 429,
                    f"admitting {predicted_seconds:.1f}s would take "
                    f"outstanding predicted work to "
                    f"{outstanding + predicted_seconds:.1f}s "
                    f"(cap {cfg.max_outstanding_seconds:.1f}s)",
                    retry_after=self._retry_hint_locked())
            cap = cfg.max_outstanding_memory_bytes
            if cap is not None:
                mem = sum(self._outstanding_memory.values())
                if mem + predicted_memory_bytes > cap:
                    raise AdmissionRejected(
                        "OVERCOMMITTED_MEMORY", 429,
                        f"admitting a job priced at "
                        f"{predicted_memory_bytes} peak bytes would take "
                        f"outstanding priced memory to "
                        f"{mem + predicted_memory_bytes} bytes "
                        f"(cap {cap}); the machine is memory-bound, not "
                        f"slot-bound",
                        retry_after=self._retry_hint_locked())

    # ---------------------------------------------------------------- ledger

    def charge(self, job_id: str, predicted_seconds: float,
               predicted_memory_bytes: int = 0) -> None:
        with self._lock:
            self._outstanding[job_id] = max(0.0, predicted_seconds)
            if predicted_memory_bytes > 0:
                self._outstanding_memory[job_id] = predicted_memory_bytes

    def credit(self, job_id: str) -> None:
        """Finished, failed, or cancelled: its cost no longer counts."""
        with self._lock:
            self._outstanding.pop(job_id, None)
            self._outstanding_memory.pop(job_id, None)

    def outstanding_seconds(self) -> float:
        with self._lock:
            return sum(self._outstanding.values())

    def outstanding_memory_bytes(self) -> int:
        with self._lock:
            return sum(self._outstanding_memory.values())

    # ----------------------------------------------------------------- hints

    def _retry_hint(self) -> float:
        with self._lock:
            return self._retry_hint_locked()

    def _retry_hint_locked(self) -> float:
        """Crude but honest: if the backlog drained perfectly, when
        would capacity plausibly open?  Floored so clients never
        hot-retry a loaded service."""
        outstanding = sum(self._outstanding.values())
        jobs = max(1, len(self._outstanding))
        return max(1.0, outstanding / jobs / 2.0)
