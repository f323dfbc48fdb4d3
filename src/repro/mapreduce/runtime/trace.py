"""Per-task timeline events and measured profiles of one parallel run.

Every scheduling decision the runtime makes -- queueing, launching,
finishing, retrying, speculating, killing a loser -- is recorded as a
:class:`TaskEvent` in a :class:`RuntimeTrace`.  The trace doubles as the
bridge to the cluster simulator: :meth:`RuntimeTrace.task_profiles`
returns the winning attempts' :class:`~repro.mapreduce.metrics.
TaskProfile` objects in task order, directly consumable by
:meth:`~repro.mapreduce.simcluster.model.ClusterSimulator.simulate` --
so a *measured* parallel execution can be re-priced onto a described
cluster exactly like a serial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.mapreduce.metrics import TaskProfile

__all__ = ["TaskEvent", "RuntimeTrace"]

#: event vocabulary, in rough lifecycle order
EVENT_KINDS = (
    "queued",      # task admitted to the wave
    "started",     # an attempt's worker process launched
    "finished",    # an attempt produced the winning result
    "failed",      # an attempt died or returned an error
    "retried",     # a fresh attempt was queued after a failure
    "speculated",  # a duplicate attempt launched for a straggler
    "killed",      # a still-running rival attempt was terminated
    "discarded",   # a losing attempt's output was thrown away
    "repaired",    # a corrupt map segment was re-generated in place
    "timeout",     # an attempt was killed for deadline/heartbeat breach
    "adopted",     # a checkpointed result was validated and reused
    "skipping",    # an attempt launched in record-skipping mode
    "quarantined", # a winning attempt skipped records into quarantine
    "fetch_failure",  # a reduce attempt could not fetch a map segment
    "map_reexec",  # a completed map task was re-executed after its
                   # segments exceeded the fetch-failure threshold
    "wire_served", # a network shuffle server streamed one segment
    "wire_stale",  # a network shuffle server rejected an epoch-stale
                   # (or draining) segment request
    "host_suspect",     # a host missed enough heartbeats to be suspect
    "host_dead",        # a host was declared dead (its segments are gone)
    "host_blacklisted", # a host was benched after repeated task failures
    "host_reinstated",  # a blacklisted host finished probation cleanly
    "disk_failover",    # a task's workdir failed and spilled to a spare
    "manifest_corrupt", # a resume checkpoint failed CRC/parse validation
    "pipeline_commit",  # a map's segments were published to reducers
                        # (pipelined shuffle's completion-event stream)
    "pipeline_starved", # a pipelined reducer named missing producers and
                        # the scheduler speculated the stragglers
    "pipeline_drain",   # a pipelined reducer's pending-set drained (its
                        # detail carries the overlap stats)
    "oom_degraded",     # an attempt died by OOM and was requeued with
                        # deterministically halved memory knobs
    "memory_peak",      # a winning attempt's ledger peak (detail:
                        # "<peak>/<budget>"), for budget assertions
)


@dataclass(frozen=True)
class TaskEvent:
    """One point on the runtime timeline."""

    task_id: str
    attempt: int
    kind: str       # "map" or "reduce"
    event: str      # one of EVENT_KINDS
    timestamp: float  # seconds since the trace was created
    detail: str = ""


class RuntimeTrace:
    """Ordered event log plus the winning profile per task."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self.events: list[TaskEvent] = []
        self._profiles: dict[str, TaskProfile] = {}

    # ------------------------------------------------------------ recording

    def record(self, task_id: str, attempt: int, kind: str, event: str,
               detail: str = "") -> None:
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown event {event!r}")
        self.events.append(TaskEvent(
            task_id=task_id,
            attempt=attempt,
            kind=kind,
            event=event,
            timestamp=time.monotonic() - self._t0,
            detail=detail,
        ))

    def set_profile(self, task_id: str, profile: TaskProfile) -> None:
        """Install the winning attempt's measured profile for a task."""
        self._profiles[task_id] = profile

    # ------------------------------------------------------------ queries

    def events_for(self, task_id: str) -> list[TaskEvent]:
        return [e for e in self.events if e.task_id == task_id]

    def count(self, event: str) -> int:
        """How many times ``event`` occurred across all tasks."""
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown event {event!r}")
        return sum(1 for e in self.events if e.event == event)

    def attempts(self, task_id: str) -> int:
        """Number of distinct attempts launched for ``task_id``."""
        return len({e.attempt for e in self.events_for(task_id)
                    if e.event in ("started", "speculated")})

    def diagnose(self, task_ids: Sequence[str]) -> str:
        """One line per task: its last recorded event, for error reports.

        This is what a wave-deadline :class:`~repro.mapreduce.runtime.
        scheduler.TaskFailedError` carries, so "the job timed out" always
        names *which* tasks were stuck and what they were last seen doing.
        """
        lines = []
        for tid in task_ids:
            events = self.events_for(tid)
            if not events:
                lines.append(f"{tid}: never scheduled")
                continue
            last = events[-1]
            detail = f" [{last.detail}]" if last.detail else ""
            lines.append(
                f"{tid}: attempt {last.attempt} {last.event} "
                f"at {last.timestamp:.3f}s{detail}")
        return "\n".join(lines)

    def task_profiles(self, kind: str | None = None) -> list[TaskProfile]:
        """Winning profiles in task-id order (maps sort before reduces).

        The returned list is what the cluster simulator consumes:
        ``ClusterSimulator().simulate(trace.task_profiles())``.
        """
        profiles = [self._profiles[t] for t in sorted(self._profiles)]
        if kind is not None:
            profiles = [p for p in profiles if p.kind == kind]
        return profiles

    @property
    def wall_clock(self) -> float:
        """Seconds from trace start to the last recorded event."""
        return max((e.timestamp for e in self.events), default=0.0)

    def task_wall_clock(self, task_id: str) -> float:
        """First-start to winning-finish span of one task."""
        events = self.events_for(task_id)
        starts = [e.timestamp for e in events if e.event == "started"]
        ends = [e.timestamp for e in events if e.event == "finished"]
        if not starts or not ends:
            return 0.0
        return max(ends) - min(starts)

    def format_timeline(self) -> str:
        """Human-readable event log (debugging / bench reports)."""
        lines = []
        for e in self.events:
            detail = f"  [{e.detail}]" if e.detail else ""
            lines.append(
                f"{e.timestamp:9.4f}s  {e.task_id}.{e.attempt:<2d} "
                f"{e.event:<10s}{detail}"
            )
        return "\n".join(lines)
