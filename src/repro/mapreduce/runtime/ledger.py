"""The map-output ledger and the job-result assembler.

Between "a map task finished" and "a reducer fetched its segment" sits
one piece of state: which output each map currently has, at which
*epoch*, served from where, and -- under the pipelined shuffle --
which segments it has published to each partition.  :class:`MapOutputLedger` owns
that state and every transition on it (publish, re-run at a bumped
epoch, in-place repair, whole-host loss) for both runners, which call
it from one wave loop (at the shuffle barrier, or from the
scheduler's ``on_complete`` / ``reexec`` / ``repair`` hooks).
:func:`assemble_result` is the matching single fold of per-task results
into a :class:`~repro.mapreduce.engine.JobResult`.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Callable, Sequence

from repro.mapreduce.engine import JobResult, MapTaskOutput, run_map_task
from repro.mapreduce.ifile import IFileStats
from repro.mapreduce.job import Job
from repro.mapreduce.metrics import C, Counters, TaskProfile
from repro.mapreduce.output import PackedOutput
from repro.mapreduce.runtime.hosts import (
    HostHealthMonitor,
    expand_host_partition,
)
from repro.mapreduce.runtime.netshuffle import ShuffleService
from repro.mapreduce.runtime.pipeline import (
    PipelinePlan,
    aggregate_pipeline_stats,
)
from repro.mapreduce.runtime.shuffle import SegmentRef

__all__ = ["MapOutputLedger", "assemble_result"]


class MapOutputLedger:
    """Every map's current output, epoch, server address and published
    segments.

    Construction snapshots the injector's host-level plan and expands
    ``host_partition`` faults into deterministic per-link fetch ``drop``
    faults (clamped to the transport's retry budget, so every link heals
    in-attempt) *before* the network shuffle service copies the fetch
    plan -- retry counters become pure functions of the plan, identical
    wherever the reducers run.  With ``transport="network"`` the ledger
    owns real loopback segment servers (started and stopped by using it
    as a context manager); with ``pipeline`` it publishes each output's
    segment of every partition onto that partition's ``published``
    list, the completion-event stream pipelined reducers read (see
    :meth:`payload`).

    ``rerun_dir(map_id, epoch)`` names the directory a re-execution
    writes into (the runners give a fresh one per epoch).  ``hosts``
    supplies the stable task->host hash
    and the per-host re-execution budget, and accumulates the job-level
    ``HOSTS_LOST`` / ``MAPS_REEXECUTED_HOST`` accounting.
    """

    def __init__(self, job: Job, dataset: Any, splits: Sequence[Any], *,
                 hosts: HostHealthMonitor,
                 rerun_dir: Callable[[str, int], str],
                 shuffle: Any = None, injector: Any = None,
                 pipeline: bool = False, trace: Any = None) -> None:
        self.job = job
        self.dataset = dataset
        self.hosts = hosts
        self.rerun_dir = rerun_dir
        self.trace = trace
        self._splits = {f"m{s.split_id:05d}": s for s in splits}
        #: producing map ids **in map task order** -- the order that
        #: fixes merge behavior and therefore output bytes
        self.map_ids = tuple(self._splits)
        self.reduce_ids = tuple(f"r{p:05d}" for p in range(job.num_reducers))
        self.results: dict[str, MapTaskOutput] = {}
        #: per-map segment generation; a fetch fault pinned to epoch 0
        #: stops matching the replacement bytes of a re-executed map
        self.epochs = dict.fromkeys(self.map_ids, 0)
        #: completed maps re-executed for fetch failures (``MAPS_REEXECUTED``)
        self.map_reexecs = 0

        self.host_plan = injector.host_plan() if injector is not None else {}
        retries = getattr(shuffle, "fetch_retries", 3)
        for host, fault in sorted(self.host_plan.items()):
            if fault.mode == "host_partition":
                expand_host_partition(
                    injector, host, self.map_ids, self.reduce_ids,
                    hosts.registry.num_hosts,
                    drops=min(max(1, fault.record), retries))
        self.service = None
        if getattr(shuffle, "transport", "") == "network":
            self.service = self._make_service(
                shuffle,
                injector.fetch_plan() if injector is not None else None)
        #: partition -> each segment ref published to it, in publish
        #: order (pipelined shuffle only); a reduce payload's plan holds
        #: its partition's very list
        self.published: defaultdict[int, list[SegmentRef]] | None = (
            defaultdict(list) if pipeline else None)

    def _make_service(self, shuffle: Any, faults: Any) -> ShuffleService:
        return ShuffleService.from_config(shuffle, faults=faults,
                                          trace=self.trace)

    def __enter__(self) -> "MapOutputLedger":
        if self.service is not None:
            self.service.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.service is not None:
            self.service.stop()

    def hosts_with(self, mode: str) -> list[str]:
        """Hosts carrying a planned host-level fault of ``mode``, sorted."""
        return sorted(h for h, f in self.host_plan.items() if f.mode == mode)

    # -------------------------------------------------------------- reading

    def refs(self, part: int) -> list[SegmentRef]:
        """Partition ``part``'s segment of every map, in map task order."""
        return [self._ref(map_id, part) for map_id in self.map_ids]

    def _ref(self, map_id: str, part: int) -> SegmentRef:
        path, stats = self.results[map_id].segments[part]
        return SegmentRef(map_id=map_id, path=path, stats=stats,
                          epoch=self.epochs[map_id],
                          address=self._address(map_id))

    def payload(self, part: int) -> tuple[int, Any]:
        """A reduce task's input: resolved refs, or -- under the
        pipelined shuffle -- a plan holding the partition's live
        ``published`` list."""
        if self.published is not None:
            return part, PipelinePlan(self.map_ids, self.published[part])
        return part, self.refs(part)

    def _address(self, map_id: str) -> tuple[str, int] | None:
        return (self.service.address_for(map_id)
                if self.service is not None else None)

    # ---------------------------------------------------------- transitions

    def publish(self, map_id: str, mo: MapTaskOutput, *, attempt: int = 0,
                detail: str = "") -> None:
        """Record one map's output at its current epoch: the completion
        event.  Registration precedes publication so the address
        reflects a server revived by the registration itself."""
        self.results[map_id] = mo
        epoch = self.epochs[map_id]
        if self.service is not None:
            # In partition order: the service stages in that order.
            self.service.register_map_output(
                map_id, [mo.segments[p][0] for p in sorted(mo.segments)],
                epoch=epoch)
        if self.published is not None:
            for part in mo.segments:
                self.published[part].append(self._ref(map_id, part))
            if self.trace is not None:
                self.trace.record(map_id, attempt, "map", "pipeline_commit",
                                  detail or f"epoch {epoch}")

    def _split_of(self, map_id: str, why: str) -> Any:
        try:
            return self._splits[map_id]
        except KeyError:
            raise RuntimeError(f"{why} matches no map task") from None

    def rerun(self, map_id: str, *, charge: bool = True) -> MapTaskOutput:
        """Re-execute a completed map at a bumped epoch and re-publish.

        Runs inline in the driving process, outside the fault plan, so
        whatever broke the old segments cannot re-break the replacement;
        map tasks are deterministic, so the bytes are identical.  The
        shuffle service drains first (in-flight requests for the doomed
        epoch get a clean STALE_EPOCH transient instead of racing
        half-deleted files) and the re-registration ends the drain at
        the new epoch, re-spawning the hosting server if it died.  Old
        paths the re-run did not overwrite are deleted, so a straggling
        reader fails fast; a pipelined reducer that already consumed the
        old epoch is sent the re-published segment and re-fetches.  ``charge`` feeds ``MAPS_REEXECUTED``;
        host-loss re-runs are charged to the host instead.
        """
        split = self._split_of(map_id, f"fetch failure naming {map_id}")
        if self.service is not None:
            self.service.invalidate(map_id)
        self.epochs[map_id] += 1
        epoch = self.epochs[map_id]
        old = self.results[map_id]
        mo = run_map_task(self.job, split, self.dataset,
                          self.rerun_dir(map_id, epoch))
        fresh = {path for path, _ in mo.segments.values()}
        for path, _ in old.segments.values():
            if path not in fresh:
                try:
                    os.unlink(path)
                except OSError:
                    pass  # e.g. the missing segment that started this
        self.publish(map_id, mo, attempt=epoch,
                     detail=f"republished at epoch {epoch}")
        if charge:
            self.map_reexecs += 1
        return mo

    def repair(self, corrupt_path: str) -> str:
        """Re-generate a corrupt map output segment in place; returns
        the producing map's id.

        Map tasks are deterministic, so re-running the producer into the
        damaged file's own directory recreates every segment at the same
        path with the same bytes -- the waiting reduce retry picks them
        up without re-routing, at the same epoch.  Like :meth:`rerun`
        this runs outside the fault plan, so a repair can never be
        re-corrupted by the fault that broke the segment.
        """
        map_id = os.path.basename(corrupt_path).split("-out-")[0]
        split = self._split_of(map_id, f"corrupt segment {corrupt_path}")
        self.results[map_id] = run_map_task(
            self.job, split, self.dataset, os.path.dirname(corrupt_path))
        if self.trace is not None:
            self.trace.record(map_id, 0, "map", "repaired", corrupt_path)
        return map_id

    def lose_host(self, host: str, reason: str) -> list[str]:
        """A whole host died: its segment server dies with it, and the
        only copies of its completed maps' segments die too, so each is
        re-executed at a bumped epoch before a reducer plans a fetch
        against it -- Hadoop's lost-tasktracker handling.  Bounded by
        the monitor's ``max_host_reexecs`` completed maps per lost host
        (:class:`~repro.mapreduce.runtime.hosts.HostLostError` beyond).
        Returns the re-executed map ids.
        """
        self.hosts.declare_dead(host, reason)
        if self.service is not None:
            index = int(host.removeprefix("host"))
            if index < self.service.num_servers:
                # The fresh registrations below re-spawn it: the
                # re-executed maps "run elsewhere" and re-publish.
                self.service.kill_server(index)
        lost = sorted(m for m in self.results
                      if self.hosts.host_for(m) == host)
        self.hosts.charge_host_reexec(host, len(lost))
        for map_id in lost:
            self.rerun(map_id, charge=False)
        # This death is fully handled; drain exactly it so a scheduler's
        # dead-host sweep neither re-executes the maps a second time nor
        # swallows an organic death queued behind it.
        self.hosts.take_newly_dead(only={host})
        return lost


def assemble_result(job: Job, ledger: MapOutputLedger,
                    reduce_results: dict[str, Any],
                    memory_tally: dict[str, Any], *,
                    shuffle: Any = None, trace: Any = None) -> JobResult:
    """Fold per-task results into a :class:`JobResult`: map counters and
    profiles in split order, then reduces in partition order.

    Counter merging is a commutative monoid, so the fold is the same
    whichever order the tasks *finished* in -- including tasks adopted
    from a checkpoint, whose counters ride inside their pickled results
    -- and one assembler serves every runner and both shuffle shapes,
    which is what makes their byte-identity structural.  The outputs
    concatenate by chunk: a packed chunk's arrays are shared, not
    copied.
    """
    counters = Counters()
    profiles: list[TaskProfile] = []
    map_stats = IFileStats()
    output = PackedOutput()
    for map_id in ledger.map_ids:
        mo = ledger.results[map_id]
        counters.merge(mo.counters)
        profiles.append(mo.profile)
        for _, stats in mo.segments.values():
            map_stats.merge(stats)
    reduces = [reduce_results[rid] for rid in ledger.reduce_ids]
    for rr in reduces:
        output.extend(rr.output)
        counters.merge(rr.counters)
        profiles.append(rr.profile)
    if trace is not None:
        for profile in profiles:
            trace.set_profile(profile.task_id, profile)

    # Recovery events are job-level: the winning task counters stay
    # identical to a fault-free run by determinism, and each tally is a
    # pure function of the fault plan, so every runner counts the same.
    if ledger.map_reexecs:
        counters.incr(C.MAPS_REEXECUTED, ledger.map_reexecs)
    if ledger.hosts.hosts_lost:
        counters.incr(C.HOSTS_LOST, ledger.hosts.hosts_lost)
    if ledger.hosts.maps_reexecuted_host:
        counters.incr(C.MAPS_REEXECUTED_HOST,
                      ledger.hosts.maps_reexecuted_host)
    disk_hosts = ledger.hosts_with("disk_fault")
    if disk_hosts:
        # One failover per task homed on a disk-faulted host -- from
        # the plan, without plumbing per-attempt failover flags.
        affected = sum(1 for t in ledger.map_ids + ledger.reduce_ids
                       if ledger.hosts.host_for(t) in disk_hosts)
        if affected:
            counters.incr(C.DISK_FAILOVERS, affected)
    if memory_tally["oom_events"]:
        # Clean runs leave these zero (== absent).
        counters.incr(C.MEMORY_OOM_EVENTS, memory_tally["oom_events"])
        counters.incr(C.MEMORY_DEGRADED_ATTEMPTS,
                      memory_tally["degraded_attempts"])
    memory_stats = None
    if memory_tally["used_budget"]:
        # Peaks are telemetry: outside ``counters``.
        memory_stats = {
            "budget": getattr(shuffle, "memory_budget", None),
            "peak_bytes": memory_tally["peak_bytes"],
            "oom_events": memory_tally["oom_events"],
            "degraded_attempts": memory_tally["degraded_attempts"],
        }
    return JobResult(
        output=output,
        counters=counters,
        task_profiles=profiles,
        map_output_stats=map_stats,
        num_map_tasks=len(ledger.map_ids),
        num_reduce_tasks=job.num_reducers,
        trace=trace,
        pipeline_stats=aggregate_pipeline_stats(
            [getattr(rr, "pipeline", None) for rr in reduces]),
        memory_stats=memory_stats,
    )
