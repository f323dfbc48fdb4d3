"""Pipelined shuffle: reducers start while late maps are still running.

The classic runners split every job at a hard shuffle barrier -- no
reduce attempt launches until the *last* map commits, so one straggling
map idles the entire reduce side.  Segment epochs and the
:class:`~repro.mapreduce.runtime.shuffle.ShuffleFetcher` already make
each completed map's output individually addressable and safely
re-fetchable, so the barrier is pure scheduling conservatism.  This
module removes it:

* each completed map publishes a :class:`CommitRecord` (segment paths +
  stats, epoch, optional segment-server address) into a shared
  :class:`CommitLog` directory -- the completion-event stream reducers
  poll;
* a reduce attempt launched *alongside* the maps receives a
  :class:`PipelinePlan` instead of resolved segment refs and runs
  :func:`run_reduce_task_pipelined`: it fetches and decodes each
  partition segment as its producing map commits (partial-availability
  fetch over a pending-set), re-fetching at the new epoch when a
  producer is re-executed mid-pipeline;
* once the pending-set drains, the decoded runs are merged, grouped
  and reduced by :func:`~repro.mapreduce.engine._merge_group_reduce`,
  the tail the barrier path runs over the same runs in the same order
  -- so the merged stream, the output, and every task counter are
  **byte-identical** to the barrier path (and therefore to the serial
  runner).

A reducer that has fetched everything committed so far but still has
maps pending writes a ``_starved`` marker naming the missing producers;
the scheduler turns that into *progress-triggered speculation* of the
stragglers, instead of waiting for wave deadlines.

What overlaps the map tail is fetch + decode, not the merge.  Folding
each arrival into a prefix merge would re-merge the whole prefix every
time (2 + 3 + ... + n run-units against n for one merge at drain): the
last fold alone would cost a full merge, so the drain would get no
shorter.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.mapreduce.codecs import get_codec
from repro.mapreduce.engine import (
    ReduceTaskResult,
    _merge_group_reduce,
    _read_run,
)
from repro.mapreduce.ifile import IFileReader, IFileStats
from repro.mapreduce.job import Job
from repro.mapreduce.metrics import C, Counters, TaskProfile
from repro.mapreduce.runtime.shuffle import (
    SegmentRef,
    ShuffleConfig,
    ShuffleFetcher,
)
from repro.mapreduce.sort import Run, run_rows
from repro.util.fsio import atomic_write_bytes
from repro.util.timing import CostClock

__all__ = [
    "COMMITS_DIRNAME",
    "STARVED_NAME",
    "CommitRecord",
    "CommitLog",
    "PipelinePlan",
    "aggregate_pipeline_stats",
    "drain_refs",
    "run_reduce_task_pipelined",
]

#: commit-log directory name inside a run's workdir
COMMITS_DIRNAME = "_commits"
#: marker a starved reducer writes into its own workdir (JSON naming the
#: missing producers), the scheduler's cue to speculate map stragglers
STARVED_NAME = "_starved"


@dataclass(frozen=True)
class CommitRecord:
    """One completed map's published output: the completion event."""

    map_id: str
    #: segment generation; bumped every time the producer re-executes
    #: (fetch-failure escalation or host loss), so a mid-pipeline reader
    #: can tell a re-published record from the one it already consumed
    epoch: int
    #: partition -> ``(path, stats)`` for every reducer partition
    segments: dict[int, tuple[str, IFileStats]] = field(default_factory=dict)
    #: ``(host, port)`` of the segment server holding these segments
    #: (network transport only)
    address: tuple[str, int] | None = None


class CommitLog:
    """Crash-safe completion-event stream over a shared directory.

    Writers (the runner, as each map commits) pickle one
    :class:`CommitRecord` per map into ``<dir>/<map_id>.commit`` via an
    atomic replace -- readers see the old record or the new one, never a
    torn write.  Readers poll with :meth:`poll`; records are re-read
    only when their stat signature changes (an epoch bump rewrites the
    file onto a new inode), so steady-state polling is one ``listdir``
    plus ``stat`` calls, not repeated unpickling.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._cache: dict[str, tuple[tuple[int, int, int], CommitRecord]] = {}

    def commit(self, record: CommitRecord) -> None:
        """Publish (or re-publish, at a bumped epoch) one map's record."""
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"{record.map_id}.commit")
        atomic_write_bytes(path, pickle.dumps(record))

    def poll(self) -> dict[str, CommitRecord]:
        """Every currently-published record, keyed by map id.

        Tolerant of races with writers: a record mid-replace, a missing
        directory, or a torn read simply leaves that map absent until
        the next poll.
        """
        out: dict[str, CommitRecord] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return out
        for name in names:
            if not name.endswith(".commit"):
                continue
            path = os.path.join(self.directory, name)
            try:
                st = os.stat(path)
                sig = (st.st_ino, st.st_mtime_ns, st.st_size)
                cached = self._cache.get(name)
                if cached is not None and cached[0] == sig:
                    record = cached[1]
                else:
                    with open(path, "rb") as fh:
                        record = pickle.loads(fh.read())
                    if not isinstance(record, CommitRecord):
                        # Bytes that unpickle to garbage are as torn as
                        # bytes that do not unpickle at all.
                        raise pickle.UnpicklingError(
                            f"not a CommitRecord: {type(record).__name__}")
                    self._cache[name] = (sig, record)
            except OSError:
                continue
            except Exception:
                # A torn or partial record -- a writer that died
                # mid-write without the atomic-replace discipline, a
                # truncated tail after a host crash -- can fail
                # unpickling with nearly any exception type
                # (EOFError, UnpicklingError, AttributeError, ...).
                # Skip it; nothing is cached for it, so the next poll
                # re-reads and picks it up once a complete record lands.
                continue
            out[record.map_id] = record
        return out


@dataclass(frozen=True)
class PipelinePlan:
    """What a pipelined reduce attempt needs instead of resolved refs:
    where the completion events land and which producers to wait for.
    Picklable, so it rides to workers exactly like a segment list."""

    commit_dir: str
    #: every producing map id, **in map task order** -- the order that
    #: fixes merge behavior and therefore output bytes
    map_ids: tuple[str, ...]
    #: seconds between commit-log polls when no fetch work is available
    poll_interval: float = 0.02


def aggregate_pipeline_stats(per_task: list[dict]) -> dict | None:
    """Job-level rollup of the per-reduce ``pipeline`` stat dicts.

    Lives on ``JobResult.pipeline_stats`` -- never in ``Counters`` --
    because these numbers are wall-clock-shaped and would break the
    byte-identity contract between pipeline on/off runs.
    """
    stats = [p for p in per_task if p]
    if not stats:
        return None
    firsts = [p["first_fetch_ms"] for p in stats
              if p.get("first_fetch_ms") is not None]
    return {
        C.REDUCE_FIRST_FETCH_MS: round(min(firsts), 3) if firsts else None,
        C.PIPELINE_OVERLAP: sum(p.get("overlapped_fetches", 0)
                                for p in stats),
        "refetches": sum(p.get("refetches", 0) for p in stats),
        "wait_seconds": round(sum(p.get("wait_seconds", 0.0)
                                  for p in stats), 6),
        "reduces": len(stats),
    }


def _write_starved(workdir: str, missing: list[str]) -> None:
    """Publish the reducer's starvation state for the scheduler."""
    blob = json.dumps({"missing": missing}).encode("utf-8")
    try:
        atomic_write_bytes(os.path.join(workdir, STARVED_NAME), blob)
    except OSError:  # pragma: no cover - workdir being torn down
        pass


def drain_refs(plan: PipelinePlan, part: int) -> list[SegmentRef]:
    """Wait for *every* producer to commit; return barrier-shaped refs.

    The escape hatch for reduce paths that need the full segment list up
    front (skipping mode, corrupt-input fault targeting): it restores
    the barrier semantics for this one attempt, byte-identically, while
    the rest of the wave stays pipelined.  Termination is the caller's
    concern (task/wave deadlines), same as any fetch.
    """
    log = CommitLog(plan.commit_dir)
    while True:
        records = log.poll()
        if all(mid in records for mid in plan.map_ids):
            return [SegmentRef(map_id=mid,
                               path=records[mid].segments[part][0],
                               stats=records[mid].segments[part][1],
                               epoch=records[mid].epoch,
                               address=records[mid].address)
                    for mid in plan.map_ids]
        time.sleep(plan.poll_interval)


def _ref_for(record: CommitRecord, part: int) -> SegmentRef:
    path, stats = record.segments[part]
    return SegmentRef(map_id=record.map_id, path=path, stats=stats,
                      epoch=record.epoch, address=record.address)


def run_reduce_task_pipelined(
    job: Job,
    part: int,
    plan: PipelinePlan,
    workdir: str,
    *,
    shuffle: Any = None,
    fetch_faults: Any = None,
    memory: Any = None,
) -> ReduceTaskResult:
    """Execute one reduce task against a still-filling commit log.

    Fetches and decodes each producer's partition segment as its commit
    record appears (latest epoch wins; an epoch bump after a successful
    fetch discards the old run and re-fetches), and runs the exact
    barrier merge/group/reduce tail once the pending-set drains --
    output and counters byte-identical to
    :func:`~repro.mapreduce.engine.run_reduce_task` over the same final
    segments.

    Only active fetch/decode work is charged to the task's cost
    clock; poll sleeps while waiting on late maps are recorded
    separately in the result's ``pipeline`` stats (they are overlap, not
    work, and must not skew fitted cost models).

    Byte-based backpressure: when ``shuffle.max_inflight_bytes`` is set,
    each producer's priced bytes are charged against the fetcher's byte
    window *for as long as its decoded run is resident*.  The next
    pending fetch in ``plan.map_ids`` order is always admitted
    (``force=True`` -- liveness), so only out-of-order prefetches gate
    on headroom: a gated commit simply stays in the pending-set and is
    retried on the next poll round.  Merge order is fixed by
    ``plan.map_ids``, so deferral changes *when* a run is fetched but
    never what is merged -- output and counters stay byte-identical.
    """
    task_id = f"r{part:05d}"
    counters = Counters()
    clock = CostClock()
    profile = TaskProfile(task_id=task_id, kind="reduce")
    codec = get_codec(job.codec, **job.codec_options)
    config = shuffle if shuffle is not None else ShuffleConfig()
    fetcher = ShuffleFetcher(config, counters, task_id, fetch_faults,
                             memory=memory)
    log = CommitLog(plan.commit_dir)

    pending = set(plan.map_ids)
    #: map_id -> priced bytes charged while its decoded run is resident
    held: dict[str, int] = {}
    deferrals = 0
    #: map_id -> (epoch, decoded run, ref) for everything fetched
    fetched: dict[str, tuple[int, Run, SegmentRef]] = {}

    started = time.monotonic()
    first_fetch_ms: float | None = None
    overlapped = 0
    refetches = 0
    wait_seconds = 0.0
    last_starved: tuple[str, ...] | None = None

    try:
        while True:
            records = log.poll()
            work: list[CommitRecord] = []
            for mid in plan.map_ids:
                record = records.get(mid)
                if record is None:
                    continue
                if mid in pending:
                    work.append(record)
                elif record.epoch > fetched[mid][0]:
                    # The producer re-executed after we consumed it:
                    # discard the stale run and re-fetch at the new
                    # epoch (identical bytes by determinism, but the
                    # old files are gone and their faults out of scope).
                    work.append(record)
            if not work:
                if not pending:
                    break
                missing = sorted(pending - set(records))
                if missing and tuple(missing) != last_starved:
                    # Everything committed is consumed; name the
                    # stragglers so the scheduler can speculate them.
                    _write_starved(workdir, missing)
                    last_starved = tuple(missing)
                time.sleep(plan.poll_interval)
                wait_seconds += plan.poll_interval
                continue
            visible = sum(1 for mid in plan.map_ids if mid in records)
            progressed = False
            for record in work:
                ref = _ref_for(record, part)
                stale = record.map_id not in pending
                if stale:
                    # A refetch replaces an already-resident run: swap
                    # the charge rather than stacking a second one.
                    old = held.pop(record.map_id, None)
                    if old is not None:
                        fetcher.retire(old)
                    price = fetcher.admit(ref, force=True)
                elif record.map_id == next(
                        (m for m in plan.map_ids if m in pending), None):
                    # The next run in merge order must always proceed,
                    # however full the window: liveness beats the cap.
                    price = fetcher.admit(ref, force=True)
                else:
                    price = fetcher.admit(ref, block=False)
                    if price is None:
                        # No headroom for an out-of-order prefetch:
                        # leave it pending for the next poll round.
                        deferrals += 1
                        continue
                progressed = True
                try:
                    with clock.measure("shuffle"):
                        blob = fetcher.fetch_one(ref)
                        decoded = _read_run(
                            IFileReader(blob, codec, path=ref.path),
                            ref.stats)
                except BaseException:
                    fetcher.retire(price)
                    raise
                held[record.map_id] = price
                if first_fetch_ms is None:
                    first_fetch_ms = (time.monotonic() - started) * 1000.0
                if visible < len(plan.map_ids):
                    overlapped += 1
                if stale:
                    refetches += 1
                fetched[record.map_id] = (record.epoch, decoded, ref)
                pending.discard(record.map_id)
            if work and not progressed:
                # Every visible commit was an out-of-order prefetch the
                # window deferred; wait for headroom or the next commit.
                time.sleep(plan.poll_interval)
                wait_seconds += plan.poll_interval
    finally:
        # The drain is complete (or the attempt is dying): the fetch
        # window's residency charges end here, before the merge rent.
        for price in held.values():
            fetcher.retire(price)
        held.clear()
        fetcher.close()

    # Drain: the pending-set is empty and every run is at its final
    # epoch.  Account shuffle bytes once, from the final fetched set --
    # exactly what the barrier path charges.
    final_refs = [fetched[mid][2] for mid in plan.map_ids]
    profile.shuffle_bytes = sum(ref.stats.materialized_bytes
                                for ref in final_refs)
    counters.incr(C.SHUFFLE_BYTES, profile.shuffle_bytes)
    if getattr(config, "transport", "") == "network":
        profile.wire_bytes = counters.get(C.SHUFFLE_WIRE_BYTES)

    runs, run_sizes = [], []
    for mid in plan.map_ids:
        run = fetched[mid][1]
        if run_rows(run):
            runs.append(run)
            run_sizes.append(fetched[mid][2].stats.key_bytes
                             + fetched[mid][2].stats.value_bytes)

    if memory is not None:
        memory.note_waits(fetcher.backpressure_waits + deferrals)
    rent = (memory.rent(sum(run_sizes), site="merge")
            if memory is not None else nullcontext())
    with rent:
        result = _merge_group_reduce(
            job, task_id, runs, run_sizes, workdir, codec, counters, clock,
            profile)
    result.pipeline = {
        "first_fetch_ms": first_fetch_ms,
        "overlapped_fetches": overlapped,
        "refetches": refetches,
        "wait_seconds": round(wait_seconds, 6),
        "fetch_deferrals": deferrals,
    }
    return result
