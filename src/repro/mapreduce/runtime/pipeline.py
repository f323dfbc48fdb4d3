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
  :class:`PipelinePlan` instead of resolved segment refs and runs the
  one reduce body, :func:`~repro.mapreduce.engine.run_reduce_task`,
  fed by :func:`commit_pairs`: each poll round's new commits (and
  re-publications at a bumped epoch, when a producer re-executed
  mid-pipeline) are fetched one at a time and decoded into their
  producer's slot while the later maps still run;
* once every producer is held at its latest epoch, the body runs the
  same merge/group/reduce tail over the same runs in the same order as
  a reduce fed the resolved refs -- so the merged stream, the output,
  and every task counter are **byte-identical** to the barrier path
  (and therefore to the serial runner) by construction, not by test.

A reducer that has fetched everything committed so far but still has
maps pending reports the missing producers to its ``on_starved``
callback; the scheduler turns that into *progress-triggered
speculation* of the stragglers, instead of waiting for wave deadlines.

What overlaps the map tail is fetch + decode, not the merge.  Folding
each arrival into a prefix merge would re-merge the whole prefix every
time (2 + 3 + ... + n run-units against n for one merge at drain): the
last fold alone would cost a full merge, so the drain would get no
shorter.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.mapreduce.ifile import IFileStats
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime.shuffle import SegmentRef
from repro.util.fsio import atomic_write_bytes

__all__ = [
    "COMMITS_DIRNAME",
    "CommitRecord",
    "CommitLog",
    "PipelinePlan",
    "aggregate_pipeline_stats",
    "commit_pairs",
    "drain_refs",
]

#: commit-log directory name inside a run's workdir
COMMITS_DIRNAME = "_commits"


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


def _ref_for(record: CommitRecord, part: int) -> SegmentRef:
    path, stats = record.segments[part]
    return SegmentRef(map_id=record.map_id, path=path, stats=stats,
                      epoch=record.epoch, address=record.address)


def drain_refs(plan: PipelinePlan, part: int) -> list[SegmentRef]:
    """Wait for *every* producer to commit; return barrier-shaped refs.

    For the one attempt that needs every segment's path up front -- a
    ``corrupt`` fault aimed at the reduce input damages its target file
    before the body fetches it -- this restores the barrier semantics,
    byte-identically, while the rest of the wave stays pipelined.
    Termination is the caller's concern (task/wave deadlines), same as
    any fetch.
    """
    log = CommitLog(plan.commit_dir)
    while True:
        records = log.poll()
        if all(mid in records for mid in plan.map_ids):
            return [_ref_for(records[mid], part) for mid in plan.map_ids]
        time.sleep(plan.poll_interval)


def commit_pairs(
    plan: PipelinePlan, part: int, stats: dict,
    on_starved: Callable[[list[str]], None] | None = None,
) -> Iterator[tuple[int, SegmentRef]]:
    """The pipelined reducer's fetch schedule, one segment at a time.

    Polls the commit log and yields, as one ``(slot, ref)`` pair each,
    every commit that is new or re-published at a bumped epoch since it
    was last yielded (the producer re-executed; its old files are
    gone), where ``slot`` is the producer's index in ``plan.map_ids`` --
    the merge order.  The caller fetches and decodes a segment before
    asking for the next, exactly as it walks a barrier ref list.  Stops
    once every producer has been yielded at its latest epoch.

    Between rounds it sleeps ``plan.poll_interval`` per empty poll and
    passes the missing producers to ``on_starved`` whenever that set
    changes.  ``stats`` is filled with the task's ``pipeline`` stats:
    ``first_fetch_ms`` (start to the first segment in hand),
    ``overlapped_fetches`` (segments fetched while some producer had
    not yet committed), ``refetches`` and ``wait_seconds`` (poll
    sleeps: overlap, not work, so never charged to the task's cost
    clock).
    """
    log = CommitLog(plan.commit_dir)
    #: map_id -> epoch of the segment last yielded for it
    yielded: dict[str, int] = {}
    started = time.monotonic()
    stats.update(first_fetch_ms=None, overlapped_fetches=0, refetches=0,
                 wait_seconds=0.0)
    last_starved: list[str] | None = None
    while True:
        records = log.poll()
        work = [(slot, _ref_for(records[mid], part))
                for slot, mid in enumerate(plan.map_ids)
                if mid in records and records[mid].epoch > yielded.get(mid, -1)]
        if work:
            all_visible = all(mid in records for mid in plan.map_ids)
            for slot, ref in work:
                yield slot, ref
                if stats["first_fetch_ms"] is None:
                    stats["first_fetch_ms"] = (
                        time.monotonic() - started) * 1e3
                stats["overlapped_fetches"] += not all_visible
                stats["refetches"] += ref.map_id in yielded
                yielded[ref.map_id] = ref.epoch
            continue
        if len(yielded) == len(plan.map_ids):
            stats["wait_seconds"] = round(stats["wait_seconds"], 6)
            return
        missing = sorted(set(plan.map_ids) - set(records))
        if missing and missing != last_starved and on_starved is not None:
            # Everything committed is consumed; name the stragglers so
            # the scheduler can speculate them.
            on_starved(missing)
            last_starved = missing
        time.sleep(plan.poll_interval)
        stats["wait_seconds"] += plan.poll_interval
