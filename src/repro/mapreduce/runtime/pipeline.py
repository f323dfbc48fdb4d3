"""Pipelined shuffle: reducers start while late maps are still running.

The classic runners split every job at a hard shuffle barrier -- no
reduce attempt launches until the *last* map commits, so one straggling
map idles the entire reduce side.  Segment epochs and the
:class:`~repro.mapreduce.runtime.shuffle.ShuffleFetcher` already make
each completed map's output individually addressable and safely
re-fetchable, so the barrier is pure scheduling conservatism.  This
module removes it:

* each completed map publishes its segment of each reduce partition,
  a :class:`~repro.mapreduce.runtime.shuffle.SegmentRef` at its epoch,
  onto that partition's list in the map-output ledger's ``published``
  -- the completion-event stream (a producer re-executed mid-pipeline
  is published again, at its bumped epoch);
* a reduce attempt launched *alongside* the maps receives a
  :class:`PipelinePlan` (its partition's refs published so far)
  instead of resolved segment refs, the scheduler sends it each later
  ref on its worker's pipe, and it runs the one reduce body,
  :func:`~repro.mapreduce.engine.run_reduce_task`, fed by
  :func:`commit_pairs`: each new segment (and each re-publication at a
  bumped epoch) is fetched and decoded into its producer's slot while
  the later maps still run;
* once every producer is held at its latest epoch, the body runs the
  same merge/group/reduce tail over the same runs in the same order as
  a reduce fed the resolved refs -- so the merged stream, the output,
  and every task counter are **byte-identical** to the barrier path
  (and therefore to the serial runner) by construction, not by test.

A reducer that has fetched everything published so far reports the
missing producers through its ``link`` (a worker's
:class:`~repro.mapreduce.runtime.worker.Channel`) and blocks on it for
the next ref; the scheduler turns the report into
*progress-triggered speculation* of the stragglers, instead of waiting
for wave deadlines.

What overlaps the map tail is fetch + decode, not the merge.  Folding
each arrival into a prefix merge would re-merge the whole prefix every
time (2 + 3 + ... + n run-units against n for one merge at drain): the
last fold alone would cost a full merge, so the drain would get no
shorter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.mapreduce.metrics import C
from repro.mapreduce.runtime.shuffle import SegmentRef

__all__ = [
    "PipelinePlan",
    "aggregate_pipeline_stats",
    "commit_pairs",
    "drain_refs",
]


@dataclass(frozen=True)
class PipelinePlan:
    """What a pipelined reduce attempt needs instead of resolved refs.
    Picklable, so it rides to workers exactly like a segment list: an
    inline attempt reads the ledger's list itself, a forked one the
    snapshot pickled at launch."""

    #: every producing map id, **in map task order** -- the order that
    #: fixes merge behavior and therefore output bytes
    map_ids: tuple[str, ...]
    #: the partition's segment of each map, in publish order; a map
    #: re-executed mid-pipeline appears again at its bumped epoch
    refs: list[SegmentRef]


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


def _next_ref(link: Any, missing: list[str]) -> SegmentRef:
    """The next ref ``link`` brings; an inline attempt (no ``link``)
    has nothing to wait on, so a missing producer fails it."""
    if link is None:
        raise RuntimeError(f"pipelined reduce started before {missing} "
                           f"published")
    return link.receive()


def drain_refs(plan: PipelinePlan, link: Any = None) -> list[SegmentRef]:
    """Wait for *every* producer to commit; return barrier-shaped refs.

    For the one attempt that needs every segment's path up front -- a
    ``corrupt`` fault aimed at the reduce input damages its target file
    before the body fetches it -- this restores the barrier semantics,
    byte-identically, while the rest of the wave stays pipelined.
    Termination is the caller's concern (task/wave deadlines), same as
    any fetch.
    """
    latest = {ref.map_id: ref for ref in plan.refs}
    while missing := [mid for mid in plan.map_ids if mid not in latest]:
        ref = _next_ref(link, missing)
        latest[ref.map_id] = ref
    return [latest[mid] for mid in plan.map_ids]


def commit_pairs(
    plan: PipelinePlan, stats: dict, link: Any = None,
) -> Iterator[tuple[int, SegmentRef]]:
    """The pipelined reducer's fetch schedule, one segment at a time.

    Yields, as one ``(slot, ref)`` pair each, every producer's segment
    that is new or re-published at a bumped epoch since it was last
    yielded (the producer re-executed; its old files are gone), where
    ``slot`` is the producer's index in ``plan.map_ids`` -- the merge
    order.  The caller fetches and decodes a segment before asking for
    the next, exactly as it walks a barrier ref list.  Stops once every
    producer has been yielded at its latest epoch.

    With nothing left to yield it reports the missing producers through
    ``link.starved`` whenever that set changes, and blocks on
    ``link.receive()`` for the next ref (without a ``link`` it raises
    ``RuntimeError``).  ``stats`` is filled with the task's
    ``pipeline`` stats: ``first_fetch_ms`` (start to the first segment
    in hand), ``overlapped_fetches`` (segments fetched while some
    producer had not yet committed), ``refetches`` and ``wait_seconds``
    (time blocked on the link: overlap, not work, so never charged to
    the task's cost clock).
    """
    #: map_id -> its latest ref (publish order: epochs only grow)
    latest = {ref.map_id: ref for ref in plan.refs}
    #: map_id -> epoch of the segment last yielded for it
    yielded: dict[str, int] = {}
    started = time.monotonic()
    stats.update(first_fetch_ms=None, overlapped_fetches=0, refetches=0,
                 wait_seconds=0.0)
    last_starved: list[str] | None = None
    while True:
        work = [(slot, latest[mid]) for slot, mid in enumerate(plan.map_ids)
                if mid in latest and latest[mid].epoch > yielded.get(mid, -1)]
        if work:
            all_visible = len(latest) == len(plan.map_ids)
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
        missing = [mid for mid in plan.map_ids if mid not in latest]
        if link is not None and missing != last_starved:
            # Everything committed is consumed; name the stragglers so
            # the scheduler can speculate them.
            link.starved(missing)
            last_starved = missing
        waited = time.monotonic()
        ref = _next_ref(link, missing)
        stats["wait_seconds"] += time.monotonic() - waited
        latest[ref.map_id] = ref
