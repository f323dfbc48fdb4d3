"""Local MapReduce job runner with a faithful Hadoop data path.

Executes every phase of the paper's Fig 1 data flow in-process, through
*real* files and codecs, so byte counters are measurements:

1. mappers read array input splits,
2. map output is buffered, sorted, (optionally combined) and spilled to
   disk as IFile runs,
3. spills are merged into one final, codec-compressed map output segment
   per reducer partition ("Map output materialized bytes"),
4. reducers fetch their segments (shuffle bytes),
5. runs are merge-sorted, with extra on-disk passes when the run count
   exceeds the merge factor,
6. records are grouped by key and reduced,
7. output is collected.

The task bodies -- :func:`run_map_task` and :func:`run_reduce_task` --
are standalone top-level functions so they are picklable and shared by
both executors of the job runners in :mod:`repro.mapreduce.runtime.
runner`: the calling process (``LocalJobRunner``) and worker processes
(``ParallelJobRunner``).
Wall-clock on a real cluster can also be *simulated* from the per-task
profiles these tasks measure -- see :mod:`repro.mapreduce.simcluster`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Sequence

import numpy as np

from repro.mapreduce.api import MapContext, ReduceContext
from repro.mapreduce.codecs import NullCodec, cost_categories, get_codec
from repro.mapreduce.columnar import (
    PartitionBuffer,
    Ragged,
    column_records,
    take_rows,
)
from repro.mapreduce.ifile import IFileReader, IFileStats, IFileWriter
from repro.mapreduce.job import Job
from repro.mapreduce.metrics import C, Counters, TaskProfile
from repro.mapreduce.output import PackedOutput
from repro.mapreduce.sort import (
    Run,
    argsort_key_matrix,
    group_bounds,
    group_by_key,
    merge_sorted_runs,
    plan_merge_passes,
    run_records,
    run_rows,
    sort_groups,
    sort_records,
)
from repro.scidata.dataset import Dataset
from repro.scidata.splits import InputSplit
from repro.util.errors import CorruptRecordError
from repro.util.timing import CostClock

__all__ = [
    "LocalJobRunner",
    "JobResult",
    "MapTaskOutput",
    "ReduceTaskResult",
    "run_map_task",
    "run_reduce_task",
]

Record = tuple[bytes, bytes]


@dataclass
class JobResult:
    """Everything a job run produced and measured."""

    #: every reduce task's ``(key, value)`` pairs, in partition order
    output: PackedOutput
    counters: Counters
    task_profiles: list[TaskProfile]
    #: byte breakdown of the final (materialized) map output segments
    map_output_stats: IFileStats
    num_map_tasks: int = 0
    num_reduce_tasks: int = 0
    #: execution timeline: the ``RuntimeTrace`` either runner records
    #: (``None`` only for results assembled outside a runner)
    trace: Any = None
    #: aggregated pipelined-shuffle stats (``REDUCE_FIRST_FETCH_MS`` /
    #: ``PIPELINE_OVERLAP`` and friends), populated only when the run
    #: was pipelined; deliberately outside ``counters`` so pipeline
    #: on/off compares byte-identical
    pipeline_stats: dict | None = None
    #: aggregated memory-ledger telemetry (peak charged bytes, budget,
    #: OOM events absorbed) when any task ran with a
    #: :class:`~repro.mapreduce.runtime.memory.MemoryBudget`; peaks are
    #: allocation-shaped, so this lives outside ``counters`` like
    #: ``pipeline_stats``
    memory_stats: dict | None = None

    @property
    def materialized_bytes(self) -> int:
        """The paper's headline metric: 'Map output materialized bytes'."""
        return self.counters.get(C.MAP_OUTPUT_MATERIALIZED_BYTES)


@dataclass
class MapTaskOutput:
    """Final per-partition segments of one map task."""

    task_id: str
    profile: TaskProfile
    counters: Counters
    #: partition -> (path, stats); empty partitions still get a segment
    segments: dict[int, tuple[str, IFileStats]] = field(default_factory=dict)


@dataclass
class ReduceTaskResult:
    """Output and measurements of one reduce task."""

    task_id: str
    output: PackedOutput
    counters: Counters
    profile: TaskProfile
    #: pipelined-shuffle side stats (first fetch latency, overlapped
    #: fetches, poll wait) -- kept OUT of ``counters`` so pipeline
    #: on/off stays byte-identical; ``None`` on the barrier path
    pipeline: dict | None = None


# --------------------------------------------------------------------- tasks
#
# The functions below are the single source of truth for what a map or
# reduce task *does*.  They take every dependency as an argument (no
# runner state), so any execution backend -- serial loop, process pool,
# or a future distributed shell -- produces byte-identical counters.


#: one spill's output for one partition
SpillSegment = tuple[str, IFileStats]


def _read_run(reader: IFileReader, stats: IFileStats) -> Run:
    """Decode one plain segment as a run, columnar when it can be.

    The segment's own stats name the only key width a columnar run
    could have (``key_bytes / records``) and, when the values divide
    evenly too, the only value width: a fixed-width read is tried first,
    then a ragged one (:meth:`IFileReader.read_columnar`), each
    verifying the EOF marker and every record's frame.  Anything else --
    an empty, chunked or malformed segment, keys of several widths -- is
    ``read_all()``, so a malformed segment is still diagnosed by the
    strict record iterator.
    """
    n = stats.records
    if n > 0 and stats.key_bytes % n == 0:
        run = None
        if stats.value_bytes % n == 0:
            run = reader.read_columnar(stats.key_bytes // n,
                                       stats.value_bytes // n)
        if run is None:
            run = reader.read_columnar(stats.key_bytes // n)
        if run is not None:
            return run
    return reader.read_all()


def _write_run(writer: IFileWriter, run: Run) -> None:
    """Append a whole run; both forms write identical bytes."""
    if type(run) is tuple:
        writer.append_batch(*run)
    else:
        for kb, vb in run:
            writer.append(kb, vb)


def _commit_segments(items: Sequence[Any],
                     seal: Callable[[Any], IFileWriter]) -> list[IFileStats]:
    """Write one IFile segment per item, each codec stage where it pays.

    ``seal(item)`` fills a writer and seals it on this thread: the
    codec's front stage, which holds the GIL.  Each commit but the last
    -- the back stage (zlib/bz2, which release the GIL), the CRC and the
    write -- goes to the process's helper pool
    (:mod:`~repro.mapreduce.runtime.helpers`), so partition p compresses
    while partition p+1 is prepared; the last commits inline.  Every
    commit is finished or cancelled before this returns or raises.  A
    null codec, a chunked writer (its blocks compressed as they filled),
    or a process without a pool commits inline: a thread would overlap
    nothing.  The back stages' seconds are charged to the codec here, in
    item order, so no codec state is touched off this thread.
    """
    from repro.mapreduce.runtime.helpers import drain, pool

    last = len(items) - 1
    writers: list[IFileWriter] = []
    futures = []
    try:
        for i, item in enumerate(items):
            writer = seal(item)
            writers.append(writer)
            executor = (pool() if i < last and writer.block_bytes is None
                        and not isinstance(writer.codec, NullCodec)
                        else None)
            if executor is None:
                writer.commit()
            else:
                futures.append(executor.submit(writer.commit))
        for future in futures:
            future.result()
    finally:
        drain(futures)
    for writer in writers:
        writer.codec.charge_finish(writer.finish_seconds)
    return [writer.stats for writer in writers]


def _spill(
    job: Job,
    workdir: str,
    task_id: str,
    spill_idx: int,
    buffer: dict[int, PartitionBuffer],
    codec,
    counters: Counters,
    profile: TaskProfile,
    clock: CostClock,
) -> dict[int, SpillSegment]:
    """Sort + (combine) + write one spill; returns per-partition files.

    A buffer that ``route_staged`` filled with one chunk in the stage's
    sorted order is written as it is.  Any other purely columnar buffer
    takes the columnar path (stable argsort of the key matrix, bulk
    IFile write), and a buffer holding records the scalar path.  All
    three produce identical bytes and counters; only the cost differs.
    ``Job.combine`` folds the sorted run in either form (:func:`_combine`).
    Partitions are sealed in turn and committed by
    :func:`_commit_segments`.
    """
    parts = [part for part, pbuf in buffer.items() if pbuf.records]
    paths = {part: os.path.join(workdir, f"{task_id}-spill{spill_idx}-p{part}")
             for part in parts}

    def seal(part: int) -> IFileWriter:
        pbuf = buffer[part]
        colview = pbuf.columnar_view()
        writer = IFileWriter(paths[part], codec)
        if pbuf.presorted:
            run: Run = colview
        elif colview is not None:
            kmat, values = colview
            with clock.measure("sort"):
                order = argsort_key_matrix(kmat)
                run = (np.ascontiguousarray(kmat[order]),
                       take_rows(values, order))
        else:
            with clock.measure("sort"):
                run = sort_records(pbuf.to_records())
        if job.combine:
            with clock.measure("combine"):
                run = _combine(job, run, counters)
        _write_run(writer, run)
        writer.seal()
        return writer

    out: dict[int, SpillSegment] = {}
    for part, stats in zip(parts, _commit_segments(parts, seal)):
        counters.incr(C.SPILLED_RECORDS, stats.records)
        profile.local_write_bytes += stats.materialized_bytes
        out[part] = (paths[part], stats)
    counters.incr(C.SPILL_COUNT)
    return out


def _combine(job: Job, run: Run, counters: Counters) -> Run:
    """Fold every group of one sorted spill run with the reducer's monoid.

    A fixed-width run decodes each group's values by one ``read_column``
    over its slice of the value slab; a record or ragged run decodes them
    by ``read_batch``.  Each fold is written through ``write``, which
    raises for a fold the value serde cannot hold.  No key is decoded.
    """
    monoid = job.reducer().monoid
    serde = job.value_serde
    if type(run) is tuple and type(run[1]) is not Ragged:
        kmat, vmat = run
        vw = vmat.shape[1]
        vflat = memoryview(vmat).cast("B")
        bounds = group_bounds(kmat).tolist()
        groups = ((kmat[start].tobytes(),
                   serde.read_column(vflat[start * vw:end * vw], end - start))
                  for start, end in zip(bounds, bounds[1:]))
    else:
        groups = ((kb, serde.read_batch(blobs))
                  for kb, blobs in group_by_key(run_records(run)))
    out: list[Record] = []
    for kb, values in groups:
        counters.incr(C.COMBINE_INPUT_RECORDS, len(values))
        vout = bytearray()
        serde.write(monoid.fold(values), vout)
        out.append((kb, bytes(vout)))
        counters.incr(C.COMBINE_OUTPUT_RECORDS)
    return out


def run_map_task(job: Job, split: InputSplit, dataset: Dataset,
                 workdir: str, *, driver=None, memory=None) -> MapTaskOutput:
    """Execute one map task (Fig 1 steps 2-3) into ``workdir``.

    Pure function of its arguments: reads the split's slab, runs the
    mapper, spills sorted runs, and merges them into one final IFile
    segment per reducer partition.  Segment files are written atomically
    so a killed worker never leaves a truncated final segment behind.

    ``driver`` (when given) replaces the plain ``mapper.map`` +
    ``mapper.cleanup`` call with ``driver(mapper, split, values, ctx)``
    and owns cleanup -- the hook the skipping runtime uses to run the
    mapper over sub-ranges of the input.  ``None`` (the default) leaves
    the clean path byte-identical to before the hook existed.

    ``memory`` (a :class:`~repro.mapreduce.runtime.memory.MemoryBudget`,
    or ``None`` for unaccounted) rents the sort buffer's bytes under the
    ``"sort"`` site around each spill: the charge equals the buffered
    byte count the spill threshold tracks, so it is deterministic across
    runners, and an enforced overrun raises ``MemoryError`` -- the
    signal the degrade-on-retry ladder answers with a halved buffer.
    """
    task_id = f"m{split.split_id:05d}"
    counters = Counters()
    clock = CostClock()
    profile = TaskProfile(task_id=task_id, kind="map")
    codec = get_codec(job.codec, **job.codec_options)
    partitioner = job.partitioner(job.num_reducers)
    plugin = job.shuffle_plugin

    buffer: dict[int, PartitionBuffer] = {
        p: PartitionBuffer() for p in range(job.num_reducers)
    }
    #: batched chunks in emission order, not yet routed to ``buffer``
    staged: list[tuple[np.ndarray, np.ndarray]] = []
    buffered = 0
    spills: list[dict[int, SpillSegment]] = []

    def route_staged() -> None:
        # Partition once per spill rather than once per emitted chunk,
        # and sort once for partitioning and the spill alike: one stable
        # argsort of the stage finds its distinct keys by adjacent
        # compares, ``partition_rows`` hashes each of them once -- the
        # group heads are already distinct, so nothing dedupes them again
        # (a sliding window emits each target key from many chunks) --
        # and each partition takes its rows in the stage's sorted order:
        # a stable sort filtered by partition is still stable, so equal
        # keys keep emission order and the spill need not sort again.
        # Consecutive chunks of equal widths route as one matrix
        # (normally the whole stage).
        for _, group in groupby(
                staged, key=lambda c: (c[0].shape[1], c[1].shape[1])):
            chunks = list(group)
            keys = np.concatenate([k for k, _ in chunks])
            values = np.concatenate([v for _, v in chunks])
            with clock.measure("sort"):
                order, bounds = sort_groups(keys)
            distinct = partitioner.partition_rows(keys[order[bounds[:-1]]])
            parts = np.repeat(distinct, np.diff(bounds))
            for part in np.unique(distinct).tolist():
                rows = order[parts == part]
                buffer[part].append_sorted(keys[rows], values[rows])
        staged.clear()

    def flush() -> None:
        nonlocal buffered
        if buffered == 0:
            return
        route_staged()
        # The charge is the exact byte count the spill threshold tracks,
        # so serial and parallel attempts charge identically; rent()
        # releases on every path, including a MemoryError mid-spill.
        rent = (memory.rent(buffered, site="sort") if memory is not None
                else nullcontext())
        with rent:
            spills.append(
                _spill(job, workdir, task_id, len(spills), buffer, codec,
                       counters, profile, clock)
            )
        for pbuf in buffer.values():
            pbuf.clear()
        buffered = 0

    def sink(kb: bytes, vb: bytes) -> None:
        nonlocal buffered
        if staged:
            # a mapper mixing ``emit`` and ``emit_batch``: earlier chunks
            # reach their partitions before this record does
            route_staged()
        if plugin is not None:
            routed = plugin.route(kb, vb, job.num_reducers)
        else:
            routed = [(partitioner.partition(kb), kb, vb)]
        for part, k2, v2 in routed:
            buffer[part].append(k2, v2)
            buffered += len(k2) + len(v2) + 8
        if buffered >= job.sort_buffer_bytes:
            flush()

    def batch_sink(keys: np.ndarray, values: np.ndarray) -> None:
        # Batched form of ``sink``: stage a whole fixed-width chunk.  The
        # chunk is split at the exact record where the scalar path's
        # running ``buffered`` count would cross the spill threshold
        # (a count that does not depend on partition), so spill
        # boundaries -- and therefore every spill file and counter --
        # match the scalar path record for record.
        nonlocal buffered
        n = keys.shape[0]
        rec = keys.shape[1] + values.shape[1] + 8
        start = 0
        while start < n:
            take = min(n - start,
                       -((buffered - job.sort_buffer_bytes) // rec))
            staged.append((keys[start:start + take],
                           values[start:start + take]))
            buffered += take * rec
            start += take
            if buffered >= job.sort_buffer_bytes:
                flush()

    route_batch = getattr(plugin, "route_batch", None)

    def serialized_batch_sink(keys: np.ndarray, values: Ragged) -> None:
        # Batched form of ``sink`` for a shuffle plugin: the plugin routes
        # the whole batch at once, and the routed pieces are buffered up
        # to and including the input record at which ``sink``'s running
        # ``buffered`` count would cross the spill threshold -- so spills
        # hold the same records in the same order.  A batch the plugin
        # declines goes through ``sink`` record by record.
        nonlocal buffered
        routed = route_batch(keys, values, job.num_reducers)
        if routed is None:
            for kb, vb in column_records(keys, values):
                sink(kb, vb)
            return
        if staged:
            route_staged()
        reducers, keys, values, ends = routed
        # bytes this batch has buffered through each of its input records
        through = np.cumsum(values.lengths() + (keys.shape[1] + 8))[ends - 1]
        done = taken = 0  # pieces buffered so far, and their bytes
        while done < reducers.shape[0]:
            # the input record at which ``buffered`` reaches the threshold
            record = min(len(ends) - 1, int(np.searchsorted(
                through, job.sort_buffer_bytes - buffered + taken)))
            stop = int(ends[record])
            parts = reducers[done:stop]
            for part in np.unique(parts).tolist():
                rows = done + np.flatnonzero(parts == part)
                buffer[part].append_chunk(keys[rows], values.take(rows))
            buffered += int(through[record]) - taken
            done, taken = stop, int(through[record])
            if buffered >= job.sort_buffer_bytes:
                flush()

    # The batched emit paths bypass ``sink``.  ``emit_batch`` also
    # bypasses the shuffle plugin, so it is wired up for plugin-less jobs
    # only; ``emit_serialized_batch`` is for plugins that can route a
    # batch.  MapContext falls back to per-record emission otherwise.
    ctx = MapContext(
        job.key_serde, job.value_serde, sink, counters,
        batch_sink=batch_sink if plugin is None else None,
        serialized_batch_sink=serialized_batch_sink if route_batch else None,
    )
    variable = dataset[split.variable]
    with clock.measure("read"):
        values = variable.read(split.slab)
    profile.input_bytes = values.nbytes
    counters.incr(C.MAP_INPUT_RECORDS, values.size)

    mapper = job.mapper()
    if getattr(mapper, "wants_dataset", False):
        # Multi-variable mappers (e.g. derived-variable queries) need
        # to read slabs of other variables alongside their split.
        mapper.dataset = dataset
    mapper.setup(split)
    with clock.measure("map"):
        if driver is None:
            mapper.map(split, values, ctx)
            mapper.cleanup(ctx)
        else:
            driver(mapper, split, values, ctx)
    flush()

    # Merge spills into the final per-partition map output segments.
    out = MapTaskOutput(task_id=task_id, profile=profile, counters=counters)
    spilled = {part: [s[part] for s in spills if part in s]
               for part in range(job.num_reducers)}
    final_paths = {part: os.path.join(workdir, f"{task_id}-out-p{part}")
                   for part in range(job.num_reducers)}
    merged = []
    for part, part_spills in spilled.items():
        if len(part_spills) == 1 and job.ifile_block_bytes is None:
            path, stats = part_spills[0]
            os.replace(path, final_paths[part])
            out.segments[part] = (final_paths[part], stats)
        else:
            merged.append(part)

    def seal(part: int) -> IFileWriter:
        with clock.measure("merge"):
            runs = []
            for path, stats in spilled[part]:
                profile.local_read_bytes += stats.materialized_bytes
                runs.append(_read_run(IFileReader(path, codec), stats))
            writer = IFileWriter(final_paths[part], codec, atomic=True,
                                 block_bytes=job.ifile_block_bytes)
            _write_run(writer, merge_sorted_runs(runs))
            writer.seal()
        return writer

    for part, stats in zip(merged, _commit_segments(merged, seal)):
        for path, _ in spilled[part]:
            os.unlink(path)
        profile.local_write_bytes += stats.materialized_bytes
        out.segments[part] = (final_paths[part], stats)
    out.segments = dict(sorted(out.segments.items()))

    counters.incr(C.MAP_OUTPUT_BYTES,
                  sum(s.key_bytes + s.value_bytes for _, s in out.segments.values()))
    counters.incr(C.MAP_OUTPUT_KEY_BYTES,
                  sum(s.key_bytes for _, s in out.segments.values()))
    counters.incr(C.MAP_OUTPUT_VALUE_BYTES,
                  sum(s.value_bytes for _, s in out.segments.values()))
    counters.incr(C.MAP_OUTPUT_FILE_OVERHEAD_BYTES,
                  sum(s.overhead_bytes for _, s in out.segments.values()))
    counters.incr(C.MAP_OUTPUT_MATERIALIZED_BYTES,
                  sum(s.materialized_bytes for _, s in out.segments.values()))

    profile.cpu_seconds = clock.as_dict()
    for category, seconds in cost_categories(codec).items():
        profile.cpu_seconds[category] = (
            profile.cpu_seconds.get(category, 0.0) + seconds
        )
    return out


def run_reduce_task(
    job: Job,
    part: int,
    segments: Any,
    workdir: str,
    *,
    segment_reader=None,
    prepare_filter=None,
    group_driver=None,
    shuffle=None,
    fetch_faults=None,
    memory=None,
    on_starved=None,
) -> ReduceTaskResult:
    """Execute one reduce task (Fig 1 steps 4-7) -- the only reduce body.

    ``segments`` names this partition's map output segments in one of
    two shapes.  A list holds the final segment of every map task, **in
    map task order** -- each a :class:`~repro.mapreduce.runtime.shuffle.
    SegmentRef` (legacy ``(path, stats)`` tuples are adopted): the
    barrier shuffle.  A :class:`~repro.mapreduce.runtime.pipeline.
    PipelinePlan` names the commit log the maps publish into while they
    still run: the pipelined shuffle, scheduled by
    :func:`~repro.mapreduce.runtime.pipeline.commit_pairs`.  Either
    way the task walks ``(slot, ref)`` pairs -- a list is enumerated --
    and fetches each segment on its own thread, decoding it into its
    map's slot before the next fetch; a producer re-published at a
    bumped epoch is fetched again and replaces its slot.  Once every
    slot holds its producer's latest segment, the runs are merged in
    slot order, so the merged stream, the output and every counter
    depend on the final segments alone, never on when they arrived.
    ``SHUFFLE_BYTES`` is charged once, from the final refs; a plan also
    leaves its poll telemetry on ``result.pipeline``, and hands each
    change in the set of producers it waits for to ``on_starved``.

    Segment bytes arrive through a shuffle transport (``shuffle`` is a
    :class:`~repro.mapreduce.runtime.shuffle.ShuffleConfig`; ``None`` =
    the default direct transport, byte-identical to reading the files),
    so the map->reduce hop is a real, failable transfer in every runner.
    ``fetch_faults`` is this reduce task's slice of a fault injector's
    fetch plan.

    Each fetched segment decodes to a *run* in one of two forms
    (:func:`_read_run`): a key matrix + value column (a fixed matrix or
    a ragged one) when the segment's keys have one width and every
    frame verifies, the record list otherwise.
    Empty runs are dropped by row count -- a zero-row columnar run is a
    truthy tuple -- so run order, and with it the merge's tie order, is
    the same in both forms.

    The three keyword hooks exist for the skipping runtime and default
    to ``None`` (clean path unchanged): ``segment_reader(path, codec,
    blob)`` replaces the strict segment decode (block salvage) and
    returns records, ``prepare_filter(merged)`` filters undecodable
    records before the shuffle plugin sees them, and
    ``group_driver(reducer, merged, ctx)`` replaces the group-and-reduce
    loop (per-group fault isolation).  All three are defined on records;
    they only run on the retry after a strict attempt failed.

    ``memory`` is the task's :class:`~repro.mapreduce.runtime.memory.
    MemoryBudget` (``None`` = unaccounted).  The fetcher charges the
    one transfer in flight its priced bytes under the ``"fetch"`` site;
    the decoded runs rent their payload bytes under ``"merge"`` for the
    duration of the merge-group-reduce tail.  The merge rent is an
    *enforced* charge sized from deterministic ``IFileStats``, so both
    runners overrun (and degrade) identically.
    """
    # Lazy import: the runtime package imports this module's task
    # functions, so the engine cannot import runtime modules at the top.
    from repro.mapreduce.runtime.pipeline import PipelinePlan, commit_pairs
    from repro.mapreduce.runtime.shuffle import (
        SegmentRef,
        ShuffleConfig,
        ShuffleFetcher,
    )
    task_id = f"r{part:05d}"
    counters = Counters()
    clock = CostClock()
    profile = TaskProfile(task_id=task_id, kind="reduce")
    codec = get_codec(job.codec, **job.codec_options)

    pipeline: dict | None = None
    if isinstance(segments, PipelinePlan):
        pipeline = {}
        pairs = commit_pairs(segments, part, pipeline, on_starved)
        slots = len(segments.map_ids)
    else:
        refs = [SegmentRef.from_pair(s) for s in segments]
        pairs = enumerate(refs)
        slots = len(refs)
    #: per producer slot: its latest ref and the run decoded from it
    #: (the raw blob, for a segment_reader)
    held: list[Any] = [None] * slots
    fetcher = ShuffleFetcher(
        shuffle if shuffle is not None else ShuffleConfig(),
        counters, task_id, fetch_faults, memory=memory)
    try:
        for slot, ref in pairs:
            with clock.measure("shuffle"):
                if segment_reader is not None:
                    # It quarantines what it salvages, so it must see
                    # final segments only: it decodes below, once every
                    # producer is in.
                    held[slot] = (ref, fetcher.fetch_one(ref))
                else:
                    held[slot] = (ref, _read_run(
                        IFileReader(fetcher.fetch_one(ref), codec,
                                    path=ref.path),
                        ref.stats))
    finally:
        fetcher.close()

    # Each run's payload size (sum of key+value bytes) is recorded once,
    # from the segment's IFileStats, so merge-pass planning never
    # re-scans a run's records to size it.
    runs: list[Run] = []
    run_sizes: list[int] = []
    with clock.measure("shuffle"):
        for ref, run in held:
            profile.shuffle_bytes += ref.stats.materialized_bytes
            if segment_reader is not None:
                run = segment_reader(ref.path, codec, run)
            if run_rows(run):
                runs.append(run)
                run_sizes.append(ref.stats.key_bytes + ref.stats.value_bytes)
    counters.incr(C.SHUFFLE_BYTES, profile.shuffle_bytes)
    if shuffle is not None and getattr(shuffle, "transport", "") == "network":
        # The network transport measured what actually crossed the NIC
        # (wire-codec compressed); the simulator prices this instead of
        # the logical payload when present.
        profile.wire_bytes = counters.get(C.SHUFFLE_WIRE_BYTES)

    # The decoded runs stay resident through the whole merge tail; rent
    # their payload bytes (deterministic, from IFileStats) under the
    # "merge" site so the ledger sees the reduce-side peak and an ``oom``
    # fault aimed at the merge has a charge to fire on.
    rent = (memory.rent(sum(run_sizes), site="merge")
            if memory is not None else nullcontext())
    with rent:
        result = _merge_group_reduce(job, task_id, runs, run_sizes, workdir,
                                     codec, counters, clock, profile,
                                     prepare_filter=prepare_filter,
                                     group_driver=group_driver)
    result.pipeline = pipeline
    return result


def _reduce_batch(job: Job, reducer: Any, kmat: np.ndarray,
                  vflat: memoryview, bounds: np.ndarray,
                  ctx: ReduceContext) -> bool:
    """Reduce a whole columnar merged run in one ``reduce_batch`` call.

    Taken when the reducer defines ``reduce_batch`` (see
    :class:`~repro.mapreduce.api.Reducer`) and the value serde decodes a
    column as an array: the group-leader key rows go to the reducer as
    ``lazy_rows`` (cell keys: checked, still packed), the value slab as
    one ``read_column_array`` pass, and the input counters move by their
    totals.  Returns False,
    having counted and emitted nothing, when that is not this run -- no
    ``reduce_batch``, no array decode, a decode that raises (the
    per-group loop then raises it at the group it belongs to, after the
    groups before it were reduced), or a reducer that declines the
    column -- and the caller's per-group loop does the work.
    """
    reduce_batch = getattr(reducer, "reduce_batch", None)
    read_array = getattr(job.value_serde, "read_column_array", None)
    if reduce_batch is None or read_array is None:
        return False
    try:
        keys = job.key_serde.lazy_rows(kmat[bounds[:-1]])
        values = read_array(vflat, kmat.shape[0])
    except CorruptRecordError:
        return False
    if reduce_batch(keys, values, bounds, ctx) is NotImplemented:
        return False
    ctx.counters.incr(C.REDUCE_INPUT_GROUPS, len(keys))
    ctx.counters.incr(C.REDUCE_INPUT_RECORDS, kmat.shape[0])
    return True


def _split_run(plugin: Any, reducer: Any, merged: Run, hooked: bool):
    """The shuffle plugin's reduce-side split of the merged run (see
    :class:`~repro.mapreduce.job.ShufflePlugin`): ``run_pieces`` of the
    run in whatever form it is when the plugin has it, the reducer takes
    pieces (``reduce_pieces``) and no skipping hook is active; else
    ``prepare_reduce`` of its records."""
    run_pieces = getattr(plugin, "run_pieces", None)
    if hooked or run_pieces is None or not hasattr(reducer, "reduce_pieces"):
        return plugin.prepare_reduce(run_records(merged))
    return run_pieces(merged)


def _merge_group_reduce(
    job: Job,
    task_id: str,
    runs: list[Run],
    run_sizes: list[int],
    workdir: str,
    codec,
    counters: Counters,
    clock: CostClock,
    profile: TaskProfile,
    *,
    prepare_filter=None,
    group_driver=None,
) -> ReduceTaskResult:
    """Fig 1 steps 5-7: merge fetched runs, group, reduce, collect output.

    The tail of :func:`run_reduce_task`, whichever way its segments
    arrived: given the decoded non-empty runs **in map task order**,
    the merged stream, counters, and output depend on those runs alone.

    Runs may be columnar (fixed-width or ragged values) or record
    lists, in any mix.  On-disk passes and the final merge go through
    :func:`~repro.mapreduce.sort.merge_sorted_runs` (columnar runs of
    one key width: concatenate + stable argsort, ``append_batch`` out
    and ``read_columnar`` back; otherwise the heap merge over records)
    -- the same record sequence, and therefore the same pass files and
    ``MERGE_PASS_BYTES``, either way.  Then, by job:

    - no shuffle plugin, fixed-width run: grouped by ``group_bounds``
      and reduced by one ``reduce_batch`` call where the reducer defines
      one (:func:`_reduce_batch`), else group by group, each group's
      values decoding in one ``read_column`` over its slice of the value
      slab;
    - a shuffle plugin: the plugin splits the run in whatever form it is
      (:func:`_split_run`).  Pieces go to the reducer's
      ``reduce_pieces`` in one call; records -- masked blocks, a reducer
      without ``reduce_pieces``, a skipping retry -- group by group;
    - anything else (records, a plugin-less ragged run) group by group.

    A run decays to records only for the consumers defined on records:
    the two skipping hooks, and the record ``prepare_reduce``.
    """
    # Multi-pass on-disk merge when we hold too many runs (step 5).
    passes = plan_merge_passes(len(runs), job.merge_factor)
    for pass_idx, take in enumerate(passes):
        # Merge the smallest runs first (Hadoop's policy).  Sorting the
        # cached sizes is O(runs log runs); the previous implementation
        # recomputed every run's size by walking all of its records on
        # every pass.  Python's sort is stable, so ties keep arrival
        # order -- the same order the re-scanning version produced.
        paired = sorted(zip(run_sizes, runs), key=lambda t: t[0])
        victims = [r for _, r in paired[:take]]
        runs = [r for _, r in paired[take:]]
        run_sizes = [s for s, _ in paired[take:]]
        path = os.path.join(workdir, f"{task_id}-merge{pass_idx}")
        with clock.measure("merge"):
            writer = IFileWriter(path, codec)
            _write_run(writer, merge_sorted_runs(victims))
            stats = writer.close()
            profile.local_write_bytes += stats.materialized_bytes
            counters.incr(C.MERGE_PASS_BYTES, stats.materialized_bytes)
            merged_back = _read_run(IFileReader(path, codec), stats)
            profile.local_read_bytes += stats.materialized_bytes
        os.unlink(path)
        runs.append(merged_back)
        run_sizes.append(stats.key_bytes + stats.value_bytes)

    with clock.measure("merge"):
        merged = merge_sorted_runs(runs)

    plugin = job.shuffle_plugin
    reducer = job.reducer()
    hooked = prepare_filter is not None or group_driver is not None
    if hooked:
        # the skipping hooks are defined on records
        merged = run_records(merged)
        if prepare_filter is not None:
            merged = prepare_filter(merged)

    if plugin is not None:
        with clock.measure("split"):
            before = run_rows(merged)
            merged = _split_run(plugin, reducer, merged, hooked)
            after = len(merged) if type(merged) is list else merged.rows
            counters.incr(C.KEY_SPLITS, max(0, after - before))
    elif type(merged) is tuple and type(merged[1]) is Ragged:
        # values of several widths, no plugin: grouped as records
        merged = run_records(merged)

    ctx = ReduceContext(counters)
    with clock.measure("reduce"):
        if group_driver is not None:
            group_driver(reducer, merged, ctx)
        elif type(merged) is tuple:
            # Groups are adjacent equal key rows.  One batched call
            # when the reducer takes one; else each group's values
            # decode in one ``read_column`` pass over its slice of the
            # contiguous value slab -- what ``read_batch`` does to the
            # joined blobs below, without the blobs.
            kmat, vmat = merged
            kw, vw = kmat.shape[1], vmat.shape[1]
            vflat = memoryview(np.ascontiguousarray(vmat)).cast("B")
            bounds = group_bounds(kmat)
            if not _reduce_batch(job, reducer, kmat, vflat, bounds, ctx):
                kflat = kmat.tobytes()
                bounds = bounds.tolist()
                for start, end in zip(bounds, bounds[1:]):
                    counters.incr(C.REDUCE_INPUT_GROUPS)
                    counters.incr(C.REDUCE_INPUT_RECORDS, end - start)
                    key = job.key_serde.from_bytes(
                        kflat[start * kw:(start + 1) * kw])
                    values = job.value_serde.read_column(
                        vflat[start * vw:end * vw], end - start)
                    reducer.reduce(key, values, ctx)
        elif type(merged) is not list:
            # the plugin's pieces: one call for the whole run
            reducer.reduce_pieces(merged, ctx)
            counters.incr(C.REDUCE_INPUT_GROUPS, merged.groups)
            counters.incr(C.REDUCE_INPUT_RECORDS, merged.rows)
        else:
            for kb, value_blobs in group_by_key(merged):
                counters.incr(C.REDUCE_INPUT_GROUPS)
                counters.incr(C.REDUCE_INPUT_RECORDS, len(value_blobs))
                key = job.key_serde.from_bytes(kb)
                values = job.value_serde.read_batch(value_blobs)
                reducer.reduce(key, values, ctx)

    profile.cpu_seconds = clock.as_dict()
    for category, seconds in cost_categories(codec).items():
        profile.cpu_seconds[category] = (
            profile.cpu_seconds.get(category, 0.0) + seconds
        )
    # the output's packed size; an aggregate job's reducer emits cell
    # keys, whose serde the plugin names
    profile.output_bytes = ctx.output.packed_bytes(getattr(
        plugin, "output_key_serde", job.key_serde))
    return ReduceTaskResult(task_id=task_id, output=ctx.output,
                            counters=counters, profile=profile)
