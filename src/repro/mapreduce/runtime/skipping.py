"""Record-level skipping mode: Hadoop's SkipBadRecords, reproduced.

A task that dies on one poison record is wasteful at any scale and
fatal at the scales the paper targets -- so Hadoop re-runs a failing
attempt in *skipping mode*, bisecting the input record range until the
poison records are isolated, then processes everything else and ships
the poison to a skip directory.  This module is that ladder rung for
both runners:

* :func:`run_map_task_skipping` wraps the engine's map task with a
  driver that bisects the split's flat cell range via
  :meth:`~repro.mapreduce.api.Mapper.map_range` probes, quarantines
  the poison cells, and maps the clean remainder with the real
  context -- the output is exactly the clean run's output minus the
  poison cells' emissions.
* :func:`run_reduce_task_skipping` hooks the engine's reduce task:
  corrupt *blocks* of chunked segments are salvaged around
  (:meth:`~repro.mapreduce.ifile.IFileReader.read_salvage`),
  undecodable records are filtered before the shuffle plugin, and each
  key group runs in isolation so one poison group is quarantined
  instead of failing the task.

Skipped records land in an IFile-format quarantine side-file
(``<task_id>-quarantine``) and are surfaced through the
``RECORDS_SKIPPED`` / ``QUARANTINE_RECORDS`` / ``QUARANTINE_BYTES``
counters.  A :class:`~repro.mapreduce.job.SkipPolicy` budget bounds how
much a task may skip: a fault that poisons everything must still fail.

Skipping only ever engages *after* a strict attempt failed, so the
clean path stays byte-identical to a runtime without this module.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.mapreduce.api import MapContext, ReduceContext
from repro.mapreduce.codecs import NullCodec
from repro.mapreduce.engine import (
    MapTaskOutput,
    ReduceTaskResult,
    run_map_task,
    run_reduce_task,
)
from repro.mapreduce.ifile import (
    IFileBlockCorruptError,
    IFileCorruptError,
    IFileReader,
    IFileWriter,
)
from repro.mapreduce.job import Job
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.sort import group_by_key
from repro.util.errors import CorruptRecordError

__all__ = [
    "SkipUnsupportedError",
    "SkipBudgetExceededError",
    "QuarantineWriter",
    "is_skip_eligible",
    "bisect_poison_records",
    "run_map_task_skipping",
    "run_reduce_task_skipping",
]


class SkipUnsupportedError(RuntimeError):
    """The task cannot run in skipping mode (no ``map_range`` support)."""


class SkipBudgetExceededError(RuntimeError):
    """More records needed skipping than the policy's budget allows."""

    def __init__(self, task_id: str, skipped: int, budget: int) -> None:
        super().__init__(
            f"{task_id}: {skipped} records need skipping, budget is {budget}")
        self.task_id = task_id
        self.skipped = skipped
        self.budget = budget


def is_skip_eligible(exc: BaseException) -> bool:
    """Whether a failure should send the task into skipping mode.

    Skipping handles failures that *localize to records*: user-code
    exceptions and block-local corruption.  It explicitly does not
    handle whole-segment corruption (:class:`IFileCorruptError` other
    than the block-local subclass -- that is the repair rung's job),
    failed shuffle transfers (:class:`~repro.mapreduce.runtime.shuffle.
    FetchFailedError` -- the fetch-failure/re-execution ladder's job;
    there is no data to skip around), or skipping's own terminal errors
    (budget exhausted, unsupported).
    """
    from repro.mapreduce.runtime.shuffle import FetchFailedError
    if isinstance(exc, (SkipBudgetExceededError, SkipUnsupportedError,
                        FetchFailedError)):
        return False
    if isinstance(exc, IFileCorruptError):
        return isinstance(exc, IFileBlockCorruptError)
    return isinstance(exc, Exception)


def bisect_poison_records(
    n: int,
    probe: Callable[[int, int], bool],
    budget: int,
    task_id: str = "?",
) -> list[int]:
    """Isolate the failing records in ``[0, n)`` by range bisection.

    ``probe(lo, hi)`` runs the user code over records ``[lo, hi)`` and
    returns True when it survives.  A failing range is split in half
    until single failing records remain -- Hadoop's shrinking skip
    window, O(k log n) probes for k poison records.  Raises
    :class:`SkipBudgetExceededError` as soon as more than ``budget``
    poison records have been found.
    """
    poison: list[int] = []
    stack: list[tuple[int, int]] = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if lo >= hi:
            continue
        if probe(lo, hi):
            continue
        if hi - lo == 1:
            poison.append(lo)
            if len(poison) > budget:
                raise SkipBudgetExceededError(task_id, len(poison), budget)
            continue
        mid = (lo + hi) // 2
        stack.append((mid, hi))
        stack.append((lo, mid))
    return sorted(poison)


class QuarantineWriter:
    """Collects skipped records and commits them to a quarantine IFile.

    Records are ``(key, value)`` byte pairs -- the actual skipped
    intermediate records where they exist (reduce groups), or a
    ``<task_id>/<origin>/<index>`` tag key with the raw poisoned bytes
    as the value where they don't (map input cells, corrupt blocks).
    ``skipped`` counts *logical input records* lost, which is what the
    budget bounds and the ``RECORDS_SKIPPED`` counter reports.
    """

    def __init__(self, task_id: str, workdir: str, policy: Any) -> None:
        self.task_id = task_id
        self.policy = policy
        directory = policy.quarantine_dir or workdir
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, f"{task_id}-quarantine")
        self._records: list[tuple[bytes, bytes]] = []
        self.skipped = 0

    def add(self, key: bytes, value: bytes, skipped: int = 1) -> None:
        """Quarantine one record; raises past the policy's budget."""
        self._records.append((bytes(key), bytes(value)))
        self.skipped += skipped
        if self.skipped > self.policy.skip_budget:
            raise SkipBudgetExceededError(
                self.task_id, self.skipped, self.policy.skip_budget)

    def add_tagged(self, tag: str, payload: bytes, skipped: int = 1) -> None:
        """Quarantine raw bytes under a provenance tag key."""
        self.add(tag.encode("utf-8"), payload, skipped)

    @property
    def quarantine_bytes(self) -> int:
        """Total key+value bytes quarantined so far."""
        return sum(len(k) + len(v) for k, v in self._records)

    def commit(self, counters: Counters) -> str | None:
        """Write the side-file (if non-empty) and bump the counters.

        Returns the side-file path, or ``None`` when nothing was
        skipped (no empty quarantine files litter the clean-ish case).
        """
        if not self._records:
            return None
        counters.incr(C.RECORDS_SKIPPED, self.skipped)
        counters.incr(C.QUARANTINE_RECORDS, len(self._records))
        counters.incr(C.QUARANTINE_BYTES, self.quarantine_bytes)
        writer = IFileWriter(self.path, NullCodec(), atomic=True)
        for key, value in self._records:
            writer.append(key, value)
        writer.close()
        return self.path


def _require_policy(job: Job, task_id: str) -> Any:
    """The job's skip policy, or a clear error if skipping is off."""
    if job.skipping is None:
        raise ValueError(
            f"{task_id}: skipping mode requires job.skipping to be set")
    return job.skipping


def run_map_task_skipping(job: Job, split: Any, dataset: Any,
                          workdir: str, *, memory: Any = None
                          ) -> MapTaskOutput:
    """Re-run a failed map attempt in skipping mode.

    Bisects the split's flat cell index range with throwaway probe
    mappers (fresh instances, null emit context), quarantines the
    isolated poison cells (tag ``<task_id>/map-input/<index>``, value =
    the cell's raw input bytes), then maps the clean ranges with the
    engine-provided mapper and real context.  Counters gain the skip
    totals on top of the standard accounting.  ``memory`` is the
    attempt's ledger, charged exactly as the strict body charges it.
    """
    task_id = f"m{split.split_id:05d}"
    policy = _require_policy(job, task_id)
    quarantine = QuarantineWriter(task_id, workdir, policy)

    def driver(mapper: Any, drv_split: Any, values: Any,
               ctx: MapContext) -> None:
        """Probe-bisect-then-map replacement for ``mapper.map``."""
        n = int(values.size)

        def probe(lo: int, hi: int) -> bool:
            probe_mapper = job.mapper()
            if getattr(probe_mapper, "wants_dataset", False):
                probe_mapper.dataset = dataset
            null_ctx = MapContext(
                job.key_serde, job.value_serde, lambda kb, vb: None,
                Counters(), batch_sink=lambda keys, vals: None)
            probe_mapper.setup(drv_split)
            try:
                probe_mapper.map_range(drv_split, values, null_ctx, lo, hi)
                probe_mapper.cleanup(null_ctx)
                return True
            except NotImplementedError as exc:
                raise SkipUnsupportedError(
                    f"{task_id}: {type(probe_mapper).__name__} does not "
                    f"implement map_range") from exc
            except (SkipUnsupportedError, SkipBudgetExceededError):
                raise
            except Exception:
                return False

        try:
            poison = bisect_poison_records(n, probe, policy.skip_budget,
                                           task_id)
        except SkipUnsupportedError:
            # Mapper can't bisect (no map_range): degrade to a plain
            # retry -- a transient failure still recovers, a sticky one
            # fails the attempt again exactly as without skipping.
            mapper.map(drv_split, values, ctx)
            mapper.cleanup(ctx)
            return
        flat = values.reshape(-1)
        pos = 0
        for index in poison:
            if pos < index:
                mapper.map_range(drv_split, values, ctx, pos, index)
            pos = index + 1
        if pos < n:
            mapper.map_range(drv_split, values, ctx, pos, n)
        mapper.cleanup(ctx)
        for index in poison:
            quarantine.add_tagged(
                f"{task_id}/map-input/{index}", flat[index:index + 1].tobytes())

    out = run_map_task(job, split, dataset, workdir, driver=driver,
                       memory=memory)
    quarantine.commit(out.counters)
    return out


def run_reduce_task_skipping(
    job: Job,
    part: int,
    segments: Any,
    workdir: str,
    *,
    shuffle: Any = None,
    fetch_faults: Any = None,
    memory: Any = None,
    link: Any = None,
) -> ReduceTaskResult:
    """Re-run a failed reduce attempt in skipping mode.

    Three isolation layers, engaged through the engine's reduce hooks:

    1. a corrupt *block* of a chunked input segment is salvaged around
       -- healthy blocks are kept, the bad block's raw bytes are
       quarantined (tag ``<task_id>/block/<segment>/<index>``), and the
       footer's record count for it is charged to the skip budget;
    2. records whose key or value no longer decode are dropped before
       the shuffle plugin sees them (tag ``<task_id>/record/<index>``);
    3. each key group runs against the reducer in isolation -- a group
       that raises is quarantined as its actual ``(key, value)``
       records and contributes nothing to output or group counters.

    Whole-segment corruption still raises :class:`IFileCorruptError`:
    that is the repair rung's job, not skipping's.

    ``segments``, ``shuffle``, ``fetch_faults``, ``memory`` and
    ``link`` go to :func:`~repro.mapreduce.engine.run_reduce_task`
    as they are -- a ref list or a pipelined shuffle's plan alike.
    """
    task_id = f"r{part:05d}"
    policy = _require_policy(job, task_id)
    quarantine = QuarantineWriter(task_id, workdir, policy)

    def segment_reader(path: str, codec: Any,
                       blob: bytes) -> list[tuple[bytes, bytes]]:
        """Strict decode of the fetched bytes, falling back to block
        salvage on block damage (``path`` is provenance only)."""
        try:
            return IFileReader(blob, codec, path=path).read_all()
        except IFileBlockCorruptError:
            reader = IFileReader(blob, codec, verify_checksum=False,
                                 path=path)
            records, bad = reader.read_salvage()
            base = os.path.basename(path)
            for block in bad:
                quarantine.add_tagged(
                    f"{task_id}/block/{base}/{block.index}",
                    block.raw, skipped=block.records)
            return records

    def prepare_filter(
        merged: list[tuple[bytes, bytes]],
    ) -> list[tuple[bytes, bytes]]:
        """Drop records the job's serdes can no longer decode."""
        if job.shuffle_plugin is None:
            return merged
        out = []
        for index, (kb, vb) in enumerate(merged):
            try:
                job.key_serde.from_bytes(kb)
                job.value_serde.from_bytes(vb)
            except CorruptRecordError:
                quarantine.add_tagged(
                    f"{task_id}/record/{index}", bytes(kb) + bytes(vb))
                continue
            out.append((kb, vb))
        return out

    def group_driver(reducer: Any, merged: list[tuple[bytes, bytes]],
                     ctx: ReduceContext) -> None:
        """Per-group fault isolation around the engine's reduce loop."""
        for kb, value_blobs in group_by_key(merged):
            sub_counters = Counters()
            sub_ctx = ReduceContext(sub_counters)
            try:
                key = job.key_serde.from_bytes(kb)
                values = job.value_serde.read_batch(value_blobs)
                reducer.reduce(key, values, sub_ctx)
            except (SkipBudgetExceededError, SkipUnsupportedError):
                raise
            except Exception:
                for vb in value_blobs:
                    quarantine.add(kb, vb)
                continue
            ctx.counters.incr(C.REDUCE_INPUT_GROUPS)
            ctx.counters.incr(C.REDUCE_INPUT_RECORDS, len(value_blobs))
            ctx.counters.merge(sub_counters)
            ctx.output.extend(sub_ctx.output)

    result = run_reduce_task(
        job, part, segments, workdir,
        segment_reader=segment_reader, prepare_filter=prepare_filter,
        group_driver=group_driver, shuffle=shuffle,
        fetch_faults=fetch_faults, memory=memory, link=link)
    quarantine.commit(result.counters)
    return result
