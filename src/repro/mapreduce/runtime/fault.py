"""Deterministic fault injection for the task runtimes.

A :class:`FaultInjector` is a picklable plan mapping ``(task_id,
attempt)`` to one :class:`Fault`.  The plan rides into every worker
process; the worker consults it at well-defined points so tests can
exercise the scheduler's whole failure surface deterministically:

* ``kill``    -- the worker process exits abruptly (no result, no
  traceback), like a machine loss or an OOM kill;
* ``crash``   -- the task raises mid-flight, like a user-code bug that
  happens to be transient;
* ``hang``    -- the task sleeps before doing any work, turning it into
  a straggler for the speculative-execution or task-timeout path;
* ``stall``   -- the worker SIGSTOPs itself: the process stays *alive*
  but every thread (heartbeat included) freezes, which only the
  scheduler's heartbeat-staleness check can detect;
* ``corrupt`` -- a segment file is silently damaged on disk.  By
  default a map task completes *successfully* but one of its output
  segments is bit-flipped (Hadoop's fetch-failure scenario); ``where=
  "reduce-input"`` instead damages one of a reduce task's input
  segments before it runs, and ``offset_frac``/``op`` choose the
  position and kind of damage (flip one byte, truncate, splice);
* ``poison``  -- user code raises deterministically on one input
  record (``record``), the scenario Hadoop's SkipBadRecords exists
  for.  Poison faults are *sticky* by default: retries hit the same
  record, so only skipping mode can get the task past it.
* ``fetch``   -- a shuffle *transfer* fails in flight.  Fetch faults
  are keyed by the ``"<map_id>-><reduce_id>"`` pair instead of a task
  id, ``attempt`` is the fetch-attempt ordinal within one reduce
  attempt, and ``op`` picks the damage: ``drop`` (stream dies
  mid-transfer), ``delay`` (late but intact), ``stall`` (stream hangs
  until the fetch deadline), ``truncate`` (short transfer), ``flip``
  (bit-flip in flight).  ``epoch`` scopes the fault to one segment
  generation: a sticky epoch-0 fault makes a segment *permanently*
  unfetchable until the scheduler re-executes the producing map --
  whose epoch-1 replacement then fetches cleanly.

Non-sticky faults target a specific attempt (default: the first), so
the retried attempt runs clean and the job completes -- which is
exactly what the robustness tests assert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace as dc_replace
from typing import Any

from repro.mapreduce.api import MapContext, Mapper, ReduceContext, Reducer

__all__ = [
    "Fault",
    "FaultInjector",
    "PoisonRecordError",
    "PoisonedMapper",
    "PoisonedReducer",
    "poisoned_job",
    "corrupt_file",
    "fetch_pair_id",
    "FETCH_OPS",
    "HOST_MODES",
    "DISK_OPS",
    "OOM_SITES",
    "OOM_OPS",
    "host_fault_id",
]

MODES = ("kill", "crash", "hang", "corrupt", "stall", "poison", "fetch",
         "host_crash", "host_partition", "disk_fault", "oom")
#: host-level failure domains (keyed by host name, not task id)
HOST_MODES = ("host_crash", "host_partition", "disk_fault")
#: memory-ledger sites an ``oom`` fault can target (``where``): the map
#: sort buffer, the reduce's segment in transfer, or the reduce-side merge
OOM_SITES = ("sort", "fetch", "merge")
#: how an ``oom`` fault fires: ``raise`` (simulated ``MemoryError`` at
#: the site's next ledger charge), ``kill`` (SIGKILL-style worker death
#: when the site's charged bytes cross ``record`` -- the kernel OOM
#: killer), ``alloc`` (really allocate ``record`` bytes, for a genuine
#: ``MemoryError`` under ``RLIMIT_AS``)
OOM_OPS = ("raise", "kill", "alloc")
#: which file a ``corrupt`` fault damages
CORRUPT_WHERE = ("map-output", "reduce-input")
#: how a ``corrupt`` fault damages it
CORRUPT_OPS = ("flip", "truncate", "splice")
#: how a ``fetch`` fault damages a shuffle transfer in flight
FETCH_OPS = ("drop", "delay", "stall", "truncate", "flip")
#: which errno a ``disk_fault`` raises from the failing workdir
DISK_OPS = ("enospc", "eio")


def fetch_pair_id(map_id: str, reduce_id: str) -> str:
    """The plan key for a fetch fault on one (map, reduce) link."""
    return f"{map_id}->{reduce_id}"


def host_fault_id(host: str) -> str:
    """The plan key for a host-level fault (``host_crash`` etc.)."""
    return f"@{host}"


class PoisonRecordError(RuntimeError):
    """The deterministic user-code failure a ``poison`` fault injects."""


@dataclass(frozen=True)
class Fault:
    """One injected failure, bound to a task attempt."""

    mode: str
    attempt: int = 0
    #: sleep length for ``hang`` faults
    seconds: float = 30.0
    #: process exit status for ``kill`` faults
    exit_code: int = 13
    #: target record for ``poison`` faults: a flat input cell index for
    #: map tasks, a reduce-group ordinal for reduce tasks
    record: int = 0
    #: apply on every attempt >= ``attempt`` (None = mode default:
    #: sticky for ``poison``, one-shot for everything else)
    sticky: bool | None = None
    #: ``corrupt`` target file: a map task's output segment or a reduce
    #: task's input segment
    where: str = "map-output"
    #: ``corrupt`` segment selector: the partition (map-output) or the
    #: input index (reduce-input); None = the first one
    segment: int | None = None
    #: ``corrupt`` damage position as a fraction of the file size
    offset_frac: float = 0.5
    #: ``corrupt`` damage kind (flip / truncate / splice) or ``fetch``
    #: damage kind (drop / delay / stall / truncate / flip)
    op: str = "flip"
    #: ``fetch`` only: the segment generation the fault applies to
    #: (``None`` = every generation, surviving even map re-execution)
    epoch: int | None = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; have {MODES}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.record < 0:
            raise ValueError(f"record must be >= 0, got {self.record}")
        if self.mode == "oom":
            if self.where not in OOM_SITES:
                raise ValueError(
                    f"unknown oom site {self.where!r}; have {OOM_SITES}")
        elif self.where not in CORRUPT_WHERE:
            raise ValueError(
                f"unknown corrupt target {self.where!r}; have {CORRUPT_WHERE}")
        if self.mode == "fetch":
            ops = FETCH_OPS
        elif self.mode == "disk_fault":
            ops = DISK_OPS
        elif self.mode == "oom":
            ops = OOM_OPS
        elif self.mode in ("host_crash", "host_partition"):
            ops = ("flip",)  # op unused for these modes; default passes
        else:
            ops = CORRUPT_OPS
        if self.op not in ops:
            raise ValueError(
                f"unknown {self.mode} op {self.op!r}; have {ops}")
        if not 0.0 <= self.offset_frac <= 1.0:
            raise ValueError(
                f"offset_frac must be in [0, 1], got {self.offset_frac}")
        if self.epoch is not None and self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if self.sticky is None:
            object.__setattr__(self, "sticky", self.mode == "poison")


class FaultInjector:
    """A plan of faults keyed by task id and attempt number."""

    def __init__(self) -> None:
        self._plan: dict[tuple[str, int], Fault] = {}

    # Builder-style helpers; all return self for chaining.

    def add(self, task_id: str, fault: Fault) -> "FaultInjector":
        key = (task_id, fault.attempt)
        if key in self._plan:
            raise ValueError(f"duplicate fault for {task_id} attempt {fault.attempt}")
        self._plan[key] = fault
        return self

    def kill(self, task_id: str, attempt: int = 0,
             exit_code: int = 13) -> "FaultInjector":
        return self.add(task_id, Fault("kill", attempt, exit_code=exit_code))

    def crash(self, task_id: str, attempt: int = 0) -> "FaultInjector":
        return self.add(task_id, Fault("crash", attempt))

    def hang(self, task_id: str, seconds: float,
             attempt: int = 0) -> "FaultInjector":
        return self.add(task_id, Fault("hang", attempt, seconds=seconds))

    def corrupt(self, task_id: str, attempt: int = 0, *,
                where: str = "map-output", segment: int | None = None,
                offset_frac: float = 0.5, op: str = "flip") -> "FaultInjector":
        """Plan silent disk damage: a map output (default) or, with
        ``where="reduce-input"``, one of a reduce task's inputs."""
        return self.add(task_id, Fault(
            "corrupt", attempt, where=where, segment=segment,
            offset_frac=offset_frac, op=op))

    def stall(self, task_id: str, attempt: int = 0) -> "FaultInjector":
        return self.add(task_id, Fault("stall", attempt))

    def poison(self, task_id: str, record: int,
               attempt: int = 0) -> "FaultInjector":
        """Plan a deterministic user-code failure on one input record."""
        return self.add(task_id, Fault("poison", attempt, record=record))

    def fetch(self, map_id: str, reduce_id: str, *, op: str = "flip",
              attempt: int = 0, sticky: bool = False,
              seconds: float = 30.0, offset_frac: float = 0.5,
              epoch: int | None = 0) -> "FaultInjector":
        """Plan an in-flight shuffle transfer failure on one link.

        ``attempt`` is the fetch-attempt ordinal within a reduce attempt
        (0 = the first try); a *sticky* fault hits every fetch attempt
        from that ordinal on, within the scoped ``epoch`` -- the
        "permanently unfetchable segment" that must escalate to map
        re-execution rather than fail the job.
        """
        return self.add(fetch_pair_id(map_id, reduce_id), Fault(
            "fetch", attempt, sticky=sticky, seconds=seconds,
            offset_frac=offset_frac, op=op, epoch=epoch))

    def host_crash(self, host: str) -> "FaultInjector":
        """Plan a whole-host loss: every worker on ``host`` is killed
        and its segment server (plus every committed segment copy it
        held) dies with it.  Applied at the shuffle barrier, the point
        where Hadoop's lost-tasktracker handling kicks in."""
        return self.add(host_fault_id(host), Fault("host_crash"))

    def host_partition(self, host: str, *, drops: int = 2,
                       seconds: float = 30.0) -> "FaultInjector":
        """Plan a network partition: every shuffle link out of ``host``
        loses its first ``drops`` fetch attempts while its workers keep
        heartbeating, so the health monitor must *not* declare it dead.

        The runners expand this into deterministic per-link ``drop``
        fetch faults (see :func:`~repro.mapreduce.runtime.hosts.
        expand_host_partition`), clamped to the transport's retry budget
        so the partition heals in-attempt; ``drops`` rides in the
        fault's ``record`` field.  ``seconds`` sizes the wall-clock
        blackhole for the live ``ShuffleService.partition_server`` hook
        (unit tests only -- wall-clock windows cannot give
        runner-identical retry counts).
        """
        return self.add(host_fault_id(host),
                        Fault("host_partition", record=drops,
                              seconds=seconds))

    def oom(self, task_id: str, *, site: str = "sort", op: str = "raise",
            attempt: int = 0, nbytes: int = 0,
            sticky: bool = False) -> "FaultInjector":
        """Plan an out-of-memory failure at one ledger site.

        ``op="raise"`` injects a simulated ``MemoryError`` at ``site``'s
        next charge; ``op="kill"`` dies SIGKILL-style the moment the
        site's charged bytes cross ``nbytes`` (sticky, this models a
        kernel OOM killer that only backpressure can appease);
        ``op="alloc"`` really allocates ``nbytes`` at the site, which
        under ``RLIMIT_AS`` raises a *genuine* ``MemoryError``.  The
        runners' degrade ladder answers all three by retrying with
        halved memory knobs.
        """
        return self.add(task_id, Fault(
            "oom", attempt, where=site, op=op, record=nbytes,
            sticky=sticky))

    def disk_fault(self, host: str, *, op: str = "enospc") -> "FaultInjector":
        """Plan a workdir disk failure on ``host``: spill/commit writes
        raise ENOSPC/EIO, forcing failover to a secondary workdir and
        quarantine of the bad one."""
        return self.add(host_fault_id(host), Fault("disk_fault", op=op))

    def planned(self) -> list[tuple[str, Fault]]:
        """Every planned ``(task_id, fault)`` entry, sorted by task id
        then anchor attempt (``fault.attempt``) -- the public view of
        the plan, for validation and reporting."""
        return [(tid, fault) for (tid, _), fault in sorted(self._plan.items())]

    def host_plan(self) -> dict[str, Fault]:
        """Every planned host-level fault, keyed by host name.

        Plain picklable data, consumed by the runners at the shuffle
        barrier and by the scheduler when launching workers.
        """
        plan: dict[str, Fault] = {}
        for tid, fault in self.planned():
            if fault.mode in HOST_MODES and tid.startswith("@"):
                plan[tid[1:]] = fault
        return plan

    def fetch_plan_for(self, reduce_id: str) -> dict[str, tuple[Fault, ...]]:
        """Every fetch fault aimed at one reduce task, keyed by map id.

        The returned mapping is plain data (picklable), so it can ride
        into the reduce worker process the way task faults do.
        """
        suffix = f"->{reduce_id}"
        plan: dict[str, list[Fault]] = {}
        for tid, fault in self.planned():
            if fault.mode == "fetch" and tid.endswith(suffix):
                map_id = tid[:-len(suffix)]
                plan.setdefault(map_id, []).append(fault)
        return {m: tuple(fs) for m, fs in plan.items()}

    def fetch_plan(self) -> dict[str, tuple[Fault, ...]]:
        """Every planned fetch fault, keyed by ``"<map>-><reduce>"`` pair.

        The network shuffle service applies wire faults *server-side*
        (the damage happens on a live socket, not in the client), so it
        needs the whole plan rather than one reduce task's slice.
        """
        plan: dict[str, list[Fault]] = {}
        for tid, fault in self.planned():
            if fault.mode == "fetch":
                plan.setdefault(tid, []).append(fault)
        return {k: tuple(fs) for k, fs in plan.items()}

    def has(self, task_id: str, attempt: int) -> bool:
        """Whether an exact ``(task_id, attempt)`` entry is planned."""
        return (task_id, attempt) in self._plan

    def fault_for(self, task_id: str, attempt: int) -> Fault | None:
        """The fault planned for this attempt, if any.

        An exact ``(task_id, attempt)`` entry wins; otherwise the most
        recently anchored *sticky* fault with ``fault.attempt <=
        attempt`` applies -- a poison record does not go away because
        the task was retried.
        """
        exact = self._plan.get((task_id, attempt))
        if exact is not None:
            return exact
        best: Fault | None = None
        for (tid, anchor), fault in self._plan.items():
            if tid != task_id or not fault.sticky or anchor > attempt:
                continue
            if best is None or anchor > best.attempt:
                best = fault
        return best

    def __len__(self) -> int:
        return len(self._plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{tid}.{f.attempt}={f.mode}" for tid, f in self.planned())
        return f"FaultInjector({rows})"


def corrupt_file(path: str, offset_frac: float = 0.5, op: str = "flip") -> None:
    """Damage ``path`` in place the way a ``corrupt`` fault specifies.

    ``flip`` XORs one byte at ``offset_frac`` of the file, ``truncate``
    cuts the file there, ``splice`` swaps two 8-byte windows (simulating
    a misdirected write).  A splice whose windows carry identical bytes
    would be a no-op, so it falls back to a flip -- injected corruption
    must actually corrupt.
    """
    size = os.path.getsize(path)
    if size == 0:
        return
    offset = min(size - 1, int(size * offset_frac))
    if op == "truncate":
        os.truncate(path, offset)
        return
    if op == "splice":
        a, b = offset // 2, offset
        width = min(8, size - b, b - a)
        if width > 0:
            with open(path, "r+b") as fh:
                fh.seek(a)
                first = fh.read(width)
                fh.seek(b)
                second = fh.read(width)
                if first != second:
                    fh.seek(a)
                    fh.write(second)
                    fh.seek(b)
                    fh.write(first)
                    return
        # degenerate window (tiny file or identical bytes): flip instead
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class PoisonedMapper(Mapper):
    """Wraps a job's mapper so one input record raises (``poison``).

    The poison record is a flat (row-major) cell index into the split's
    slab.  :meth:`map` raises before emitting anything when the record
    is in range; :meth:`map_range` raises only when the range covers the
    record, so skipping mode can bisect down to it.
    """

    def __init__(self, inner: Mapper, record: int) -> None:
        self.inner = inner
        self.record = record
        self.wants_dataset = getattr(inner, "wants_dataset", False)

    @property
    def dataset(self) -> Any:
        """The input dataset, forwarded to the wrapped mapper."""
        return self.inner.dataset

    @dataset.setter
    def dataset(self, value: Any) -> None:
        self.inner.dataset = value

    def setup(self, split) -> None:
        self.inner.setup(split)

    def map(self, split, values, ctx: MapContext) -> None:
        if 0 <= self.record < values.size:
            raise PoisonRecordError(
                f"injected poison record {self.record} in split "
                f"{split.split_id}")
        self.inner.map(split, values, ctx)

    def map_range(self, split, values, ctx: MapContext,
                  start: int, stop: int) -> None:
        if start <= self.record < stop:
            raise PoisonRecordError(
                f"injected poison record {self.record} in split "
                f"{split.split_id}")
        self.inner.map_range(split, values, ctx, start, stop)

    def cleanup(self, ctx: MapContext) -> None:
        self.inner.cleanup(ctx)


class PoisonedReducer(Reducer):
    """Wraps a job's reducer so one key group raises (``poison``).

    The poison record is the zero-based ordinal of the key group within
    the reduce task's sorted input.  It declares the inner ``monoid``.
    """

    def __init__(self, inner: Reducer, record: int) -> None:
        self.inner = inner
        self.record = record
        self.monoid = getattr(inner, "monoid", None)
        self._ordinal = -1

    def reduce(self, key, values, ctx: ReduceContext) -> None:
        self._ordinal += 1
        if self._ordinal == self.record:
            raise PoisonRecordError(
                f"injected poison at reduce group {self.record} "
                f"(key {key!r})")
        self.inner.reduce(key, values, ctx)


def poisoned_job(job: Any, fault: Fault, kind: str) -> Any:
    """A copy of ``job`` whose mapper or reducer factory injects
    ``fault``'s poison record.

    Built *inside* the process that runs the task (the factory closure
    is not picklable, and does not need to be).
    """
    if kind == "map":
        base = job.mapper
        return dc_replace(
            job, mapper=lambda: PoisonedMapper(base(), fault.record))
    if kind == "reduce":
        base_r = job.reducer
        return dc_replace(
            job, reducer=lambda: PoisonedReducer(base_r(), fault.record))
    raise ValueError(f"unknown task kind {kind!r}")
