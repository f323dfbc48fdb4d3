"""Job configuration.

One :class:`Job` describes everything the engine needs: the user code
(mapper/reducer factories), the intermediate types, the codec
(§III plugs in here), the partitioner, spill/merge tuning, and an
optional *shuffle plugin* -- the hook through which key aggregation
(§IV) teaches the shuffle to split aggregate keys.  The plugin hook is
our stand-in for the paper's "one set of changes inside Hadoop ...
which allows aggregate keys to be split during the routing and sorting
phases" (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro import settings
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.partition import HashPartitioner, Partitioner
from repro.mapreduce.serde import Serde

__all__ = ["Job", "ShufflePlugin", "SkipPolicy"]

Record = tuple[bytes, bytes]


@dataclass(frozen=True)
class SkipPolicy:
    """Record-level skipping configuration (Hadoop SkipBadRecords).

    When set on a job, an attempt that fails inside user code or record
    decode is re-run in skipping mode: the runtime bisects the input
    record range to isolate the poison records, writes them to a
    quarantine side-file, and processes the clean remainder.  The clean
    path is untouched -- skipping only engages after a failure.
    """

    #: hard cap on records quarantined per task; exceeding it fails the
    #: task (a fault that poisons everything should not "succeed")
    skip_budget: int = 1024
    #: directory for quarantine side-files (None = the task's workdir)
    quarantine_dir: str | None = None

    def __post_init__(self) -> None:
        settings.check("REPRO_SKIP_BUDGET", self.skip_budget, "skip_budget")


class ShufflePlugin(Protocol):
    """Engine hook for key types that are not atomic (§II-B assumption c).

    ``route`` replaces the partitioner call: it may split one record into
    several, each bound for one reducer.  ``prepare_reduce`` runs on a
    reducer's fully merged record list before grouping: the aggregate
    implementation splits overlapping ranges there (Fig 7).

    ``route`` and ``prepare_reduce`` are the record contract and the only
    methods a plugin must have.  A plugin may also define their column
    forms, which the engine then takes wherever it can; each is an
    optimisation, never a behaviour change (same records, same counts):

    ``route_batch(keys, values, num_reducers)``
        ``keys`` an ``(n, key_size)`` uint8 matrix, ``values`` a
        :class:`~repro.mapreduce.columnar.Ragged` column.  Returns
        ``(reducers, keys, values, ends)`` -- piece ``j`` the record
        ``(keys[j], values[j])`` bound for ``reducers[j]``, the pieces
        equal to the concatenation of ``route`` over the batch, record
        ``i``'s being ``[ends[i - 1], ends[i])`` -- or ``None`` to
        decline the batch untouched.  The engine serves
        ``MapContext.emit_serialized_batch`` through it (one call per
        batch, spills cut at the same input record as per-record
        routing, the pieces buffered as ragged chunks); a declined batch,
        a plugin without the method, or a record emitted by
        ``emit_serialized`` routes record by record.

    ``run_pieces(run)``
        ``prepare_reduce`` of a merged run in either form (records, or a
        key matrix + value column), returning the record list
        ``prepare_reduce`` would, or an object with ``rows`` (split
        records) and ``groups`` (distinct keys) that the reducer's
        ``reduce_pieces(pieces, ctx)`` takes whole -- it must emit what
        the per-group loop would.  Called when the reducer has
        ``reduce_pieces`` and no skipping hook is active; otherwise the
        engine calls ``prepare_reduce`` on the run's records.

    ``output_key_serde``
        The serde of the keys the job's reducer emits, when they are not
        the intermediate keys (range keys reduce to cell keys); the
        engine sizes ``TaskProfile.output_bytes`` under it.  Without it,
        ``Job.key_serde``.
    """

    def route(self, key_bytes: bytes, value_bytes: bytes,
              num_reducers: int) -> list[tuple[int, bytes, bytes]]: ...

    def prepare_reduce(self, records: list[Record]) -> list[Record]: ...


@dataclass
class Job:
    """Configuration for one MapReduce job."""

    name: str
    mapper: Callable[[], Mapper]
    reducer: Callable[[], Reducer]
    key_serde: Serde
    value_serde: Serde
    num_reducers: int = 1
    num_map_tasks: int = 1
    #: fold each sorted spill group map-side with the reducer's declared
    #: ``monoid`` (Hadoop's combiner, Fig 1 step 3)
    combine: bool = False
    #: codec registry name (see repro.mapreduce.codecs / core.stride.codec)
    codec: str = "null"
    codec_options: dict = field(default_factory=dict)
    partitioner: Callable[[int], Partitioner] = HashPartitioner
    #: serialized bytes buffered per map task before spilling (io.sort.mb)
    sort_buffer_bytes: int = 64 << 20
    #: maximum runs merged per pass (io.sort.factor)
    merge_factor: int = 10
    #: non-atomic key support (key aggregation installs itself here)
    shuffle_plugin: ShufflePlugin | None = None
    #: restrict input splits to these dataset variables (None = all);
    #: single-variable queries over multi-variable datasets need this
    input_variables: tuple[str, ...] | None = None
    #: record-level skipping mode (None = a poison record fails the task
    #: after retries, exactly as before)
    skipping: SkipPolicy | None = None
    #: chunk final map-output segments into independently checksummed
    #: blocks of about this many raw bytes (None = plain whole-segment
    #: CRC).  Lets a reducer salvage all but the damaged block.
    ifile_block_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError(f"num_reducers must be >= 1, got {self.num_reducers}")
        if self.num_map_tasks < 1:
            raise ValueError(f"num_map_tasks must be >= 1, got {self.num_map_tasks}")
        if self.sort_buffer_bytes < 1024:
            raise ValueError("sort_buffer_bytes unreasonably small (< 1 KiB)")
        if self.merge_factor < 2:
            raise ValueError(f"merge_factor must be >= 2, got {self.merge_factor}")
        if self.ifile_block_bytes is not None and self.ifile_block_bytes < 256:
            raise ValueError(
                f"ifile_block_bytes must be >= 256, got {self.ifile_block_bytes}")
        if self.combine and getattr(self.reducer(), "monoid", None) is None:
            raise ValueError(f"job {self.name!r}: combine=True needs a monoid")
