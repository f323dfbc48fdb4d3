"""Job counters and per-task cost profiles.

Hadoop exposes its data-path byte accounting through named counters; the
one the paper reports throughout is ``MAP_OUTPUT_MATERIALIZED_BYTES``
("Map output materialized bytes"), the on-disk size of the compressed map
output.  We reproduce the counters the experiments need, plus a
:class:`TaskProfile` per task that the cluster simulator schedules.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Counters", "TaskProfile", "C"]


class C:
    """Canonical counter names (subset of Hadoop's TaskCounter)."""

    MAP_INPUT_RECORDS = "MAP_INPUT_RECORDS"
    MAP_OUTPUT_RECORDS = "MAP_OUTPUT_RECORDS"
    MAP_OUTPUT_BYTES = "MAP_OUTPUT_BYTES"  # uncompressed serialized bytes
    MAP_OUTPUT_MATERIALIZED_BYTES = "MAP_OUTPUT_MATERIALIZED_BYTES"
    MAP_OUTPUT_KEY_BYTES = "MAP_OUTPUT_KEY_BYTES"
    MAP_OUTPUT_VALUE_BYTES = "MAP_OUTPUT_VALUE_BYTES"
    MAP_OUTPUT_FILE_OVERHEAD_BYTES = "MAP_OUTPUT_FILE_OVERHEAD_BYTES"
    COMBINE_INPUT_RECORDS = "COMBINE_INPUT_RECORDS"
    COMBINE_OUTPUT_RECORDS = "COMBINE_OUTPUT_RECORDS"
    SPILLED_RECORDS = "SPILLED_RECORDS"
    SPILL_COUNT = "SPILL_COUNT"
    SHUFFLE_BYTES = "SHUFFLE_BYTES"
    MERGE_PASS_BYTES = "MERGE_PASS_BYTES"  # extra reducer-side merge I/O
    KEY_SPLITS = "KEY_SPLITS"  # aggregate keys split (routing + overlap)
    REDUCE_INPUT_GROUPS = "REDUCE_INPUT_GROUPS"
    REDUCE_INPUT_RECORDS = "REDUCE_INPUT_RECORDS"
    REDUCE_OUTPUT_RECORDS = "REDUCE_OUTPUT_RECORDS"
    # skipping mode (Hadoop SkipBadRecords): poison/corrupt records the
    # task isolated and routed to quarantine side-files instead of failing
    RECORDS_SKIPPED = "RECORDS_SKIPPED"
    QUARANTINE_RECORDS = "QUARANTINE_RECORDS"
    QUARANTINE_BYTES = "QUARANTINE_BYTES"
    # shuffle transport (fetch) accounting.  SHUFFLE_BYTES above is the
    # logical partition payload; SHUFFLE_BYTES_TRANSFERRED is what the
    # transport actually moved (re-fetches and truncated transfers make
    # them diverge under faults).
    SHUFFLE_FETCHES = "SHUFFLE_FETCHES"
    SHUFFLE_RETRIES = "SHUFFLE_RETRIES"
    SHUFFLE_FAILED_FETCHES = "SHUFFLE_FAILED_FETCHES"
    SHUFFLE_BYTES_TRANSFERRED = "SHUFFLE_BYTES_TRANSFERRED"
    # network shuffle: what actually crossed the wire.  WIRE_BYTES is the
    # (possibly codec-compressed) segment payload as transmitted;
    # WIRE_BYTES_UNCOMPRESSED is the same payload before the wire codec,
    # so their ratio is the on-the-wire compression the paper's stride
    # codec is after.  Both stay zero for in-process transports.
    SHUFFLE_WIRE_BYTES = "SHUFFLE_WIRE_BYTES"
    SHUFFLE_WIRE_BYTES_UNCOMPRESSED = "SHUFFLE_WIRE_BYTES_UNCOMPRESSED"
    # completed map tasks re-executed after a reducer exceeded its
    # fetch-failure threshold (Hadoop's "too many fetch failures")
    MAPS_REEXECUTED = "MAPS_REEXECUTED"
    # host failure domains: whole hosts declared dead (their segment
    # copies lost), completed maps re-executed *because* their only
    # copies lived on a lost host, and spill-path failovers onto a
    # secondary workdir after a disk fault
    HOSTS_LOST = "HOSTS_LOST"
    MAPS_REEXECUTED_HOST = "MAPS_REEXECUTED_HOST"
    DISK_FAILOVERS = "DISK_FAILOVERS"
    # memory resilience: injected/real OOM deaths the runners absorbed
    # and the degraded (halved-buffer) retries that absorbed them.
    # Deterministic under an injected fault plan, so they live in job
    # counters and stay serial/parallel-identical; clean runs leave
    # them zero (== absent).  Backpressure waits and byte peaks are
    # wall-clock-shaped and live in ``JobResult.memory_stats`` instead.
    MEMORY_OOM_EVENTS = "MEMORY_OOM_EVENTS"
    MEMORY_DEGRADED_ATTEMPTS = "MEMORY_DEGRADED_ATTEMPTS"
    # pipelined shuffle.  These are wall-clock-shaped measurements, so
    # they live in ``JobResult.pipeline_stats`` (keyed by these names),
    # NEVER in task/job ``Counters`` -- pipeline on/off must stay
    # byte-identical on counters.  REDUCE_FIRST_FETCH_MS is how soon the
    # first reducer fetch completed after the reduce attempt started;
    # PIPELINE_OVERLAP counts fetches completed while at least one
    # producing map was still uncommitted.
    REDUCE_FIRST_FETCH_MS = "REDUCE_FIRST_FETCH_MS"
    PIPELINE_OVERLAP = "PIPELINE_OVERLAP"


class Counters:
    """A named-counter multiset with merge, mirroring Hadoop counters.

    Merging is commutative and associative, so counters accumulated by
    tasks running in different processes and merged in *any* order are
    byte-identical to a serial accumulation -- the guarantee the
    parallel runtime's equivalence tests pin down.
    """

    def __init__(self) -> None:
        self._values: dict[str, int] = defaultdict(int)

    def incr(self, name: str, amount: int = 1) -> None:
        self._values[name] += int(amount)

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def merge(self, other: "Counters") -> None:
        for name, value in other._values.items():
            self._values[name] += value

    @classmethod
    def merged(cls, parts: "Iterable[Counters]") -> "Counters":
        """A fresh counter set folding every element of ``parts``."""
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def as_dict(self) -> dict[str, int]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        """Equal iff every counter matches (zero == absent)."""
        if not isinstance(other, Counters):
            return NotImplemented
        names = set(self._values) | set(other._values)
        return all(self.get(n) == other.get(n) for n in names)

    def __hash__(self) -> None:  # type: ignore[assignment]
        raise TypeError("Counters are mutable and unhashable")

    def diff(self, other: "Counters") -> dict[str, tuple[int, int]]:
        """``name -> (self, other)`` for every counter that differs."""
        names = set(self._values) | set(other._values)
        return {
            n: (self.get(n), other.get(n))
            for n in sorted(names)
            if self.get(n) != other.get(n)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counters({rows})"


@dataclass
class TaskProfile:
    """What one task did, in units the cluster simulator prices.

    ``cpu_seconds`` is split by category (``map``, ``codec``, ``sort``,
    ``reduce`` ...) so experiments can scale individual components -- e.g.
    §III-E attributes the 2x runtime regression specifically to transform
    CPU.
    """

    task_id: str
    kind: str  # "map" or "reduce"
    input_bytes: int = 0
    #: bytes written to local disk (spills + final map output / merge passes)
    local_write_bytes: int = 0
    #: bytes read back from local disk (merges, reduce input)
    local_read_bytes: int = 0
    #: bytes crossing the network (map->reduce fetch), before any wire
    #: codec -- the logical segment payload
    shuffle_bytes: int = 0
    #: bytes that actually crossed the NIC when a network transport
    #: measured them (wire-codec compressed); ``None`` = unmeasured
    #: (in-process transports), and the simulator falls back to
    #: ``shuffle_bytes``
    wire_bytes: int | None = None
    #: what the reduce task writes (a reduce's write phase): the part
    #: file's materialized bytes when the job sets both output serdes,
    #: else the output's packed size -- per record the key's serialized
    #: width plus 8 bytes for the value (``PackedOutput.packed_bytes``)
    output_bytes: int = 0
    cpu_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_cpu(self) -> float:
        return sum(self.cpu_seconds.values())
