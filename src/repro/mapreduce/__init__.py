"""A from-scratch Hadoop-like MapReduce engine (the paper's substrate).

The paper's measurements are properties of Hadoop's *data path*: how
intermediate key/value pairs are serialized (one independent record at a
time, §II-B), framed on disk (IFile, with per-record overhead), compressed
(pluggable codecs, §III), partitioned, shuffled, and merge-sorted.  This
package reimplements that data path faithfully enough that byte counts --
the paper's primary metric -- are *measured*, not modeled:

* :mod:`~repro.mapreduce.serde` / :mod:`~repro.mapreduce.keys` -- the
  Writable-style type system, including the per-cell key layout whose
  size the paper's intro quantifies;
* :mod:`~repro.mapreduce.ifile` -- Hadoop-IFile-compatible framing;
* :mod:`~repro.mapreduce.codecs` -- the pluggable compression hook the
  paper's §III codec slots into;
* :mod:`~repro.mapreduce.api`, :mod:`~repro.mapreduce.job`,
  :mod:`~repro.mapreduce.engine` -- mapper/reducer APIs and the task
  bodies, with real spills, combiners, external merge sort and counters;
* :mod:`~repro.mapreduce.runtime` -- the task runtime (scheduler,
  retries, speculative execution, fault injection) and its two runners:
  :class:`LocalJobRunner` on one inline slot, :class:`ParallelJobRunner`
  on worker processes, with byte-identical counters;
* :mod:`~repro.mapreduce.simcluster` -- the discrete-event cluster
  simulator that turns measured task profiles into wall-clock estimates.
"""

from repro.mapreduce.keys import CellKey, CellKeySerde, RangeKey, RangeKeySerde
from repro.mapreduce.serde import (
    BytesSerde,
    Float32Serde,
    Float64Serde,
    Int32Serde,
    Int64Serde,
    Serde,
    TextSerde,
    ValueBlockSerde,
)
from repro.mapreduce.codecs import Codec, available_codecs, get_codec, register_codec
from repro.mapreduce.api import (FoldReducer, MapContext, Mapper, Monoid,
                                ReduceContext, Reducer)
from repro.mapreduce.job import Job
from repro.mapreduce.engine import JobResult
from repro.mapreduce.metrics import Counters, TaskProfile
from repro.mapreduce.runtime import (
    FaultInjector,
    LocalJobRunner,
    ParallelJobRunner,
    RuntimeTrace,
    TaskScheduler,
)

__all__ = [
    "CellKey",
    "CellKeySerde",
    "RangeKey",
    "RangeKeySerde",
    "Serde",
    "Int32Serde",
    "Int64Serde",
    "Float32Serde",
    "Float64Serde",
    "TextSerde",
    "BytesSerde",
    "ValueBlockSerde",
    "Codec",
    "get_codec",
    "register_codec",
    "available_codecs",
    "Mapper",
    "Reducer",
    "Monoid",
    "FoldReducer",
    "MapContext",
    "ReduceContext",
    "Job",
    "LocalJobRunner",
    "ParallelJobRunner",
    "JobResult",
    "Counters",
    "TaskProfile",
    "FaultInjector",
    "RuntimeTrace",
    "TaskScheduler",
]
