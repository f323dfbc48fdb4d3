"""Task runtime: the job runners and the execution layer under them.

The runtime decomposes a job into the map -> shuffle -> reduce task
DAG, runs the task functions over IFile segments on disk, and layers
on the robustness a real cluster runtime needs.  It has one wave
loop and two executors: :class:`ParallelJobRunner` schedules
attempts on worker processes, and :class:`LocalJobRunner` -- the
serial runner -- is the same wave loop and scheduler on one inline slot,
running each attempt in the calling process.

Three modules define what a task attempt and its outcome *are*, once,
for both executors:

* :mod:`~repro.mapreduce.runtime.attempt` -- ``run_attempt``, the whole
  body of one map/reduce attempt (poison wrapping, OOM degrade, memory
  budget arming, strict / skipping body selection, corrupt
  fault application), ``classify``, the error record the recovery
  ladder dispatches on, and ``execute_attempt``, which joins them
  behind the disk-failover workdir for every executor;
* :mod:`~repro.mapreduce.runtime.ledger` -- ``MapOutputLedger``, every
  map's current output, epoch, segment-server address and commit
  record, with the publish / re-run / repair / lose-host transitions;
  and ``assemble_result``, the one fold of task results into a
  ``JobResult``;
* :mod:`~repro.mapreduce.runtime.worker` -- the process shell around
  ``execute_attempt``: heartbeat, rlimit, process-shaped faults, and
  the pipe that carries beats, starvation reports and the record.

Around them:

* :mod:`~repro.mapreduce.runtime.scheduler` -- the one recovery ladder
  over a bounded pool, per-task retry with exponential backoff,
  speculative re-execution of stragglers, per-attempt deadlines,
  heartbeat-staleness kills, and a wave deadline with stuck-task
  diagnosis;
* :mod:`~repro.mapreduce.runtime.pool` -- the executors: the shared
  worker-process pool and the inline pool;
* :mod:`~repro.mapreduce.runtime.recovery` -- durable job manifests
  (checkpoint + resume): completed tasks are recorded with file CRCs
  and adopted by a re-run instead of re-executed;
* :mod:`~repro.mapreduce.runtime.fault` -- deterministic fault
  injection (kill / crash / hang / corrupt / stall / poison) for tests;
* :mod:`~repro.mapreduce.runtime.skipping` -- record-level skipping
  mode (Hadoop SkipBadRecords): bisection over the input record range
  quarantines poison records and salvages corrupt IFile blocks so the
  task completes over the surviving records;
* :mod:`~repro.mapreduce.runtime.shuffle` -- the pluggable transport
  reducers fetch map segments through (direct reads, or the
  fault-injectable loopback TCP segment servers of
  :mod:`~repro.mapreduce.runtime.netshuffle`), with bounded-concurrency
  fetching, capped-backoff retries, integrity checks, and fetch-failure
  accounting that escalates to map re-execution;
* :mod:`~repro.mapreduce.runtime.hosts` -- host failure domains: a
  registry of simulated hosts with stable task placement, a health
  monitor escalating heartbeat/fetch/attempt evidence through
  ALIVE -> SUSPECT -> DEAD / BLACKLISTED (with probation), and
  disk-fault workdir failover;
* :mod:`~repro.mapreduce.runtime.pipeline` -- pipelined shuffle: a
  completion-event stream (each map's segment refs, sent down each
  reducer's worker pipe) lets reduce attempts run alongside late maps,
  fetching and decoding segments as their producers commit; the
  reduce body is the barrier's own, so output and counters are
  byte-identical to the barrier path;
* :mod:`~repro.mapreduce.runtime.trace` -- per-task timeline events and
  measured profiles, consumable by the cluster simulator;
* :mod:`~repro.mapreduce.runtime.runner` -- the wave loop:
  :class:`ParallelJobRunner` and :class:`LocalJobRunner`, with
  byte-identical counters.
"""

from repro.mapreduce.runtime.fault import (
    Fault,
    FaultInjector,
    PoisonRecordError,
    corrupt_file,
    poisoned_job,
)
from repro.mapreduce.runtime.hosts import (
    HostHealthMonitor,
    HostLostError,
    HostRegistry,
    HostState,
    expand_host_partition,
    host_for,
    provision_failover_workdir,
)
from repro.mapreduce.runtime.pipeline import (
    PipelinePlan,
    aggregate_pipeline_stats,
)
from repro.mapreduce.runtime.recovery import (
    JobManifest,
    TaskRecord,
    job_fingerprint,
)
from repro.mapreduce.runtime.runner import LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime.scheduler import (
    TaskFailedError,
    TaskScheduler,
    TaskSpec,
    WaveDeadlineError,
)
from repro.mapreduce.runtime.shuffle import (
    DirectTransport,
    FetchFailedError,
    SegmentRef,
    ShuffleConfig,
    ShuffleFetcher,
    TransientFetchError,
    shuffle_config_from_env,
)
from repro.mapreduce.runtime.skipping import (
    QuarantineWriter,
    SkipBudgetExceededError,
    SkipUnsupportedError,
    bisect_poison_records,
    is_skip_eligible,
    run_map_task_skipping,
    run_reduce_task_skipping,
)
from repro.mapreduce.runtime.trace import RuntimeTrace, TaskEvent

__all__ = [
    "DirectTransport",
    "Fault",
    "FaultInjector",
    "FetchFailedError",
    "HostHealthMonitor",
    "HostLostError",
    "HostRegistry",
    "HostState",
    "JobManifest",
    "LocalJobRunner",
    "ParallelJobRunner",
    "PipelinePlan",
    "PoisonRecordError",
    "QuarantineWriter",
    "RuntimeTrace",
    "SegmentRef",
    "ShuffleConfig",
    "ShuffleFetcher",
    "SkipBudgetExceededError",
    "SkipUnsupportedError",
    "TaskEvent",
    "TaskFailedError",
    "TaskRecord",
    "TaskScheduler",
    "TaskSpec",
    "TransientFetchError",
    "WaveDeadlineError",
    "aggregate_pipeline_stats",
    "bisect_poison_records",
    "corrupt_file",
    "expand_host_partition",
    "host_for",
    "is_skip_eligible",
    "provision_failover_workdir",
    "job_fingerprint",
    "poisoned_job",
    "run_map_task_skipping",
    "run_reduce_task_skipping",
    "shuffle_config_from_env",
]
