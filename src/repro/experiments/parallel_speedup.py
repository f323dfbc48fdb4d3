"""P1 -- parallel runtime speedup on the Fig 8 aggregation workload.

Not a paper figure: this sizes the repo's own multiprocess task runtime
(:mod:`repro.mapreduce.runtime`) against the serial reference runner on
the Fig 8 aggregate-subset job.  Two variants of the same job:

``cpu``
    The job as-is.  Map tasks are compute-bound (curve encoding, sort,
    IFile writes), so parallel speedup is capped by physical cores --
    on a single-core host the parallel runner only adds process
    overhead, and the table says so rather than pretending otherwise.

``blocking``
    The same job behind a simulated slow input fetch (each map task
    sleeps ``fetch_delay`` seconds before mapping, standing in for a
    cold HDFS/object-store read).  Overlapping blocked tasks needs only
    scheduler concurrency, not cores, so this isolates what the runtime
    itself buys: near-linear speedup in the worker count even on one
    core.

Every run is checked for byte-identical counters and output against the
serial baseline -- the speedup table is only meaningful because the
backends are interchangeable.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.experiments.common import ExperimentResult, make_runner, scaled
from repro.mapreduce.api import Mapper
from repro.mapreduce.runtime import LocalJobRunner, ParallelJobRunner
from repro.queries.subset import BoxSubsetQuery
from repro.scidata.generator import integer_grid

__all__ = ["run", "SlowFetchMapper"]


class SlowFetchMapper(Mapper):
    """Delegating mapper that simulates a slow input fetch.

    Sleeps before handing the split to the wrapped mapper -- the
    MapReduce analogue of a map task stalled on a cold storage read.
    """

    def __init__(self, inner: Mapper, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def setup(self, split):
        self.inner.setup(split)

    def map(self, split, values, ctx):
        time.sleep(self.delay)
        self.inner.map(split, values, ctx)

    def cleanup(self, ctx):
        self.inner.cleanup(ctx)


def _timed(runner, job, grid):
    start = time.perf_counter()
    result = runner.run(job, grid)
    return result, time.perf_counter() - start


def run(side: int | None = None, worker_counts: tuple[int, ...] = (1, 2, 4, 8),
        num_map_tasks: int = 8, num_reducers: int = 2,
        fetch_delay: float = 0.5) -> ExperimentResult:
    """Time serial vs parallel execution of the Fig 8 aggregation job."""
    if side is None:
        side = scaled(100, default_scale=0.28)
    grid = integer_grid((side, side, side), seed=1234)
    query = BoxSubsetQuery(grid, "values", grid["values"].extent)
    job = query.build_job("aggregate", variable_mode="index",
                          num_map_tasks=num_map_tasks,
                          num_reducers=num_reducers)
    inner_factory = job.mapper
    slow_job = dataclasses.replace(
        job, name=job.name + "-slowfetch",
        mapper=lambda: SlowFetchMapper(inner_factory(), fetch_delay))

    result = ExperimentResult(
        experiment="P1",
        title=f"serial vs parallel runtime, {side}^3 aggregate subset "
              f"({num_map_tasks} maps, {num_reducers} reducers)",
        columns=["workload", "runner", "workers", "seconds", "speedup",
                 "counters"],
    )
    for workload, the_job in [("cpu", job), ("blocking", slow_job)]:
        with LocalJobRunner() as serial_runner:
            baseline, serial_s = _timed(serial_runner, the_job, grid)
        result.add(workload=workload, runner="serial", workers=1,
                   seconds=f"{serial_s:.2f}", speedup="1.00x",
                   counters="baseline")
        for workers in worker_counts:
            with ParallelJobRunner(max_workers=workers) as runner:
                res, par_s = _timed(runner, the_job, grid)
            identical = (res.counters == baseline.counters
                         and res.output == baseline.output)
            result.add(workload=workload, runner="parallel", workers=workers,
                       seconds=f"{par_s:.2f}",
                       speedup=f"{serial_s / par_s:.2f}x",
                       counters="identical" if identical else "DRIFT")
    result.note(f"host has {os.cpu_count()} CPU core(s); cpu-workload "
                f"speedup is bounded by that, blocking-workload speedup "
                f"is bounded only by worker count")
    result.note(f"blocking = same job with a {fetch_delay:.2f}s simulated "
                f"input fetch per map task")
    result.note("counters: every parallel run is byte-identical to the "
                "serial baseline (or flagged DRIFT)")
    return result
