"""One recovery ladder: the serial runner is the scheduler on one inline
slot, so both runners climb the same rungs, and a clean serial run
stays as cheap as the inline loop it replaced.

The rung events of every task -- in order -- must be equal under
:class:`LocalJobRunner` and :class:`ParallelJobRunner` for each fault
that has a rung of its own (skip mode, segment repair, OOM degrade,
fetch-failure map re-execution).
"""

import dataclasses
import os
import threading

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime.pool import InlinePool
from repro.mapreduce.runtime.shuffle import ShuffleConfig
from repro.queries.subset import BoxSubsetQuery
from repro.scidata import integer_grid
from repro.scidata.slab import Slab
from repro.util import fsio
from tests.mapreduce.test_engine import make_job

RUNGS = ("failed", "retried", "skipping", "repaired", "oom_degraded",
         "fetch_failure", "map_reexec")


@pytest.fixture
def grid():
    return integer_grid((12, 12), seed=7, low=0, high=500)


def skipping_job(tmp_path, name):
    """A query job (its mapper supports record-level skipping)."""
    query = BoxSubsetQuery(integer_grid((12, 12), seed=7, low=0, high=500),
                           "values", Slab((1, 1), (10, 10)))
    job = query.build_job("plain", num_map_tasks=3, num_reducers=2)
    return dataclasses.replace(job, skipping=SkipPolicy(
        quarantine_dir=str(tmp_path / f"q-{name}")))


def poison_in_a_map(tmp_path, name):
    return (skipping_job(tmp_path, name),
            FaultInjector().poison("m00001", record=5), {})


def corrupt_map_output(tmp_path, name):
    injector = FaultInjector().corrupt("m00001", where="map-output",
                                       op="truncate")
    return make_job(num_map_tasks=3, num_reducers=2), injector, {}


def oom_degrades(tmp_path, name):
    injector = FaultInjector().oom("m00002", site="sort", op="raise")
    return make_job(num_map_tasks=3, num_reducers=2), injector, {}


def fetch_drop_reexecutes(tmp_path, name):
    # Three drops against two fetch retries: the reduce attempt's fetch
    # fails for good, and one strike re-executes the map.
    injector = FaultInjector().fetch("m00000", "r00001", op="drop",
                                     attempt=0, sticky=True)
    runner = dict(shuffle=ShuffleConfig(fetch_retries=2, backoff=0.0),
                  fetch_failure_threshold=1)
    return make_job(num_map_tasks=3, num_reducers=2), injector, runner


def rung_events(trace):
    per_task: dict[str, list[str]] = {}
    for event in trace.events:
        if event.event in RUNGS:
            per_task.setdefault(event.task_id, []).append(event.event)
    return per_task


@pytest.mark.parametrize("scenario", [poison_in_a_map, corrupt_map_output,
                                      oom_degrades, fetch_drop_reexecutes])
def test_both_runners_climb_the_same_ladder(grid, tmp_path, scenario):
    results = {}
    for name in ("serial", "parallel"):
        job, injector, runner_kw = scenario(tmp_path, name)
        runner = (LocalJobRunner(fault_injector=injector, **runner_kw)
                  if name == "serial"
                  else ParallelJobRunner(max_workers=2, speculation=False,
                                         retry_backoff=0.01,
                                         fault_injector=injector,
                                         **runner_kw))
        with runner:
            results[name] = runner.run(job, grid)
    serial, parallel = results["serial"], results["parallel"]
    assert serial.trace is not None
    ladder = rung_events(serial.trace)
    assert ladder, "the fault climbed no rung"
    assert ladder == rung_events(parallel.trace)
    assert serial.output == parallel.output
    assert serial.counters == parallel.counters


def test_rungs_do_not_spend_the_retry_budget(grid, tmp_path):
    """Skip-mode entry and a segment repair are free even with
    ``max_retries=0``, as OOM and fetch failures already were."""
    job = skipping_job(tmp_path, "parallel")
    injector = (FaultInjector().poison("m00000", record=3)
                .corrupt("m00002", where="map-output", op="truncate"))
    with ParallelJobRunner(max_workers=2, max_retries=0, speculation=False,
                           fault_injector=injector) as runner:
        result = runner.run(job, grid)
    assert result.trace.count("skipping") == 1
    assert result.trace.count("repaired") == 1
    assert result.counters[C.RECORDS_SKIPPED] == 1


def test_an_unabsorbed_failure_raises_as_itself(grid):
    class Boom(Exception):
        pass

    base = make_job(num_map_tasks=2, num_reducers=1)

    class FailingMapper(base.mapper):
        def map(self, split, values, ctx):
            raise Boom("user bug")

    with LocalJobRunner() as runner:
        with pytest.raises(Boom, match="user bug"):
            runner.run(dataclasses.replace(base, mapper=FailingMapper), grid)


def test_a_clean_serial_run_stays_cheap(grid, tmp_path, monkeypatch):
    """No fork, no result file or heartbeat, no fsync, and no thread
    but the process's helper pool: the inline slot costs what the
    inline loop did."""
    calls: list[str] = []

    def spy(name, inner):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(os, "fork", spy("fork", os.fork))
    monkeypatch.setattr(os, "fsync", spy("fsync", os.fsync))
    monkeypatch.setattr(fsio, "fsync_file", spy("fsync_file",
                                                fsio.fsync_file))
    started: list[str] = []
    start = threading.Thread.start

    def record_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", record_start)
    workdir = tmp_path / "work"
    job = make_job(num_map_tasks=3, num_reducers=2)
    assert job.codec == "null"
    with LocalJobRunner(workdir=str(workdir), keep_files=True) as runner:
        result = runner.run(job, grid)
    assert len(result.output) == 144
    assert calls == []
    assert all(name.startswith("helper_") for name in started), started
    written = {name for _, _, names in os.walk(workdir) for name in names}
    assert not written & {"_result.pkl", "_heartbeat"}


def test_a_recoverable_job_runs_on_the_inline_slot(grid, tmp_path):
    """A recoverable job on the inline executor commits each task's
    record durably, so its checkpoints resume like a worker's."""
    job = make_job(num_map_tasks=3, num_reducers=2)
    with LocalJobRunner() as serial:
        reference = serial.run(job, grid)
    recovery = str(tmp_path / "recovery")
    first = ParallelJobRunner(pool=InlinePool(), recovery_dir=recovery,
                              keep_files=True)
    result = first.run(job, grid)
    assert result.output == reference.output
    assert result.counters == reference.counters
    written = {name for _, _, names in os.walk(recovery) for name in names}
    assert "_result.pkl" in written and "_heartbeat" not in written

    again = ParallelJobRunner(pool=InlinePool(), recovery_dir=recovery,
                              resume=True)
    resumed = again.run(job, grid)
    assert again.last_adopted == 5
    assert again.last_trace.count("started") == 0
    assert resumed.output == reference.output
    assert resumed.counters == reference.counters
