"""A job's worker processes run every attempt their slots get.

A :class:`~repro.mapreduce.runtime.pool.PoolLease` keeps the workers it
forked: an attempt runs on an idle worker and a new one is forked only
when none is idle.  Pinned here:

* a job forks at most ``max_workers`` workers, over consecutive jobs of
  one runner, pipelined or barrier (the reduce wave reuses the map
  wave's workers);
* no worker outlives ``run()``, whether it returns, raises or is
  cancelled: every one is reaped;
* a ``kill``, ``hang``, ``stall`` or OOM exit on an attempt whose worker
  already ran another takes that worker with it; the next launch forks
  a replacement and output and counters equal the serial run;
* a speculation rival is killed, and its worker with it.
"""

import multiprocessing
import threading
from multiprocessing.process import BaseProcess

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime import TaskFailedError
from repro.mapreduce.runtime.scheduler import JobCancelledError
from repro.mapreduce.runtime.shuffle import ShuffleConfig
from repro.queries import BoxSubsetQuery
from repro.scidata import Slab, integer_grid
from tests.mapreduce.test_engine import make_job


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


@pytest.fixture
def forks(monkeypatch):
    """Every process started while the test runs."""
    started = []
    start = BaseProcess.start

    def spy(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(BaseProcess, "start", spy)
    return started


def assert_all_reaped(started):
    """None of ``started`` is a live child, and each one was reaped
    (children of earlier tests are not this test's business)."""
    live = multiprocessing.active_children()
    assert [p for p in live if p in started] == []
    assert all(p.exitcode is not None for p in started)


def spine_shaped_job():
    return make_job(num_map_tasks=4, num_reducers=2)


class TestForksPerJob:
    def test_pipelined_jobs_fork_at_most_max_workers(self, grid, forks):
        """The spine's shape: 4 maps + 2 reduces, pipelined, 2 workers.
        Fork per attempt made 6 processes a job."""
        serial = LocalJobRunner().run(spine_shaped_job(), grid)
        per_job = []
        with ParallelJobRunner(max_workers=2, speculation=False,
                               shuffle=ShuffleConfig(pipeline=True)) as runner:
            for _ in range(5):
                before = len(forks)
                result = runner.run(spine_shaped_job(), grid)
                per_job.append(len(forks) - before)
                assert result.output == serial.output
                assert result.counters == serial.counters
                assert_all_reaped(forks)
        assert per_job == [2] * 5

    def test_barrier_reduce_wave_reuses_map_wave_workers(self, grid, forks):
        serial = LocalJobRunner().run(spine_shaped_job(), grid)
        with ParallelJobRunner(max_workers=2, speculation=False) as runner:
            result = runner.run(spine_shaped_job(), grid)
        assert result.trace.attempts("r00000") == 1
        assert len(forks) == 2
        assert result.output == serial.output
        assert result.counters == serial.counters
        assert_all_reaped(forks)


class TestNoWorkerOutlivesRun:
    def test_after_return(self, grid, forks):
        with ParallelJobRunner(max_workers=2) as runner:
            runner.run(spine_shaped_job(), grid)
        assert forks
        assert_all_reaped(forks)

    def test_after_task_failed(self, grid, forks):
        injector = (FaultInjector().crash("m00001", attempt=0)
                    .crash("m00001", attempt=1))
        with ParallelJobRunner(max_workers=2, max_retries=1,
                               retry_backoff=0.01, speculation=False,
                               fault_injector=injector) as runner:
            with pytest.raises(TaskFailedError):
                runner.run(spine_shaped_job(), grid)
        assert forks
        assert_all_reaped(forks)

    def test_after_cancel(self, grid, forks):
        injector = FaultInjector().hang("m00001", seconds=60.0)
        runner = ParallelJobRunner(max_workers=2, speculation=False,
                                   fault_injector=injector)
        timer = threading.Timer(0.5, runner.cancel)
        timer.start()
        try:
            with pytest.raises(JobCancelledError):
                runner.run(spine_shaped_job(), grid)
        finally:
            timer.cancel()
            runner.close()
        assert forks
        assert_all_reaped(forks)


class TestFaultOnReusedWorker:
    """One worker slot: ``m00001`` attempt 0 runs on the worker that ran
    ``m00000``.  A fault that ends the process forks exactly one
    replacement."""

    SHUFFLE = ShuffleConfig(memory_budget=1 << 20, max_memory_retries=2)

    @staticmethod
    def job():
        cube = integer_grid((8, 8, 8), seed=41, low=0, high=900)
        query = BoxSubsetQuery(cube, "values", Slab((1, 1, 1), (6, 6, 6)))
        return cube, query.build_job("plain", num_map_tasks=4,
                                     num_reducers=2, sort_buffer_bytes=2048)

    @pytest.mark.parametrize("mode", ["kill", "hang", "stall", "oom"])
    def test_worker_is_replaced(self, forks, mode):
        cube, job = self.job()
        plan = {
            "kill": lambda: FaultInjector().kill("m00001"),
            "hang": lambda: FaultInjector().hang("m00001", seconds=60.0),
            "stall": lambda: FaultInjector().stall("m00001"),
            "oom": lambda: FaultInjector().oom(
                "m00001", site="sort", op="kill", nbytes=1600, sticky=True),
        }[mode]
        # Process faults exist only in workers; the serial reference for
        # them is the clean run.  An OOM exit degrades the retry in both
        # runners, so its reference carries the same plan.
        serial = LocalJobRunner(
            shuffle=self.SHUFFLE,
            fault_injector=plan() if mode == "oom" else None).run(job, cube)
        with ParallelJobRunner(
                max_workers=1, speculation=False, retry_backoff=0.01,
                shuffle=self.SHUFFLE, fault_injector=plan(),
                task_timeout=1.0 if mode == "hang" else None,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.6 if mode == "stall" else None,
        ) as runner:
            result = runner.run(job, cube)
        assert result.trace.attempts("m00001") == 2
        assert len(forks) == 2
        assert result.output == serial.output
        assert result.counters == serial.counters
        assert_all_reaped(forks)


def test_speculation_rival_is_killed_with_its_worker(grid, forks):
    serial = LocalJobRunner().run(spine_shaped_job(), grid)
    injector = FaultInjector().hang("m00003", seconds=20.0)
    with ParallelJobRunner(max_workers=3, retry_backoff=0.01,
                           straggler_factor=2.0, min_straggler_seconds=0.2,
                           speculation_min_completed=1,
                           fault_injector=injector) as runner:
        result = runner.run(spine_shaped_job(), grid)
    assert result.trace.count("speculated") == 1
    killed = [e for e in result.trace.events if e.event == "killed"]
    assert [(e.task_id, e.attempt) for e in killed] == [("m00003", 0)]
    # The hung attempt's worker died with it: never returned to the lease.
    assert any(p.exitcode not in (0, None) for p in forks)
    assert result.output == serial.output
    assert result.counters == serial.counters
    assert_all_reaped(forks)
