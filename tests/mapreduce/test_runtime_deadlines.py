"""Attempt deadlines, heartbeat staleness, and wave deadlines.

Before deadlines existed, a hung worker with speculation disabled hung
the whole job forever -- the scheduler had no reason to ever give up on
a live process.  These tests pin the three escape hatches: a hard
per-attempt ``task_timeout``, heartbeat staleness (the only path that
catches a SIGSTOPped worker, whose process is alive but whose beat has
frozen), and a whole-wave ``wave_deadline`` that fails loudly with a
stuck-task diagnosis instead of silently never returning.
"""

import time

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime import TaskScheduler, WaveDeadlineError
from repro.mapreduce.runtime.hosts import HostHealthMonitor, HostRegistry
from repro.mapreduce.runtime.scheduler import TaskSpec
from repro.scidata import integer_grid
from tests.mapreduce.fake_executor import FakePool, make_wave, poll
from tests.mapreduce.test_engine import make_job


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


@pytest.fixture
def serial(grid):
    return LocalJobRunner().run(make_job(num_map_tasks=4, num_reducers=2), grid)


def run_parallel(grid, injector, tmp_path, **kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("retry_backoff", 0.01)
    runner = ParallelJobRunner(workdir=str(tmp_path),
                               fault_injector=injector, **kwargs)
    result = runner.run(make_job(num_map_tasks=4, num_reducers=2), grid)
    return runner, result


class TestTaskTimeout:
    def test_hung_worker_without_speculation_completes(
            self, grid, serial, tmp_path):
        """The regression the deadline path exists for: a hang with
        speculation *disabled* used to wedge the job forever.  The hang
        sleeps far longer than the whole test is allowed to take, so
        completing at all proves the timeout kill did it."""
        injector = FaultInjector().hang("m00001", seconds=120.0)
        start = time.monotonic()
        runner, result = run_parallel(
            grid, injector, tmp_path, speculation=False, task_timeout=1.0)
        assert time.monotonic() - start < 60.0
        assert runner.last_trace.count("timeout") == 1
        assert runner.last_trace.attempts("m00001") == 2
        assert result.counters == serial.counters
        assert result.output == serial.output

    def test_hung_reduce_worker_times_out(self, grid, serial, tmp_path):
        injector = FaultInjector().hang("r00000", seconds=120.0)
        runner, result = run_parallel(
            grid, injector, tmp_path, speculation=False, task_timeout=1.0)
        assert runner.last_trace.count("timeout") == 1
        assert result.counters == serial.counters
        assert result.output == serial.output


class TestHeartbeatStaleness:
    def test_stalled_worker_is_reclaimed(self, grid, serial, tmp_path):
        """A SIGSTOPped worker is still alive and holds no deadline of
        its own making; only a stale heartbeat can out it.  (The kill
        path must escalate to SIGKILL -- SIGTERM never reaches a
        stopped process.)"""
        injector = FaultInjector().stall("m00002")
        runner, result = run_parallel(
            grid, injector, tmp_path, speculation=False,
            heartbeat_interval=0.1, heartbeat_timeout=0.6)
        assert runner.last_trace.count("timeout") == 1
        assert runner.last_trace.attempts("m00002") == 2
        assert result.counters == serial.counters
        assert result.output == serial.output


class TestWaveDeadline:
    def test_breach_raises_with_stuck_task_diagnosis(self, grid, tmp_path):
        injector = FaultInjector().hang("m00003", seconds=120.0)
        with pytest.raises(WaveDeadlineError) as excinfo:
            run_parallel(grid, injector, tmp_path, speculation=False,
                         wave_deadline=2.0)
        assert "m00003" in excinfo.value.unfinished
        # The message carries the RuntimeTrace diagnosis of what each
        # unfinished task was last seen doing.
        assert "m00003" in str(excinfo.value)
        assert "started" in str(excinfo.value)


class TestKnobValidation:
    def test_rejects_bad_deadline_knobs(self):
        with pytest.raises(ValueError, match="task_timeout"):
            TaskScheduler(task_timeout=0)
        with pytest.raises(ValueError, match="wave_deadline"):
            TaskScheduler(wave_deadline=-1)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            TaskScheduler(heartbeat_interval=0)
        with pytest.raises(ValueError, match="must exceed"):
            TaskScheduler(heartbeat_interval=0.5, heartbeat_timeout=0.5)


#: one step past a bound: the scheduler compares ages with ``>``
EPS = 1e-6


def one_map_wave(tmp_path, **knobs):
    """A one-map wave on a fake executor, its attempt launched at 0."""
    wave = make_wave([TaskSpec("m00000", "map", None)], FakePool(1),
                     str(tmp_path), 0.0, **knobs)
    poll(wave, 0.0)
    (attempt,) = wave.running
    return wave, attempt


def events(wave, name):
    return [e for e in wave.trace.events if e.event == name]


class TestDeadlinesOnChosenTime:
    """The same deadlines, decided by ``_Wave`` at chosen ``now`` values
    with chosen heartbeat ages: no process, no sleep."""

    def test_task_timeout_kills_just_past_the_bound(self, tmp_path):
        wave, attempt = one_map_wave(tmp_path, task_timeout=1.0)
        poll(wave, 1.0)
        assert wave.running == [attempt] and not events(wave, "timeout")
        poll(wave, 1.0 + EPS)
        assert attempt.process.killed and wave.running == []
        (timeout,) = events(wave, "timeout")
        assert "task_timeout=1.000s" in timeout.detail
        assert wave.failures["m00000"] == 1
        # The kill is a charged failure, retried behind its backoff.
        assert [s.task_id for s, _ in wave.pending] == ["m00000"]

    def test_stale_heartbeat_kills_just_past_the_bound(self, tmp_path):
        wave, attempt = one_map_wave(tmp_path, heartbeat_interval=0.1,
                                     heartbeat_timeout=0.5)
        # Within the grace window no heartbeat is read at all.
        assert wave.heartbeats_due(0.5) == []
        assert wave.heartbeats_due(0.5 + EPS) == [attempt]
        poll(wave, 0.6, beats={attempt: 0.5})
        assert wave.running == [attempt]
        poll(wave, 0.6, beats={attempt: 0.5 + EPS})
        assert attempt.process.killed
        (timeout,) = events(wave, "timeout")
        assert timeout.detail.startswith("heartbeat stale for 0.500s")

    def test_missing_heartbeat_kills_after_the_grace_window(self, tmp_path):
        wave, attempt = one_map_wave(tmp_path, heartbeat_interval=0.1,
                                     heartbeat_timeout=0.5)
        poll(wave, 0.5, beats={attempt: None})
        assert wave.running == [attempt]
        poll(wave, 0.5 + EPS, beats={attempt: None})
        assert attempt.process.killed
        (timeout,) = events(wave, "timeout")
        assert timeout.detail.startswith("no heartbeat after 0.500s")

    @pytest.mark.parametrize("beat", [None, 2.0])
    def test_missed_heartbeat_is_charged_to_the_placed_host(
            self, tmp_path, beat):
        now = [0.0]
        hosts = HostHealthMonitor(HostRegistry(2), clock=lambda: now[0])
        home = hosts.host_for("m00000")
        for _ in range(hosts.blacklist_failures):
            hosts.record_task_failure(home, "benched for this test")
        wave, attempt = one_map_wave(
            tmp_path, hosts=hosts, heartbeat_interval=0.1,
            heartbeat_timeout=0.5)
        assert attempt.host != home
        poll(wave, 0.6, beats={attempt: beat})
        assert attempt.process.killed
        assert hosts.registry.get(attempt.host).missed_heartbeats == 1
        assert hosts.registry.get(home).missed_heartbeats == 0

    def test_fresh_heartbeat_is_liveness_for_the_placed_host(self, tmp_path):
        hosts = HostHealthMonitor(HostRegistry(2), clock=lambda: 0.0)
        wave, attempt = one_map_wave(
            tmp_path, hosts=hosts, heartbeat_interval=0.1,
            heartbeat_timeout=0.5)
        hosts.registry.get(attempt.host).missed_heartbeats = 1
        poll(wave, 0.6, beats={attempt: 0.1})
        assert wave.running == [attempt]
        assert hosts.registry.get(attempt.host).missed_heartbeats == 0

    def test_wave_deadline_fails_just_past_the_bound(self, tmp_path):
        wave, attempt = one_map_wave(tmp_path, wave_deadline=2.0)
        poll(wave, 2.0)
        with pytest.raises(WaveDeadlineError) as excinfo:
            poll(wave, 2.0 + EPS)
        assert excinfo.value.unfinished == ["m00000"]
        assert "m00000" in str(excinfo.value)
