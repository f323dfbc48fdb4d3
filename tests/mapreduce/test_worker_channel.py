"""One channel from a worker to its scheduler: its pipe.

A forked worker sends heartbeats, starvation reports and its attempt's
record as messages; nothing of that goes through the attempt directory,
and only a recoverable wave writes ``_result.pkl``.  Pinned here:

* an :class:`~repro.mapreduce.runtime.pool.AttemptHandle` keeps the
  latest beat and starvation report, ``join`` waits through them, and a
  record sent as a worker's last word ends the attempt and the worker;
* heartbeat ages are read on the monotonic clock, so a wall-clock step
  kills nothing;
* a pipelined reducer whose workdir failed over to the spare volume
  still reports starvation;
* a clean forked job writes no ``_result.pkl``, ``_heartbeat`` or
  ``_starved`` file and fsyncs only segment commits and the commit log
  (the parallel twin of ``test_one_ladder.py``'s clean serial run), and
  a recoverable one writes one result file per winning attempt and
  resumes from them.
"""

import os
import pickle
import sys
import time

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime.pool import CHANNEL, WorkerPool
from repro.mapreduce.runtime.shuffle import ShuffleConfig
from repro.mapreduce.runtime.worker import BEAT, EXIT, STARVED
from repro.scidata import integer_grid
from tests.mapreduce.test_engine import make_job

SIDE_FILES = {"_result.pkl", "_heartbeat", "_starved"}


@pytest.fixture
def grid():
    return integer_grid((12, 12), seed=7, low=0, high=500)


def _report(channel, pause):
    channel.send(BEAT, 1.0)
    channel.send(STARVED, ["m00001"])
    channel.send(BEAT, 2.0)
    time.sleep(pause)
    return pickle.dumps({"status": "ok", "value": 42})


def _last_word(channel):
    channel.send(EXIT, pickle.dumps({"status": "error", "oom": True}))
    os._exit(137)


def test_a_handle_keeps_the_latest_report_and_joins_through_them():
    pool = WorkerPool(max_workers=1, start_method="fork")
    lease = pool.lease()
    try:
        handle = lease.spawn(_report, (CHANNEL, 0.3))
        handle.join(timeout=30)
        assert not handle.is_alive()
        assert handle.exitcode == 0
        assert handle.heard(BEAT) == 2.0
        assert handle.heard(STARVED) == ["m00001"]
        assert handle.record() == {"status": "ok", "value": 42}
    finally:
        lease.shutdown()


def test_a_last_word_ends_the_attempt_and_its_worker():
    """A record sent right before the worker exits (a simulated OOM
    kill) is the attempt's record, and the worker takes no other
    attempt: the next spawn forks a new one."""
    pool = WorkerPool(max_workers=1, start_method="fork")
    lease = pool.lease()
    try:
        doomed = lease.spawn(_last_word, (CHANNEL,))
        doomed.join(timeout=30)
        assert not doomed.is_alive()
        assert doomed.exitcode == 137
        assert doomed.record() == {"status": "error", "oom": True}
        lease.release()
        fresh = lease.spawn(os.getpid, ())
        fresh.join(timeout=30)
        assert fresh.exitcode == 0 and fresh.pid != doomed.pid
    finally:
        lease.shutdown()


def test_heartbeat_ages_ignore_a_wall_clock_step(grid, monkeypatch):
    """A wall clock an hour ahead kills no healthy attempt: a beat is a
    ``time.monotonic()`` reading, aged on the scheduler's own."""
    wall = time.time
    monkeypatch.setattr(time, "time", lambda: wall() + 3600)
    job = make_job(num_map_tasks=2, num_reducers=1)
    with ParallelJobRunner(max_workers=2, speculation=False,
                           heartbeat_interval=0.1, heartbeat_timeout=0.5,
                           fault_injector=FaultInjector().hang("m00000", 1.0),
                           ) as runner:
        result = runner.run(job, grid)
    events = [(e.task_id, e.event, e.detail) for e in result.trace.events]
    assert not [e for e in events
                if e[1] in ("failed", "timeout", "retried")], events
    assert len(result.output) == 144


@pytest.mark.parametrize("disk_fault", [False, True])
def test_a_failed_over_reducer_still_reports_starvation(grid, disk_fault):
    """The reducer's home host (host1) fails its workdir over to the
    spare volume; its starvation report still reaches the scheduler and
    speculates the hung map.  The duration median needs all six maps,
    so only a starvation report can speculate the sixth."""
    injector = FaultInjector().hang("m00004", 3.0)
    if disk_fault:
        injector.disk_fault("host1")
    job = make_job(num_map_tasks=6, num_reducers=1)
    with ParallelJobRunner(max_workers=4, min_straggler_seconds=0.2,
                           speculation_min_completed=6,
                           shuffle=ShuffleConfig(pipeline=True),
                           fault_injector=injector) as runner:
        result = runner.run(job, grid)
    events = [(e.task_id, e.event) for e in result.trace.events]
    assert (("r00000", "disk_failover") in events) == disk_fault
    starved = events.index(("m00004", "pipeline_starved"))
    assert ("m00004", "speculated") in events[starved:]
    with LocalJobRunner() as serial:
        assert result.output == serial.run(job, grid).output


def fsync_log(tmp_path, monkeypatch):
    """Wrap ``os.fsync`` before any fork: every process appends to the
    returned file one line naming what each call commits -- a segment
    (``IFileWriter.commit``), the commit log (``CommitLog.commit``) or
    something else, with its call chain."""
    log = tmp_path / "fsyncs.log"
    fsync = os.fsync

    def logged(fd):
        chain, frame = [], sys._getframe(1)
        while frame is not None:
            chain.append((os.path.basename(frame.f_code.co_filename),
                          frame.f_code.co_name))
            frame = frame.f_back
        owner = ("segment" if ("ifile.py", "commit") in chain
                 else "commit-log" if ("pipeline.py", "commit") in chain
                 else "other")
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {owner} "
                     f"{'<'.join(name for _, name in chain[:6])}\n")
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", logged)
    return log


def test_a_clean_parallel_run_stays_cheap(grid, tmp_path, monkeypatch):
    """A forked, non-recoverable, pipelined job leaves no side file in
    any attempt directory, and its processes fsync only segment commits
    and the commit log."""
    log = fsync_log(tmp_path, monkeypatch)
    workdir = tmp_path / "work"
    # Blocked segments take the merge path, which commits durably.
    job = make_job(num_map_tasks=4, num_reducers=2, ifile_block_bytes=256)
    with ParallelJobRunner(max_workers=2, workdir=str(workdir),
                           keep_files=True,
                           shuffle=ShuffleConfig(pipeline=True)) as runner:
        result = runner.run(job, grid)
    calls = [line.split(" ", 2) for line in log.read_text().splitlines()]
    written = {name for _, _, names in os.walk(workdir) for name in names}
    assert not written & SIDE_FILES
    assert {owner for _, owner, _ in calls} == {"segment", "commit-log"}, calls
    # The runner publishes the commit log: a record and its directory
    # per map.  The workers commit the segments.
    runner_pid = str(os.getpid())
    assert [pid for pid, owner, _ in calls
            if owner == "commit-log"] == [runner_pid] * 8
    assert {pid for pid, owner, _ in calls
            if owner == "segment"} - {runner_pid}
    with LocalJobRunner() as serial:
        assert result.output == serial.run(job, grid).output


def test_a_recoverable_parallel_job_resumes_from_its_result_files(
        grid, tmp_path):
    """A recoverable forked job commits one ``_result.pkl`` per winning
    attempt, and a ``resume=True`` rerun adopts every one of them."""
    job = make_job(num_map_tasks=3, num_reducers=2)
    with LocalJobRunner() as serial:
        reference = serial.run(job, grid)
    recovery = tmp_path / "recovery"
    with ParallelJobRunner(max_workers=2, recovery_dir=str(recovery),
                           keep_files=True) as first:
        result = first.run(job, grid)
    assert result.output == reference.output
    winners = {f"{e.task_id}.{e.attempt}"
               for e in result.trace.events if e.event == "finished"}
    results = [os.path.basename(root)
               for root, _, names in os.walk(recovery)
               if "_result.pkl" in names]
    assert sorted(results) == sorted(winners) and len(winners) == 5
    written = {name for _, _, names in os.walk(recovery) for name in names}
    assert not written & (SIDE_FILES - {"_result.pkl"})

    with ParallelJobRunner(max_workers=2, recovery_dir=str(recovery),
                           resume=True) as again:
        resumed = again.run(job, grid)
    assert again.last_adopted == 5
    assert again.last_trace.count("started") == 0
    assert resumed.output == reference.output
    assert resumed.counters == reference.counters
