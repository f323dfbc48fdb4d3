"""One channel between a worker and its scheduler: its pipe.

A forked worker sends heartbeats, starvation reports and its attempt's
record as messages, and a pipelined reducer receives each segment
published to its partition the same way; nothing of that goes through
the file system, and only a recoverable wave writes ``_result.pkl``.
Pinned here:

* an :class:`~repro.mapreduce.runtime.pool.AttemptHandle` keeps the
  latest beat and starvation report, ``join`` waits through them, and a
  record sent as a worker's last word ends the attempt and the worker;
* a segment sent to an attempt that ends without reading it is
  dropped, and the worker's next attempt hears only its own;
* a send to a worker that is not reading never blocks: once the pipe
  is full it sends nothing and says so, and a stalled pipelined reducer
  with a full pipe is killed by the heartbeat check, not waited on;
* a pipelined reducer launched while a map hangs hears that map's
  segment over the pipe, with no ``_commits`` directory anywhere;
* heartbeat ages are read on the monotonic clock, so a wall-clock step
  kills nothing;
* a pipelined reducer whose workdir failed over to the spare volume
  still reports starvation;
* a clean forked job writes no ``_result.pkl``, ``_heartbeat`` or
  ``_starved`` file, and its only fsyncs are its workers' segment
  commits (the parallel twin of ``test_one_ladder.py``'s clean serial
  run), and
  a recoverable one writes one result file per winning attempt and
  resumes from them.
"""

import multiprocessing
import os
import pickle
import socket
import sys
import threading
import time

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import pool as pool_module
from repro.mapreduce.runtime.pool import CHANNEL, WorkerPool
from repro.mapreduce.runtime.shuffle import SegmentRef, ShuffleConfig
from repro.mapreduce.runtime.worker import BEAT, COMMIT, EXIT, STARVED
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


def _pid():
    return pickle.dumps(os.getpid())


def _hear(channel):
    return pickle.dumps((os.getpid(), channel.receive()))


def test_a_commit_sent_after_its_attempt_ended_is_dropped():
    """A segment sent to an attempt that ends without reading it waits
    in the pipe; the worker drops it, and its next attempt receives the
    segment sent to that attempt."""
    pool = WorkerPool(max_workers=1, start_method="fork")
    lease = pool.lease()
    stale = SegmentRef(map_id="m00000", path="m00000-out-p0", stats=None)
    fresh = SegmentRef(map_id="m00001", path="m00001-out-p0", stats=None)
    try:
        first = lease.spawn(_pid, ())
        first.send(COMMIT, stale)
        first.join(timeout=30)
        assert first.exitcode == 0
        lease.release()
        second = lease.spawn(_hear, (CHANNEL,))
        second.send(COMMIT, fresh)
        second.join(timeout=30)
        assert second.exitcode == 0
        assert second.record() == (first.record(), fresh)
    finally:
        lease.shutdown()


def _nap(seconds):
    time.sleep(seconds)
    return pickle.dumps(None)


def test_a_send_to_a_worker_that_is_not_reading_never_blocks():
    """Messages pile up in the pipe of a worker that does not read it;
    once the pipe is full, ``send`` sends nothing and returns False
    instead of blocking, and the worker's pipe drains as before."""
    pool = WorkerPool(max_workers=1, start_method="fork")
    lease = pool.lease()
    ref = SegmentRef(map_id="m00000", path="x" * 300, stats=None)
    outcome = {}

    def flood(handle):
        outcome["sent"] = next(n for n in range(100_000)
                               if not handle.send(COMMIT, ref))

    try:
        handle = lease.spawn(_nap, (0.5,))
        sender = threading.Thread(target=flood, args=(handle,), daemon=True)
        sender.start()
        sender.join(timeout=20)
        assert not sender.is_alive(), "send blocked on a full pipe"
        assert 0 < outcome["sent"] < 100_000
        handle.join(timeout=30)
        assert handle.exitcode == 0
    finally:
        lease.shutdown()


def test_a_stalled_reducer_with_a_full_pipe_is_killed_not_waited_on(
        grid, monkeypatch):
    """Every worker's pipe gets the kernel's least send buffer, and the
    one reducer is stopped (``stall``) before it reads anything while
    six maps publish into its pipe: the wave loop is never held up by
    the full pipe, the heartbeat check kills the reducer, and its retry
    hears every map."""
    start_worker = pool_module._Worker.__init__

    def least_buffer(self, *args):
        start_worker(self, *args)
        end = socket.socket(fileno=os.dup(self.conn.fileno()))
        end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        end.close()

    monkeypatch.setattr(pool_module._Worker, "__init__", least_buffer)
    job = make_job(num_map_tasks=6, num_reducers=1)
    outcome = {}

    def run():
        with ParallelJobRunner(max_workers=7, speculation=False,
                               heartbeat_interval=0.1, heartbeat_timeout=1.0,
                               shuffle=ShuffleConfig(pipeline=True),
                               fault_injector=FaultInjector().stall("r00000"),
                               ) as runner:
            outcome["result"] = runner.run(job, grid)

    runner_thread = threading.Thread(target=run, daemon=True)
    runner_thread.start()
    runner_thread.join(timeout=60)
    if runner_thread.is_alive():
        for worker in multiprocessing.active_children():
            worker.kill()  # unblocks the loop, so the test run can end
        pytest.fail("the wave loop hung on a full pipe")
    result = outcome["result"]
    events = [(e.task_id, e.attempt, e.event, e.detail)
              for e in result.trace.events if e.task_id == "r00000"]
    killed = [e[3] for e in events if e[1] == 0 and e[2] == "timeout"]
    # stale, or missing when it stopped before its first beat went out
    assert len(killed) == 1 and killed[0].startswith(
        ("heartbeat stale", "no heartbeat")), events
    with LocalJobRunner() as serial:
        assert result.output == serial.run(job, grid).output


def test_a_pipelined_reducer_hears_a_hung_map_over_the_pipe(grid, tmp_path):
    """The reducer launches beside the maps and fetches two of them
    while the third hangs; that map's segment reaches it on its pipe."""
    workdir = tmp_path / "work"
    job = make_job(num_map_tasks=3, num_reducers=1)
    with ParallelJobRunner(max_workers=4, workdir=str(workdir),
                           keep_files=True, speculation=False,
                           shuffle=ShuffleConfig(pipeline=True),
                           fault_injector=FaultInjector().hang("m00001", 0.5),
                           ) as runner:
        result = runner.run(job, grid)
    assert not [root for root, dirs, _ in os.walk(workdir)
                if "_commits" in dirs]
    assert result.pipeline_stats[C.PIPELINE_OVERLAP] > 0
    assert result.pipeline_stats["wait_seconds"] > 0
    with LocalJobRunner() as serial:
        assert result.output == serial.run(job, grid).output


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
    (``IFileWriter.commit``) or something else -- with its call
    chain."""
    log = tmp_path / "fsyncs.log"
    fsync = os.fsync

    def logged(fd):
        chain, frame = [], sys._getframe(1)
        while frame is not None:
            chain.append((os.path.basename(frame.f_code.co_filename),
                          frame.f_code.co_name))
            frame = frame.f_back
        owner = "segment" if ("ifile.py", "commit") in chain else "other"
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {owner} "
                     f"{'<'.join(name for _, name in chain[:6])}\n")
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", logged)
    return log


def test_a_clean_parallel_run_stays_cheap(grid, tmp_path, monkeypatch):
    """A forked, non-recoverable, pipelined job leaves no side file in
    any attempt directory, the runner process fsyncs nothing, and every
    fsync is a worker's segment commit."""
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
    assert calls and {owner for _, owner, _ in calls} == {"segment"}, calls
    assert str(os.getpid()) not in {pid for pid, _, _ in calls}, calls
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
