"""The process's one helper pool (``runtime/helpers.py``).

Spill commits and wire-codec staging share one executor; a reduce
task fetches on its own thread.  Pinned here:

* no wait chain: a server handler waiting for a back stage queued on
  a one-thread pool never wedges the fetch it serves, so no fetch
  times out;
* the pool's threads are started once per process and never exceed its
  size, over consecutive jobs (counted, not timed);
* a forked worker builds its own pool: a parallel job run while the
  parent's pool is alive is byte-identical;
* a one-CPU process has no pool and the same bytes;
* a state machine over ``ShuffleService`` staging on the shared pool:
  every payload is ``codec.compress`` of the file, and ``stop()`` leaves
  no memory charged and no back stage pending.
"""

import os
import shutil
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.mapreduce import LocalJobRunner
from repro.mapreduce.codecs import NullCodec, get_codec
from repro.mapreduce.ifile import IFileWriter
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import ParallelJobRunner, helpers
from repro.mapreduce.runtime.netshuffle import (
    NetworkTransport,
    SegmentServer,
    ShuffleService,
)
from repro.mapreduce.runtime.shuffle import (
    SegmentRef,
    ShuffleConfig,
    TransientFetchError,
)
from repro.queries import SlidingMedianQuery
from repro.scidata import integer_grid
from repro.util.timing import Deadline

WIRE = "fastpred+zlib"
#: the pool-size seam itself, before any test patches it
REAL_THREADS = helpers.threads


@pytest.fixture(scope="module")
def grid():
    return integer_grid((8, 8, 8), seed=41)


def build_job(grid, codec="null"):
    return SlidingMedianQuery(grid, "values", window=3).build_job(
        "plain", num_map_tasks=4, num_reducers=2, codec=codec)


def network(pipeline=False):
    # A fetch deadline turns a wedged fetch into a counted retry rather
    # than a hang.
    return ShuffleConfig(transport="network", wire_codec=WIRE,
                         fetch_timeout=2.0, backoff=0.0, pipeline=pipeline)


def run_serial(job, grid, shuffle):
    with LocalJobRunner(shuffle=shuffle) as runner:
        result = runner.run(job, grid)
    return list(result.output), result.counters.as_dict()


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started, through a ``Thread.start`` spy."""
    names = []
    real = threading.Thread.start

    def spy(self):
        names.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


def helper_names(names):
    return [name for name in names
            if name.startswith(helpers.THREAD_PREFIX)]


# ------------------------------------------------------------ wait chain


@pytest.fixture
def attempts(monkeypatch):
    """How many fetch attempts went over the wire, those of reduce
    attempts that later failed included (their counters are dropped)."""
    calls = []
    real = NetworkTransport.fetch

    def spy(self, *args):
        calls.append(args[0].path)
        return real(self, *args)

    monkeypatch.setattr(NetworkTransport, "fetch", spy)
    return calls


@pytest.mark.parametrize("pipeline", [False, True],
                         ids=["barrier", "pipelined"])
def test_one_helper_thread_breaks_the_wait_chain(helper_threads, taken,
                                                 attempts, grid, pipeline):
    """Back stages queue on one helper thread while the reducer
    fetches on its own; each served segment frees a window slot whose
    stage queues behind the rest.  No fetch runs on the pool, so no
    handler's wait can wedge one: no retry, one attempt per segment,
    and the bytes of a run with no pool."""
    job = build_job(grid)
    helper_threads(1)
    pooled = run_serial(job, grid, network(pipeline))
    assert any(taken)
    assert pooled[1].get(C.SHUFFLE_RETRIES, 0) == 0
    # one attempt per segment: 4 maps x 2 reducers
    assert len(attempts) == 8
    helper_threads(0)
    taken.clear()
    inline = run_serial(job, grid, network(pipeline))
    assert not any(taken)
    assert pooled == inline


# ---------------------------------------------------------- thread guard


class RecordingPool(ThreadPoolExecutor):
    """A helper pool that records which threads ran its work."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ran_on = set()

    def submit(self, fn, *args, **kwargs):
        def run():
            self.ran_on.add(threading.get_ident())
            return fn(*args, **kwargs)

        return super().submit(run)


def test_consecutive_jobs_start_no_helper_thread_after_the_first(
        monkeypatch, helper_threads, started, grid):
    monkeypatch.setattr(helpers, "ThreadPoolExecutor", RecordingPool)
    helper_threads(2)
    # A fastpred spill and wire staging: both callers, every job.
    job = build_job(grid, codec=WIRE)
    per_job = []
    first = None
    for _ in range(5):
        del started[:]
        result = run_serial(job, grid, network())
        assert result[1].get(C.SHUFFLE_RETRIES, 0) == 0
        if first is None:
            first = result
        assert result == first
        per_job.append(len(helper_names(started)))
    assert 1 <= per_job[0] <= 2
    assert per_job[1:] == [0, 0, 0, 0]
    assert 1 <= len(helpers._pool.ran_on) <= 2


# ------------------------------------------------------------- processes


def test_parallel_job_after_serial_job_with_pool_alive(helper_threads,
                                                       grid):
    helper_threads(1)
    job = build_job(grid, codec=WIRE)
    serial = run_serial(job, grid, network())
    assert helpers._pool is not None and helpers._pool._threads
    runner = ParallelJobRunner(max_workers=2, speculation=False,
                               retry_backoff=0.01, shuffle=network(),
                               task_timeout=60.0)
    with runner:
        result = runner.run(job, grid)
    assert (list(result.output), result.counters.as_dict()) == serial


def test_one_cpu_has_no_pool_and_the_same_bytes(monkeypatch, helper_threads,
                                                started, taken, grid):
    job = build_job(grid, codec=WIRE)
    helper_threads(1)
    pooled = run_serial(job, grid, network())
    # The real seam, with the affinity of a process pinned to one CPU.
    helper_threads(0)
    monkeypatch.setattr(helpers, "threads", REAL_THREADS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert helpers.threads() == 0
    assert helpers.pool() is None
    del started[:], taken[:]
    inline = run_serial(job, grid, network())
    assert helper_names(started) == []
    assert not any(taken)  # no pool: no staging either
    assert inline == pooled


def test_thread_count_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert REAL_THREADS() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert REAL_THREADS() == 0


# -------------------------------------------------- staging state machine


def write_segment(path, tag, records):
    writer = IFileWriter(path, NullCodec())
    for i in range(records):
        writer.append(f"{tag}k{i:05d}".encode(), f"v{i * 7:07d}".encode())
    writer.close()


class StagingMachine(RuleBasedStateMachine):
    """``ShuffleService`` staging on the shared helper pool, driven by
    registrations, invalidations, fetches and stops."""

    codec = "zlib"
    other = "bz2"

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="staging-machine-")
        self.files = {}
        for m in range(4):
            map_id = f"m{m:05d}"
            self.files[map_id] = []
            for part in range(1 + m % 3):
                path = os.path.join(self.dir, f"{map_id}-out-p{part}")
                write_segment(path, f"{map_id}p{part}", 40 + 30 * part)
                self.files[map_id].append(path)
        self.sent = []
        real_send = SegmentServer._send_framed
        sent = self.sent

        def spy(server, conn, head, comp, *args):
            sent.append(comp)
            return real_send(server, conn, head, comp, *args)

        self.real_send = real_send
        SegmentServer._send_framed = spy
        self.stages = []
        real_stage = ShuffleService._stage
        stages = self.stages

        def stage_spy(service, stage):
            stages.append(stage)
            return real_stage(service, stage)

        self.real_stage = real_stage
        ShuffleService._stage = stage_spy
        self.service = self.new_service()
        #: map_id -> (epoch, draining) for every registered map
        self.registered = {}

    def new_service(self):
        return ShuffleService(num_servers=2, wire_codec=self.codec).start()

    maps = st.sampled_from([f"m{m:05d}" for m in range(4)])

    @rule(map_id=maps)
    def register(self, map_id):
        epoch = self.registered.get(map_id, (-1, False))[0] + 1
        self.service.register_map_output(map_id, self.files[map_id],
                                         epoch=epoch)
        self.registered[map_id] = (epoch, False)

    @precondition(lambda self: self.registered)
    @rule(data=st.data())
    def reregister_same_epoch(self, data):
        map_id = data.draw(st.sampled_from(sorted(self.registered)))
        epoch, _ = self.registered[map_id]
        self.service.register_map_output(map_id, self.files[map_id],
                                         epoch=epoch)
        self.registered[map_id] = (epoch, False)

    @precondition(lambda self: self.registered)
    @rule(data=st.data())
    def invalidate(self, data):
        map_id = data.draw(st.sampled_from(sorted(self.registered)))
        self.service.invalidate(map_id)
        self.registered[map_id] = (self.registered[map_id][0], True)

    @precondition(lambda self: self.registered)
    @rule(data=st.data(), other_codec=st.booleans())
    def fetch(self, data, other_codec):
        map_id = data.draw(st.sampled_from(sorted(self.registered)))
        path = data.draw(st.sampled_from(self.files[map_id]))
        epoch, draining = self.registered[map_id]
        codec = self.other if other_codec else self.codec
        transport = NetworkTransport(ShuffleConfig(
            transport="network", wire_codec=codec, fetch_retries=0,
            fetch_timeout=10.0))
        del self.sent[:]
        try:
            got = transport.fetch(
                SegmentRef(map_id=map_id, path=path, stats=None,
                           epoch=epoch,
                           address=self.service.address_for(map_id)),
                0, Deadline(10.0))
        except TransientFetchError as exc:
            assert draining, exc
            return
        finally:
            transport.close()
        assert not draining
        with open(path, "rb") as fh:
            blob = fh.read()
        assert got == blob
        assert self.sent == [get_codec(codec).compress(blob)]

    @rule()
    def stop(self):
        self.service.stop()
        self.check_stopped()
        self.service = self.new_service()
        self.registered = {}

    def check_stopped(self):
        assert self.service.memory.used == 0
        assert all(stage.future is None or stage.future.done()
                   for stage in self.stages)

    @invariant()
    def window_holds(self):
        assert len(self.service._staged) <= self.service._window

    def teardown(self):
        try:
            self.service.stop()
            self.check_stopped()
        finally:
            SegmentServer._send_framed = self.real_send
            ShuffleService._stage = self.real_stage
            shutil.rmtree(self.dir, ignore_errors=True)


def test_staging_state_machine(helper_threads):
    helper_threads(1)  # W = 4: fewer slots than the machine's segments
    run_state_machine_as_test(
        StagingMachine,
        settings=settings(max_examples=25, stateful_step_count=25,
                          deadline=None))
