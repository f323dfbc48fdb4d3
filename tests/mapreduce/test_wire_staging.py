"""Publish-time staging of the network shuffle's wire payloads.

A service with a wire codec compresses each segment once, when its map
is registered: the codec's front stage on the staging thread, its back
stage on the process's helper pool, into a window of ``W`` segments
filled in partition-major order.  Pinned here:

* identity: every job equals the same job with staging off (no helper
  pool, so every fetch compresses inline) in output, counters, wire
  bytes and retries -- over wire codecs, every server-side fetch fault,
  both runners, pipeline off and on -- and faults still surface as
  retried ``TransientFetchError``s;
* lifecycle: ``invalidate`` and re-registration drop a map's staged
  and queued segments and free their slots; a segment rewritten in
  place is served from the file; a fetch that beats its staging
  compresses inline and the segment is never staged afterwards;
  ``stop()`` cancels queued back stages and waits for running ones;
  the service's memory ledger returns to zero after a job and peaks at
  no more than ``W`` segments plus one inline compress;
* under racing fetches and re-registrations every fetch gets its bytes
  and the window never overflows.
"""

import dataclasses
import glob
import os
import random
import sys
import threading
import time
import zlib

import pytest

from repro.mapreduce import LocalJobRunner
from repro.mapreduce.codecs import NullCodec, get_codec
from repro.mapreduce.ifile import IFileWriter
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import FaultInjector, ParallelJobRunner
from repro.mapreduce.runtime.netshuffle import NetworkTransport, ShuffleService
from repro.mapreduce.runtime.shuffle import SegmentRef, ShuffleConfig
from repro.queries import SlidingMedianQuery
from repro.scidata import integer_grid
from repro.util.timing import Deadline

CODECS = ["fastpred+zlib", "zlib", "bz2"]
FAULTS = [None, "flip", "truncate", "drop", "delay", "stall"]
#: faults that fail the attempt they hit, so the fetch is retried
FAILING = {"flip", "truncate", "drop", "stall"}


@pytest.fixture(scope="module")
def grid():
    return integer_grid((8, 8, 8), seed=38)


@pytest.fixture
def stages(monkeypatch):
    """Every stage a service claimed, to check its back stage."""
    claimed = []
    real = ShuffleService._stage

    def spy(self, stage):
        claimed.append(stage)
        return real(self, stage)

    monkeypatch.setattr(ShuffleService, "_stage", spy)
    return claimed


def no_stage_pending(stages):
    """No back stage is queued or running on the helper pool."""
    return all(stage.future is None or stage.future.done()
               for stage in stages)


def run_job(grid, codec, fault, parallel, pipeline):
    job = SlidingMedianQuery(grid, "values", window=3).build_job(
        "plain", num_map_tasks=4, num_reducers=2)
    shuffle = ShuffleConfig(transport="network", wire_codec=codec,
                            fetch_retries=2, fetch_timeout=5.0,
                            backoff=0.0, pipeline=pipeline)
    injector = None
    if fault is not None:
        injector = FaultInjector().fetch("m00001", "r00000", op=fault,
                                         attempt=0, seconds=0.05)
    if parallel:
        runner = ParallelJobRunner(max_workers=2, speculation=False,
                                   retry_backoff=0.01, shuffle=shuffle,
                                   fault_injector=injector)
    else:
        runner = LocalJobRunner(shuffle=shuffle, fault_injector=injector)
    with runner:
        result = runner.run(job, grid)
    return list(result.output), result.counters.as_dict()


def identity_cases():
    for codec in CODECS:
        for fault in FAULTS:
            yield codec, fault, False, False
    for fault in FAULTS:
        yield "fastpred+zlib", fault, False, True
        yield "fastpred+zlib", fault, True, False
        yield "fastpred+zlib", fault, True, True
    for codec in ("zlib", "bz2"):
        yield codec, None, True, False


class TestIdentity:
    @pytest.mark.parametrize(
        "codec, fault, parallel, pipeline", list(identity_cases()),
        ids=lambda v: {True: "on", False: "off"}.get(v, str(v)))
    def test_staged_job_equals_inline_job(self, helper_threads, taken, grid,
                                          codec, fault, parallel, pipeline):
        helper_threads(2)
        staged = run_job(grid, codec, fault, parallel, pipeline)
        assert any(taken)  # staging engaged
        helper_threads(0)
        taken.clear()
        inline = run_job(grid, codec, fault, parallel, pipeline)
        assert not any(taken)
        assert staged[0] == inline[0]
        assert staged[1] == inline[1]
        counters = staged[1]
        assert counters[C.SHUFFLE_WIRE_BYTES] \
            < counters[C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED]
        if fault in FAILING:
            # The fault failed one attempt as a TransientFetchError,
            # which is what the fetcher retries.
            assert counters[C.SHUFFLE_RETRIES] == 1
        else:
            assert counters.get(C.SHUFFLE_RETRIES, 0) == 0


# ------------------------------------------------------------- lifecycle


def write_segments(tmp_path, map_id, count, records=300):
    """``count`` partition segments of one map; ``[(path, blob)]``."""
    out = []
    for part in range(count):
        path = str(tmp_path / f"{map_id}-out-p{part}")
        writer = IFileWriter(path, NullCodec())
        for i in range(records):
            writer.append(f"{map_id}k{part}{i:05d}".encode(),
                          f"v{i * part:07d}".encode())
        writer.close()
        with open(path, "rb") as fh:
            out.append((path, fh.read()))
    return out


def config():
    return ShuffleConfig(transport="network", wire_codec="zlib",
                         fetch_retries=0, fetch_timeout=5.0)


def fetch(service, map_id, path, epoch=0):
    transport = NetworkTransport(config())
    try:
        return transport.fetch(
            SegmentRef(map_id=map_id, path=path, stats=None, epoch=epoch,
                       address=service.address_for(map_id)),
            0, Deadline(None))
    finally:
        transport.close()


def wait_for(condition):
    """Poll ``condition`` for up to five seconds: a handler releases
    what it sent, and stages into the slot it freed, only after its
    response is on the wire."""
    deadline = time.monotonic() + 5.0
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def settle(service):
    """Wait for every staged back stage to finish."""
    with service._changed:
        assert service._changed.wait_for(
            lambda: all(stage.payload is not None
                        for stage in service._staged.values()), 5.0)


class TestLifecycle:
    @pytest.fixture(autouse=True)
    def one_helper(self, helper_threads):
        helper_threads(1)  # W = 4

    def test_window_fills_in_partition_order(self, tmp_path):
        a, b, c, d, e = (write_segments(tmp_path, f"m{m:05d}", 2)
                         for m in range(5))
        with ShuffleService.from_config(config()) as service:
            assert service._window == 4
            for m, segs in enumerate((a, b, c, d, e)):
                service.register_map_output(f"m{m:05d}",
                                            [p for p, _ in segs])
            settle(service)
            assert set(service._staged) == {a[0][0], a[1][0],
                                            b[0][0], b[1][0]}
            # Each freed slot goes to the lowest queued partition, the
            # order reducers fetch in: c0, then d0 (not c1).
            fetch(service, "m00000", a[0][0])
            wait_for(lambda: set(service._staged) == {
                a[1][0], b[0][0], b[1][0], c[0][0]})
            fetch(service, "m00000", a[1][0])
            wait_for(lambda: set(service._staged) == {
                b[0][0], b[1][0], c[0][0], d[0][0]})

    def test_invalidate_drops_staged_and_queued(self, tmp_path):
        a = write_segments(tmp_path, "m00000", 5)
        b = write_segments(tmp_path, "m00001", 2)
        with ShuffleService.from_config(config()) as service:
            service.register_map_output("m00000", [p for p, _ in a])
            settle(service)
            assert len(service._staged) == 4
            assert list(service._queued) == [a[4][0]]
            service.invalidate("m00000")
            assert service._staged == {} and service._queued == {}
            assert service.memory.used == 0
            # the freed slots take the next registration whole
            service.register_map_output("m00001", [p for p, _ in b])
            settle(service)
            assert set(service._staged) == {p for p, _ in b}
            # re-registration drops what the map had, then re-queues it
            service.register_map_output("m00001", [p for p, _ in b],
                                        epoch=1)
            settle(service)
            assert set(service._staged) == {p for p, _ in b}
            assert fetch(service, "m00001", b[0][0], epoch=1) == b[0][1]

    def test_rewritten_segment_is_served_from_the_file(self, tmp_path,
                                                       taken):
        [(path, blob)] = write_segments(tmp_path, "m00000", 1)
        with ShuffleService.from_config(config()) as service:
            service.register_map_output("m00000", [path])
            settle(service)
            assert path in service._staged
            # What segment repair or damage at rest does: new bytes at
            # the same path, after the stage compressed the old ones.
            damaged = bytearray(blob)
            damaged[len(damaged) // 2] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(damaged)
            os.utime(path, ns=(1, 1))
            got = fetch(service, "m00000", path)
            assert got == bytes(damaged)
            assert taken == [False]
            assert service._staged == {}
            wait_for(lambda: service.memory.used == 0)

    def test_fetch_before_staging_compresses_inline(self, tmp_path, taken):
        segs = write_segments(tmp_path, "m00000", 5)
        paths = [p for p, _ in segs]
        with ShuffleService.from_config(config()) as service:
            service.register_map_output("m00000", paths)
            settle(service)
            assert list(service._queued) == [paths[4]]
            assert fetch(service, "m00000", paths[4]) == segs[4][1]
            assert taken == [False]
            assert service._queued == {}
            # Freeing a slot stages nothing: the queue is empty.
            assert fetch(service, "m00000", paths[0]) == segs[0][1]
            assert paths[4] not in service._staged
            assert taken == [False, True]
            # A retry after the staged copy was consumed is inline.
            assert fetch(service, "m00000", paths[0]) == segs[0][1]
            assert taken == [False, True, False]

    def test_stop_cancels_queued_work_and_joins_helpers(self, tmp_path,
                                                        stages):
        service = ShuffleService.from_config(config()).start()
        for m in range(4):
            segs = write_segments(tmp_path, f"m{m:05d}", 2)
            service.register_map_output(f"m{m:05d}", [p for p, _ in segs])
        assert service._queued
        assert len(stages) == service._window
        service.stop()
        assert no_stage_pending(stages)
        assert service._staged == {} and service._queued == {}
        assert service._queue == []
        assert service.memory.used == 0

    def test_staged_payload_is_the_codec_output(self, tmp_path):
        [(path, blob)] = write_segments(tmp_path, "m00000", 1)
        with ShuffleService.from_config(config()) as service:
            service.register_map_output("m00000", [path])
            settle(service)
            stage = service._staged[path]
            assert stage.payload == get_codec("zlib").compress(blob)
            assert service._crc_cache[path][2] == zlib.crc32(blob)


class TestJobMemory:
    def test_ledger_drains_and_peaks_within_the_window(
            self, monkeypatch, helper_threads, stages, tmp_path, grid):
        helper_threads(1)  # W = 4
        services = []
        real_start = ShuffleService.start

        def start(self):
            started = real_start(self)
            services.append((self, self._window))
            return started

        monkeypatch.setattr(ShuffleService, "start", start)
        job = SlidingMedianQuery(grid, "values", window=3).build_job(
            "plain", num_map_tasks=4, num_reducers=2)
        # One fetch at a time: at most one inline compress in flight.
        shuffle = ShuffleConfig(transport="network",
                                wire_codec="fastpred+zlib", concurrency=1)
        workdir = str(tmp_path / "work")
        for _ in range(2):
            with LocalJobRunner(workdir=workdir, keep_files=True,
                                shuffle=shuffle) as runner:
                runner.run(dataclasses.replace(job), grid)
            service, window = services[-1]
            wait_for(lambda: service.memory.used == 0)
            assert no_stage_pending(stages)
        largest = max(os.path.getsize(p)
                      for p in glob.glob(os.path.join(workdir, "*-out-p*")))
        assert window == 4
        assert 0 < service.memory.peak <= (window + 1) * largest


class TestStress:
    def test_fetches_race_republication(self, helper_threads, stages,
                                        tmp_path):
        """More fetching threads than cores, a tiny switch interval, and
        a publisher re-registering every map meanwhile: every fetch gets
        its segment's bytes, the window never overflows, and the ledger
        balances to zero."""
        helper_threads(2)  # W = 6
        maps = {f"m{m:05d}": write_segments(tmp_path, f"m{m:05d}", 3,
                                            records=100)
                for m in range(6)}
        errors, overflows = [], []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShuffleService.from_config(config()) as service:
                for map_id, segs in maps.items():
                    service.register_map_output(map_id,
                                                [p for p, _ in segs])

                def fetcher(seed):
                    rng = random.Random(seed)
                    transport = NetworkTransport(config())
                    try:
                        for _ in range(12):
                            map_id = rng.choice(sorted(maps))
                            path, blob = rng.choice(maps[map_id])
                            got = transport.fetch(
                                SegmentRef(map_id=map_id, path=path,
                                           stats=None,
                                           address=service.address_for(
                                               map_id)),
                                0, Deadline(10.0))
                            if got != blob:
                                errors.append(path)
                            if len(service._staged) > service._window:
                                overflows.append(len(service._staged))
                    except Exception as exc:  # reported by the assert
                        errors.append(repr(exc))
                    finally:
                        transport.close()

                def publisher():
                    for map_id in sorted(maps) * 2:
                        service.register_map_output(
                            map_id, [p for p, _ in maps[map_id]])

                threads = [threading.Thread(target=fetcher, args=(seed,))
                           for seed in range(6)]
                threads.append(threading.Thread(target=publisher))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == [] and overflows == []
        wait_for(lambda: service.memory.used == 0)
        assert no_stage_pending(stages)
