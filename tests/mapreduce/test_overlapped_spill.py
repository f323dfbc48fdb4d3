"""The map task's overlapped segment commits (``engine._commit_segments``).

Each spill, and the final multi-spill merge, seals partition p on the
task's thread and commits it -- the codec's GIL-free back stage, the CRC
and the write -- on the process's helper pool while partition p+1 is
prepared.  The overlap must change no byte and no counter, must submit
nothing where there is nothing to overlap, and must finish or cancel
every commit before the task returns or raises.
"""

import dataclasses
import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.mapreduce import engine
from repro.mapreduce.codecs import ZlibCodec
from repro.mapreduce.engine import run_map_task
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import helpers
from repro.queries import SlidingMedianQuery
from repro.scidata import ArraySplitter, integer_grid


@pytest.fixture(scope="module")
def grid():
    return integer_grid((6, 6, 6), seed=3)


def _job(grid, codec, reducers, spills, block_bytes):
    job = SlidingMedianQuery(grid, "values", window=3).build_job(
        "plain", num_reducers=reducers, codec=codec,
        **({"sort_buffer_bytes": 32 * 1024} if spills == "several" else {}))
    return dataclasses.replace(job, ifile_block_bytes=block_bytes)


class CountingPool(ThreadPoolExecutor):
    """A helper pool that keeps the future of everything submitted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


@pytest.fixture
def counting_pool(monkeypatch, helper_threads):
    """``force(n)``: a fresh helper pool of ``n`` threads that counts
    its submissions; returns a callable reading them."""
    monkeypatch.setattr(helpers, "ThreadPoolExecutor", CountingPool)

    def force(count):
        helper_threads(count)
        return lambda: helpers._pool.futures if helpers._pool else []

    return force


def _run(monkeypatch, counting_pool, job, grid, workdir, threads):
    """One map task on a helper pool of ``threads`` threads: the sha256
    of every spill and final segment, the counters, the segment stats,
    and how many commits went to the pool."""
    spilled = []
    real_spill = engine._spill

    def hashing_spill(*args):
        out = real_spill(*args)
        for path, _ in out.values():
            with open(path, "rb") as fh:
                spilled.append((os.path.basename(path),
                                hashlib.sha256(fh.read()).hexdigest()))
        return out

    submitted = counting_pool(threads)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_spill", hashing_spill)
        split = ArraySplitter(1).split(grid)[0]
        mo = run_map_task(job, split, grid, str(workdir))
    finals = {}
    for name in sorted(os.listdir(workdir)):
        with open(workdir / name, "rb") as fh:
            finals[name] = hashlib.sha256(fh.read()).hexdigest()
    return {
        "spills": spilled,
        "finals": finals,
        "counters": mo.counters.as_dict(),
        "segments": {part: (os.path.basename(path), stats)
                     for part, (path, stats) in mo.segments.items()},
        "io": (mo.profile.local_read_bytes, mo.profile.local_write_bytes),
    }, len(submitted())


@pytest.mark.parametrize("block_bytes", [None, 4096])
@pytest.mark.parametrize("spills", ["one", "several"])
@pytest.mark.parametrize("reducers", [1, 2, 5])
@pytest.mark.parametrize("codec", ["null", "zlib", "bz2", "fastpred+zlib"])
def test_helper_threads_change_no_byte(monkeypatch, counting_pool, tmp_path,
                                       grid, codec, reducers, spills,
                                       block_bytes):
    job = _job(grid, codec, reducers, spills, block_bytes)
    (tmp_path / "inline").mkdir()
    (tmp_path / "threads").mkdir()
    inline, inline_submits = _run(monkeypatch, counting_pool, job, grid,
                                  tmp_path / "inline", threads=0)
    overlapped, submits = _run(monkeypatch, counting_pool, job, grid,
                               tmp_path / "threads", threads=3)
    assert overlapped == inline
    assert (inline["counters"][C.SPILL_COUNT] > 1) == (spills == "several")
    assert inline_submits == 0
    # every spill partition but the last goes to the pool, unless the
    # codec is null (nothing to overlap) or there is one partition; the
    # chunked merge output seals its blocks inline
    expected = 0
    if codec != "null" and reducers > 1:
        expected = inline["counters"][C.SPILL_COUNT] * (reducers - 1)
        if spills == "several" and block_bytes is None:
            expected += reducers - 1
    assert submits == expected


class BackStageError(RuntimeError):
    pass


class FailingFirstFinish(ZlibCodec):
    """zlib whose first back stage -- partition 0 of the first spill --
    raises, after its later partitions' commits are under way."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.lock = threading.Lock()

    def finish(self, data):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            time.sleep(0.05)
            raise BackStageError("back stage failed on partition 0")
        return super().finish(data)


@pytest.mark.parametrize("spills", ["one", "several"])
def test_back_stage_failure_joins_every_helper(monkeypatch, counting_pool,
                                                tmp_path, grid, spills):
    job = _job(grid, "zlib", 5, spills, None)
    submitted = counting_pool(3)
    monkeypatch.setattr(engine, "get_codec",
                        lambda name, **options: FailingFirstFinish())
    split = ArraySplitter(1).split(grid)[0]
    with pytest.raises(BackStageError):
        run_map_task(job, split, grid, str(tmp_path))
    # The failed partition's later commits were submitted, and not one
    # of them is still queued or running on the pool.
    assert len(submitted()) > 1
    assert all(future.done() for future in submitted())
