"""Pipelined-shuffle building blocks: config, commit log, mid-stream
epoch bumps, and fetch ordering.

Pinned here:

* the pipeline knobs round-trip through ``ShuffleConfig`` validation
  and the ``REPRO_PIPELINE`` / ``REPRO_STARVATION_THRESHOLD``
  environment variables, with malformed values surfacing as
  :class:`ConfigError` naming the variable;
* ``ShuffleFetcher.fetch_all`` returns blobs in **input order** no
  matter the segment sizes or the (selecting nothing) ``concurrency``
  -- the property every merge (and therefore every output byte) rests
  on;
* the commit log is a crash-safe completion-event stream: atomic
  publish, stat-signature re-reads, epoch bumps visible to a polling
  reader, torn/missing records tolerated;
* a producer re-executed *after* a pipelined reducer already consumed
  it (the mid-pipeline STALE_EPOCH) is discarded and re-fetched at the
  bumped epoch, and the reduce output is byte-identical to the barrier
  path over the same final segments.
"""

import dataclasses
import os
import pickle
import threading
import time
from contextlib import ExitStack

import numpy as np
import pytest

from repro.mapreduce.codecs import NullCodec
from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.ifile import IFileWriter
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime.pipeline import (
    CommitLog,
    CommitRecord,
    PipelinePlan,
    aggregate_pipeline_stats,
)
from repro.mapreduce.runtime.shuffle import (
    ConfigError,
    SegmentRef,
    ShuffleConfig,
    ShuffleFetcher,
    shuffle_config_from_env,
)
from repro.scidata import integer_grid
from repro.scidata.splits import ArraySplitter
from tests.mapreduce.test_engine import make_job

_ENV_VARS = ("REPRO_TRANSPORT", "REPRO_FETCH_RETRIES",
             "REPRO_FETCH_TIMEOUT", "REPRO_WIRE_CODEC",
             "REPRO_SHUFFLE_PORT_BASE", "REPRO_PIPELINE",
             "REPRO_STARVATION_THRESHOLD")


@pytest.fixture
def clean_env(monkeypatch):
    for name in _ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestPipelineConfig:
    def test_defaults(self):
        config = ShuffleConfig()
        assert config.pipeline is False
        assert config.starvation_threshold == 2

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_starvation_threshold_range_checked(self, threshold):
        with pytest.raises(ValueError, match="starvation_threshold"):
            ShuffleConfig(starvation_threshold=threshold)

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
        (" true ", True),
    ])
    def test_pipeline_env_boolean_forms(self, clean_env, raw, expected):
        clean_env.setenv("REPRO_PIPELINE", raw)
        config = shuffle_config_from_env()
        assert config is not None and config.pipeline is expected

    def test_env_round_trip(self, clean_env):
        clean_env.setenv("REPRO_PIPELINE", "1")
        clean_env.setenv("REPRO_STARVATION_THRESHOLD", "5")
        config = shuffle_config_from_env()
        assert config.pipeline is True
        assert config.starvation_threshold == 5

    def test_no_env_means_runner_default(self, clean_env):
        assert shuffle_config_from_env() is None

    @pytest.mark.parametrize("var,value", [
        ("REPRO_PIPELINE", "maybe"),
        ("REPRO_PIPELINE", "2"),
        ("REPRO_STARVATION_THRESHOLD", "soon"),
    ])
    def test_malformed_env_names_variable(self, clean_env, var, value):
        clean_env.setenv(var, value)
        with pytest.raises(ConfigError) as err:
            shuffle_config_from_env()
        assert var in str(err.value)

    def test_out_of_range_threshold_is_config_error(self, clean_env):
        clean_env.setenv("REPRO_STARVATION_THRESHOLD", "0")
        with pytest.raises(ConfigError, match="starvation_threshold"):
            shuffle_config_from_env()


class TestFetchAllOrdering:
    """Property: blobs come back in ref order, not completion order."""

    def _make_refs(self, tmp_path, rng, count):
        refs, contents = [], []
        for i in range(count):
            path = str(tmp_path / f"m{i:05d}-out-p0")
            writer = IFileWriter(path, NullCodec())
            # Wildly uneven segment sizes so completion order scrambles.
            for j in range(int(rng.integers(1, 200))):
                writer.append(f"k{i:03d}-{j:05d}".encode(),
                              bytes(int(rng.integers(1, 64))))
            stats = writer.close()
            refs.append(SegmentRef(map_id=f"m{i:05d}", path=path,
                                   stats=stats))
            with open(path, "rb") as fh:
                contents.append(fh.read())
        return refs, contents

    @pytest.mark.parametrize("transport", ["direct", "network"])
    def test_order_is_deterministic_under_concurrency(self, tmp_path,
                                                      transport):
        from repro.mapreduce.runtime.netshuffle import ShuffleService

        rng = np.random.default_rng(401)
        for trial in range(6):
            count = int(rng.integers(1, 13))
            concurrency = int(rng.integers(1, 7))
            sub = tmp_path / f"{transport}-{trial}"
            sub.mkdir()
            refs, contents = self._make_refs(sub, rng, count)
            config = ShuffleConfig(transport=transport,
                                   concurrency=concurrency, chunk_bytes=256)
            with ExitStack() as stack:
                if transport == "network":
                    service = stack.enter_context(
                        ShuffleService.from_config(config))
                    for ref in refs:
                        service.register_map_output(ref.map_id, [ref.path])
                    refs = [dataclasses.replace(
                        ref, address=service.address_for(ref.map_id))
                        for ref in refs]
                counters = Counters()
                fetcher = ShuffleFetcher(config, counters, "r00000")
                assert fetcher.fetch_all(refs) == contents
            assert counters[C.SHUFFLE_FETCHES] == count

    def test_empty_ref_list(self):
        fetcher = ShuffleFetcher(ShuffleConfig(), Counters(), "r00000")
        assert fetcher.fetch_all([]) == []


class TestCommitLog:
    def record(self, map_id="m00000", epoch=0):
        return CommitRecord(map_id=map_id, epoch=epoch,
                            segments={0: ("/tmp/none", None)})

    def test_publish_then_poll(self, tmp_path):
        log = CommitLog(str(tmp_path / "commits"))
        assert log.poll() == {}
        log.commit(self.record())
        log.commit(self.record(map_id="m00001"))
        records = log.poll()
        assert set(records) == {"m00000", "m00001"}
        assert records["m00000"].epoch == 0

    def test_epoch_bump_visible_to_cached_reader(self, tmp_path):
        log = CommitLog(str(tmp_path / "commits"))
        log.commit(self.record())
        reader = CommitLog(log.directory)
        assert reader.poll()["m00000"].epoch == 0
        log.commit(self.record(epoch=1))
        assert reader.poll()["m00000"].epoch == 1

    def test_torn_record_skipped(self, tmp_path):
        log = CommitLog(str(tmp_path / "commits"))
        log.commit(self.record())
        blob = pickle.dumps(self.record(map_id="m00001"))
        with open(os.path.join(log.directory, "m00001.commit"),
                  "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert set(CommitLog(log.directory).poll()) == {"m00000"}

    def test_missing_directory_is_empty(self, tmp_path):
        assert CommitLog(str(tmp_path / "nope")).poll() == {}


class TestAggregateStats:
    def test_rollup(self):
        stats = aggregate_pipeline_stats([
            {"first_fetch_ms": 12.5, "overlapped_fetches": 2,
             "refetches": 1, "wait_seconds": 0.1},
            {"first_fetch_ms": 4.25, "overlapped_fetches": 1,
             "refetches": 0, "wait_seconds": 0.2},
        ])
        assert stats[C.REDUCE_FIRST_FETCH_MS] == 4.25
        assert stats[C.PIPELINE_OVERLAP] == 3
        assert stats["refetches"] == 1
        assert stats["wait_seconds"] == pytest.approx(0.3)
        assert stats["reduces"] == 2

    def test_empty_is_none(self):
        assert aggregate_pipeline_stats([]) is None
        assert aggregate_pipeline_stats([None, None]) is None


class TestStaleEpochMidPipeline:
    """A producer re-executed *after* its run was consumed: the reducer
    must discard the stale run, re-fetch at the bumped epoch, and still
    produce barrier-identical output."""

    def _map_outputs(self, job, grid, tmp_path, tag):
        outs = []
        for split in ArraySplitter(job.num_map_tasks).split(grid):
            workdir = str(tmp_path / f"{tag}-m{split.split_id:05d}")
            os.makedirs(workdir, exist_ok=True)
            outs.append(run_map_task(job, split, grid, workdir))
        return outs

    def test_discard_and_refetch_at_bumped_epoch(self, tmp_path):
        grid = integer_grid((8, 8), seed=13, low=0, high=100)
        job = make_job(num_map_tasks=2, num_reducers=1)
        epoch0 = self._map_outputs(job, grid, tmp_path, "e0")
        # The re-executed m00000: identical bytes by determinism, but a
        # different attempt directory (the old files are gone).
        epoch1 = self._map_outputs(job, grid, tmp_path, "e1")[0]

        barrier_dir = str(tmp_path / "barrier")
        os.makedirs(barrier_dir)
        expected = run_reduce_task(
            job, 0, [SegmentRef.from_pair(o.segments[0]) for o in epoch0],
            barrier_dir)

        commit_dir = str(tmp_path / "commits")
        log = CommitLog(commit_dir)
        log.commit(CommitRecord(map_id="m00000", epoch=0,
                                segments=epoch0[0].segments))
        plan = PipelinePlan(commit_dir=commit_dir,
                            map_ids=("m00000", "m00001"),
                            poll_interval=0.01)

        def feed():
            # Let the reducer consume m00000 at epoch 0, then re-publish
            # it at epoch 1 and finally commit the straggler m00001.
            time.sleep(0.15)
            log.commit(CommitRecord(map_id="m00000", epoch=1,
                                    segments=epoch1.segments))
            time.sleep(0.05)
            log.commit(CommitRecord(map_id="m00001", epoch=0,
                                    segments=epoch0[1].segments))

        feeder = threading.Thread(target=feed)
        feeder.start()
        reduce_dir = str(tmp_path / "pipelined")
        os.makedirs(reduce_dir)
        try:
            result = run_reduce_task(job, 0, plan, reduce_dir)
        finally:
            feeder.join()

        assert result.output == expected.output
        # The extra fetch moves only the transfer accounting; every
        # other counter is byte-identical to the barrier path.
        volatile = {C.SHUFFLE_FETCHES, C.SHUFFLE_BYTES_TRANSFERRED}
        stable = {k: v for k, v in result.counters.as_dict().items()
                  if k not in volatile}
        assert stable == {k: v for k, v
                          in expected.counters.as_dict().items()
                          if k not in volatile}
        assert result.pipeline["refetches"] == 1
        assert result.pipeline["overlapped_fetches"] >= 1
        # Two fetches of m00000 (stale + bumped) plus one of m00001.
        assert result.counters[C.SHUFFLE_FETCHES] == 3
        # ...but shuffle bytes are charged once, from the final set.
        assert (result.counters[C.SHUFFLE_BYTES]
                == expected.counters[C.SHUFFLE_BYTES])
