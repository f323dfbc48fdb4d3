"""Pipelined-shuffle building blocks: config, mid-stream epoch bumps,
and fetch ordering.

Pinned here:

* the pipeline knobs round-trip through ``ShuffleConfig`` validation
  and the ``REPRO_PIPELINE`` / ``REPRO_STARVATION_THRESHOLD``
  environment variables, with malformed values surfacing as
  :class:`ConfigError` naming the variable;
* ``ShuffleFetcher.fetch_all`` returns blobs in **input order** no
  matter the segment sizes or the (selecting nothing) ``concurrency``
  -- the property every merge (and therefore every output byte) rests
  on;
* a producer re-executed *after* a pipelined reducer already consumed
  it (the mid-pipeline STALE_EPOCH) is discarded and re-fetched at the
  bumped epoch, and the reduce output is byte-identical to the barrier
  path over the same final segments.  The reducer's link to the
  scheduler is a :class:`ScriptedLink`, so the interleaving is fixed
  without a thread or a sleep.
"""

import dataclasses
import os
from contextlib import ExitStack

import numpy as np
import pytest

from repro.mapreduce.codecs import NullCodec
from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.ifile import IFileWriter
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime.pipeline import (
    PipelinePlan,
    aggregate_pipeline_stats,
    drain_refs,
)
from repro.mapreduce.runtime.pool import InlinePool
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


class ScriptedLink:
    """A pipelined reducer's link that plays a script: ``receive()``
    returns the script's next segment ref; ``reports`` keeps each starvation
    report, in order."""

    def __init__(self, refs):
        self.script = list(refs)
        self.reports = []

    def starved(self, missing):
        self.reports.append(list(missing))

    def receive(self):
        assert self.script, "the reducer waited past the script"
        return self.script.pop(0)


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

        plan = PipelinePlan(("m00000", "m00001"),
                            [SegmentRef.from_pair(epoch0[0].segments[0])])
        # The reducer consumes m00000 at epoch 0; then it is sent
        # m00000 re-published at epoch 1 and finally the straggler.
        link = ScriptedLink([
            SegmentRef.from_pair(epoch1.segments[0], epoch=1),
            SegmentRef.from_pair(epoch0[1].segments[0])])
        reduce_dir = str(tmp_path / "pipelined")
        os.makedirs(reduce_dir)
        result = run_reduce_task(job, 0, plan, reduce_dir, link=link)
        assert link.script == [] and link.reports == [["m00001"]]

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


def test_an_unpublished_producer_without_a_link_raises(tmp_path):
    """An inline reducer has no link to wait on: a plan missing a
    producer's segment fails the attempt instead of hanging it, in the
    reduce body and in the barrier drain a corrupt fault takes."""
    job = make_job(num_map_tasks=2, num_reducers=1)
    plan = PipelinePlan(("m00000", "m00001"), [])
    with pytest.raises(RuntimeError, match=r"\['m00000', 'm00001'\]"):
        run_reduce_task(job, 0, plan, str(tmp_path))
    with pytest.raises(RuntimeError, match=r"\['m00000', 'm00001'\]"):
        drain_refs(plan)


def test_an_inline_slot_holds_the_reducer_until_every_map_wins():
    """On one inline slot a combined wave does not launch its reducer
    while a map waits behind a backoff gate (an OOM death here): the
    reducer runs once, after the last map, and fails nothing."""
    grid = integer_grid((8, 8), seed=13, low=0, high=100)
    job = make_job(num_map_tasks=3, num_reducers=1)
    with ParallelJobRunner(pool=InlinePool(),
                           shuffle=ShuffleConfig(pipeline=True),
                           fault_injector=FaultInjector().oom(
                               "m00001", site="sort")) as runner:
        result = runner.run(job, grid)
    events = [(e.task_id, e.attempt, e.event) for e in result.trace.events]
    assert ("m00001", 1, "finished") in events
    reducer = [e[1:] for e in events if e[0] == "r00000"]
    assert [e for e in reducer if e[1] in ("started", "failed")] == [
        (0, "started")], reducer
    assert events.index(("r00000", 0, "started")) > events.index(
        ("m00001", 1, "finished"))
    with LocalJobRunner() as serial:
        assert result.output == serial.run(job, grid).output
