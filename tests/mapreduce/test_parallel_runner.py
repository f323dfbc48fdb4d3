"""ParallelJobRunner is a drop-in for LocalJobRunner.

The contract under test: for any job configuration, the multiprocess
runtime produces **byte-identical counters** (including the paper's
headline MAP_OUTPUT_MATERIALIZED_BYTES and SHUFFLE_BYTES) and identical
reduce output to the serial runner, because both execute the same task
functions over the same IFile/codec data path.
"""

import pytest

from repro.mapreduce import (
    CellKeySerde,
    Int32Serde,
    Job,
    LocalJobRunner,
    ParallelJobRunner,
)
from repro.mapreduce.metrics import C
from repro.mapreduce.simcluster.model import ClusterSimulator
from repro.scidata import integer_grid
from tests.mapreduce.test_engine import (
    EmitCellsMapper,
    SumReducer,
    make_job,
)


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


def assert_equivalent(grid, **job_overrides):
    serial = LocalJobRunner().run(make_job(**job_overrides), grid)
    parallel = ParallelJobRunner(max_workers=3).run(
        make_job(**job_overrides), grid)
    assert serial.counters == parallel.counters, (
        f"counter drift: {serial.counters.diff(parallel.counters)}")
    assert serial.counters.as_dict() == parallel.counters.as_dict()
    assert serial.output == parallel.output
    assert (serial.map_output_stats.materialized_bytes
            == parallel.map_output_stats.materialized_bytes)
    assert serial.map_output_stats.key_bytes == parallel.map_output_stats.key_bytes
    assert serial.num_map_tasks == parallel.num_map_tasks
    assert serial.num_reduce_tasks == parallel.num_reduce_tasks
    return serial, parallel


class TestCounterEquivalence:
    def test_single_task_job(self, grid):
        assert_equivalent(grid)

    def test_many_maps_many_reducers(self, grid):
        serial, parallel = assert_equivalent(
            grid, num_map_tasks=4, num_reducers=3)
        assert parallel.counters[C.SHUFFLE_BYTES] == \
            parallel.counters[C.MAP_OUTPUT_MATERIALIZED_BYTES]

    def test_spills(self, grid):
        serial, parallel = assert_equivalent(
            grid, num_reducers=2, sort_buffer_bytes=1024)
        assert parallel.counters[C.SPILL_COUNT] > 1

    def test_combiner(self, grid):
        serial, parallel = assert_equivalent(
            grid, num_map_tasks=2, combine=True)
        assert parallel.counters[C.COMBINE_INPUT_RECORDS] > 0

    def test_compression_codec(self, grid):
        assert_equivalent(grid, num_map_tasks=2, num_reducers=2, codec="zlib")

    def test_multipass_merge(self):
        grid = integer_grid((12, 4), seed=3)
        serial, parallel = assert_equivalent(
            grid, num_map_tasks=12, merge_factor=2)
        assert parallel.counters[C.MERGE_PASS_BYTES] > 0

    def test_profiles_cover_every_task(self, grid):
        result = ParallelJobRunner(max_workers=2).run(
            make_job(num_map_tasks=4, num_reducers=2), grid)
        kinds = [p.kind for p in result.task_profiles]
        assert kinds.count("map") == 4
        assert kinds.count("reduce") == 2
        for p in result.task_profiles:
            assert p.total_cpu >= 0.0
            if p.kind == "map":
                assert p.local_write_bytes > 0


class TestRuntimeTrace:
    def test_trace_attached_and_complete(self, grid):
        result = ParallelJobRunner(max_workers=2).run(
            make_job(num_map_tasks=3, num_reducers=2), grid)
        trace = result.trace
        assert trace is not None
        assert trace.count("queued") == 5
        assert trace.count("finished") == 5
        for tid in ["m00000", "m00001", "m00002", "r00000", "r00001"]:
            events = [e.event for e in trace.events_for(tid)]
            assert events[0] == "queued"
            assert "started" in events and "finished" in events
            assert trace.task_wall_clock(tid) >= 0.0
        assert trace.wall_clock > 0.0
        assert "finished" in trace.format_timeline()

    def test_trace_profiles_feed_the_cluster_simulator(self, grid):
        """A measured parallel execution re-prices onto a simulated
        cluster exactly like the serial runner's profile list."""
        result = ParallelJobRunner(max_workers=2).run(
            make_job(num_map_tasks=4, num_reducers=2), grid)
        profiles = result.trace.task_profiles()
        assert [p.task_id for p in profiles] == \
            [p.task_id for p in result.task_profiles]
        sim = ClusterSimulator()
        via_trace = sim.simulate(profiles)
        via_result = sim.simulate(result.task_profiles)
        assert via_trace.total_seconds == via_result.total_seconds
        assert len(result.trace.task_profiles(kind="map")) == 4


class TestRunnerApi:
    def test_empty_splits_rejected(self, grid):
        with pytest.raises(ValueError):
            ParallelJobRunner(max_workers=2).run(make_job(), grid, splits=[])

    def test_runner_is_reusable_across_jobs(self, grid):
        with ParallelJobRunner(max_workers=2) as runner:
            first = runner.run(make_job(num_map_tasks=2), grid)
            second = runner.run(make_job(num_map_tasks=2), grid)
            assert first.output == second.output
            assert runner.last_trace is not None

    def test_explicit_splits(self, grid):
        from repro.scidata.splits import ArraySplitter

        splits = ArraySplitter(4).split(grid)
        serial = LocalJobRunner().run(make_job(num_reducers=2), grid, splits)
        parallel = ParallelJobRunner(max_workers=2).run(
            make_job(num_reducers=2), grid, splits)
        assert serial.counters == parallel.counters
        assert serial.output == parallel.output
