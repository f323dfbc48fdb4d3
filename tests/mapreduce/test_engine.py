"""End-to-end engine tests: map, spill, combine, shuffle, merge, reduce."""

import numpy as np
import pytest

from repro.mapreduce import (
    CellKey,
    CellKeySerde,
    Int32Serde,
    Job,
    LocalJobRunner,
    Mapper,
    Reducer,
)
from repro.mapreduce.api import SUM
from repro.mapreduce.metrics import C
from repro.scidata import integer_grid
from tests.mapreduce.record_path import record_path


class EmitCellsMapper(Mapper):
    """Emits (cell key, value) for every input cell via the fast path."""

    def map(self, split, values, ctx):
        coords = split.slab.coords()
        ctx.emit_cells(split.variable, coords, values.ravel())


class EmitCellsScalarMapper(Mapper):
    """Same output as EmitCellsMapper through the scalar emit path."""

    def map(self, split, values, ctx):
        flat = values.ravel()
        for i, coord in enumerate(split.slab):
            ctx.emit(CellKey(split.variable, coord), int(flat[i]))


class EmitFOrderedCellsMapper(Mapper):
    """EmitCellsMapper with its coordinates in Fortran order (the layout
    of a transposed ``np.indices(...).reshape(ndim, -1)``)."""

    def map(self, split, values, ctx):
        coords = np.asfortranarray(split.slab.coords())
        ctx.emit_cells(split.variable, coords, values.ravel())


class SumReducer(Reducer):
    monoid = SUM  # what ``combine=True`` folds spill groups with

    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def make_job(**overrides):
    defaults = dict(
        name="test",
        mapper=EmitCellsMapper,
        reducer=SumReducer,
        key_serde=CellKeySerde(ndim=2, variable_mode="name"),
        value_serde=Int32Serde(),
        num_reducers=1,
        num_map_tasks=1,
    )
    defaults.update(overrides)
    return Job(**defaults)


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


class TestBasicJob:
    def test_identity_sum_job(self, grid):
        result = LocalJobRunner().run(make_job(), grid)
        data = grid["values"].data
        assert len(result.output) == 64
        for key, value in result.output:
            assert value == data[key.coords]

    def test_scalar_and_vector_emit_agree(self, grid):
        r1 = LocalJobRunner().run(make_job(), grid)
        r2 = LocalJobRunner().run(make_job(mapper=EmitCellsScalarMapper), grid)
        assert sorted(map(repr, r1.output)) == sorted(map(repr, r2.output))
        assert (r1.counters[C.MAP_OUTPUT_MATERIALIZED_BYTES]
                == r2.counters[C.MAP_OUTPUT_MATERIALIZED_BYTES])

    def test_counters(self, grid):
        result = LocalJobRunner().run(make_job(), grid)
        c = result.counters
        assert c[C.MAP_INPUT_RECORDS] == 64
        assert c[C.MAP_OUTPUT_RECORDS] == 64
        assert c[C.REDUCE_INPUT_GROUPS] == 64
        assert c[C.REDUCE_INPUT_RECORDS] == 64
        assert c[C.REDUCE_OUTPUT_RECORDS] == 64
        assert c[C.MAP_OUTPUT_MATERIALIZED_BYTES] > 0
        assert c[C.SHUFFLE_BYTES] == c[C.MAP_OUTPUT_MATERIALIZED_BYTES]

    def test_materialized_bytes_exact(self, grid):
        """64 records x (2 frame + 23 key + 4 value) + 6 trailer."""
        job = make_job(key_serde=CellKeySerde(ndim=2, variable_mode="name"))
        result = LocalJobRunner().run(job, grid)
        key_size = 11 + 8 + 4  # "windspeed1"? no: "values" = 1+6=7 text
        # variable name "values": Text = 7 bytes; + 2 coords + slot = 19
        assert result.map_output_stats.key_bytes == 64 * 19
        assert result.map_output_stats.value_bytes == 64 * 4
        assert result.materialized_bytes == 64 * (2 + 19 + 4) + 6

    def test_multiple_reducers_partition_everything(self, grid):
        result = LocalJobRunner().run(make_job(num_reducers=4), grid)
        assert len(result.output) == 64
        assert result.num_reduce_tasks == 4
        data = grid["values"].data
        for key, value in result.output:
            assert value == data[key.coords]

    def test_multiple_map_tasks(self, grid):
        result = LocalJobRunner().run(make_job(num_map_tasks=4, num_reducers=2), grid)
        assert result.num_map_tasks == 4
        assert len(result.output) == 64

    def test_task_profiles_present(self, grid):
        result = LocalJobRunner().run(make_job(num_map_tasks=2, num_reducers=2), grid)
        kinds = [p.kind for p in result.task_profiles]
        assert kinds.count("map") == 2
        assert kinds.count("reduce") == 2
        for p in result.task_profiles:
            assert p.total_cpu >= 0.0
            if p.kind == "map":
                assert p.local_write_bytes > 0


@pytest.mark.parametrize("coord_width", [4, 8])
@pytest.mark.parametrize("batch_sink", [True, False],
                         ids=["batch-sink", "write-batch"])
def test_emit_cells_takes_f_ordered_coordinates(monkeypatch, grid,
                                                coord_width, batch_sink):
    """Both ``emit_cells`` sinks (the columnar ``pack_batch_keys`` and the
    scalar ``write_batch``, under ``record_path``) pack F-ordered
    coordinates as C-ordered."""
    if not batch_sink:
        record_path(monkeypatch)
    serde = CellKeySerde(ndim=2, variable_mode="name", coord_width=coord_width)
    job = lambda mapper: make_job(mapper=mapper, key_serde=serde,
                                  num_map_tasks=2)
    expected = LocalJobRunner().run(job(EmitCellsMapper), grid)
    result = LocalJobRunner().run(job(EmitFOrderedCellsMapper), grid)
    assert result.output == expected.output
    assert result.counters.as_dict() == expected.counters.as_dict()
    coords = np.indices((3, 4)).reshape(2, -1).T
    assert not coords.flags.c_contiguous
    rows, _ = serde.pack_batch_keys("v", coords)
    assert [row.tobytes() for row in rows] == serde.write_batch("v", coords) \
        == [serde.to_bytes(CellKey("v", tuple(c))) for c in coords.tolist()]


class TestSpillsAndMerge:
    def test_tiny_buffer_forces_spills(self, grid):
        job = make_job(sort_buffer_bytes=1024)
        result = LocalJobRunner().run(job, grid)
        assert result.counters[C.SPILL_COUNT] > 1
        data = grid["values"].data
        assert len(result.output) == 64
        for key, value in result.output:
            assert value == data[key.coords]

    def test_spilled_records_counted(self, grid):
        job = make_job(sort_buffer_bytes=1024)
        result = LocalJobRunner().run(job, grid)
        assert result.counters[C.SPILLED_RECORDS] >= 64

    def test_reduce_multipass_merge(self):
        # 12 map tasks with merge_factor 2 forces on-disk merge passes.
        grid = integer_grid((12, 4), seed=3)
        job = make_job(num_map_tasks=12, merge_factor=2)
        result = LocalJobRunner().run(job, grid)
        assert result.counters[C.MERGE_PASS_BYTES] > 0
        assert len(result.output) == 48

    def test_results_invariant_to_spill_size(self, grid):
        big = LocalJobRunner().run(make_job(), grid)
        small = LocalJobRunner().run(make_job(sort_buffer_bytes=1024), grid)
        assert sorted(map(repr, big.output)) == sorted(map(repr, small.output))


class TestCombiner:
    def test_combiner_reduces_records(self):
        grid = integer_grid((1, 4), seed=5)

        class DupMapper(Mapper):
            def map(self, split, values, ctx):
                for _ in range(5):
                    for i, coord in enumerate(split.slab):
                        ctx.emit(CellKey(split.variable, coord), 1)

        with_comb = LocalJobRunner().run(
            make_job(mapper=DupMapper, combine=True), grid)
        without = LocalJobRunner().run(make_job(mapper=DupMapper), grid)
        assert with_comb.counters[C.COMBINE_INPUT_RECORDS] == 20
        assert with_comb.counters[C.COMBINE_OUTPUT_RECORDS] == 4
        assert with_comb.materialized_bytes < without.materialized_bytes
        # same final answer: each cell saw five 1s
        assert sorted(v for _, v in with_comb.output) == [5, 5, 5, 5]
        assert sorted(v for _, v in without.output) == [5, 5, 5, 5]


class TestCompressionInEngine:
    def test_zlib_shrinks_materialized_bytes(self, grid):
        plain = LocalJobRunner().run(make_job(), grid)
        compressed = LocalJobRunner().run(make_job(codec="zlib"), grid)
        assert compressed.materialized_bytes < plain.materialized_bytes
        assert sorted(map(repr, plain.output)) == sorted(map(repr, compressed.output))

    def test_stride_codec_end_to_end(self):
        grid = integer_grid((6, 6), seed=9)
        job = make_job(codec="stride+zlib", codec_options={"max_stride": 40})
        result = LocalJobRunner().run(job, grid)
        assert len(result.output) == 36
        data = grid["values"].data
        for key, value in result.output:
            assert value == data[key.coords]


class TestValidation:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            make_job(num_reducers=0)
        with pytest.raises(ValueError):
            make_job(num_map_tasks=0)
        with pytest.raises(ValueError):
            make_job(merge_factor=1)
        with pytest.raises(ValueError):
            make_job(sort_buffer_bytes=10)

    def test_combine_needs_a_declared_monoid(self):
        class PlainReducer(Reducer):
            def reduce(self, key, values, ctx):
                ctx.emit(key, sum(values))

        with pytest.raises(ValueError, match="job 'test': combine=True"):
            make_job(reducer=PlainReducer, combine=True)
        assert make_job(reducer=PlainReducer).combine is False

    def test_empty_splits_rejected(self, grid):
        with pytest.raises(ValueError):
            LocalJobRunner().run(make_job(), grid, splits=[])
