"""A/B equivalence: the columnar fast path is byte-identical to scalar.

The engine runs a batched/columnar record pipeline wherever the data
allows and the record-at-a-time one elsewhere; the ``record_path``
fixture (``tests/mapreduce/record_path.py``) forces the latter on data
that would run columnar.  The fast path is only admissible because it
changes *nothing* observable: for every built-in query, in both key
modes, these tests run the same job twice (columnar, then under
``record_path``) and require identical counters, identical reducer
output, and byte-identical final map-output segment files -- including
under the multiprocess runner and under tiny sort buffers that force
multi-spill merges.

The reduce side is columnar too (a decoded run is a key matrix + value
matrix, merged by one stable argsort), so the same A/B covers on-disk
merge passes, combiner jobs, mixed ``emit`` / ``emit_batch`` mappers,
empty and irregular runs, the barrier and pipelined parallel runtime,
and a skipping-mode retry; two hypothesis properties pin the merge and
the decay-to-records against their record-path definitions, and a
structural guard counts calls so a silent fall back to the record path
fails tier-1 rather than a bench run.  A columnar merged run is reduced
by one ``Reducer.reduce_batch`` call where the reducer defines one; the
scalar leg always reduces group by group, so the same A/B (output, the
``repr`` of every output value, counters, and each reduce task's
``output_bytes``) is the end-to-end identity of that call, whose own
properties live in ``test_reduce_batch.py``.

Aggregate-key jobs (a shuffle plugin) run the same pipeline on ragged
value columns -- ``emit_serialized_batch`` -> ``route_batch`` on the map
side, ragged spills, segments and merges, then ``run_pieces`` cutting
the merged run straight into the reducer's pieces -- wherever the data
is plain; their section runs a third leg with the plugin's object path
forced, on the clean path and on every irregular one (chunked segments,
masked blocks, re-aggregation, a skipping retry).  Their reduce is the
query's plain reducer behind a ``RangeGroupReducer``: one
``reduce_pieces`` call per reduce task expands the split run into cells
for its ``reduce_batch``.  Structural guards pin both paths, plus the
range-group granularity a poisoned aggregate reducer keeps.
"""

import dataclasses
import heapq
import os
import re
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    AggregateShufflePlugin,
    BlockSerde,
    RangeGroupReducer,
    ValueBlock,
)
from repro.mapreduce import (
    CellKey,
    CellKeySerde,
    LocalJobRunner,
    Mapper,
    Reducer,
)
from repro.mapreduce.columnar import PartitionBuffer, Ragged
from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.ifile import IFileReader, IFileWriter
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.keys import RangeKeySerde
from repro.mapreduce.metrics import C
from repro.mapreduce import partition as partition_module
from repro.mapreduce.partition import HashPartitioner, Partitioner
from repro.mapreduce.runtime import FaultInjector, ParallelJobRunner, ShuffleConfig
from repro.mapreduce.runtime.pipeline import PipelinePlan
from repro.mapreduce.runtime.shuffle import SegmentRef
from repro.mapreduce.sort import merge_sorted_runs, run_records
from repro.queries import (
    BoxSubsetQuery,
    DerivedVariableQuery,
    HistogramQuery,
    SlidingAggregateQuery,
    SlidingMeanQuery,
    SlidingMedianQuery,
)
from repro.queries.sliding_median import PlainMedianReducer
from repro.queries.subset import IdentityReducer
from repro.scidata import Dataset, Slab, Variable, integer_grid
from repro.scidata.splits import ArraySplitter
from tests.mapreduce import reference_combiners as ref
from tests.mapreduce.record_path import record_path
from tests.mapreduce.test_engine import make_job
from tests.mapreduce.test_pipelined_shuffle import ScriptedLink


@pytest.fixture(scope="module")
def grid():
    return integer_grid((6, 6, 6), seed=77, low=0, high=900)


@pytest.fixture(scope="module")
def pair_grid():
    rng = np.random.default_rng(78)
    ds = Dataset()
    ds.add(Variable("u", rng.integers(0, 100, (5, 5, 5)).astype(np.int32)))
    ds.add(Variable("v", rng.integers(0, 100, (5, 5, 5)).astype(np.int32)))
    return ds


def segment_bytes(workdir: str) -> dict[str, bytes]:
    """Map-output segment files of one finished run, keyed by file name.

    Walks recursively: the parallel runtime nests segments in per-run /
    per-attempt directories, but the segment *names* (``m00001-out-p0``)
    are deterministic in both backends.
    """
    out = {}
    for root, _, files in os.walk(workdir):
        for name in files:
            if "-out-p" in name:
                assert name not in out, f"duplicate segment {name}"
                with open(os.path.join(root, name), "rb") as fh:
                    out[name] = fh.read()
    return out


def run_both(tmp_path, dataset, make_job, runner_cls=LocalJobRunner):
    """Run a job columnar and scalar (under ``record_path``); return
    both results + segment maps."""
    results, segments = {}, {}
    for label in ("columnar", "scalar"):
        workdir = str(tmp_path / label)
        with pytest.MonkeyPatch.context() as patch:
            if label == "scalar":
                record_path(patch)
            with runner_cls(workdir=workdir, keep_files=True) as runner:
                results[label] = runner.run(make_job(), dataset)
                segments[label] = segment_bytes(workdir)
    return results, segments


def reduce_output_bytes(result):
    return {p.task_id: p.output_bytes for p in result.task_profiles
            if p.kind == "reduce"}


def output_reprs(result):
    return [repr(value) for _, value in result.output]


def assert_identical(results, segments):
    col, sca = results["columnar"], results["scalar"]
    assert col.counters.as_dict() == sca.counters.as_dict()
    assert col.output == sca.output
    # types and float digits, not just ==
    assert output_reprs(col) == output_reprs(sca)
    assert reduce_output_bytes(col) == reduce_output_bytes(sca)
    assert segments["columnar"].keys() == segments["scalar"].keys()
    assert segments["columnar"] == segments["scalar"]
    assert len(segments["columnar"]) > 0


QUERIES = {
    "median": lambda g: SlidingMedianQuery(g, "values", window=3),
    "mean": lambda g: SlidingMeanQuery(g, "values", window=3),
    "max": lambda g: SlidingAggregateQuery(g, "values", op="max", window=3),
    "subset": lambda g: BoxSubsetQuery(
        g, "values", Slab((1, 1, 1), (4, 4, 4))),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("mode", ["plain", "aggregate"])
def test_query_equivalence(tmp_path, grid, name, mode):
    query = QUERIES[name](grid)
    make_job = lambda: query.build_job(
        mode, num_map_tasks=3, num_reducers=2,
        # tiny buffer: forces several spills per map task, so the
        # columnar spill-merge path actually runs
        sort_buffer_bytes=4096,
    )
    results, segments = run_both(tmp_path, grid, make_job)
    assert_identical(results, segments)
    if mode == "plain":
        # the fast path must actually have records flowing through it
        assert results["columnar"].counters["SPILLED_RECORDS"] > 0


def test_histogram_equivalence(tmp_path, grid):
    query = HistogramQuery(grid, "values", bins=16)
    make_job = lambda: query.build_job(num_map_tasks=3, num_reducers=2)
    results, segments = run_both(tmp_path, grid, make_job)
    assert_identical(results, segments)


def test_derived_equivalence(tmp_path, pair_grid):
    query = DerivedVariableQuery(pair_grid, "u", "v", op="hypot")
    for mode in ("plain", "aggregate"):
        make_job = lambda: query.build_job(
            mode, num_map_tasks=2, num_reducers=2, sort_buffer_bytes=4096)
        results, segments = run_both(tmp_path / mode, pair_grid, make_job)
        assert_identical(results, segments)


def test_index_key_mode_equivalence(tmp_path, grid):
    """variable_mode='index' (the paper's 20-byte keys) is also identical."""
    query = SlidingMedianQuery(grid, "values", window=3)
    make_job = lambda: query.build_job(
        "plain", variable_mode="index", num_map_tasks=2, num_reducers=2,
        sort_buffer_bytes=4096)
    results, segments = run_both(tmp_path, grid, make_job)
    assert_identical(results, segments)


def test_multipass_merge_equivalence(tmp_path, grid):
    """merge_factor=2 forces reducer-side on-disk merge passes."""
    query = SlidingMeanQuery(grid, "values", window=3)
    make_job = lambda: query.build_job(
        "plain", use_combiner=False, num_map_tasks=4, num_reducers=1,
        sort_buffer_bytes=4096, merge_factor=2)
    results, segments = run_both(tmp_path, grid, make_job)
    assert_identical(results, segments)
    assert results["columnar"].counters["MERGE_PASS_BYTES"] > 0


def test_parallel_runner_equivalence(tmp_path, grid):
    """Columnar vs scalar under the multiprocess runtime."""
    query = SlidingMedianQuery(grid, "values", window=3)
    make_job = lambda: query.build_job(
        "plain", num_map_tasks=3, num_reducers=2, sort_buffer_bytes=4096)
    results, segments = run_both(
        tmp_path, grid, make_job,
        runner_cls=lambda **kw: ParallelJobRunner(max_workers=2, **kw))
    assert_identical(results, segments)


def test_parallel_runner_aggregate_equivalence(tmp_path, grid):
    query = SlidingMeanQuery(grid, "values", window=3)
    make_job = lambda: query.build_job(
        "aggregate", num_map_tasks=2, num_reducers=2)
    results, segments = run_both(
        tmp_path, grid, make_job,
        runner_cls=lambda **kw: ParallelJobRunner(max_workers=2, **kw))
    assert_identical(results, segments)


# --------------------------------------------------- aggregate keys (§IV)

#: several spills per map task (a flush is split at the threshold record)
#: and more runs than the merge factor (on-disk merge passes)
AGGREGATE_SHAPE = dict(num_map_tasks=3, num_reducers=2,
                       sort_buffer_bytes=1024, merge_factor=2)
AGGREGATE_QUERY_NAMES = ["derived", "max", "mean", "median", "subset"]


def aggregate_query(grid, pair_grid, name):
    if name == "derived":
        return pair_grid, DerivedVariableQuery(pair_grid, "u", "v", op="hypot")
    return grid, QUERIES[name](grid)


@pytest.fixture
def plain_batches(monkeypatch):
    """Spy on the plugin's plain-batch predicate: one bool per batch the
    plugin was offered (map-side flush or reduce-side merged run), True
    where it took the array path."""
    taken = []
    real = AggregateShufflePlugin._plain_batch

    def spy(self, keys, values):
        batch = real(self, keys, values)
        taken.append(batch is not None)
        return batch
    monkeypatch.setattr(AggregateShufflePlugin, "_plain_batch", spy)
    return taken


def force_object_path(patch):
    """No batch is plain on either side, and without ``run_pieces`` the
    engine reduces ``prepare_reduce``'s records range group by range
    group."""
    patch.setattr(AggregateShufflePlugin, "_plain_batch",
                  lambda self, keys, values: None)
    patch.delattr(AggregateShufflePlugin, "run_pieces")


@pytest.mark.parametrize("name", AGGREGATE_QUERY_NAMES)
def test_aggregate_equivalence(tmp_path, grid, pair_grid, name,
                               plain_batches):
    """Batched vs ``record_path`` vs the object path on both sides
    (its reduce range group by range group): output, every counter and
    every segment file."""
    dataset, query = aggregate_query(grid, pair_grid, name)
    make_job = lambda: query.build_job("aggregate", **AGGREGATE_SHAPE)
    results, segments = run_both(tmp_path, dataset, make_job)
    assert_identical(results, segments)
    assert plain_batches and all(plain_batches)

    with pytest.MonkeyPatch.context() as patch:
        force_object_path(patch)
        workdir = str(tmp_path / "objects")
        with LocalJobRunner(workdir=workdir, keep_files=True) as runner:
            results["scalar"] = runner.run(make_job(), dataset)
        segments["scalar"] = segment_bytes(workdir)
    assert_identical(results, segments)

    counters = results["columnar"].counters
    assert counters[C.MERGE_PASS_BYTES] > 0
    assert counters[C.SPILLED_RECORDS] >= counters[C.MAP_OUTPUT_RECORDS]
    if name in ("max", "mean", "median"):
        # a window's 27 layers fragment into many short ranges: several
        # spills per flush, and overlaps across map tasks to cut
        assert counters[C.SPILL_COUNT] > 3 * AGGREGATE_SHAPE["num_map_tasks"]
        assert counters[C.KEY_SPLITS] > 0


def test_aggregate_batch_spills_at_the_same_record(tmp_path, grid,
                                                   monkeypatch):
    """The merged segments hide where spills broke; the spills do not.
    A routed batch is cut at the input record where the per-record
    running byte count crosses the threshold, so every spill holds the
    same records per partition, in the same order -- straddlers' pieces
    included (reducers=3 puts two boundaries through the ranges)."""
    import repro.mapreduce.engine as engine

    query = SlidingMedianQuery(grid, "values", window=3)
    split = ArraySplitter(1).split(grid)[0]
    spills, recorded = {}, []
    real_spill = engine._spill

    def recording_spill(job, workdir, task_id, spill_idx, buffer, *rest):
        recorded.append(
            {part: pbuf.to_records() for part, pbuf in buffer.items()})
        return real_spill(job, workdir, task_id, spill_idx, buffer, *rest)
    monkeypatch.setattr(engine, "_spill", recording_spill)

    def spill_both(sort_buffer_bytes):
        for flag in (True, False):
            job = query.build_job("aggregate", num_reducers=3,
                                  sort_buffer_bytes=sort_buffer_bytes)
            workdir = tmp_path / f"{sort_buffer_bytes}-{flag}"
            workdir.mkdir()
            with pytest.MonkeyPatch.context() as patch:
                if not flag:
                    record_path(patch)
                run_map_task(job, split, grid, str(workdir))
            spills[flag] = recorded[:]
            recorded.clear()
            assert job.shuffle_plugin.routing_splits > 0
        assert len(spills[True]) > 10
        assert spills[True] == spills[False]

    def buffered_bytes(spill):
        return sum(len(kb) + len(vb) + 8
                   for records in spill.values() for kb, vb in records)

    spill_both(1500)
    # a threshold some record lands on exactly: that record still closes
    # the spill (``>=``), in both forms
    exact = buffered_bytes(spills[False][0]) + buffered_bytes(spills[False][1])
    spill_both(exact)
    assert buffered_bytes(spills[True][0]) == exact


@pytest.mark.parametrize("pipeline", [False, True],
                         ids=["barrier", "pipelined"])
@pytest.mark.parametrize("name", AGGREGATE_QUERY_NAMES)
def test_parallel_aggregate_equivalence(tmp_path, grid, pair_grid, name,
                                        pipeline):
    dataset, query = aggregate_query(grid, pair_grid, name)
    make_job = lambda: query.build_job("aggregate", **AGGREGATE_SHAPE)
    results, segments = run_both(
        tmp_path, dataset, make_job,
        runner_cls=lambda **kw: ParallelJobRunner(
            max_workers=2, shuffle=ShuffleConfig(pipeline=pipeline), **kw))
    assert_identical(results, segments)
    assert results["columnar"].counters[C.MERGE_PASS_BYTES] > 0


@pytest.mark.parametrize("overrides", [
    dict(agg_overrides=dict(alignment=4)),
    dict(reaggregate=True),
], ids=["alignment-4", "reaggregate"])
def test_aggregate_fallback_is_taken_and_unchanged(tmp_path, grid, overrides,
                                                   plain_batches):
    """Padding makes masked blocks and re-aggregation fuses groups: both
    are object-path work, whole batch, on both sides."""
    query = SlidingMedianQuery(grid, "values", window=3)
    make_job = lambda: query.build_job("aggregate", **AGGREGATE_SHAPE,
                                       **overrides)
    results, segments = run_both(tmp_path, grid, make_job)
    assert_identical(results, segments)
    assert plain_batches and not any(plain_batches)


#: aggregate jobs off the clean path: chunked segments (read back as
#: records), masked blocks, fused groups, and a poisoned reduce group
#: whose skipping retry runs the record hooks
AGGREGATE_LEGS = {
    "chunked-segments": dict(num_map_tasks=3, num_reducers=2,
                             ifile_block_bytes=256),
    "chunked-segments-merge-passes": dict(ifile_block_bytes=256,
                                          **AGGREGATE_SHAPE),
    "alignment-8": dict(agg_overrides=dict(alignment=8), **AGGREGATE_SHAPE),
    "reaggregate": dict(reaggregate=True, **AGGREGATE_SHAPE),
    "poisoned-skipping-retry": AGGREGATE_SHAPE,
}


@pytest.mark.parametrize("leg", sorted(AGGREGATE_LEGS))
def test_aggregate_irregular_equivalence(tmp_path, grid, leg):
    """Columnar vs ``record_path`` vs the object path, off the clean
    path: output, every counter, every segment file, and what the
    skipping retry quarantined."""
    query = SlidingMedianQuery(grid, "values", window=3)
    results, segments, quarantined = {}, {}, {}
    for label in ("columnar", "scalar", "objects"):
        workdir = tmp_path / label
        job = query.build_job("aggregate", **AGGREGATE_LEGS[leg])
        injector = None
        if leg == "poisoned-skipping-retry":
            job = dataclasses.replace(job, skipping=SkipPolicy(
                quarantine_dir=str(workdir / "q")))
            injector = FaultInjector().poison("r00001", record=3)
        with pytest.MonkeyPatch.context() as patch:
            if label == "objects":
                force_object_path(patch)
            elif label == "scalar":
                record_path(patch)
            with LocalJobRunner(workdir=str(workdir), keep_files=True,
                                fault_injector=injector) as runner:
                results[label] = runner.run(job, grid)
        segments[label] = segment_bytes(str(workdir))
        quarantined[label] = {path.name: path.read_bytes()
                              for path in workdir.glob("q/*")}
    for other in ("scalar", "objects"):
        assert_identical(
            {"columnar": results["columnar"], "scalar": results[other]},
            {"columnar": segments["columnar"], "scalar": segments[other]})
        assert quarantined[other] == quarantined["columnar"]
    counters = results["columnar"].counters
    assert counters[C.KEY_SPLITS] > 0
    if leg.endswith("merge-passes"):
        assert counters[C.MERGE_PASS_BYTES] > 0
    if leg == "poisoned-skipping-retry":
        # one range group: every block stacked on its key
        assert counters[C.RECORDS_SKIPPED] > 1
        assert list(quarantined["columnar"]) == ["r00001-quarantine"]


# ------------------------------------------------------------ reduce phase


def plain_queries(grid, pair_grid):
    """Every built-in query as ``(dataset, build)``, ``build(**shape)``
    returning its plain-mode job.  The scalar leg of every test below
    reduces group by group; the columnar leg makes one ``reduce_batch``
    call per reduce task wherever the reducer defines one and takes the
    column (median, min / max / sum, histogram, subset, derived -- the
    int32 grids make every fold an exact monoid) and loops otherwise
    (mean: its (sum, count) carrier is float64)."""
    def plain(query, **fixed):
        return lambda **shape: query.build_job("plain", **fixed, **shape)
    out = {name: (grid, plain(make(grid))) for name, make in QUERIES.items()}
    mean = QUERIES["mean"](grid)
    out["mean-no-combiner"] = (grid, plain(mean, use_combiner=False))
    for op in ("min", "sum"):
        query = SlidingAggregateQuery(grid, "values", op=op, window=3)
        out[op] = (grid, plain(query))
        out[f"{op}-no-combiner"] = (grid, plain(query, use_combiner=False))
    out["histogram"] = (grid, plain(HistogramQuery(grid, "values", bins=16)))
    out["derived"] = (pair_grid, plain(
        DerivedVariableQuery(pair_grid, "u", "v", op="hypot")))
    return out


PLAIN_QUERY_NAMES = ["derived", "histogram", "max", "mean",
                     "mean-no-combiner", "median", "min", "min-no-combiner",
                     "subset", "sum", "sum-no-combiner"]

REDUCE_SHAPES = {
    # more runs than the merge factor: reducers run on-disk merge passes
    "merge-passes": dict(num_map_tasks=4, num_reducers=2, merge_factor=2),
    # several spills per map task: the spill merge feeds every segment
    "multi-spill": dict(num_map_tasks=3, num_reducers=2,
                        sort_buffer_bytes=1024),
    "multi-spill-merge-passes": dict(num_map_tasks=4, num_reducers=2,
                                     sort_buffer_bytes=1024, merge_factor=2),
}


#: the six queries' own two shapes, then every variant through the job
#: that has both: several spills per map *and* on-disk reduce passes
REDUCE_CASES = [(name, shape)
                for name in ("derived", "histogram", "max", "mean", "median",
                             "subset")
                for shape in ("merge-passes", "multi-spill")]
REDUCE_CASES += [(name, "multi-spill-merge-passes")
                 for name in PLAIN_QUERY_NAMES]


@pytest.mark.parametrize("name,shape", REDUCE_CASES,
                         ids=["-".join(case) for case in REDUCE_CASES])
def test_reduce_phase_equivalence(tmp_path, grid, pair_grid, name, shape):
    dataset, build = plain_queries(grid, pair_grid)[name]
    make_job = lambda: build(**REDUCE_SHAPES[shape])
    results, segments = run_both(tmp_path, dataset, make_job)
    assert_identical(results, segments)
    if "merge-passes" in shape:
        assert results["columnar"].counters["MERGE_PASS_BYTES"] > 0
    if "multi-spill" in shape and name != "histogram":
        # (the histogram mapper pre-counts: one small spill)
        assert results["columnar"].counters["SPILL_COUNT"] > 3


@pytest.mark.parametrize("name", ["max", "median", "subset", "sum"])
def test_float_grid_reduce_phase_equivalence(tmp_path, name):
    """float32 cells, NaN and -0.0 among them: the median and the
    pass-through still batch, the folds decline the float column (they
    are not exact monoids there) and loop -- identical either way, NaN
    for NaN (``repr`` of every value; ``==`` cannot say it)."""
    rng = np.random.default_rng(79)
    cells = rng.normal(size=(5, 5, 5)).astype(np.float32)
    cells[rng.random(cells.shape) < 0.1] = np.nan
    cells[rng.random(cells.shape) < 0.1] = -0.0
    dataset = Dataset()
    dataset.add(Variable("values", cells))
    if name in QUERIES:
        query = QUERIES[name](dataset)
    else:
        query = SlidingAggregateQuery(dataset, "values", op=name, window=3)
    make_job = lambda: query.build_job(
        "plain", num_map_tasks=3, num_reducers=2, sort_buffer_bytes=4096)
    results, segments = run_both(tmp_path, dataset, make_job)
    col, sca = results["columnar"], results["scalar"]
    assert col.counters.as_dict() == sca.counters.as_dict()
    assert [k for k, _ in col.output] == [k for k, _ in sca.output]
    assert output_reprs(col) == output_reprs(sca)
    assert reduce_output_bytes(col) == reduce_output_bytes(sca)
    assert segments["columnar"] == segments["scalar"]
    assert any(v != v for _, v in col.output)          # NaNs came through


@pytest.mark.parametrize("pipeline", [False, True],
                         ids=["barrier", "pipelined"])
@pytest.mark.parametrize("name", PLAIN_QUERY_NAMES)
def test_parallel_reduce_phase_equivalence(tmp_path, grid, pair_grid, name,
                                           pipeline):
    """Every query under the multiprocess runtime; pipelined, the
    reducers fold each run into a prefix merge as its map commits."""
    dataset, build = plain_queries(grid, pair_grid)[name]
    make_job = lambda: build(
        num_map_tasks=3, num_reducers=2, sort_buffer_bytes=4096)
    results, segments = run_both(
        tmp_path, dataset, make_job,
        runner_cls=lambda **kw: ParallelJobRunner(
            max_workers=2, shuffle=ShuffleConfig(pipeline=pipeline), **kw))
    assert_identical(results, segments)


class InterleavedMapper(Mapper):
    """Emits every cell's key three times -- a batch, scalar emits, a
    batch -- so the value order inside each key group is the emission
    order *across* the two emit paths."""

    def map(self, split, values, ctx):
        coords = split.slab.coords()
        flat = values.ravel().astype(np.int64)
        ctx.emit_cells(split.variable, coords, flat)
        for coord, value in zip(coords, flat):
            ctx.emit(CellKey(split.variable, tuple(int(c) for c in coord)),
                     int(value) + 1000)
        ctx.emit_cells(split.variable, coords, flat + 2000)


class ValueListReducer(Reducer):
    """Order-sensitive: the output is each group's values as received."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, tuple(values))


class RowBandPartitioner(Partitioner):
    """Rows 0-3 to reducer 0, rows 4-7 to reducer 1, nothing to reducer
    2: with one map task per band, reducers 0 and 1 each receive an empty
    segment from the other band's map, and reducer 2 only empty ones."""

    SERDE = CellKeySerde(ndim=2, variable_mode="name")

    def partition(self, key_bytes):
        return 0 if self.SERDE.from_bytes(key_bytes).coords[0] < 4 else 1


def cell_job(**overrides):
    """``test_engine.make_job`` (one cell -> one record, name-mode keys)
    with an order-sensitive reducer, 2 maps x 2 reducers by default."""
    return make_job(**{"reducer": ValueListReducer, "num_map_tasks": 2,
                       "num_reducers": 2, **overrides})


@pytest.fixture(scope="module")
def plane():
    return integer_grid((8, 8), seed=5, low=0, high=500)


@pytest.fixture(scope="module")
def two_name_plane():
    """Two variables whose names (hence serialized keys) differ in width."""
    rng = np.random.default_rng(6)
    ds = Dataset()
    ds.add(Variable("u", rng.integers(0, 100, (6, 6)).astype(np.int32)))
    ds.add(Variable("temperature",
                    rng.integers(0, 100, (6, 6)).astype(np.int32)))
    return ds


IRREGULAR = {
    "interleaved-emit": ("plane", dict(mapper=InterleavedMapper)),
    "interleaved-emit-multi-spill": (
        "plane", dict(mapper=InterleavedMapper, sort_buffer_bytes=1024)),
    "empty-runs": ("plane", dict(partitioner=RowBandPartitioner,
                                 num_reducers=3)),
    "empty-runs-merge-passes": (
        "plane", dict(partitioner=RowBandPartitioner, num_reducers=3,
                      num_map_tasks=8, merge_factor=2)),
    # one map task per variable: each partition holds runs of two widths
    "mixed-widths": ("two_name_plane", dict(num_map_tasks=1)),
    "mixed-widths-merge-passes": (
        "two_name_plane", dict(num_map_tasks=2, merge_factor=2)),
    # chunked segments never decode columnar
    "chunked-segments": ("plane", dict(ifile_block_bytes=256)),
    "chunked-segments-merge-passes": (
        "plane", dict(ifile_block_bytes=256, num_map_tasks=4,
                      merge_factor=2)),
}


@pytest.mark.parametrize("name", sorted(IRREGULAR))
def test_irregular_runs_equivalence(tmp_path, request, name):
    fixture, overrides = IRREGULAR[name]
    dataset = request.getfixturevalue(fixture)
    results, segments = run_both(tmp_path, dataset,
                                 lambda: cell_job(**overrides))
    assert_identical(results, segments)
    assert len(results["columnar"].output) > 0
    if name.endswith("merge-passes"):
        assert results["columnar"].counters["MERGE_PASS_BYTES"] > 0


def test_skipping_retry_equivalence(tmp_path, plane,
                                    reducer=ValueListReducer):
    """A poison reduce group: the strict first attempt merges columnar and
    dies, the skipping retry runs through the record hooks -- and
    quarantines the same records into the same side-file either way."""
    results, segments, quarantined = {}, {}, {}
    for label in ("columnar", "scalar"):
        workdir = tmp_path / label
        job = cell_job(reducer=reducer, skipping=SkipPolicy(
            quarantine_dir=str(workdir / "q")))
        injector = FaultInjector().poison("r00001", record=3)
        with pytest.MonkeyPatch.context() as patch:
            if label == "scalar":
                record_path(patch)
            with LocalJobRunner(workdir=str(workdir), keep_files=True,
                                fault_injector=injector) as runner:
                results[label] = runner.run(job, plane)
        segments[label] = segment_bytes(str(workdir))
        quarantined[label] = {
            path.name: path.read_bytes() for path in (workdir / "q").iterdir()}
    assert_identical(results, segments)
    assert results["columnar"].counters[C.RECORDS_SKIPPED] == 1
    assert list(quarantined["columnar"]) == ["r00001-quarantine"]
    assert quarantined["columnar"] == quarantined["scalar"]


def test_skipping_retry_equivalence_under_a_batched_reducer(tmp_path, plane):
    """``PoisonedReducer`` defines only ``reduce``, so the poisoned task
    still counts groups one by one and dies at the same ordinal, while
    r00000 beside it takes ``IdentityReducer.reduce_batch``."""
    test_skipping_retry_equivalence(tmp_path, plane, reducer=IdentityReducer)


@pytest.mark.parametrize("columnar", [True, False])
def test_pipelined_fold_rebuilt_after_reexecution(tmp_path, plane, columnar):
    """m00000 re-executes *after* its run and m00001's were folded: the
    reducer refetches it at the bumped epoch, rebuilds the fold from the
    retained runs, and still equals the scalar barrier reduce.  The
    ``False`` leg maps and reduces under ``record_path``."""
    job = cell_job(num_map_tasks=3, num_reducers=1)

    def map_outputs(tag):
        outs = []
        for split in ArraySplitter(job.num_map_tasks).split(plane):
            workdir = tmp_path / f"{tag}-m{split.split_id}"
            workdir.mkdir()
            outs.append(run_map_task(job, split, plane, str(workdir)))
        return outs

    with pytest.MonkeyPatch.context() as patch:
        if not columnar:
            record_path(patch)
        epoch0, epoch1 = map_outputs("e0"), map_outputs("e1")
    barrier_dir = tmp_path / "barrier"
    barrier_dir.mkdir()
    with pytest.MonkeyPatch.context() as patch:
        record_path(patch)
        expected = run_reduce_task(
            job, 0, [SegmentRef.from_pair(o.segments[0]) for o in epoch0],
            str(barrier_dir))

    plan = PipelinePlan(tuple(o.task_id for o in epoch0),
                        [SegmentRef.from_pair(o.segments[0])
                         for o in epoch0[:2]])
    reduce_dir = tmp_path / "pipelined"
    reduce_dir.mkdir()
    link = ScriptedLink([
        SegmentRef.from_pair(epoch1[0].segments[0], epoch=1),
        SegmentRef.from_pair(epoch0[2].segments[0])])
    with pytest.MonkeyPatch.context() as patch:
        if not columnar:
            record_path(patch)
        result = run_reduce_task(job, 0, plan, str(reduce_dir), link=link)
    # the report came once both published runs were consumed (and
    # folded) with m00002 still pending
    assert link.script == [] and link.reports == [["m00002"]]

    assert result.output == expected.output
    assert result.pipeline["refetches"] == 1
    volatile = {C.SHUFFLE_FETCHES, C.SHUFFLE_BYTES_TRANSFERRED}
    stable = lambda counters: {k: v for k, v in counters.as_dict().items()
                               if k not in volatile}
    assert stable(result.counters) == stable(expected.counters)


# ------------------------------------------------------- map-side combine

#: the algebraic queries: each reducer declares a monoid, ``combine`` on
COMBINE_QUERIES = ["histogram", "max", "mean", "min", "sum"]
COMBINE_SHAPES = {
    "1-map": dict(num_map_tasks=1, num_reducers=2),
    "4-maps": dict(num_map_tasks=4, num_reducers=2),
    "4-maps-1KiB": dict(num_map_tasks=4, num_reducers=2,
                        sort_buffer_bytes=1024),
}


def combine_dataset(dtype: str, nan: bool) -> Dataset:
    """A 5x5x4 grid of ``dtype``; float cells are fractional and carry
    both signed zeros, and NaN when ``nan`` (a histogram cannot bin it)."""
    rng = np.random.default_rng(80)
    cells = rng.integers(-300, 300, (5, 5, 4)).astype(dtype)
    if cells.dtype.kind == "f":
        cells /= 8
        cells[rng.random(cells.shape) < 0.1] = -0.0
        cells[rng.random(cells.shape) < 0.1] = 0.0
        if nan:
            cells[rng.random(cells.shape) < 0.1] = np.nan
    dataset = Dataset()
    dataset.add(Variable("values", cells))
    return dataset


def combine_query(name: str, dataset: Dataset):
    if name == "histogram":
        return HistogramQuery(dataset, "values", bins=16)
    if name == "mean":
        return SlidingMeanQuery(dataset, "values", window=3)
    return SlidingAggregateQuery(dataset, "values", op=name, window=3)


def oracle_job(make_job, name):
    """``make_job()`` with the query's reducer as first written; the
    caller swaps the engine's combine for the oracle combiner's loops."""
    job = dataclasses.replace(make_job(), reducer=ref.ORACLES[name][1],
                              combine=False)
    job.combine = True  # the oracle's combiner stands in for the monoid
    return job


def assert_same_job(a, b, segments_a, segments_b):
    """Counters, keys, the ``repr`` of every value (NaN != NaN, so not
    ``==``), reduce output bytes and every map output segment."""
    assert a.counters.as_dict() == b.counters.as_dict()
    assert [k for k, _ in a.output] == [k for k, _ in b.output]
    assert output_reprs(a) == output_reprs(b)
    assert reduce_output_bytes(a) == reduce_output_bytes(b)
    assert segments_a == segments_b and segments_a


@pytest.mark.parametrize("shape", sorted(COMBINE_SHAPES))
@pytest.mark.parametrize("dtype", ["float32", "float64", "int32", "int64"])
@pytest.mark.parametrize("name", COMBINE_QUERIES)
def test_derived_combine_equals_the_oracle_combiners(tmp_path, monkeypatch,
                                                     name, dtype, shape):
    """The monoid-derived combine against the hand-written combiners and
    reducers it replaced, columnar and under ``record_path``: the same
    segment bytes, ``COMBINE_*`` and every other counter, and output."""
    import repro.mapreduce.engine as engine

    dataset = combine_dataset(dtype, nan=name != "histogram")
    query = combine_query(name, dataset)
    make_job = lambda: query.build_job("plain", **COMBINE_SHAPES[shape])
    derived, derived_segments = run_both(tmp_path / "derived", dataset,
                                         make_job)
    monkeypatch.setattr(engine, "_combine",
                        ref.engine_combine(ref.ORACLES[name][0]))
    oracle, oracle_segments = run_both(tmp_path / "oracle", dataset,
                                       lambda: oracle_job(make_job, name))
    for label in ("columnar", "scalar"):
        assert_same_job(derived[label], oracle[label],
                        derived_segments[label], oracle_segments[label])
    counters = derived["columnar"].counters
    if name != "histogram":  # (its mapper pre-counts: one small spill)
        assert counters[C.COMBINE_OUTPUT_RECORDS] < counters[
            C.COMBINE_INPUT_RECORDS]
        assert counters[C.SPILL_COUNT] > (8 if shape.endswith("1KiB") else 0)
    assert counters[C.COMBINE_OUTPUT_RECORDS] > 0


def test_a_fold_outside_the_value_range_raises_what_write_raises(
        tmp_path, monkeypatch):
    """int32 cells near the top of the range: a window's partial sum
    leaves int32.  ``write`` raises at the first such group -- what the
    hand-written combiner raised, in both forms."""
    import repro.mapreduce.engine as engine

    dataset = Dataset()
    dataset.add(Variable("values", np.full((3, 3), (1 << 31) - 5, np.int32)))
    query = SlidingAggregateQuery(dataset, "values", op="sum", window=3)
    make_job = lambda: query.build_job("plain", num_reducers=2)
    raised = {}
    for leg in ("derived", "oracle"):
        if leg == "oracle":
            monkeypatch.setattr(engine, "_combine",
                                ref.engine_combine(ref.ORACLES["sum"][0]))
        for columnar in (True, False):
            job = (make_job() if leg == "derived"
                   else oracle_job(make_job, "sum"))
            with pytest.MonkeyPatch.context() as patch:
                if not columnar:
                    record_path(patch)
                with pytest.raises(ValueError) as info:
                    with LocalJobRunner(
                            workdir=str(tmp_path / leg)) as runner:
                        runner.run(job, dataset)
            raised[leg, columnar] = (type(info.value), str(info.value))
    assert len(set(raised.values())) == 1
    assert "int32 out of range" in raised["derived", True][1]


def test_the_combine_decodes_no_key(monkeypatch):
    """int32 grid, plain sliding sum, several spills: the map-side
    combine folds every group without decoding its key (and the reduce
    side, batched, decodes none either)."""
    dataset = integer_grid((6, 6, 6), seed=81, low=-500, high=500)
    job = SlidingAggregateQuery(dataset, "values", op="sum").build_job(
        "plain", num_map_tasks=2, num_reducers=2, sort_buffer_bytes=16384)

    def never(name):
        def entered(*args, **kwargs):
            raise AssertionError(f"{name} entered on an integer fold")
        return entered
    monkeypatch.setattr(CellKeySerde, "from_bytes",
                        never("CellKeySerde.from_bytes"))
    monkeypatch.setattr(CellKeySerde, "read", never("CellKeySerde.read"))

    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    counters = result.counters
    assert counters[C.SPILL_COUNT] > 2
    assert counters[C.COMBINE_INPUT_RECORDS] == counters[C.MAP_OUTPUT_RECORDS]
    assert counters[C.COMBINE_OUTPUT_RECORDS] < counters[
        C.COMBINE_INPUT_RECORDS]
    assert counters[C.REDUCE_INPUT_GROUPS] == 216


# -------------------------------------------------- properties of the forms

KEY_WIDTH, VALUE_WIDTH = 2, 3
#: few distinct keys, so runs share many and ties decide the order
sorted_run = st.lists(
    st.tuples(st.sampled_from([b"a\x00", b"a\x01", b"b\x00", b"\x00\x00"]),
              st.binary(min_size=VALUE_WIDTH, max_size=VALUE_WIDTH)),
    max_size=12,
).map(lambda records: sorted(records, key=itemgetter(0)))


def as_columnar(records):
    keys = np.frombuffer(b"".join(k for k, _ in records), np.uint8)
    values = np.frombuffer(b"".join(v for _, v in records), np.uint8)
    return keys.reshape(-1, KEY_WIDTH), values.reshape(-1, VALUE_WIDTH)


def as_ragged(records):
    keys, values = as_columnar(records)
    return keys, Ragged.of(values)


@settings(max_examples=150, deadline=None)
@given(st.lists(sorted_run, max_size=5), st.data())
def test_merge_sorted_runs_equals_heap_merge(runs, data):
    """Record for record, in every mix of forms (records, fixed-width and
    ragged columns) -- ties in run order."""
    expected = list(heapq.merge(*runs, key=itemgetter(0)))
    assert run_records(merge_sorted_runs(
        [as_columnar(r) for r in runs])) == expected
    forms = data.draw(st.lists(
        st.sampled_from([list, as_columnar, as_ragged]),
        min_size=len(runs), max_size=len(runs)))
    mixed = [form(r) for r, form in zip(runs, forms)]
    assert run_records(merge_sorted_runs(mixed)) == expected


@settings(max_examples=100, deadline=None)
@given(sorted_run)
def test_columnar_decode_decays_to_read_all(records):
    writer = IFileWriter(None)
    for kb, vb in records:
        writer.append(kb, vb)
    writer.close()
    reader = IFileReader(writer.getvalue())
    run = reader.read_columnar(KEY_WIDTH, VALUE_WIDTH)
    assert run is not None
    assert run_records(run) == reader.read_all() == records


# --------------------------------------------- structure: counts, not clocks


def test_columnar_job_never_takes_the_record_path(monkeypatch):
    """10^3 cells, w=3, 4 maps x 2 reducers, plain median: no segment is
    ever iterated record by record, and the partitioner hashes each
    spill's *distinct* keys once, through the batch kernel, not every
    emitted record -- it never calls the scalar ``partition`` per key,
    and never dedupes the sorted stage's group heads a second time
    through ``partition_batch``."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        "plain", num_map_tasks=4, num_reducers=2)

    def no_iteration(self):
        raise AssertionError("IFileReader.__iter__ entered on a columnar job")
    monkeypatch.setattr(IFileReader, "__iter__", no_iteration)

    per_key = []
    real_partition = HashPartitioner.partition
    monkeypatch.setattr(
        HashPartitioner, "partition",
        lambda self, kb: per_key.append(kb) or real_partition(self, kb))
    hashed = []
    real_column = partition_module.blake2b_column

    def counting_column(rows):
        hashed.extend(row.tobytes() for row in rows)
        return real_column(rows)
    monkeypatch.setattr(partition_module, "blake2b_column", counting_column)
    distinct_per_spill = []
    real_rows = HashPartitioner.partition_rows

    def counting_rows(self, rows):
        distinct = len({row.tobytes() for row in rows})
        assert distinct == len(rows), "partition_rows handed duplicates"
        distinct_per_spill.append(distinct)
        return real_rows(self, rows)
    monkeypatch.setattr(HashPartitioner, "partition_rows", counting_rows)

    def second_dedupe(self, keys):
        raise AssertionError("partition_batch entered on a sorted stage")
    monkeypatch.setattr(HashPartitioner, "partition_batch", second_dedupe)

    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    assert len(result.output) == 1000
    assert len(distinct_per_spill) == result.counters[C.SPILL_COUNT] == 4
    assert len(hashed) == sum(distinct_per_spill)
    assert len(hashed) < result.counters[C.MAP_OUTPUT_RECORDS] / 5
    assert per_key == []


@pytest.mark.parametrize("num_reducers", [2, 1])
def test_each_map_stage_is_sorted_once(monkeypatch, tmp_path, num_reducers):
    """Same job, 4 maps, each spilling once: a map task stable-argsorts
    its whole stage exactly once, for partitioning and spill alike --
    ``_spill`` sorts nothing, since every buffer arrives presorted -- and
    ``np.unique`` only ever sees distinct keys, never the stage."""
    import repro.mapreduce.engine as engine
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        "plain", num_map_tasks=4, num_reducers=num_reducers)

    calls = []
    real_argsort, real_unique = np.argsort, np.unique
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: calls.append(
        ("argsort", len(a), kw.get("kind"))) or real_argsort(a, *args, **kw))
    monkeypatch.setattr(np, "unique", lambda a, *args, **kw: calls.append(
        ("unique", len(a), None)) or real_unique(a, *args, **kw))
    real_spill = engine._spill

    def spill(*args):
        before = len(calls)
        out = real_spill(*args)
        assert [c for c in calls[before:] if c[0] == "argsort"] == []
        return out
    monkeypatch.setattr(engine, "_spill", spill)

    for split in ArraySplitter(job.num_map_tasks).split(dataset):
        calls.clear()
        workdir = tmp_path / f"m{split.split_id}"
        workdir.mkdir()
        out = run_map_task(job, split, dataset, str(workdir))
        stage = out.counters[C.MAP_OUTPUT_RECORDS]
        assert out.counters[C.SPILL_COUNT] == 1
        assert [c for c in calls if c[0] == "argsort"] == [
            ("argsort", stage, "stable")]
        assert 0 < max(n for op, n, _ in calls if op == "unique") < stage / 5


def test_plain_median_job_reduces_in_batches(monkeypatch):
    """Same job: no reduce task makes a per-group call -- not the
    reducer, not the key decoder, not the value decoder -- and
    ``np.median`` runs once per distinct group size per task (a clipped
    3^3 window over a box has at most 2^3 of them)."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        "plain", num_map_tasks=4, num_reducers=2)

    def never(name):
        def entered(*args, **kwargs):
            raise AssertionError(f"{name} entered on a batched reduce")
        return entered
    monkeypatch.setattr(PlainMedianReducer, "reduce",
                        never("PlainMedianReducer.reduce"))
    monkeypatch.setattr(CellKeySerde, "read", never("CellKeySerde.read"))
    monkeypatch.setattr(type(job.value_serde), "read_column",
                        never("Int32Serde.read_column"))

    medians = []
    real_median = np.median
    monkeypatch.setattr(
        np, "median",
        lambda *a, **kw: medians.append(1) or real_median(*a, **kw))
    tasks = []
    real_batch = PlainMedianReducer.reduce_batch

    def counting_batch(self, keys, values, bounds, ctx):
        before = len(medians)
        real_batch(self, keys, values, bounds, ctx)
        tasks.append((len(medians) - before,
                      len(np.unique(np.diff(bounds)))))
    monkeypatch.setattr(PlainMedianReducer, "reduce_batch", counting_batch)

    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    assert len(result.output) == 1000
    assert result.counters[C.REDUCE_INPUT_GROUPS] == 1000
    assert len(tasks) == 2
    assert all(calls == sizes <= 8 for calls, sizes in tasks)
    assert len(medians) == sum(calls for calls, _ in tasks)


def test_aggregate_job_cuts_keys_as_arrays(monkeypatch, plain_batches):
    """10^3 cells, w=3, 4 maps x 2 reducers, aggregate median: every
    flush and every merged run is cut on the array path, and the object
    decoders never run -- not per emitted record, not per piece, not per
    reduce group (the run reaches the reducer as columns)."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        "aggregate", variable_mode="index", num_map_tasks=4, num_reducers=2)

    calls = {}
    for cls, name in ((ValueBlock, "slice"), (BlockSerde, "read"),
                      (RangeKeySerde, "read")):
        def counting(*args, _real=getattr(cls, name), _key=f"{cls.__name__}.{name}",
                     **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cls, name, counting)

    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    assert len(result.output) == 1000
    groups = result.counters[C.REDUCE_INPUT_GROUPS]
    assert groups < result.counters[C.MAP_OUTPUT_RECORDS] / 3
    assert result.counters[C.REDUCE_INPUT_RECORDS] > 3 * groups
    assert calls == {}
    # 4 flushes + 2 merged runs, all plain: a 100 % fast-path share
    assert plain_batches == [True] * 6


def test_aggregate_job_never_takes_the_record_path(monkeypatch):
    """Same job: no record is framed, parsed, routed, split or buffered
    one at a time between the aggregator's flush and ``reduce_pieces``,
    and no ragged column decays to per-record ``bytes``."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        "aggregate", variable_mode="index", num_map_tasks=4, num_reducers=2)

    for cls, name in ((IFileWriter, "append"), (IFileReader, "__iter__"),
                      (AggregateShufflePlugin, "route"),
                      (AggregateShufflePlugin, "prepare_reduce"),
                      (PartitionBuffer, "append"), (Ragged, "tolist")):
        def never(*args, _name=f"{cls.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} entered on a clean aggregate job")
        monkeypatch.setattr(cls, name, never)

    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    assert len(result.output) == 1000
    assert result.counters[C.KEY_SPLITS] > 0


def test_aggregate_median_job_reduces_in_one_call(monkeypatch):
    """Same job: each reduce task expands its whole run in one
    ``reduce_pieces`` call -- one ``curve.decode``, the wrapper's
    per-group ``reduce`` never entered -- and ``np.median`` runs once
    per distinct cell-group size, as on the plain job."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        "aggregate", num_map_tasks=4, num_reducers=2)
    counts = {"decode": 0, "median": 0}

    def counting(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call
    curve = type(job.shuffle_plugin.config.make_curve())
    monkeypatch.setattr(curve, "decode", counting("decode", curve.decode))
    monkeypatch.setattr(np, "median", counting("median", np.median))

    def never(*args, **kwargs):
        raise AssertionError("RangeGroupReducer.reduce entered on a clean run")
    monkeypatch.setattr(RangeGroupReducer, "reduce", never)

    sizes = []
    real_batch = PlainMedianReducer.reduce_batch

    def sizing_batch(self, keys, values, bounds, ctx):
        sizes.append(len(np.unique(np.diff(bounds))))
        return real_batch(self, keys, values, bounds, ctx)
    monkeypatch.setattr(PlainMedianReducer, "reduce_batch", sizing_batch)

    tasks = []
    real_pieces = RangeGroupReducer.reduce_pieces

    def per_task(self, pieces, ctx):
        before = dict(counts)
        real_pieces(self, pieces, ctx)
        tasks.append({k: counts[k] - before[k] for k in counts})
    monkeypatch.setattr(RangeGroupReducer, "reduce_pieces", per_task)

    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    assert len(result.output) == 1000
    assert len(tasks) == len(sizes) == 2
    for task, distinct in zip(tasks, sizes):
        assert task["decode"] == 1
        assert task["median"] == distinct <= 8
    assert counts == {"decode": 2, "median": sum(sizes)}


def test_poisoned_aggregate_reducer_keeps_its_range_group_ordinal(tmp_path):
    """``PoisonedReducer`` defines only ``reduce``, so a poisoned subset
    job reduces range group by range group and the poison fires at the
    range group it always did: the key and the four lost cells below
    are the ones the per-query aggregate reducers produced."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    query = BoxSubsetQuery(dataset, "values", Slab((1, 1, 1), (8, 8, 8)))
    make_job = lambda: query.build_job("aggregate", num_map_tasks=4,
                                       num_reducers=2)
    poison = lambda: FaultInjector().poison("r00001", record=25)
    with pytest.raises(Exception, match=re.escape(
            "injected poison at reduce group 25 (key RangeKey("
            "variable='values', start=2240, count=4))")):
        LocalJobRunner(fault_injector=poison()).run(make_job(), dataset)

    clean = LocalJobRunner().run(make_job(), dataset)
    job = dataclasses.replace(make_job(), skipping=SkipPolicy(
        quarantine_dir=str(tmp_path)))
    skipped = LocalJobRunner(fault_injector=poison()).run(job, dataset)
    assert skipped.counters[C.RECORDS_SKIPPED] == 1
    lost = {k.coords for k, _ in clean.output} - {
        k.coords for k, _ in skipped.output}
    assert lost == {(4, 4, 8), (4, 5, 8), (5, 4, 8), (5, 5, 8)}
