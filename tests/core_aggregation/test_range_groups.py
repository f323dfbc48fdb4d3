"""Range groups back into cells: ``expand_cells`` and ``RangeGroupReducer``.

An aggregate job reduces through its query's plain reducer behind a
``RangeGroupReducer``, on one of two paths: the whole merged run in one
``reduce_pieces`` call (the clean path), or one ``reduce`` call per
range group (skipping, poison injection, replay, any wrapper that
defines only ``reduce``).  Both must give what the per-query aggregate
reducers gave -- kept as the test-only oracle in ``reference_reducers``
-- output and counters alike, on integer grids across alignment,
re-aggregation, key modes and reducer counts.
"""

import dataclasses
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregation import (
    AggregateShufflePlugin,
    AggregationConfig,
    Pieces,
    RangeGroupReducer,
    ValueBlock,
    expand_cells,
)
from repro.mapreduce import LocalJobRunner, Reducer
from repro.mapreduce.keys import CellKey, RangeKey
from repro.mapreduce.output import PackedKeys
from repro.queries import (
    BoxSubsetQuery,
    SlidingAggregateQuery,
    SlidingMeanQuery,
    SlidingMedianQuery,
)
from repro.scidata import Dataset, Slab, Variable
from tests.core_aggregation import reference_reducers as ref

CONFIG = AggregationConfig(curve="rowmajor", ndim=2, bits=2)   # 4 x 4
CURVE = CONFIG.make_curve()
CELLS = CONFIG.cell_key_serde()
ORIGIN = np.array([10, 20])


def cell(index, variable="v"):
    return CellKey(variable, (10 + index // 4, 20 + index % 4))


def as_pieces(pairs):
    """Decoded ``(RangeKey, ValueBlock)`` pairs as ``Pieces`` columns."""
    variables = list(dict.fromkeys(key.variable for key, _ in pairs))
    blocks = [block for _, block in pairs]
    column = lambda f: np.array([f(key) for key, _ in pairs], np.int64)
    return Pieces(
        variables, column(lambda k: variables.index(k.variable)),
        column(lambda k: k.start), column(lambda k: k.count),
        np.concatenate([b.values for b in blocks] or [np.empty(0, np.int64)]),
        None if all(b.is_dense() for b in blocks)
        else np.concatenate([b.dense_mask() for b in blocks]))


def expand(pairs):
    keys, values, bounds = expand_cells(as_pieces(pairs), CURVE, ORIGIN, CELLS)
    return keys, values.tolist(), bounds.tolist()


class TestExpandCells:
    def test_a_dense_group_becomes_cell_major(self):
        key = RangeKey("v", 5, 3)
        keys, values, bounds = expand([
            (key, ValueBlock(3, np.array([1, 2, 3], np.int32))),
            (key, ValueBlock(3, np.array([4, 5, 6], np.int32)))])
        assert keys == [cell(5), cell(6), cell(7)]
        assert values == [1, 4, 2, 5, 3, 6]
        assert bounds == [0, 2, 4, 6]

    def test_groups_keep_run_order_and_variables(self):
        pairs = [(RangeKey("v", 9, 2), ValueBlock(2, np.array([7, 8]))),
                 (RangeKey("v", 1, 1), ValueBlock(1, np.array([9]))),
                 (RangeKey("w", 1, 1), ValueBlock(1, np.array([3])))]
        keys, values, bounds = expand(pairs)
        assert keys == [cell(9), cell(10), cell(1), cell(1, "w")]
        assert values == [7, 8, 9, 3]
        assert bounds == [0, 1, 2, 3, 4]
        assert as_pieces(pairs).groups == 3

    def test_cell_keys_come_packed_variable_by_variable(self):
        """Rows are packed per variable and put back in cell order;
        names of several lengths make no one matrix, so those keys come
        as a list."""
        pairs = [(RangeKey("v", 9, 1), ValueBlock(1, np.array([7]))),
                 (RangeKey("w", 1, 1), ValueBlock(1, np.array([8]))),
                 (RangeKey("v", 2, 1), ValueBlock(1, np.array([9])))]
        keys, _, _ = expand_cells(as_pieces(pairs), CURVE, ORIGIN, CELLS)
        assert isinstance(keys, PackedKeys)
        assert keys == [cell(9), cell(1, "w"), cell(2)]
        pairs[1] = (RangeKey("wide", 1, 1), pairs[1][1])
        keys, _, _ = expand_cells(as_pieces(pairs), CURVE, ORIGIN, CELLS)
        assert keys == [cell(9), cell(1, "wide"), cell(2)]
        assert type(keys) is list

    def test_masked_blocks_skip_cells_without_values(self):
        key = RangeKey("v", 0, 4)
        keys, values, bounds = expand([
            (key, ValueBlock(4, np.array([1, 2]),
                             np.array([False, True, False, True]))),
            (key, ValueBlock(4, np.array([5]),
                             np.array([False, False, False, True]))),
            # a piece whose every cell is padding
            (key, ValueBlock(4, np.array([], np.int64),
                             np.zeros(4, dtype=bool)))])
        assert keys == [cell(1), cell(3)]
        assert values == [1, 2, 5]
        assert bounds == [0, 1, 3]

    def test_values_widen_like_the_plain_value_serdes(self):
        for dtype, wide in (("int32", np.int64), ("int64", np.int64),
                            ("float32", np.float64), ("float64", np.float64)):
            block = ValueBlock(2, np.array([1.5, -2], dtype=dtype))
            _, values, _ = expand_cells(
                as_pieces([(RangeKey("v", 0, 2), block)]), CURVE, ORIGIN,
                CELLS)
            assert values.dtype == wide
            # float32 widens exactly: 0.1f is not 0.1
        block = ValueBlock(1, np.array([0.1], np.float32))
        assert expand([(RangeKey("v", 0, 1), block)])[1] == [
            float(np.float32(0.1))]

    def test_nothing_in_nothing_out(self):
        assert expand([]) == ([], [], [0])
        masked = ValueBlock(2, np.array([], np.int32), np.zeros(2, bool))
        assert expand([(RangeKey("v", 0, 2), masked)]) == ([], [], [0])


class Recording(Reducer):
    """Records what a plain reducer is handed, batched or per cell."""

    def __init__(self, batch=True):
        self.calls = []
        if batch:
            self.reduce_batch = self._batch

    def reduce(self, key, values, ctx):
        self.calls.append(("reduce", key, values))

    def _batch(self, keys, values, bounds, ctx):
        self.calls.append(("batch", keys, values.tolist(), bounds.tolist()))
        return NotImplemented if len(keys) > 1 else None


def test_the_wrapper_batches_or_falls_back_per_cell():
    key = RangeKey("v", 2, 2)
    blocks = [ValueBlock(2, np.array([1.5, 2.5])),
              ValueBlock(2, np.array([3.5, 4.5]))]
    for batch in (False, True):
        inner = Recording(batch)
        RangeGroupReducer(inner, CONFIG, ORIGIN).reduce(key, blocks, None)
        per_cell = [("reduce", cell(2), [1.5, 3.5]),
                    ("reduce", cell(3), [2.5, 4.5])]
        if batch:
            # declined: the same cells again, as Python lists
            assert inner.calls == [("batch", [cell(2), cell(3)],
                                    [1.5, 3.5, 2.5, 4.5], [0, 2, 4])] + per_cell
        else:
            assert inner.calls == per_cell


def test_run_pieces_reads_reaggregated_runs_and_declines_aligned_ones():
    """``run_pieces`` splits a merged run itself.  Re-aggregation fuses
    dense blocks into dense blocks, so its split run still reaches the
    reducer as columns; an aligned job's masked blocks come back as
    ``prepare_reduce``'s records, for the reducer to take group by
    group."""
    dense = [(RangeKey(0, 0, 8), ValueBlock(8, np.arange(8))),
             (RangeKey(0, 4, 8), ValueBlock(8, np.arange(8, 16))),
             (RangeKey(0, 8, 8), ValueBlock(8, np.arange(16, 24)))]
    holes = np.array([1, 1, 0, 1, 1, 1, 0, 1], bool)
    masked = [(key, ValueBlock(8, block.values[holes], holes))
              for key, block in dense]
    for alignment, reaggregate, pairs in ((1, True, dense),
                                          (4, False, masked)):
        config = AggregationConfig(curve="rowmajor", ndim=2, bits=3,
                                   variable_mode="index", dtype="int32",
                                   alignment=alignment)
        keys, blocks = config.key_serde(), config.block_serde()
        merged = [(keys.to_bytes(k), blocks.to_bytes(b)) for k, b in pairs]
        records = AggregateShufflePlugin(
            config, reaggregate=reaggregate).prepare_reduce(merged)
        plugin = AggregateShufflePlugin(config, reaggregate=reaggregate)
        pieces = plugin.run_pieces(merged)
        if alignment != 1:
            assert pieces == records
            continue
        split = [(keys.from_bytes(kb), blocks.from_bytes(vb))
                 for kb, vb in records]
        # [0,4) [4,8) [8,12) [12,16): the middle two fuse at depth 2
        assert plugin.reduce_records_out < plugin.reduce_records_split
        assert pieces.rows == plugin.reduce_records_out == len(split)
        want = as_pieces(split)
        assert pieces.variables == want.variables and pieces.valid is None
        for field in ("which", "starts", "counts", "values"):
            assert getattr(pieces, field).tolist() == getattr(
                want, field).tolist()


# ------------------------------------------------- the per-query oracle

def inner_box(ds):
    """The grid minus a one-cell border."""
    return BoxSubsetQuery(ds, "values", Slab(
        (1, 1), tuple(s - 2 for s in ds["values"].extent.shape)))


#: query -> (query factory, the oracle reducer for its aggregate job)
QUERIES = {
    "median": (lambda ds: SlidingMedianQuery(ds, "values"),
               ref.AggregateMedianReducer),
    "mean": (lambda ds: SlidingMeanQuery(ds, "values"),
             ref.AggregateMeanReducer),
    "subset": (inner_box, ref.AggregateSubsetReducer),
    **{op: (lambda ds, op=op: SlidingAggregateQuery(ds, "values", op=op),
            lambda config, origin, fold=fold: ref.AggregateFoldReducer(
                fold, config, origin))
       for op, fold in (("min", np.min), ("max", np.max), ("sum", np.sum))},
}


class PerGroup(Reducer):
    """Defines only ``reduce``, as ``PoisonedReducer`` does: the engine
    reduces range group by range group through the wrapper."""

    def __init__(self, inner):
        self.inner = inner

    def reduce(self, key, values, ctx):
        self.inner.reduce(key, values, ctx)


def pinned(result, plugin):
    values = [(key, type(v).__name__,
               struct.pack(">d", v) if isinstance(v, float) else v)
              for key, v in result.output]
    return (values, result.counters.as_dict(),
            (plugin.routing_splits, plugin.reduce_records_in,
             plugin.reduce_records_split, plugin.reduce_records_out))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.tuples(st.integers(3, 9), st.integers(3, 9)),
    dtype=st.sampled_from(["int32", "int64"]),
    seed=st.integers(0, 2**16),
    name=st.sampled_from(sorted(QUERIES)),
    alignment=st.sampled_from([1, 4, 16]),
    reaggregate=st.booleans(),
    variable_mode=st.sampled_from(["name", "index"]),
    reducers=st.integers(1, 6),
)
def test_both_paths_equal_the_per_query_reducers(shape, dtype, seed, name,
                                                 alignment, reaggregate,
                                                 variable_mode, reducers):
    rng = np.random.default_rng(seed)
    dataset = Dataset()
    dataset.add(Variable("values",
                         rng.integers(-1000, 1000, shape).astype(dtype)))
    build, oracle = QUERIES[name]
    query = build(dataset)
    # fold jobs key by name only
    keys = {} if name in ("min", "max", "sum") else dict(
        variable_mode=variable_mode)

    def make_job(wrap=None):
        """A fresh job (the plugin counts), its reducer ``wrap(base
        factory, config)`` when given."""
        job = query.build_job("aggregate", num_map_tasks=2,
                              num_reducers=reducers,
                              agg_overrides={"alignment": alignment}, **keys)
        config = job.shuffle_plugin.config
        job.shuffle_plugin = AggregateShufflePlugin(config,
                                                    reaggregate=reaggregate)
        if wrap is not None:
            base = job.reducer
            job = dataclasses.replace(job, reducer=lambda: wrap(base, config))
        return job

    legs = {
        "whole-run": make_job(),
        "per-group": make_job(lambda base, config: PerGroup(base())),
        "oracle": make_job(lambda base, config: oracle(
            config, query.extent.corner)),
    }
    out = {}
    for leg, job in legs.items():
        result = LocalJobRunner().run(job, dataset)
        out[leg] = pinned(result, job.shuffle_plugin)
    assert out["whole-run"] == out["oracle"]
    assert out["per-group"] == out["oracle"]
    assert len(out["oracle"][0]) == query.expected_output_cells()
