"""Tests for key splitting, the aggregator library, and group helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    AggregationConfig,
    Aggregator,
    ValueBlock,
    split_at_boundaries,
    split_overlaps,
)
from repro.mapreduce.api import MapContext
from repro.mapreduce.keys import RangeKey
from repro.mapreduce.metrics import Counters
from repro.mapreduce.serde import BytesSerde
from tests.core_aggregation.reference_reducers import (
    cells_of_group,
    stack_equal_blocks,
)


def dense(count, start_value=0):
    return ValueBlock(count, np.arange(start_value, start_value + count))


class TestSplitAtBoundaries:
    def test_no_split_needed(self):
        key = RangeKey("v", 10, 5)
        out = split_at_boundaries(key, dense(5), [0, 20, 40])
        assert out == [(key, dense(5))]

    def test_split_at_one_boundary(self):
        key = RangeKey("v", 10, 10)
        out = split_at_boundaries(key, dense(10), [15])
        assert [(k.start, k.count) for k, _ in out] == [(10, 5), (15, 5)]
        assert (out[0][1].values == np.arange(0, 5)).all()
        assert (out[1][1].values == np.arange(5, 10)).all()

    def test_boundary_at_edges_is_noop(self):
        key = RangeKey("v", 10, 10)
        out = split_at_boundaries(key, dense(10), [10, 20])
        assert len(out) == 1

    def test_multiple_boundaries(self):
        key = RangeKey("v", 0, 100)
        out = split_at_boundaries(key, dense(100), [25, 50, 75])
        assert [(k.start, k.count) for k, _ in out] == [
            (0, 25), (25, 25), (50, 25), (75, 25)]

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            split_at_boundaries(RangeKey("v", 0, 5), dense(4), [2])


class TestSplitOverlaps:
    def test_paper_fig7_overlap(self):
        """Unequal overlapping ranges are split on overlap boundaries."""
        pairs = [
            (RangeKey("v", 0, 10), dense(10)),
            (RangeKey("v", 5, 10), dense(10, 100)),
        ]
        out = split_overlaps(pairs)
        spans = [(k.start, k.count) for k, _ in out]
        assert spans == [(0, 5), (5, 5), (5, 5), (10, 5)]
        # after splitting, the two [5,10) pieces are byte-equal keys
        assert out[1][0] == out[2][0]
        # values follow their cells
        assert (out[1][1].values == np.arange(5, 10)).all()
        assert (out[2][1].values == np.arange(100, 105)).all()

    def test_disjoint_ranges_untouched(self):
        pairs = [
            (RangeKey("v", 0, 5), dense(5)),
            (RangeKey("v", 5, 5), dense(5)),
            (RangeKey("v", 20, 3), dense(3)),
        ]
        out = split_overlaps(pairs)
        assert [(k.start, k.count) for k, _ in out] == [(0, 5), (5, 5), (20, 3)]

    def test_equal_ranges_untouched(self):
        pairs = [
            (RangeKey("v", 3, 4), dense(4)),
            (RangeKey("v", 3, 4), dense(4, 50)),
        ]
        out = split_overlaps(pairs)
        assert [(k.start, k.count) for k, _ in out] == [(3, 4), (3, 4)]

    def test_nested_ranges(self):
        pairs = [
            (RangeKey("v", 0, 10), dense(10)),
            (RangeKey("v", 3, 4), dense(4, 100)),
        ]
        out = split_overlaps(pairs)
        spans = [(k.start, k.count) for k, _ in out]
        assert spans == [(0, 3), (3, 4), (3, 4), (7, 3)]

    def test_different_variables_do_not_interact(self):
        pairs = [
            (RangeKey("a", 0, 10), dense(10)),
            (RangeKey("b", 5, 10), dense(10)),
        ]
        out = split_overlaps(pairs)
        assert [(k.variable, k.start, k.count) for k, _ in out] == [
            ("a", 0, 10), ("b", 5, 10)]

    def test_empty(self):
        assert split_overlaps([]) == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12)),
                    min_size=1, max_size=10))
    def test_property_split_conserves_cells_and_groups_align(self, spans):
        pairs = [(RangeKey("v", s, c), dense(c, i * 1000))
                 for i, (s, c) in enumerate(spans)]
        out = split_overlaps(pairs)
        # conservation: every (cell, value) survives exactly once
        def cells(ps):
            acc = []
            for k, b in ps:
                for j in range(k.count):
                    acc.append((k.start + j, int(b.values[j])))
            return sorted(acc)
        assert cells(out) == cells(pairs)
        # alignment: any two output ranges are equal or disjoint
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                a, b = out[i][0], out[j][0]
                assert a == b or not a.overlaps(b)


class _CaptureCtx(MapContext):
    """MapContext capturing serialized records for inspection."""

    def __init__(self):
        self.records = []
        super().__init__(BytesSerde(), BytesSerde(),
                         lambda k, v: self.records.append((k, v)), Counters())


def make_aggregator(**overrides):
    defaults = dict(curve="zorder", ndim=2, bits=4, dtype="int64",
                    buffer_cells=1000)
    defaults.update(overrides)
    cfg = AggregationConfig(**defaults)
    ctx = _CaptureCtx()
    return Aggregator(cfg, "v", ctx), ctx, cfg


class TestAggregator:
    def test_contiguous_block_is_one_range(self):
        agg, ctx, cfg = make_aggregator(curve="rowmajor")
        # full row in row-major order = contiguous indices
        coords = np.array([[3, j] for j in range(16)])
        agg.add(coords, np.arange(16))
        agg.close()
        assert agg.emitted_ranges == 1
        key = cfg.key_serde().from_bytes(ctx.records[0][0])
        block = cfg.block_serde().from_bytes(ctx.records[0][1])
        assert key.count == 16
        assert (block.values == np.arange(16)).all()

    def test_flush_threshold_splits_aggregation(self):
        # Same data, tiny buffer: more ranges (A2's effect).
        coords = np.array([[3, j] for j in range(16)])
        big, _, _ = make_aggregator(curve="rowmajor", buffer_cells=1000)
        big.add(coords, np.arange(16))
        big.close()
        small, _, _ = make_aggregator(curve="rowmajor", buffer_cells=4)
        for j in range(16):
            small.add(coords[j:j + 1], np.array([j]))
        small.close()
        assert small.flushes > big.flushes
        assert small.emitted_ranges > big.emitted_ranges
        assert small.emitted_cells == big.emitted_cells == 16

    def test_add_indices_path(self):
        agg, ctx, cfg = make_aggregator()
        agg.add_indices(np.array([5, 6, 7, 20]), np.array([1, 2, 3, 4]))
        agg.close()
        assert agg.emitted_ranges == 2
        keys = [cfg.key_serde().from_bytes(k) for k, _ in ctx.records]
        assert {(k.start, k.count) for k in keys} == {(5, 3), (20, 1)}

    def test_alignment_pads_with_masked_blocks(self):
        agg, ctx, cfg = make_aggregator(alignment=8)
        agg.add_indices(np.array([3, 4]), np.array([30, 40]))
        agg.close()
        key = cfg.key_serde().from_bytes(ctx.records[0][0])
        block = cfg.block_serde().from_bytes(ctx.records[0][1])
        assert key.start == 0 and key.count == 8
        assert not block.is_dense()
        assert (block.values == [30, 40]).all()
        assert (block.dense_mask() == [0, 0, 0, 1, 1, 0, 0, 0]).all()

    def test_alignment_clips_to_curve_end(self):
        agg, ctx, cfg = make_aggregator(alignment=100, bits=2)  # curve size 16
        agg.add_indices(np.array([14, 15]), np.array([1, 2]))
        agg.close()
        key = cfg.key_serde().from_bytes(ctx.records[0][0])
        assert key.start == 0 and key.count == 16

    def test_empty_add_is_noop(self):
        agg, ctx, _ = make_aggregator()
        agg.add(np.zeros((0, 2)), np.zeros(0))
        agg.close()
        assert ctx.records == []
        assert agg.flushes == 0

    def test_validation(self):
        agg, _, _ = make_aggregator()
        with pytest.raises(ValueError):
            agg.add(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            agg.add(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            agg.add_indices(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError):
            agg.add_indices(np.array([-1]), np.array([1]))
        with pytest.raises(ValueError):
            AggregationConfig(buffer_cells=0)
        with pytest.raises(ValueError):
            AggregationConfig(alignment=0)

    def test_duplicates_become_layers(self):
        agg, ctx, cfg = make_aggregator()
        agg.add_indices(np.array([5, 5, 6, 6]), np.array([1, 2, 3, 4]))
        agg.close()
        assert agg.emitted_ranges == 2
        blocks = [cfg.block_serde().from_bytes(v) for _, v in ctx.records]
        assert sorted(tuple(b.values) for b in blocks) == [(1, 3), (2, 4)]


class TestGroupHelpers:
    """The oracle's group helpers (``reference_reducers``)."""

    def test_stack_dense(self):
        key = RangeKey("v", 0, 3)
        m = stack_equal_blocks(key, [dense(3), dense(3, 10)])
        assert m.shape == (2, 3)
        assert (m[1] == [10, 11, 12]).all()

    def test_stack_masked_returns_none(self):
        key = RangeKey("v", 0, 3)
        masked = ValueBlock(3, np.array([1]), np.array([True, False, False]))
        assert stack_equal_blocks(key, [dense(3), masked]) is None

    def test_cells_of_group_dense(self):
        key = RangeKey("v", 0, 2)
        cells = dict(cells_of_group(key, [dense(2), dense(2, 10)]))
        assert set(cells) == {0, 1}
        assert (cells[0] == [0, 10]).all()

    def test_cells_of_group_masked(self):
        key = RangeKey("v", 0, 3)
        masked = ValueBlock(3, np.array([99]), np.array([False, True, False]))
        cells = dict(cells_of_group(key, [dense(3), masked]))
        assert (cells[1] == [1, 99]).all()
        assert (cells[0] == [0]).all()
        assert (cells[2] == [2]).all()

    def test_group_validation(self):
        with pytest.raises(ValueError):
            stack_equal_blocks(RangeKey("v", 0, 3), [])
        with pytest.raises(ValueError):
            stack_equal_blocks(RangeKey("v", 0, 3), [dense(2)])
