"""Tests for the cluster harness internals (parity model, config sweep)."""

import pytest

from repro.experiments.cluster_runs import (
    CONFIGS,
    GZIP_BW,
    TRANSFORM_RATIO,
    native_parity_profiles,
    run,
)
from repro.mapreduce.runtime import LocalJobRunner
from repro.queries.sliding_median import SlidingMedianQuery
from repro.scidata import integer_grid


@pytest.fixture(scope="module")
def small_result():
    grid = integer_grid((12, 12), seed=3)
    query = SlidingMedianQuery(grid, "values", window=3)
    job = query.build_job("plain", codec="zlib", num_map_tasks=2,
                          num_reducers=2)
    return LocalJobRunner().run(job, grid)


class TestNativeParity:
    def test_preserves_byte_counts(self, small_result):
        parity = native_parity_profiles(small_result, "zlib")
        for orig, new in zip(small_result.task_profiles, parity):
            assert new.shuffle_bytes == orig.shuffle_bytes
            assert new.local_write_bytes == orig.local_write_bytes
            assert new.task_id == orig.task_id

    def test_zlib_gets_codec_category_only(self, small_result):
        parity = native_parity_profiles(small_result, "zlib")
        for p in parity:
            assert set(p.cpu_seconds) == {"function", "codec"}

    def test_stride_gets_transform_at_paper_ratio(self, small_result):
        parity = native_parity_profiles(small_result, "stride+zlib")
        for p in parity:
            assert set(p.cpu_seconds) == {"function", "codec", "transform"}
            if p.cpu_seconds["codec"] > 0:
                assert p.cpu_seconds["transform"] == pytest.approx(
                    TRANSFORM_RATIO * p.cpu_seconds["codec"])

    def test_null_codec_has_no_codec_cost(self, small_result):
        parity = native_parity_profiles(small_result, "null")
        for p in parity:
            assert set(p.cpu_seconds) == {"function"}

    def test_costs_scale_with_bytes(self, small_result):
        parity = native_parity_profiles(small_result, "zlib")
        maps = [p for p in parity if p.kind == "map"]
        for p in maps:
            stats = small_result.map_output_stats
            expansion = stats.raw_bytes / stats.materialized_bytes
            assert p.cpu_seconds["codec"] == pytest.approx(
                p.local_write_bytes * expansion / GZIP_BW)


class TestRunHarness:
    def test_small_run_table(self):
        result = run(side=16)
        assert len(result.rows) == len(CONFIGS)
        baseline = result.rows[0]
        assert baseline["delta_bytes_pct"] == 0.0
        # aggregation always shrinks bytes, even at toy scale
        agg = result.row_by("config", "key aggregation (E8)")
        assert agg["delta_bytes_pct"] < 0.0
