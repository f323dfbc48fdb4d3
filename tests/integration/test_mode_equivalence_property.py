"""Property-based end-to-end equivalence of the two shuffle representations.

The paper's techniques are *lossless* representation changes: for any
grid, any query, any task/reducer layout, any curve, and any codec, the
aggregate-key pipeline must produce the same answers as the per-cell-key
pipeline.  Hypothesis drives that statement across the configuration
space, over int32, int64, float32 and float64 grids (NaN included).

Both modes reduce through the same plain reducer, so the answers are
equal exactly -- NaN matching NaN -- wherever the reduction does not
depend on the order of a cell's values: median, subset, derived, every
integer fold, and ``min`` / ``max`` over NaN-free floats.  A float
``sum`` and a mean do depend on it, and the order differs between the
modes: plain keys deliver a cell's values in merge order (after map-side
combining), range keys in piece order.  Those compare with ``approx``.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mapreduce import LocalJobRunner
from repro.queries import (
    BoxSubsetQuery,
    DerivedVariableQuery,
    SlidingAggregateQuery,
    SlidingMeanQuery,
    SlidingMedianQuery,
)
from repro.scidata import Dataset, Slab, Variable

DTYPES = ["int32", "int64", "float32", "float64"]


def make_grid(h, w, seed, dtype="int32", nan=False):
    """Two variables (``values``, ``other``) of one dtype; a float grid
    gets NaN in a few cells when ``nan``."""
    rng = np.random.default_rng(seed)
    ds = Dataset()
    for name in ("values", "other"):
        if dtype.startswith("float"):
            cells = (rng.normal(size=(h, w)) * 100).astype(dtype)
            if nan:
                cells.flat[rng.integers(0, cells.size, 3)] = np.nan
        else:
            bound = 1 << 40 if dtype == "int64" else 1000
            cells = rng.integers(-bound, bound, (h, w)).astype(dtype)
        ds.add(Variable(name, cells))
    return ds


def grids(nan=True):
    return st.builds(
        make_grid, st.integers(3, 10), st.integers(3, 10),
        st.integers(0, 2**16), st.sampled_from(DTYPES),
        st.booleans() if nan else st.just(False))


def as_map(result):
    """Output by cell; NaN becomes a marker, so NaN matches NaN."""
    return {k.coords: "nan" if v != v else v for k, v in result.output}


def run_modes(query, plain=None, aggregate=None):
    """The query's plain and aggregate job results."""
    with np.errstate(invalid="ignore"):
        return [LocalJobRunner().run(
            query.build_job(mode, **(overrides or {})), query.dataset)
            for mode, overrides in (("plain", plain),
                                    ("aggregate", aggregate))]


def assert_same_cells(plain, agg, cells):
    """Equal answers, and each mode emitted every one of ``cells`` cells
    exactly once (``as_map`` alone would hide a duplicate)."""
    assert as_map(plain) == as_map(agg)
    assert len(plain.output) == len(agg.output) == cells


def assert_close(plain, agg, tol=1e-9):
    """Same cells; values equal to float rounding (NaN matching NaN)."""
    assert plain.keys() == agg.keys()
    for cell, value in plain.items():
        if value == "nan":
            assert agg[cell] == "nan"
        else:
            assert math.isclose(agg[cell], value, rel_tol=tol,
                                abs_tol=tol), cell


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    grid=grids(),
    curve=st.sampled_from(["zorder", "hilbert", "rowmajor"]),
    maps=st.integers(1, 4),
    reducers=st.integers(1, 3),
    buffer_cells=st.sampled_from([16, 1 << 20]),
)
def test_sliding_median_mode_equivalence(grid, curve, maps, reducers,
                                         buffer_cells):
    plain, agg = run_modes(
        SlidingMedianQuery(grid, "values", window=3),
        plain=dict(num_map_tasks=maps, num_reducers=reducers),
        aggregate=dict(num_map_tasks=maps, num_reducers=reducers,
                       agg_overrides={"curve": curve,
                                      "buffer_cells": buffer_cells}))
    assert_same_cells(plain, agg, grid["values"].extent.size)


def test_float32_median_widens_like_the_plain_path():
    """9 x 11 float32 cells, one NaN: both modes take the median of the
    same float64 values.  (A median over the float32 block itself
    rounds the mean of the two middle values to float32: on this grid
    it differed from the plain mode in 20 of the 99 cells, all in the
    clipped, even-sized edge windows.)"""
    cells = (np.random.default_rng(3).normal(size=(9, 11)) * 100).astype(
        np.float32)
    cells[4, 5] = np.nan
    grid = Dataset()
    grid.add(Variable("values", cells))
    plain, agg = run_modes(SlidingMedianQuery(grid, "values", window=3),
                           aggregate=dict(num_reducers=2))
    assert_same_cells(plain, agg, 99)
    assert sum(v == "nan" for v in as_map(agg).values()) == 9


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    grid=grids(nan=False),
    op=st.sampled_from(["min", "max", "sum"]),
    maps=st.integers(1, 3),
    alignment=st.sampled_from([1, 4, 16]),
    reaggregate=st.booleans(),
)
def test_sliding_aggregate_mode_equivalence(grid, op, maps, alignment,
                                            reaggregate):
    query = SlidingAggregateQuery(grid, "values", op=op, window=3)
    plain = LocalJobRunner().run(
        query.build_job("plain", num_map_tasks=maps), grid)
    agg_job = query.build_job("aggregate", num_map_tasks=maps,
                              num_reducers=2,
                              agg_overrides={"alignment": alignment})
    agg_job.shuffle_plugin.reaggregate = reaggregate
    agg = LocalJobRunner().run(agg_job, grid)
    dtype = grid["values"].data.dtype
    cells = grid["values"].extent.size
    if op == "sum" and dtype.kind == "f":
        # the plain combiner also writes each partial sum back through
        # the grid's value serde: float32 partial sums round to float32
        assert_close(as_map(plain), as_map(agg),
                     tol=1e-3 if dtype == np.float32 else 1e-9)
        assert len(plain.output) == len(agg.output) == cells
    else:
        assert_same_cells(plain, agg, cells)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids(), maps=st.integers(1, 3),
       alignment=st.sampled_from([1, 4]))
def test_sliding_mean_mode_equivalence(grid, maps, alignment):
    plain, agg = run_modes(
        SlidingMeanQuery(grid, "values", window=3),
        plain=dict(num_map_tasks=maps),
        aggregate=dict(num_map_tasks=maps, num_reducers=2,
                       agg_overrides={"alignment": alignment}))
    assert_close(as_map(plain), as_map(agg))
    assert len(plain.output) == len(agg.output) == grid["values"].extent.size


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    grid=grids(),
    data=st.data(),
    codec=st.sampled_from(["null", "zlib", "fastpred+zlib"]),
)
def test_subset_mode_equivalence_with_codecs(grid, data, codec):
    extent = grid["values"].extent
    h, w = extent.shape
    bh = data.draw(st.integers(1, h))
    bw = data.draw(st.integers(1, w))
    ch = data.draw(st.integers(0, h - bh))
    cw = data.draw(st.integers(0, w - bw))
    box = Slab((ch, cw), (bh, bw))
    overrides = dict(codec=codec, num_map_tasks=2)
    plain, agg = run_modes(BoxSubsetQuery(grid, "values", box),
                           plain=overrides, aggregate=overrides)
    assert_same_cells(plain, agg, box.size)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids(), op=st.sampled_from(["add", "max", "hypot"]))
def test_derived_mode_equivalence(grid, op):
    overrides = dict(num_map_tasks=2, num_reducers=2)
    plain, agg = run_modes(DerivedVariableQuery(grid, "values", "other",
                                                op=op),
                           plain=overrides, aggregate=overrides)
    assert_same_cells(plain, agg, grid["values"].extent.size)
