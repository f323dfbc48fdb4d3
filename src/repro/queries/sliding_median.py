"""The sliding-window median query (§IV-C's running example).

Holistic (a median cannot be partially reduced), so every window member
must reach the reducer: intermediate data is window-size times the
input, making this the paper's stress test for key compression.  §III-E
and §IV-D both run exactly this query.

``mode="plain"`` emits one per-cell :class:`CellKey` record per (cell,
covering window); ``mode="aggregate"`` routes the same emissions through
the §IV aggregation library.  Both reduce to identical (cell, median)
outputs.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.core.aggregation import (
    AggregationConfig,
    Aggregator,
    AggregateShufflePlugin,
    range_group_reducer,
)
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.job import Job
from repro.mapreduce.keys import CellKeySerde
from repro.mapreduce.serde import (
    Float32Serde,
    Float64Serde,
    Int32Serde,
    Int64Serde,
    Serde,
)
from repro.queries.base import GridQuery, shifted_cells, window_offsets
from repro.scidata.dataset import Dataset
from repro.scidata.slab import Slab

__all__ = ["SlidingMedianQuery"]


def value_serde_for(dtype: np.dtype) -> Serde:
    """The fixed-width serde matching a grid dtype."""
    dtype = np.dtype(dtype)
    table = {
        np.dtype(np.int32): Int32Serde,
        np.dtype(np.int64): Int64Serde,
        np.dtype(np.float32): Float32Serde,
        np.dtype(np.float64): Float64Serde,
    }
    try:
        return table[dtype]()
    except KeyError:
        raise TypeError(f"no value serde for dtype {dtype}") from None


class PlainWindowMapper(Mapper):
    """Emit each value under every window key covering it (per-cell keys)."""

    def __init__(self, var_ref: str | int, extent: Slab,
                 offsets: Sequence[tuple[int, ...]]) -> None:
        self.var_ref = var_ref
        self.extent = extent
        self.offsets = offsets

    def map(self, split, values, ctx):
        coords = split.slab.coords()
        flat = values.ravel()
        for offset in self.offsets:
            shifted, kept = shifted_cells(coords, flat, offset, self.extent)
            if shifted.shape[0]:
                ctx.emit_cells(self.var_ref, shifted, kept)


class PlainMedianReducer(Reducer):
    """Median of all values per cell key."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, float(np.median(np.asarray(values))))

    def reduce_batch(self, keys, values, bounds, ctx):
        """One ``np.median`` per distinct group *size*, not per group.

        Groups of one size gather into a ``(groups, size)`` matrix whose
        row medians are the per-group calls' results bit for bit,
        because the same ``np.median`` computes them.  A sort-and-gather
        median over the whole column is not a substitute: it disagrees
        on groups holding NaN and may return the other signed zero.  A
        w^d window over a box has at most 2^d group sizes.
        """
        starts, sizes = bounds[:-1], np.diff(bounds)
        medians = np.empty(len(keys), dtype=np.float64)
        for size in np.unique(sizes).tolist():
            rows = np.flatnonzero(sizes == size)
            matrix = values[starts[rows, None] + np.arange(size)]
            medians[rows] = np.median(matrix, axis=1, overwrite_input=True)
        ctx.emit_batch(keys, medians)


class AggregateWindowMapper(Mapper):
    """Same emissions, buffered through the §IV aggregation library."""

    def __init__(self, var_ref: str | int, extent: Slab,
                 offsets: Sequence[tuple[int, ...]],
                 config: AggregationConfig) -> None:
        self.var_ref = var_ref
        self.extent = extent
        self.offsets = offsets
        self.config = config
        self._agg: Aggregator | None = None
        self._origin = np.asarray(extent.corner, dtype=np.int64)

    def map(self, split, values, ctx):
        self._agg = Aggregator(self.config, self.var_ref, ctx)
        coords = split.slab.coords()
        flat = values.ravel()
        for offset in self.offsets:
            shifted, kept = shifted_cells(coords, flat, offset, self.extent)
            if shifted.shape[0]:
                self._agg.add(shifted - self._origin, kept)

    def cleanup(self, ctx):
        if self._agg is not None:
            self._agg.close()


class SlidingMedianQuery(GridQuery):
    """Builder for plain/aggregate sliding-median jobs."""

    def __init__(self, dataset: Dataset, variable: str, window: int = 3) -> None:
        super().__init__(dataset, variable)
        self.window = window
        self.offsets = window_offsets(self.extent.ndim, window)

    def expected_output_cells(self) -> int:
        return self.extent.size

    def build_job(self, mode: str = "plain", variable_mode: str = "name",
                  agg_overrides: dict | None = None, reaggregate: bool = False,
                  **job_overrides) -> Job:
        dtype = self.dataset[self.variable].data.dtype
        var_ref: str | int
        if variable_mode == "name":
            var_ref = self.variable
        else:
            var_ref = self.dataset.names.index(self.variable)
        defaults = dict(name=f"sliding-median-{mode}", num_reducers=1,
                        num_map_tasks=1,
                        input_variables=(self.variable,))
        defaults.update(job_overrides)

        if mode == "plain":
            extent, offsets = self.extent, self.offsets
            return Job(
                mapper=partial(PlainWindowMapper, var_ref, extent, offsets),
                reducer=PlainMedianReducer,
                key_serde=CellKeySerde(self.extent.ndim, variable_mode),
                value_serde=value_serde_for(dtype),
                **defaults,
            )
        if mode == "aggregate":
            config = self.aggregation_config(
                variable_mode=variable_mode, **(agg_overrides or {}))
            extent, offsets = self.extent, self.offsets
            origin = self.extent.corner
            return Job(
                mapper=partial(AggregateWindowMapper, var_ref, extent, offsets,
                               config),
                reducer=partial(range_group_reducer, PlainMedianReducer,
                                config, origin),
                key_serde=config.key_serde(),
                value_serde=config.block_serde(),
                shuffle_plugin=AggregateShufflePlugin(config, reaggregate=reaggregate),
                **defaults,
            )
        raise ValueError(f"mode must be 'plain' or 'aggregate', got {mode!r}")
