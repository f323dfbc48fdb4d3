"""Sliding-window mean: the algebraic counterpart of the median query.

Unlike the median, a mean is partially reducible, so the plain mode can
run a combiner ((sum, count) pairs fold associatively) -- the paper's
data-flow step 3.  Included because it separates two effects the median
conflates: combiners shrink intermediate data by partial reduction,
key aggregation shrinks it by representation.  The ablation benches
compare both levers.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Sequence

import numpy as np

from repro.core.aggregation import AggregateShufflePlugin, range_group_reducer
from repro.mapreduce.api import SUM_COUNT, FoldReducer, Mapper, Reducer
from repro.mapreduce.job import Job
from repro.mapreduce.keys import CellKeySerde
from repro.mapreduce.serde import Serde, _check_column
from repro.queries.base import GridQuery, shifted_cells, window_offsets
from repro.util.errors import TruncatedRecordError
from repro.queries.sliding_median import AggregateWindowMapper
from repro.scidata.dataset import Dataset
from repro.scidata.slab import Slab

__all__ = ["SlidingMeanQuery", "SumCountSerde"]

_PAIR = struct.Struct(">dI")


class SumCountSerde(Serde):
    """(sum: float64, count: uint32) partial-aggregate pairs (12 bytes)."""

    SIZE = 12
    _COLUMN = np.dtype([("total", ">f8"), ("count", ">u4")])

    def write(self, obj, out: bytearray) -> None:
        total, count = obj
        if not 0 <= count < 1 << 32:
            raise ValueError("count out of uint32 range")
        out.extend(_PAIR.pack(float(total), int(count)))

    def read(self, buf, offset: int):
        try:
            total, count = _PAIR.unpack_from(buf, offset)
        except struct.error as exc:
            raise TruncatedRecordError(
                f"truncated {self.SIZE}-byte sum/count pair",
                offset=offset) from exc
        return (total, count), offset + self.SIZE

    def pack_batch(self, values) -> bytes:
        """Vectorized column pack of an ``(n, 2)`` [total, count] array."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected (n, 2) [total, count] rows, got {arr.shape}")
        counts = arr[:, 1]
        if counts.size and (counts.min() < 0 or counts.max() >= (1 << 32)):
            raise ValueError("count out of uint32 range")
        col = np.empty(arr.shape[0], dtype=self._COLUMN)
        col["total"] = arr[:, 0]
        col["count"] = counts.astype(np.uint32)
        return col.tobytes()

    def read_column(self, buf, count: int) -> list:
        _check_column(buf, count, self.SIZE)
        col = np.frombuffer(buf, dtype=self._COLUMN, count=count)
        return list(zip(col["total"].tolist(), col["count"].tolist()))


class PlainMeanMapper(Mapper):
    """Emit (cell key, (value, 1)) for every covering window."""

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
                pairs = np.empty((kept.shape[0], 2), dtype=np.float64)
                pairs[:, 0] = kept
                pairs[:, 1] = 1
                ctx.emit_cells(self.var_ref, shifted, pairs)


def _mean(pair: tuple[float, int]) -> float:
    total, count = pair
    return total / count


class CellMeanReducer(Reducer):
    """Mean of a cell's raw values (an aggregate job's blocks carry the
    values, not the (sum, count) pairs the plain job folds)."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, float(np.mean(values)))


class SlidingMeanQuery(GridQuery):
    """Builder for plain (+combiner) and aggregate sliding-mean jobs."""

    def __init__(self, dataset: Dataset, variable: str, window: int = 3) -> None:
        super().__init__(dataset, variable)
        self.window = window
        self.offsets = window_offsets(self.extent.ndim, window)

    def expected_output_cells(self) -> int:
        return self.extent.size

    def build_job(self, mode: str = "plain", variable_mode: str = "name",
                  use_combiner: bool = True,
                  agg_overrides: dict | None = None, reaggregate: bool = False,
                  **job_overrides) -> Job:
        var_ref: str | int
        if variable_mode == "name":
            var_ref = self.variable
        else:
            var_ref = self.dataset.names.index(self.variable)
        defaults = dict(name=f"sliding-mean-{mode}", num_reducers=1,
                        num_map_tasks=1,
                        input_variables=(self.variable,))
        defaults.update(job_overrides)

        if mode == "plain":
            extent, offsets = self.extent, self.offsets
            return Job(
                mapper=partial(PlainMeanMapper, var_ref, extent, offsets),
                reducer=partial(FoldReducer, SUM_COUNT, finish=_mean),
                combine=use_combiner,
                key_serde=CellKeySerde(self.extent.ndim, variable_mode),
                value_serde=SumCountSerde(),
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
                reducer=partial(range_group_reducer, CellMeanReducer, config,
                                origin),
                key_serde=config.key_serde(),
                value_serde=config.block_serde(),
                shuffle_plugin=AggregateShufflePlugin(config, reaggregate=reaggregate),
                **defaults,
            )
        raise ValueError(f"mode must be 'plain' or 'aggregate', got {mode!r}")
