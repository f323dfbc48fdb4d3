"""Generic algebraic sliding-window aggregates (min / max / sum).

The median (holistic) and mean (algebraic with a (sum, count) carrier)
have dedicated modules; this one covers the remaining common window
aggregates, whose partial results fold with the same operator (a
:class:`~repro.mapreduce.api.Monoid`) -- so the plain mode's combiner is
the operator itself applied map-side, Hadoop's textbook combiner case.
"""

from __future__ import annotations

from functools import partial

from repro.core.aggregation import AggregateShufflePlugin, range_group_reducer
from repro.mapreduce.api import MAX, MIN, SUM, FoldReducer, Monoid
from repro.mapreduce.job import Job
from repro.mapreduce.keys import CellKeySerde
from repro.queries.base import GridQuery, window_offsets
from repro.queries.sliding_median import (
    AggregateWindowMapper,
    PlainWindowMapper,
    value_serde_for,
)
from repro.scidata.dataset import Dataset

__all__ = ["SlidingAggregateQuery", "WINDOW_OPS"]

#: op name -> the monoid folding one cell's value list, in both modes
WINDOW_OPS: dict[str, Monoid] = {"min": MIN, "max": MAX, "sum": SUM}


class SlidingAggregateQuery(GridQuery):
    """Builder for min/max/sum sliding-window jobs in both modes."""

    def __init__(self, dataset: Dataset, variable: str, op: str = "max",
                 window: int = 3) -> None:
        super().__init__(dataset, variable)
        if op not in WINDOW_OPS:
            raise ValueError(f"op must be one of {sorted(WINDOW_OPS)}, got {op!r}")
        self.op = op
        self.monoid = WINDOW_OPS[op]
        self.window = window
        self.offsets = window_offsets(self.extent.ndim, window)

    def expected_output_cells(self) -> int:
        return self.extent.size

    def build_job(self, mode: str = "plain", use_combiner: bool = True,
                  agg_overrides: dict | None = None, **job_overrides) -> Job:
        dtype = self.dataset[self.variable].data.dtype
        defaults = dict(name=f"sliding-{self.op}-{mode}", num_reducers=1,
                        num_map_tasks=1,
                        input_variables=(self.variable,))
        defaults.update(job_overrides)
        var_ref = self.variable
        extent, offsets = self.extent, self.offsets
        monoid = self.monoid

        if mode == "plain":
            return Job(
                mapper=partial(PlainWindowMapper, var_ref, extent, offsets),
                reducer=partial(FoldReducer, monoid),
                combine=use_combiner,
                key_serde=CellKeySerde(self.extent.ndim, "name"),
                value_serde=value_serde_for(dtype),
                **defaults,
            )
        if mode == "aggregate":
            config = self.aggregation_config(**(agg_overrides or {}))
            origin = self.extent.corner
            return Job(
                mapper=partial(AggregateWindowMapper, var_ref, extent,
                               offsets, config),
                reducer=partial(range_group_reducer,
                                partial(FoldReducer, monoid), config, origin),
                key_serde=config.key_serde(),
                value_serde=config.block_serde(),
                shuffle_plugin=AggregateShufflePlugin(config),
                **defaults,
            )
        raise ValueError(f"mode must be 'plain' or 'aggregate', got {mode!r}")
