"""Global value histogram: a non-grid-keyed control workload.

Keys are value *bins*, not coordinates, so key aggregation does not apply
-- there is no spatial structure to exploit.  Included as the control in
ablation benches: it shows the paper's techniques are grid-specific, and
exercises the combiner path (bin counts fold associatively).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.mapreduce.api import SUM, FoldReducer, Mapper
from repro.mapreduce.job import Job
from repro.mapreduce.serde import Int32Serde, Int64Serde
from repro.queries.base import GridQuery
from repro.scidata.dataset import Dataset

__all__ = ["HistogramQuery"]


class HistogramMapper(Mapper):
    """Emit (bin, count) for the split's values, pre-binned with numpy."""

    def __init__(self, lo: float, hi: float, bins: int) -> None:
        self.lo = lo
        self.hi = hi
        self.bins = bins

    def map(self, split, values, ctx):
        counts, _ = np.histogram(
            values.ravel(), bins=self.bins, range=(self.lo, self.hi))
        occupied = np.flatnonzero(counts)
        if occupied.size == 0:
            return
        keys = np.frombuffer(
            ctx.key_serde.pack_batch(occupied), dtype=np.uint8
        ).reshape(occupied.size, -1)
        vals = np.frombuffer(
            ctx.value_serde.pack_batch(counts[occupied]), dtype=np.uint8
        ).reshape(occupied.size, -1)
        ctx.emit_batch(keys, vals)


class HistogramQuery(GridQuery):
    """Builder for the histogram job (plain mode only)."""

    def __init__(self, dataset: Dataset, variable: str, bins: int = 32) -> None:
        super().__init__(dataset, variable)
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.bins = bins
        data = dataset[variable].data
        self.lo = float(data.min())
        self.hi = float(data.max()) + 1e-9

    def expected_output_cells(self) -> int:
        return self.bins  # upper bound: empty bins are not emitted

    def build_job(self, mode: str = "plain", use_combiner: bool = True,
                  **job_overrides) -> Job:
        if mode != "plain":
            raise ValueError(
                "histogram keys have no spatial structure; only plain mode exists"
            )
        defaults = dict(name="histogram", num_reducers=1, num_map_tasks=1,
                        input_variables=(self.variable,))
        defaults.update(job_overrides)
        lo, hi, bins = self.lo, self.hi, self.bins
        return Job(
            mapper=partial(HistogramMapper, lo, hi, bins),
            reducer=partial(FoldReducer, SUM),
            combine=use_combiner,
            key_serde=Int32Serde(),
            value_serde=Int64Serde(),
            **defaults,
        )
