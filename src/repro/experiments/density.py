"""A8 -- aggregation benefit versus key density (the sparse-data caveat).

Related work (§V, on Goldstein et al.): "Our work currently focuses on
dense keys, but adapting their work may be useful for sparse data."
This ablation quantifies the caveat: a filter query emits only the cells
above a value threshold, so sweeping the threshold sweeps the surviving
key density.  Dense survivors coalesce into long curve ranges; sparse
survivors fragment into near-singleton ranges whose RangeKey (16-23
bytes) costs *more* than a per-cell key -- aggregation's win must
shrink, vanish, and eventually invert as density falls.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, fmt_bytes, scaled
from repro.experiments.common import make_runner
from repro.mapreduce.job import Job
from repro.mapreduce.keys import CellKeySerde
from repro.mapreduce.api import Mapper
from repro.core.aggregation import (AggregateShufflePlugin, Aggregator,
                                    RangeGroupReducer)
from repro.queries.subset import IdentityReducer
from repro.queries.sliding_median import value_serde_for
from repro.scidata.generator import integer_grid

__all__ = ["run", "ThresholdFilterMapperPlain", "ThresholdFilterMapperAgg"]


class ThresholdFilterMapperPlain(Mapper):
    """Emit (cell, value) for cells with value >= threshold."""

    def __init__(self, var_ref, threshold: int) -> None:
        self.var_ref = var_ref
        self.threshold = threshold

    def map(self, split, values, ctx):
        flat = values.ravel()
        keep = flat >= self.threshold
        coords = split.slab.coords()[keep]
        if coords.shape[0]:
            ctx.emit_cells(self.var_ref, coords, flat[keep])


class ThresholdFilterMapperAgg(Mapper):
    """Same filter through the aggregation library."""

    def __init__(self, var_ref, threshold: int, origin, config) -> None:
        self.var_ref = var_ref
        self.threshold = threshold
        self.origin = np.asarray(origin, dtype=np.int64)
        self.config = config
        self._agg = None

    def map(self, split, values, ctx):
        self._agg = Aggregator(self.config, self.var_ref, ctx)
        flat = values.ravel()
        keep = flat >= self.threshold
        coords = split.slab.coords()[keep]
        if coords.shape[0]:
            self._agg.add(coords - self.origin, flat[keep])

    def cleanup(self, ctx):
        if self._agg is not None:
            self._agg.close()


def run(side: int | None = None,
        densities: list[float] | None = None) -> ExperimentResult:
    """Sweep surviving-key density; report both modes' materialized bytes."""
    if side is None:
        side = scaled(96, default_scale=1.0)
    densities = densities or [1.0, 0.5, 0.1, 0.02, 0.005]
    value_max = 1 << 20
    grid = integer_grid((side, side), seed=55, low=0, high=value_max)
    extent = grid["values"].extent
    from repro.queries.subset import BoxSubsetQuery

    query = BoxSubsetQuery(grid, "values", extent)  # reuse config helpers

    result = ExperimentResult(
        experiment="A8",
        title=f"aggregation vs key density ({side}x{side} filter query)",
        columns=["density", "plain_bytes", "aggregate_bytes",
                 "agg_win_pct", "ranges"],
    )
    dtype = grid["values"].data.dtype
    for density in densities:
        threshold = int(value_max * (1.0 - density))
        plain_job = Job(
            name="filter-plain",
            mapper=lambda: ThresholdFilterMapperPlain("values", threshold),
            reducer=IdentityReducer,
            key_serde=CellKeySerde(2, "name"),
            value_serde=value_serde_for(dtype),
        )
        plain = make_runner().run(plain_job, grid)

        config = query.aggregation_config()
        agg_job = Job(
            name="filter-agg",
            mapper=lambda: ThresholdFilterMapperAgg(
                "values", threshold, extent.corner, config),
            reducer=lambda: RangeGroupReducer(IdentityReducer(), config,
                                              extent.corner),
            key_serde=config.key_serde(),
            value_serde=config.block_serde(),
            shuffle_plugin=AggregateShufflePlugin(config),
        )
        agg = make_runner().run(agg_job, grid)

        if len(plain.output) != len(agg.output):
            raise AssertionError("filter modes disagree on output size")

        pb = plain.materialized_bytes
        ab = agg.materialized_bytes
        result.add(
            density=density,
            plain_bytes=fmt_bytes(pb),
            aggregate_bytes=fmt_bytes(ab),
            agg_win_pct=round(100.0 * (1.0 - ab / pb), 1) if pb else 0.0,
            ranges=agg.map_output_stats.records,
        )
    result.note("dense keys: aggregation wins big; sparse keys fragment "
                "into near-singleton ranges and the win collapses "
                "(the §V caveat about Goldstein et al.)")
    return result
