"""Box-subset selection: extract a sub-slab of a variable.

The simplest SciHadoop-style array query (SciHadoop's original paper
evaluates exactly such subsetting).  One value per selected cell flows
through the shuffle, so the key/value overhead ratio is at its worst --
this is the workload behind the paper's introduction arithmetic (450% /
625% overhead for per-cell keys) and behind Fig 8's ideal-case
aggregation numbers.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat

import numpy as np

from repro.core.aggregation import (
    AggregationConfig,
    AggregateShufflePlugin,
    Aggregator,
    range_group_reducer,
)
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.job import Job
from repro.mapreduce.keys import CellKeySerde
from repro.mapreduce.output import PackedKeys
from repro.queries.base import GridQuery
from repro.queries.sliding_median import value_serde_for
from repro.scidata.dataset import Dataset
from repro.scidata.slab import Slab

__all__ = ["BoxSubsetQuery"]


def _range_selection(split, box: Slab, start: int, stop: int):
    """In-box cells among the split's flat records ``[start, stop)``.

    Returns ``(flat_indices, coords)`` of the selected cells -- the
    record-range counterpart of ``split.slab.intersect(box).coords()``.
    Flat indices are row-major over the split's slab, so walking ranges
    in order visits the box cells in exactly the order one whole-split
    ``map`` call emits them (lexicographic coordinate order).
    """
    flat = np.arange(start, stop, dtype=np.int64)
    coords = np.stack(np.unravel_index(flat, split.slab.shape), axis=1)
    coords = coords + np.asarray(split.slab.corner, dtype=np.int64)
    lo = np.asarray(box.corner, dtype=np.int64)
    hi = lo + np.asarray(box.shape, dtype=np.int64)
    mask = np.all((coords >= lo) & (coords < hi), axis=1)
    return flat[mask], coords[mask]


class PlainSubsetMapper(Mapper):
    """Emit the cells of the split that fall inside the query box."""

    def __init__(self, var_ref: str | int, box: Slab) -> None:
        self.var_ref = var_ref
        self.box = box

    def map(self, split, values, ctx):
        selected = split.slab.intersect(self.box)
        if selected is None:
            return
        local = Slab(
            tuple(c - o for c, o in zip(selected.corner, split.slab.corner)),
            selected.shape,
        )
        idx = tuple(slice(c, c + s) for c, s in zip(local.corner, local.shape))
        ctx.emit_cells(self.var_ref, selected.coords(), values[idx].ravel())

    def map_range(self, split, values, ctx, start, stop):
        """Record-range form of :meth:`map` (skipping-mode support)."""
        flat, coords = _range_selection(split, self.box, start, stop)
        if flat.size == 0:
            return
        ctx.emit_cells(self.var_ref, coords, values.reshape(-1)[flat])


class IdentityReducer(Reducer):
    """Pass every value through (selection queries do not aggregate)."""

    def reduce(self, key, values, ctx):
        for v in values:
            ctx.emit(key, v)

    def reduce_batch(self, keys, values, bounds, ctx):
        """Every value straight through, its group's key beside it --
        packed keys as the leader rows repeated by group size, i.e. the
        merged run's own key rows."""
        sizes = np.diff(bounds)
        if isinstance(keys, PackedKeys):
            keys = keys.repeat(sizes)
        else:
            keys = list(chain.from_iterable(map(repeat, keys, sizes.tolist())))
        ctx.emit_batch(keys, values)


class AggregateSubsetMapper(Mapper):
    """Selection through the aggregation library (range-key output)."""

    def __init__(self, var_ref: str | int, box: Slab, origin: tuple[int, ...],
                 config: AggregationConfig) -> None:
        self.var_ref = var_ref
        self.box = box
        self.origin = np.asarray(origin, dtype=np.int64)
        self.config = config
        self._agg: Aggregator | None = None

    def map(self, split, values, ctx):
        self._agg = Aggregator(self.config, self.var_ref, ctx)
        selected = split.slab.intersect(self.box)
        if selected is None:
            return
        local = Slab(
            tuple(c - o for c, o in zip(selected.corner, split.slab.corner)),
            selected.shape,
        )
        idx = tuple(slice(c, c + s) for c, s in zip(local.corner, local.shape))
        self._agg.add(selected.coords() - self.origin, values[idx].ravel())

    def map_range(self, split, values, ctx, start, stop):
        """Record-range form of :meth:`map` (skipping-mode support).

        The aggregator is created lazily on the first range and closed
        by :meth:`cleanup` as usual; partial ranges accumulate into the
        same buffer one whole-split :meth:`map` call fills.
        """
        if self._agg is None:
            self._agg = Aggregator(self.config, self.var_ref, ctx)
        flat, coords = _range_selection(split, self.box, start, stop)
        if flat.size == 0:
            return
        self._agg.add(coords - self.origin, values.reshape(-1)[flat])

    def cleanup(self, ctx):
        if self._agg is not None:
            self._agg.close()


class BoxSubsetQuery(GridQuery):
    """Builder for plain/aggregate subset-selection jobs."""

    def __init__(self, dataset: Dataset, variable: str, box: Slab) -> None:
        super().__init__(dataset, variable)
        if not self.extent.contains(box):
            raise ValueError(f"query box {box} outside variable extent {self.extent}")
        self.box = box

    def expected_output_cells(self) -> int:
        return self.box.size

    def build_job(self, mode: str = "plain", variable_mode: str = "name",
                  agg_overrides: dict | None = None, reaggregate: bool = False,
                  **job_overrides) -> Job:
        dtype = self.dataset[self.variable].data.dtype
        var_ref: str | int
        if variable_mode == "name":
            var_ref = self.variable
        else:
            var_ref = self.dataset.names.index(self.variable)
        defaults = dict(name=f"subset-{mode}", num_reducers=1, num_map_tasks=1,
                        input_variables=(self.variable,))
        defaults.update(job_overrides)

        if mode == "plain":
            box = self.box
            return Job(
                mapper=partial(PlainSubsetMapper, var_ref, box),
                reducer=IdentityReducer,
                key_serde=CellKeySerde(self.extent.ndim, variable_mode),
                value_serde=value_serde_for(dtype),
                **defaults,
            )
        if mode == "aggregate":
            config = self.aggregation_config(
                variable_mode=variable_mode, **(agg_overrides or {}))
            box, origin = self.box, self.extent.corner
            return Job(
                mapper=partial(AggregateSubsetMapper, var_ref, box, origin,
                               config),
                reducer=partial(range_group_reducer, IdentityReducer, config,
                                origin),
                key_serde=config.key_serde(),
                value_serde=config.block_serde(),
                shuffle_plugin=AggregateShufflePlugin(config, reaggregate=reaggregate),
                **defaults,
            )
        raise ValueError(f"mode must be 'plain' or 'aggregate', got {mode!r}")
