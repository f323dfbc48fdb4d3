"""Derived-variable query: ``out = f(a, b)`` cell-wise over two variables.

§III raises multi-variable output as a complication for stride
detection: "If multiple variables are output, this would require
determining where one ends and another begins in the byte stream,
because they may have different stride lengths."  This query produces
exactly such a stream -- each mapper emits per-cell records for a
*derived* variable computed from two input variables over the same
slab -- and is also a realistic SciHadoop workload in its own right
(e.g. wind speed magnitude from u/v components).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.core.aggregation import (
    AggregationConfig,
    AggregateShufflePlugin,
    Aggregator,
    range_group_reducer,
)
from repro.mapreduce.api import Mapper
from repro.mapreduce.job import Job
from repro.mapreduce.keys import CellKeySerde
from repro.queries.base import GridQuery
from repro.queries.sliding_median import value_serde_for
from repro.queries.subset import IdentityReducer
from repro.scidata.dataset import Dataset

__all__ = ["DerivedVariableQuery", "BINARY_OPS"]

#: name -> vectorized binary operator
BINARY_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
    "hypot": np.hypot,
}


class PlainDerivedMapper(Mapper):
    """Read the split's slab from BOTH variables and emit f(a, b)."""

    wants_dataset = True

    def __init__(self, primary: str, out_name: str, other: str, op, dtype) -> None:
        self.primary = primary
        self.out_name = out_name
        self.other = other
        self.op = op
        self.dtype = np.dtype(dtype)

    def map(self, split, values, ctx):
        if split.variable != self.primary:
            return  # the splitter also splits variable b; skip its slabs
        b = self.dataset[self.other].read(split.slab)
        derived = self.op(values, b).astype(self.dtype)
        ctx.emit_cells(self.out_name, split.slab.coords(), derived.ravel())


class AggregateDerivedMapper(Mapper):
    """Same computation, emitted through the aggregation library."""

    wants_dataset = True

    def __init__(self, primary: str, out_name: str, other: str, op, dtype,
                 origin, config: AggregationConfig) -> None:
        self.primary = primary
        self.out_name = out_name
        self.other = other
        self.op = op
        self.dtype = np.dtype(dtype)
        self.origin = np.asarray(origin, dtype=np.int64)
        self.config = config
        self._agg: Aggregator | None = None

    def map(self, split, values, ctx):
        if split.variable != self.primary:
            return  # the splitter also splits variable b; skip its slabs
        self._agg = Aggregator(self.config, self.out_name, ctx)
        b = self.dataset[self.other].read(split.slab)
        derived = self.op(values, b).astype(self.dtype)
        self._agg.add(split.slab.coords() - self.origin, derived.ravel())

    def cleanup(self, ctx):
        if self._agg is not None:
            self._agg.close()


class DerivedVariableQuery(GridQuery):
    """Compute ``out = op(a, b)`` per cell; emit it as a new variable.

    Both input variables must share an extent (validated up front, as
    SciHadoop validates query shapes).
    """

    def __init__(self, dataset: Dataset, a: str, b: str, op: str = "add",
                 out_name: str = "derived") -> None:
        super().__init__(dataset, a)
        if b not in dataset:
            raise KeyError(f"dataset has no variable {b!r}")
        if op not in BINARY_OPS:
            raise ValueError(f"op must be one of {sorted(BINARY_OPS)}, got {op!r}")
        if dataset[a].extent != dataset[b].extent:
            raise ValueError(
                f"variable extents differ: {dataset[a].extent} vs "
                f"{dataset[b].extent}"
            )
        self.a = a
        self.b = b
        self.op_name = op
        self.op = BINARY_OPS[op]
        self.out_name = out_name
        # result dtype from a zero-size probe (numpy promotion rules)
        probe = self.op(
            np.zeros(0, dtype=dataset[a].data.dtype),
            np.zeros(0, dtype=dataset[b].data.dtype),
        )
        self.out_dtype = probe.dtype

    def expected_output_cells(self) -> int:
        return self.extent.size

    def build_job(self, mode: str = "plain", agg_overrides: dict | None = None,
                  **job_overrides) -> Job:
        defaults = dict(name=f"derived-{self.op_name}-{mode}",
                        num_reducers=1, num_map_tasks=1,
                        input_variables=(self.a,))
        defaults.update(job_overrides)
        primary, out_name, other, op, dtype = (
            self.a, self.out_name, self.b, self.op, self.out_dtype)

        if mode == "plain":
            return Job(
                mapper=partial(PlainDerivedMapper, primary, out_name, other,
                               op, dtype),
                reducer=IdentityReducer,
                key_serde=CellKeySerde(self.extent.ndim, "name"),
                value_serde=value_serde_for(dtype),
                **defaults,
            )
        if mode == "aggregate":
            config = self.aggregation_config(
                dtype=str(dtype), **(agg_overrides or {}))
            origin = self.extent.corner
            return Job(
                mapper=partial(AggregateDerivedMapper, primary, out_name,
                               other, op, dtype, origin, config),
                reducer=partial(range_group_reducer, IdentityReducer, config,
                                origin),
                key_serde=config.key_serde(),
                value_serde=config.block_serde(),
                shuffle_plugin=AggregateShufflePlugin(config),
                **defaults,
            )
        raise ValueError(f"mode must be 'plain' or 'aggregate', got {mode!r}")
