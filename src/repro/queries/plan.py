"""Composable logical query plans executed as MapReduce job chains.

SciHadoop's contribution was "array-based query processing in Hadoop";
this module provides the query-processing surface on top of the
reproduction's job builders.  A plan is a small tree of logical nodes:

* :class:`Source` -- a dataset variable;
* :class:`Subset` -- restrict to a box;
* :class:`Window` -- sliding-window aggregate (``median``, ``mean``,
  ``min``, ``max``, ``sum``); holistic vs algebraic is decided here
  (algebraic ops get combiners in plain mode);
* :class:`Binary` -- cell-wise combination of two plans.

``execute`` runs the tree bottom-up, materializing each stage's output
as a new in-memory variable and feeding it to the next job -- a
multi-job pipeline exactly like chained MapReduce queries, so the
intermediate-key techniques under test apply at *every* stage (pass
``mode="aggregate"`` and the whole pipeline shuffles range keys).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mapreduce.keys import CellKeySerde
from repro.mapreduce.runtime import LocalJobRunner
from repro.queries.derived import BINARY_OPS, DerivedVariableQuery
from repro.queries.sliding_algebraic import WINDOW_OPS, SlidingAggregateQuery
from repro.queries.sliding_mean import SlidingMeanQuery
from repro.queries.sliding_median import SlidingMedianQuery
from repro.queries.subset import BoxSubsetQuery
from repro.scidata.dataset import Dataset, Variable
from repro.scidata.slab import Slab

__all__ = ["Source", "Subset", "Window", "Binary", "execute"]


@dataclass(frozen=True)
class Source:
    """A variable of the input dataset."""

    variable: str


@dataclass(frozen=True)
class Subset:
    """Restrict the child's cells to an axis-aligned box."""

    child: "PlanNode"
    box: Slab


@dataclass(frozen=True)
class Window:
    """Sliding-window aggregate over the child."""

    child: "PlanNode"
    op: str = "median"
    width: int = 3

    def __post_init__(self) -> None:
        known = {"median", "mean"} | set(WINDOW_OPS)
        if self.op not in known:
            raise ValueError(f"window op must be one of {sorted(known)}, "
                             f"got {self.op!r}")


@dataclass(frozen=True)
class Binary:
    """Cell-wise ``op(left, right)`` (both children must share extents)."""

    left: "PlanNode"
    right: "PlanNode"
    op: str = "add"

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"binary op must be one of "
                             f"{sorted(BINARY_OPS)}, got {self.op!r}")


PlanNode = Source | Subset | Window | Binary


def _cells(output) -> tuple[np.ndarray, np.ndarray]:
    """A job's ``(CellKey, value)`` output as ``(coords, values)`` arrays:
    read straight off the key rows and value arrays when every chunk of
    the output is packed cell keys, so no ``CellKey`` is built."""
    chunks = getattr(output, "chunks", ())
    if chunks and all(type(chunk) is tuple
                      and isinstance(chunk[0].serde, CellKeySerde)
                      for chunk in chunks):
        return (np.concatenate([keys.serde.unpack_rows(keys.rows)[2]
                                for keys, _ in chunks]),
                np.concatenate([values for _, values in chunks]))
    return (np.array([k.coords for k, _ in output], dtype=np.int64),
            np.array([v for _, v in output]))


def _materialize(output, name: str, dtype) -> Variable:
    """Turn a job's (CellKey, value) output into an in-memory variable."""
    if not output:
        raise ValueError(f"stage {name!r} produced no cells")
    coords, values = _cells(output)
    corner = coords.min(axis=0)
    shape = coords.max(axis=0) - corner + 1
    grid = np.zeros(tuple(int(s) for s in shape), dtype=dtype)
    idx = tuple((coords - corner).T)
    grid[idx] = values.astype(dtype)
    if len(output) != grid.size:
        raise ValueError(
            f"stage {name!r} output is not a dense box "
            f"({len(output)} cells for shape {tuple(shape)})"
        )
    return Variable(name, grid, origin=tuple(int(c) for c in corner))


def execute(
    plan: PlanNode,
    dataset: Dataset,
    mode: str = "plain",
    runner: LocalJobRunner | None = None,
    **job_overrides,
) -> Variable:
    """Run the plan; returns the materialized result variable.

    Every non-source node executes as one MapReduce job through
    ``runner`` with the requested intermediate-key ``mode``.
    """
    runner = runner or LocalJobRunner()
    counter = [0]

    def stage_name(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}_{counter[0]}"

    def recurse(node: PlanNode) -> tuple[Dataset, str]:
        if isinstance(node, Source):
            if node.variable not in dataset:
                raise KeyError(f"dataset has no variable {node.variable!r}")
            return dataset, node.variable
        if isinstance(node, Subset):
            ds, var = recurse(node.child)
            query = BoxSubsetQuery(ds, var, node.box)
            result = runner.run(query.build_job(mode, **job_overrides), ds)
            out = _materialize(result.output, stage_name("subset"),
                               ds[var].data.dtype)
            new = Dataset()
            new.add(out)
            return new, out.name
        if isinstance(node, Window):
            ds, var = recurse(node.child)
            if node.op == "median":
                query = SlidingMedianQuery(ds, var, window=node.width)
                out_dtype = np.float64
            elif node.op == "mean":
                query = SlidingMeanQuery(ds, var, window=node.width)
                out_dtype = np.float64
            else:
                query = SlidingAggregateQuery(ds, var, op=node.op,
                                              window=node.width)
                out_dtype = ds[var].data.dtype
            result = runner.run(query.build_job(mode, **job_overrides), ds)
            out = _materialize(result.output, stage_name(f"window_{node.op}"),
                               out_dtype)
            new = Dataset()
            new.add(out)
            return new, out.name
        if isinstance(node, Binary):
            lds, lvar = recurse(node.left)
            rds, rvar = recurse(node.right)
            merged = Dataset()
            lv, rv = lds[lvar], rds[rvar]
            if lvar == rvar:
                # same name from two branches: rename to disambiguate
                rv = Variable(rvar + "_rhs", rv.data, rv.origin, rv.attrs)
            merged.add(lv)
            merged.add(rv)
            query = DerivedVariableQuery(
                merged, lv.name, rv.name, op=node.op,
                out_name=stage_name(f"binary_{node.op}"))
            result = runner.run(query.build_job(mode, **job_overrides), merged)
            out = _materialize(result.output, query.out_name, query.out_dtype)
            new = Dataset()
            new.add(out)
            return new, out.name
        raise TypeError(f"unknown plan node {type(node).__name__}")

    final_ds, final_var = recurse(plan)
    return final_ds[final_var]
