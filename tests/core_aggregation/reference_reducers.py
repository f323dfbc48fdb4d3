"""The per-query aggregate reducers as first written -- test-only oracle.

An aggregate job now reduces through its query's plain reducer wrapped
in :class:`~repro.core.aggregation.groups.RangeGroupReducer`, which
expands range groups into cells once, in
:func:`~repro.core.aggregation.groups.expand_cells`.  Before that every
query carried a second, hand-written reducer that turned each range
group back into cells itself; those four classes and their group
helpers are kept here so the tests can require the wrapper to produce
their output and counters.  On integer grids the two agree exactly; on
float grids these compute in the block dtype with numpy folds, where
the plain reducers widen to float64 and fold with the builtins.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.aggregation import AggregationConfig, ValueBlock
from repro.mapreduce.api import Reducer
from repro.mapreduce.keys import CellKey, RangeKey
from repro.sfc.base import Curve


def _check_group(key: RangeKey, blocks: Sequence[ValueBlock]) -> None:
    if not blocks:
        raise ValueError("empty block group")
    for b in blocks:
        if b.count != key.count:
            raise ValueError(
                f"block covers {b.count} cells but group key spans {key.count}"
            )


def stack_equal_blocks(
    key: RangeKey, blocks: Sequence[ValueBlock]
) -> np.ndarray | None:
    """Stack dense blocks into a ``(k, count)`` matrix, or ``None``.

    Returns ``None`` when any block is masked -- callers fall back to
    :func:`cells_of_group`.
    """
    _check_group(key, blocks)
    if any(not b.is_dense() for b in blocks):
        return None
    return np.stack([b.values for b in blocks], axis=0)


def cells_of_group(
    key: RangeKey, blocks: Sequence[ValueBlock]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(cell_offset, values)`` for each covered cell with data.

    ``cell_offset`` is relative to ``key.start``; ``values`` collects the
    valid entries for that cell across all blocks (possibly fewer than
    ``len(blocks)`` when masks exclude it).  Cells with no valid values
    are skipped.
    """
    _check_group(key, blocks)
    matrix = stack_equal_blocks(key, blocks)
    if matrix is not None:
        for off in range(key.count):
            yield off, matrix[:, off]
        return
    per_cell: list[list] = [[] for _ in range(key.count)]
    for block in blocks:
        mask = block.dense_mask()
        positions = np.flatnonzero(mask)
        for pos, value in zip(positions, block.values):
            per_cell[int(pos)].append(value)
    for off, vals in enumerate(per_cell):
        if vals:
            yield off, np.asarray(vals)


def range_cell_keys(curve: Curve, origin: np.ndarray,
                    key: RangeKey) -> list[CellKey]:
    """Entry ``j`` is the grid cell at curve index ``key.start + j``,
    shifted back by the query's ``origin``."""
    coords = curve.decode(np.arange(key.start, key.end)) + origin
    return [CellKey(key.variable, tuple(row)) for row in coords.tolist()]


class _RangeReducer(Reducer):
    def __init__(self, config: AggregationConfig,
                 origin: tuple[int, ...]) -> None:
        self.config = config
        self.curve = config.make_curve()
        self.origin = np.asarray(origin, dtype=np.int64)


class AggregateMedianReducer(_RangeReducer):
    """Per-cell median over the stacked blocks of one range group."""

    def reduce(self, key, blocks, ctx):
        cells = range_cell_keys(self.curve, self.origin, key)
        matrix = stack_equal_blocks(key, blocks)
        if matrix is not None:
            for cell, median in zip(cells,
                                    np.median(matrix, axis=0).tolist()):
                ctx.emit(cell, median)
            return
        for off, cell_values in cells_of_group(key, blocks):
            ctx.emit(cells[off], float(np.median(cell_values)))


class AggregateMeanReducer(_RangeReducer):
    """Mean per cell over the blocks of one range group."""

    def reduce(self, key, blocks, ctx):
        cells = range_cell_keys(self.curve, self.origin, key)
        for off, cell_values in cells_of_group(key, blocks):
            ctx.emit(cells[off], float(np.mean(cell_values)))


class AggregateFoldReducer(_RangeReducer):
    """Per-cell fold over the blocks of one range group."""

    def __init__(self, npfold, config: AggregationConfig,
                 origin: tuple[int, ...]) -> None:
        super().__init__(config, origin)
        self.npfold = npfold

    def reduce(self, key, blocks, ctx):
        cells = range_cell_keys(self.curve, self.origin, key)
        for off, cell_values in cells_of_group(key, blocks):
            value = self.npfold(cell_values)
            ctx.emit(cells[off],
                     value.item() if hasattr(value, "item") else value)


class AggregateSubsetReducer(_RangeReducer):
    """Expand range groups back into per-cell selection output."""

    def reduce(self, key, blocks, ctx):
        cells = range_cell_keys(self.curve, self.origin, key)
        for off, cell_values in cells_of_group(key, blocks):
            for v in cell_values.tolist():
                ctx.emit(cells[off], v)
