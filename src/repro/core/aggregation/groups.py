"""The reduce side of key aggregation: range groups back into cells.

After overlap splitting, a range group of depth *d* over ``[start,
start + count)`` is ``count`` cell groups of up to *d* values -- what a
query's plain reducer already takes, behind a :class:`RangeGroupReducer`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.aggregation.aggregator import AggregationConfig
from repro.core.aggregation.blocks import ValueBlock
from repro.mapreduce.api import ReduceContext, Reducer
from repro.mapreduce.keys import CellKey, CellKeySerde, RangeKey
from repro.mapreduce.output import PackedKeys
from repro.sfc.base import Curve

__all__ = ["Pieces", "expand_cells", "RangeGroupReducer",
           "range_group_reducer"]


class Pieces(NamedTuple):
    """Merged ``(RangeKey, ValueBlock)`` pieces as columns, in run order:
    piece ``i`` covers ``[starts[i], starts[i] + counts[i])`` of
    ``variables[which[i]]``; ``values`` and ``valid`` (``None``: all
    dense) are the blocks' valid values and masks, concatenated."""

    variables: list
    which: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    values: np.ndarray
    valid: np.ndarray | None = None

    @classmethod
    def of_dense(cls, pairs: Sequence[tuple[RangeKey, ValueBlock]]) -> Pieces:
        """Dense ``(RangeKey, ValueBlock)`` pairs, in order, as columns."""
        index: dict = {}
        which = [index.setdefault(key.variable, len(index)) for key, _ in pairs]
        return cls(list(index), np.array(which, dtype=np.int64),
                   np.array([key.start for key, _ in pairs], dtype=np.int64),
                   np.array([key.count for key, _ in pairs], dtype=np.int64),
                   np.concatenate([block.values for _, block in pairs]))

    @property
    def rows(self) -> int:
        """How many pieces (split records) the run holds."""
        return self.which.shape[0]

    def heads(self) -> np.ndarray:
        """True where a range group begins (equal keys are adjacent)."""
        w, s, c = self.which, self.starts, self.counts
        new = (w[1:] != w[:-1]) | (s[1:] != s[:-1]) | (c[1:] != c[:-1])
        return np.concatenate(([True], new))[:w.shape[0]]

    @property
    def groups(self) -> int:
        return int(self.heads().sum())


def expand_cells(
    pieces: Pieces, curve: Curve, origin: np.ndarray, serde: CellKeySerde
) -> tuple[PackedKeys | list[CellKey], np.ndarray, np.ndarray]:
    """Range groups to the ``(keys, values, bounds)`` of ``reduce_batch``.

    ``keys``: every cell holding a value, range groups in run order and
    curve order within each, from one ``curve.decode`` shifted by
    ``origin``, packed under ``serde`` (a list of ``CellKey``s where the
    variables' keys differ in width and make no one matrix).
    ``values``: each cell's in piece order, widened to int64 / float64 as
    a plain value serde's ``read_column_array`` does.
    """
    heads = pieces.heads()
    gstarts, gcounts = pieces.starts[heads], pieces.counts[heads]
    # group g's cells get the ids first[g] .. first[g] + gcounts[g] - 1;
    # value slot s of piece p is the cell first[group of p] + s - (p's
    # first slot)
    first = np.cumsum(gcounts) - gcounts
    counts = pieces.counts
    piece = np.repeat(np.arange(counts.shape[0]), counts)
    base = first[np.cumsum(heads) - 1] - (np.cumsum(counts) - counts)
    cell_id = base[piece] + np.arange(piece.shape[0])
    if pieces.valid is not None:
        cell_id = cell_id[pieces.valid]
    order = np.argsort(cell_id, kind="stable")
    cell_id = cell_id[order]
    wide = np.float64 if pieces.values.dtype.kind == "f" else np.int64
    values = pieces.values.astype(wide)[order]
    if not cell_id.shape[0]:
        return [], values, np.zeros(1, dtype=np.int64)
    change = cell_id[1:] != cell_id[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], change, [True])))
    cells = cell_id[bounds[:-1]]
    g = np.searchsorted(first, cells, side="right") - 1
    coords = curve.decode(gstarts[g] + cells - first[g]) + origin
    return (_pack_cells(serde, pieces.variables, pieces.which[heads][g],
                        coords), values, bounds)


def _pack_cells(serde: CellKeySerde, variables: list, which: np.ndarray,
                coords: np.ndarray) -> PackedKeys | list[CellKey]:
    """Cell ``i``'s key ``CellKey(variables[which[i]], coords[i])`` as
    one row matrix, variable by variable."""
    used = np.unique(which).tolist()
    blocks = [serde.pack_batch_keys(variables[w], coords[which == w])[0]
              for w in used]
    if len({block.shape[1] for block in blocks}) > 1:
        return [CellKey(variables[w], tuple(row))
                for w, row in zip(which.tolist(), coords.tolist())]
    if len(blocks) == 1:
        return PackedKeys(blocks[0], serde)
    rows = np.empty((which.shape[0], blocks[0].shape[1]), dtype=np.uint8)
    rows[np.argsort(which, kind="stable")] = np.concatenate(blocks)
    return PackedKeys(rows, serde)


def range_group_reducer(inner: Callable[[], Reducer],
                        config: AggregationConfig,
                        origin: Sequence[int]) -> "RangeGroupReducer":
    """A fresh :class:`RangeGroupReducer` around a fresh ``inner()``.

    Bound with :func:`functools.partial`, it is a job's reducer factory
    that pickles -- a worker started by ``spawn`` receives the job by
    pickle, where a ``lambda`` factory cannot go.
    """
    return RangeGroupReducer(inner(), config, origin)


class RangeGroupReducer(Reducer):
    """A query's plain reducer, reducing range groups: one per
    :meth:`reduce` (the per-group loop's call, so skipping, poison and
    replay keep range-group granularity) or a whole merged run per
    :meth:`reduce_pieces`.  The cells go to ``inner.reduce_batch``, or,
    without one or on a decline, to ``inner.reduce`` cell by cell."""

    def __init__(self, inner: Reducer, config: AggregationConfig,
                 origin: Sequence[int]) -> None:
        self.inner = inner
        self.curve = config.make_curve()
        self.cell_serde = config.cell_key_serde()
        self.origin = np.asarray(origin, dtype=np.int64)

    def reduce(self, key: RangeKey, blocks: Sequence[ValueBlock],
               ctx: ReduceContext) -> None:
        n = len(blocks)
        dense = all(b.is_dense() for b in blocks)
        self.reduce_pieces(Pieces(
            [key.variable], np.zeros(n, np.int64), np.full(n, key.start),
            np.full(n, key.count), np.concatenate([b.values for b in blocks]),
            None if dense else np.concatenate([b.dense_mask() for b in blocks])
        ), ctx)

    def reduce_pieces(self, pieces: Pieces, ctx: ReduceContext) -> None:
        keys, values, bounds = expand_cells(pieces, self.curve, self.origin,
                                            self.cell_serde)
        batch = getattr(self.inner, "reduce_batch", None)
        if not keys or (batch is not None and batch(
                keys, values, bounds, ctx) is not NotImplemented):
            return
        values, bounds = values.tolist(), bounds.tolist()
        for key, lo, hi in zip(keys, bounds, bounds[1:]):
            self.inner.reduce(key, values[lo:hi], ctx)
