"""The aggregation library the user's map code feeds (§IV-A).

"Instead of passing intermediate key/value pairs directly to Hadoop, the
user's code passes the key/value pairs to our library.  The library
aggregates key/value pairs and periodically passes the aggregated
key/value pairs to Hadoop."

The :class:`Aggregator` buffers (coordinate, value) pairs, maps the
coordinates to curve indices (vectorized), and on flush coalesces them
into (RangeKey, ValueBlock) records emitted through the map context.
Flushing is bounded: "Aggregation is performed on subsets of the
intermediate data due to memory limitations.  Whenever the size of the
aggregation buffer reaches a set threshold, the results are written out
and the buffer is cleared" -- keys generated after a flush cannot
aggregate with keys generated before it (ablation A2 measures the cost).

§IV-C alignment is supported: with ``alignment > 1`` every emitted range
is expanded outward to alignment boundaries using masked blocks, raising
the chance that overlapping keys from different mappers are *equal* and
need no reducer-side splitting (ablation A3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation.blocks import BlockSerde, ValueBlock
from repro.core.aggregation.ranges import layered_run_arrays, layered_runs
from repro.mapreduce.api import MapContext
from repro.mapreduce.keys import CellKeySerde, RangeKeySerde
from repro.sfc.base import Curve, get_curve

__all__ = ["AggregationConfig", "Aggregator"]


@dataclass(frozen=True)
class AggregationConfig:
    """Everything the aggregation data path needs to agree on."""

    curve: str = "zorder"
    ndim: int = 2
    bits: int = 10
    dtype: str = "int32"
    #: flush threshold in buffered cells (§IV-A memory bound)
    buffer_cells: int = 1 << 20
    #: §IV-C: expand ranges to multiples of this (1 = no padding)
    alignment: int = 1
    variable_mode: str = "name"

    def __post_init__(self) -> None:
        if self.buffer_cells < 1:
            raise ValueError(f"buffer_cells must be >= 1, got {self.buffer_cells}")
        if self.alignment < 1:
            raise ValueError(f"alignment must be >= 1, got {self.alignment}")

    def make_curve(self) -> Curve:
        return get_curve(self.curve, self.ndim, self.bits)

    def key_serde(self) -> RangeKeySerde:
        return RangeKeySerde(self.variable_mode)

    def block_serde(self) -> BlockSerde:
        return BlockSerde(self.dtype)

    def cell_key_serde(self) -> CellKeySerde:
        """The per-cell keys the reduce side expands range groups into."""
        return CellKeySerde(self.ndim, self.variable_mode)


class Aggregator:
    """Per-map-task aggregation buffer for one variable.

    Coordinates must be non-negative and fit the configured curve; a
    sliding-window query therefore clips its halo to the grid (or offsets
    coordinates) before adding.
    """

    def __init__(self, config: AggregationConfig, variable: str | int,
                 ctx: MapContext) -> None:
        self.config = config
        self.variable = variable
        self.ctx = ctx
        self.curve = config.make_curve()
        self._key_serde = config.key_serde()
        self._block_serde = config.block_serde()
        self._index_chunks: list[np.ndarray] = []
        self._value_chunks: list[np.ndarray] = []
        self._buffered = 0
        #: total aggregate records emitted (for tests/ablations)
        self.emitted_ranges = 0
        #: total cells emitted
        self.emitted_cells = 0
        self.flushes = 0

    def add(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Buffer many (coordinate, value) pairs (vectorized)."""
        coords = np.asarray(coords)
        values = np.asarray(values).ravel()
        if coords.ndim != 2 or coords.shape[1] != self.curve.ndim:
            raise ValueError(
                f"expected (n, {self.curve.ndim}) coords, got {coords.shape}"
            )
        if coords.shape[0] != values.shape[0]:
            raise ValueError(
                f"{coords.shape[0]} coords vs {values.shape[0]} values"
            )
        if coords.shape[0] == 0:
            return
        self._index_chunks.append(self.curve.encode(coords))
        self._value_chunks.append(values)
        self._buffered += values.shape[0]
        if self._buffered >= self.config.buffer_cells:
            self.flush()

    def add_indices(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Buffer pairs already mapped to curve indices."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values).ravel()
        if indices.shape[0] != values.shape[0]:
            raise ValueError(
                f"{indices.shape[0]} indices vs {values.shape[0]} values"
            )
        if indices.shape[0] == 0:
            return
        if indices.size and (indices.min() < 0 or indices.max() >= self.curve.size):
            raise ValueError(f"indices outside [0, {self.curve.size})")
        self._index_chunks.append(indices)
        self._value_chunks.append(values)
        self._buffered += values.shape[0]
        if self._buffered >= self.config.buffer_cells:
            self.flush()

    def flush(self) -> None:
        """Coalesce and emit everything buffered."""
        if self._buffered == 0:
            return
        indices = np.concatenate(self._index_chunks)
        values = np.concatenate(self._value_chunks)
        self._index_chunks.clear()
        self._value_chunks.clear()
        self._buffered = 0
        self.flushes += 1

        align = self.config.alignment
        if align == 1:
            # The whole flush as columns: a key matrix and a ragged
            # column of dense blocks, and one hand-off to the engine
            # instead of a call per run (a flush coalesces into thousands
            # of short runs when the buffer is fragmented).
            starts, counts, packed = layered_run_arrays(indices, values)
            keys, _ = self._key_serde.pack_batch_keys(
                self.variable, starts, counts)
            self.ctx.emit_serialized_batch(
                keys, self._block_serde.dense_column(counts, packed))
            self.emitted_ranges += starts.shape[0]
            self.emitted_cells += packed.shape[0]
            return
        # §IV-C padding: masked blocks, one at a time
        runs: list[tuple[int, int, ValueBlock]] = []
        for start, count, run_values in layered_runs(indices, values):
            astart = (start // align) * align
            aend = -(-(start + count) // align) * align
            aend = min(aend, self.curve.size)  # stay on the curve
            block = ValueBlock(count, run_values).expand(
                start - astart, aend - (start + count))
            runs.append((astart, aend - astart, block))
        key_blobs = self._key_serde.write_batch(
            self.variable,
            np.fromiter((r[0] for r in runs), np.int64, len(runs)),
            np.fromiter((r[1] for r in runs), np.int64, len(runs)),
        )
        for kb, (_, _, block) in zip(key_blobs, runs):
            vb = bytearray()
            self._block_serde.write(block, vb)
            self.ctx.emit_serialized(kb, bytes(vb))
            self.emitted_ranges += 1
            self.emitted_cells += block.valid_cells

    def close(self) -> None:
        """Flush any remaining buffered pairs (call from mapper cleanup)."""
        self.flush()
