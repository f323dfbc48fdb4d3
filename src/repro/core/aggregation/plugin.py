"""The shuffle plugin wiring aggregation into the engine (§IV-B).

This object is the reproduction of the paper's "one set of changes
inside Hadoop ... which allows aggregate keys to be split during the
routing and sorting phases":

* :meth:`route` -- called per emitted record on the map side; splits the
  aggregate range at the total-order partition boundaries and assigns
  each piece to its reducer;
* :meth:`prepare_reduce` -- called on the reducer's merged record list
  before grouping; splits overlapping ranges on overlap boundaries
  (Fig 7) and re-sorts, so byte-equal keys group all data for the same
  simple keys.

Those two are the record contract.  A clean job takes their column
forms instead, and never builds a per-record ``bytes``:
:meth:`route_batch` routes a whole aggregator flush (a key matrix and a
ragged column of value blocks), and :meth:`run_pieces` splits a whole
merged run straight into the :class:`~repro.core.aggregation.groups.
Pieces` the reducer takes.  Every form cuts as array arithmetic when the
batch is *plain*: every key the same width, every block dense and
well-formed, no alignment padding, no re-aggregation.  Anything else --
one masked block, one malformed record -- sends the whole batch through
the object code (:mod:`~repro.core.aggregation.splitter`), which stays
the definition: it produces the same records, and raises what it always
raised.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.aggregation.aggregator import AggregationConfig
from repro.core.aggregation.blocks import ValueBlock
from repro.core.aggregation.groups import Pieces
from repro.core.aggregation.reaggregate import merge_adjacent_groups
from repro.core.aggregation.splitter import (
    boundary_pieces,
    overlap_pieces,
    split_at_boundaries,
    split_overlaps,
)
from repro.mapreduce.columnar import (
    Ragged,
    column_records,
    range_index,
    records_column,
    split_rows,
)
from repro.mapreduce.keys import RangeKey
from repro.mapreduce.partition import CurveRangePartitioner
from repro.mapreduce.sort import Run, run_records

__all__ = ["AggregateShufflePlugin"]

Record = tuple[bytes, bytes]
Routed = tuple[int, bytes, bytes]
Pair = tuple[RangeKey, ValueBlock]


class _PlainBatch(NamedTuple):
    """A batch of well-formed dense (range key, block) records as columns."""

    #: distinct variables, and each record's index into them
    variables: list
    which: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    #: every record's values, back to back, as the block dtype
    values: np.ndarray

    def piece_values(self, owner: np.ndarray, starts: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
        """The values of pieces cut out of the batch, back to back: piece
        ``j`` is ``[starts[j], starts[j] + counts[j])`` of record
        ``owner[j]``."""
        first = np.cumsum(self.counts) - self.counts
        return self.values[range_index(
            first[owner] + starts - self.starts[owner], counts)]


class AggregateShufflePlugin:
    """Route and re-sort aggregate (RangeKey, ValueBlock) records.

    ``reaggregate=True`` enables the paper's §IV-B future-work proposal:
    after overlap splitting, adjacent same-depth groups are fused to
    offset the key-count increase (see
    :mod:`repro.core.aggregation.reaggregate`; ablation A6).
    """

    def __init__(self, config: AggregationConfig,
                 reaggregate: bool = False) -> None:
        self.config = config
        self.reaggregate = reaggregate
        self._key_serde = config.key_serde()
        self._block_serde = config.block_serde()
        #: the serde of the cell keys its jobs' reducers emit
        self.output_key_serde = config.cell_key_serde()
        self._curve_size = config.make_curve().size
        #: whether a plain batch may be decoded as arrays at all (the
        #: curve bound keeps ``start + count`` inside int64)
        self._vectorizable = (config.alignment == 1
                              and self._curve_size <= 1 << 62)
        self._partitioners: dict[int, CurveRangePartitioner] = {}
        #: how many extra records routing splits created (introspection)
        self.routing_splits = 0
        #: key-count trajectory through the reduce-side passes, summed
        #: over reduce tasks: records in, after overlap split, after
        #: re-aggregation (== after split when disabled)
        self.reduce_records_in = 0
        self.reduce_records_split = 0
        self.reduce_records_out = 0

    def _partitioner(self, num_reducers: int) -> CurveRangePartitioner:
        part = self._partitioners.get(num_reducers)
        if part is None:
            part = CurveRangePartitioner(num_reducers, self._curve_size)
            self._partitioners[num_reducers] = part
        return part

    # -- batch decode / encode ------------------------------------------------

    def _plain_batch(self, keys: np.ndarray,
                     values: np.ndarray | Ragged) -> _PlainBatch | None:
        """Decode a batch about to be cut in one pass, or ``None`` if it
        is not plain.

        ``keys`` is an ``(n, key_size)`` uint8 matrix, ``values`` a value
        column.  Never plain under re-aggregation, which the array cut
        does not do.  Otherwise the predicate is the object path's
        per-record checks, vectorised: a decodable variable, ``start >=
        0``, ``count > 0``, the range on the curve, and each value
        exactly the dense header for the key's count (flag byte, vint)
        followed by ``count`` values.
        """
        n = keys.shape[0]
        if n == 0 or self.reaggregate or not self._vectorizable:
            return None
        try:
            variables, which, starts, counts = (
                self._key_serde.unpack_batch_keys(keys))
        except ValueError:
            return None
        if (starts.min() < 0 or counts.min() <= 0
                or starts.max() >= self._curve_size
                or (starts + counts).max() > self._curve_size):
            return None
        values = Ragged.of(values)
        headers, of = self._block_serde.dense_headers(counts)
        header_len = np.fromiter(map(len, headers), np.int64, len(headers))[of]
        nbytes = counts * self._block_serde.dtype.itemsize
        if (values.lengths() != header_len + nbytes).any():
            return None
        head, data = split_rows(values.data,
                                np.column_stack([header_len, nbytes]))
        if not np.array_equal(head, Ragged.from_table(headers, of).data):
            return None
        return _PlainBatch(variables, which, starts, counts,
                           data.view(self._block_serde.dtype))

    def _encode(self, variables: list, which: np.ndarray, starts: np.ndarray,
                counts: np.ndarray,
                values: np.ndarray) -> tuple[np.ndarray, Ragged]:
        """Serialize dense pieces of one key width: piece ``j`` is
        ``RangeKey(variables[which[j]], starts[j], counts[j])`` with the
        next ``counts[j]`` of ``values``."""
        rows = []
        for v, variable in enumerate(variables):
            sel = which == v
            rows.append((sel, self._key_serde.pack_batch_keys(
                variable, starts[sel], counts[sel])[0]))
        keys = np.empty((which.shape[0], rows[0][1].shape[1]), np.uint8)
        for sel, packed in rows:
            keys[sel] = packed
        return keys, self._block_serde.dense_column(counts, values)

    def _records(self, pairs: list[Pair]) -> list[Record]:
        return [(self._key_serde.to_bytes(key), self._block_serde.to_bytes(block))
                for key, block in pairs]

    # -- map side -------------------------------------------------------------

    def route(
        self, key_bytes: bytes, value_bytes: bytes, num_reducers: int
    ) -> list[Routed]:
        part = self._partitioner(num_reducers)
        key = self._key_serde.from_bytes(key_bytes)
        block = self._block_serde.from_bytes(value_bytes)
        pieces = split_at_boundaries(key, block, part.split_points())
        self.routing_splits += len(pieces) - 1
        out: list[tuple[int, bytes, bytes]] = []
        for pkey, pblock in pieces:
            reducer = part.check_range(pkey)
            if len(pieces) == 1:
                out.append((reducer, key_bytes, value_bytes))
                continue
            kb = bytearray()
            self._key_serde.write(pkey, kb)
            vb = bytearray()
            self._block_serde.write(pblock, vb)
            out.append((reducer, bytes(kb), bytes(vb)))
        return out

    def route_batch(
        self, keys: np.ndarray, values: Ragged, num_reducers: int,
    ) -> tuple[np.ndarray, np.ndarray, Ragged, np.ndarray] | None:
        """:meth:`route` over a whole batch of emitted records.

        ``keys`` is an ``(n, key_size)`` uint8 matrix and ``values`` a
        ragged column of value blocks.  Returns ``(reducers, keys,
        values, ends)``: piece ``j`` is the record ``(keys[j],
        values[j])`` bound for ``reducers[j]``, the pieces equal the
        concatenation of ``route`` over the batch, and record ``i``'s are
        ``[ends[i - 1], ends[i])``.  Records inside one reducer's span
        pass through as the bytes they arrived as; only straddlers are
        cut and re-serialized.  Returns ``None`` (nothing routed, nothing
        counted) when the batch is not plain: the caller then routes it
        record by record.
        """
        batch = self._plain_batch(keys, values)
        if batch is None:
            return None
        splits = np.asarray(
            self._partitioner(num_reducers).split_points(), dtype=np.int64)
        if (np.diff(splits) <= 0).any():
            return None
        owner, starts, counts, reducers = boundary_pieces(
            batch.starts, batch.counts, splits)
        n = keys.shape[0]
        npieces = np.bincount(owner, minlength=n)
        self.routing_splits += owner.shape[0] - n
        cut = np.flatnonzero(npieces[owner] > 1)
        if cut.shape[0]:
            # only the straddlers' pieces are new bytes: serialize them
            # after the batch's rows, then gather every piece's row
            cut_owner, starts, counts = owner[cut], starts[cut], counts[cut]
            new_keys, new_values = self._encode(
                batch.variables, batch.which[cut_owner], starts, counts,
                batch.piece_values(cut_owner, starts, counts))
            source = owner.copy()
            source[cut] = n + np.arange(cut.shape[0])
            keys = np.concatenate([keys, new_keys])[source]
            values = Ragged.join([values, new_values]).take(source)
        return reducers, keys, values, np.cumsum(npieces)

    # -- reduce side ----------------------------------------------------------

    def _split(self, run: Run) -> Pieces | list[Pair]:
        """Overlap-split (and re-aggregate) a merged run of either form,
        counting the trajectory: :class:`Pieces` when the run is plain,
        else the object path's split run as pairs."""
        columns = run if type(run) is tuple else records_column(run)
        batch = self._plain_batch(*columns) if columns is not None else None
        if batch is None:
            pairs = [(self._key_serde.from_bytes(kb),
                      self._block_serde.from_bytes(vb))
                     for kb, vb in run_records(run)]
            split = split_overlaps(pairs)
            self.reduce_records_in += len(pairs)
            self.reduce_records_split += len(split)
            if self.reaggregate:
                split = merge_adjacent_groups(split)
            self.reduce_records_out += len(split)
            return split
        by_str = sorted(range(len(batch.variables)),
                        key=lambda v: str(batch.variables[v]))
        rank = np.empty(len(by_str), dtype=np.int64)
        rank[by_str] = np.arange(len(by_str))
        owner, starts, counts = overlap_pieces(
            rank[batch.which], batch.starts, batch.counts)
        self.reduce_records_in += batch.which.shape[0]
        self.reduce_records_split += owner.shape[0]
        self.reduce_records_out += owner.shape[0]
        return Pieces(batch.variables, batch.which[owner], starts, counts,
                      batch.piece_values(owner, starts, counts))

    def prepare_reduce(self, records: list[Record]) -> list[Record]:
        split = self._split(records)
        if type(split) is list:
            return self._records(split)
        return column_records(*self._encode(
            split.variables, split.which, split.starts, split.counts,
            split.values))

    def run_pieces(self, run: Run) -> Pieces | list[Record]:
        """:meth:`prepare_reduce` of a merged run in either form, as the
        :class:`Pieces` a ``RangeGroupReducer`` reduces whole.

        A plain run is cut as arrays -- the decode's checks on the key
        matrix and the blocks, ``overlap_pieces``, one gather of the
        piece values -- and never exists as split records.  Any other
        run takes the object path, whose output also becomes
        :class:`Pieces` when every block is dense (re-aggregated runs
        are: fusing keeps dense blocks dense).  A split run with masked
        blocks (``alignment > 1``) is returned as :meth:`prepare_reduce`'s
        records, for the reducer to take group by group.
        """
        split = self._split(run)
        if type(split) is not list:
            return split
        if split and all(block.is_dense() for _, block in split):
            return Pieces.of_dense(split)
        return self._records(split)
