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

Both run as array arithmetic over a whole batch (:meth:`route_batch`, and
inside :meth:`prepare_reduce`) when the batch is *plain*: every key the
same width, every block dense and well-formed, no alignment padding, no
re-aggregation.  Anything else -- one masked block, one malformed
record -- sends the whole batch through the object code
(:mod:`~repro.core.aggregation.splitter`), which stays the definition:
it produces the same records, and raises what it always raised.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.core.aggregation.aggregator import AggregationConfig
from repro.core.aggregation.groups import Pieces
from repro.core.aggregation.reaggregate import merge_adjacent_groups
from repro.core.aggregation.splitter import (
    boundary_pieces,
    overlap_pieces,
    split_at_boundaries,
    split_overlaps,
)
from repro.mapreduce.partition import CurveRangePartitioner

__all__ = ["AggregateShufflePlugin"]

Record = tuple[bytes, bytes]
Routed = tuple[int, bytes, bytes]
#: blobs per inner join of :func:`_join`
_JOIN_CHUNK = 4096


def _join(blobs: Sequence[bytes]) -> bytes:
    """``b"".join(blobs)``, a chunk at a time: a join holds an 80-byte
    buffer view per blob until it returns, many times the bytes joined
    when the blobs are a few bytes each (a split run's pieces)."""
    return b"".join([b"".join(blobs[i:i + _JOIN_CHUNK])
                     for i in range(0, len(blobs), _JOIN_CHUNK)])


class _PlainBatch(NamedTuple):
    """A batch of well-formed dense (range key, block) records as columns."""

    key_width: int
    #: distinct variables, and each record's index into them
    variables: list
    which: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    #: all value blobs joined, and where each record's values begin in it
    slab: bytes
    data_offsets: np.ndarray


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

    def _plain_batch(self, *blobs: Sequence[bytes]) -> _PlainBatch | None:
        """:meth:`_decode` for a batch about to be cut: never plain under
        re-aggregation, which the array cut does not do."""
        return None if self.reaggregate else self._decode(*blobs)

    def _decode(self, key_blobs: Sequence[bytes],
                value_blobs: Sequence[bytes]) -> _PlainBatch | None:
        """Decode a batch in one pass, or ``None`` if it is not plain.

        The predicate is the object path's per-record checks, vectorised:
        equal key widths, a decodable variable, ``start >= 0``,
        ``count > 0``, the range on the curve, and each value blob
        exactly the dense header for the key's count (flag byte, vint)
        followed by ``count`` values.
        """
        n = len(key_blobs)
        if n == 0 or not self._vectorizable:
            return None
        width = len(key_blobs[0])
        if len(set(map(len, key_blobs))) != 1:
            return None
        keys = np.frombuffer(_join(key_blobs), np.uint8).reshape(n, width)
        try:
            variables, which, starts, counts = (
                self._key_serde.unpack_batch_keys(keys))
        except ValueError:
            return None
        if (starts.min() < 0 or counts.min() <= 0
                or starts.max() >= self._curve_size
                or (starts + counts).max() > self._curve_size):
            return None

        headers, of = self._block_serde.dense_headers(counts)
        header_len = np.fromiter(map(len, headers), np.int64, len(headers))[of]
        sizes = np.fromiter(map(len, value_blobs), np.int64, n)
        itemsize = self._block_serde.dtype.itemsize
        if (sizes != header_len + counts * itemsize).any():
            return None
        slab = _join(value_blobs)
        offsets = np.cumsum(sizes) - sizes
        # every blob starts with its count's header: compare the first
        # bytes of all blobs at once, ignoring columns past a header's end
        cols = np.arange(max(map(len, headers)))
        want = np.frombuffer(
            b"".join(h.ljust(cols.shape[0], b"\0") for h in headers),
            np.uint8).reshape(len(headers), -1)[of]
        got = np.frombuffer(slab, np.uint8)[
            np.minimum(offsets[:, None] + cols, len(slab) - 1)]
        if ((got != want) & (cols < header_len[:, None])).any():
            return None
        return _PlainBatch(width, variables, which, starts, counts, slab,
                           offsets + header_len)

    def _piece_records(
        self, batch: _PlainBatch, owner: np.ndarray, starts: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[list[bytes], list[bytes]]:
        """Serialize pieces cut out of ``batch``: piece ``j`` is
        ``[starts[j], starts[j] + counts[j])`` of record ``owner[j]``.
        Returns key blobs and value blobs."""
        itemsize = self._block_serde.dtype.itemsize
        value_blobs = self._block_serde.dense_blobs(
            counts, batch.slab,
            batch.data_offsets[owner] + (starts - batch.starts[owner]) * itemsize)
        which = batch.which[owner]
        keys = np.empty((owner.shape[0], batch.key_width), dtype=np.uint8)
        for v, variable in enumerate(batch.variables):
            sel = which == v
            keys[sel], _ = self._key_serde.pack_batch_keys(
                variable, starts[sel], counts[sel])
        flat = keys.tobytes()
        width = batch.key_width
        key_blobs = [flat[i:i + width] for i in range(0, len(flat), width)]
        return key_blobs, value_blobs

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
        self, key_blobs: Sequence[bytes], value_blobs: Sequence[bytes],
        num_reducers: int,
    ) -> tuple[list[Routed], np.ndarray] | None:
        """:meth:`route` over a whole batch of emitted records.

        Returns ``(routed, ends)``: ``routed`` equals the concatenation
        of ``route(kb, vb, num_reducers)`` over the batch, and record
        ``i``'s pieces are ``routed[ends[i - 1]:ends[i]]``.  Records
        inside one reducer's span pass through as the bytes they arrived
        as; only straddlers are cut and re-serialized.  Returns ``None``
        (nothing routed, nothing counted) when the batch is not plain:
        the caller then routes it record by record.
        """
        batch = self._plain_batch(key_blobs, value_blobs)
        if batch is None:
            return None
        splits = np.asarray(
            self._partitioner(num_reducers).split_points(), dtype=np.int64)
        if (np.diff(splits) <= 0).any():
            return None
        owner, starts, counts, reducer = boundary_pieces(
            batch.starts, batch.counts, splits)
        npieces = np.bincount(owner, minlength=len(key_blobs))
        self.routing_splits += owner.shape[0] - len(key_blobs)
        cut = np.flatnonzero(npieces[owner] > 1)
        if cut.shape[0]:
            # only the straddlers' pieces are new bytes
            key_blobs = [key_blobs[i] for i in owner.tolist()]
            value_blobs = [value_blobs[i] for i in owner.tolist()]
            pieces = self._piece_records(
                batch, owner[cut], starts[cut], counts[cut])
            for j, kb, vb in zip(cut.tolist(), *pieces):
                key_blobs[j], value_blobs[j] = kb, vb
        routed = list(zip(reducer.tolist(), key_blobs, value_blobs))
        return routed, np.cumsum(npieces)

    # -- reduce side ----------------------------------------------------------

    def _prepare_reduce_plain(self, records: list[Record]) -> list[Record] | None:
        """Overlap-split a plain merged run as arrays (else ``None``)."""
        batch = self._plain_batch(*zip(*records)) if records else None
        if batch is None:
            return None
        by_str = sorted(range(len(batch.variables)),
                        key=lambda v: str(batch.variables[v]))
        rank = np.empty(len(by_str), dtype=np.int64)
        rank[by_str] = np.arange(len(by_str))
        owner, starts, counts = overlap_pieces(
            rank[batch.which], batch.starts, batch.counts)
        self.reduce_records_in += len(records)
        self.reduce_records_split += owner.shape[0]
        self.reduce_records_out += owner.shape[0]
        return list(zip(*self._piece_records(batch, owner, starts, counts)))

    def prepare_reduce(self, records: list[Record]) -> list[Record]:
        plain = self._prepare_reduce_plain(records)
        if plain is not None:
            return plain
        pairs = []
        for kb, vb in records:
            pairs.append(
                (self._key_serde.from_bytes(kb), self._block_serde.from_bytes(vb))
            )
        split = split_overlaps(pairs)
        self.reduce_records_in += len(pairs)
        self.reduce_records_split += len(split)
        if self.reaggregate:
            split = merge_adjacent_groups(split)
        self.reduce_records_out += len(split)
        out: list[Record] = []
        for key, block in split:
            kb = bytearray()
            self._key_serde.write(key, kb)
            vb = bytearray()
            self._block_serde.write(block, vb)
            out.append((bytes(kb), bytes(vb)))
        return out

    def run_pieces(self, records: list[Record]) -> Pieces | None:
        """:meth:`prepare_reduce`'s output as columns if it is plain
        (re-aggregated or not: merging keeps dense blocks dense), else
        ``None`` (the reducer takes it group by group)."""
        batch = self._decode(*zip(*records)) if records else None
        if batch is None:
            return None
        nbytes = batch.counts * self._block_serde.dtype.itemsize
        ends = batch.data_offsets + nbytes
        header = batch.data_offsets - np.concatenate(([0], ends[:-1]))
        is_value = np.repeat(np.tile([False, True], len(records)),
                             np.column_stack([header, nbytes]).ravel())
        values = np.frombuffer(batch.slab, np.uint8)[is_value].view(
            self._block_serde.dtype)
        return Pieces(batch.variables, batch.which, batch.starts,
                      batch.counts, values)
