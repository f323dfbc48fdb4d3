"""Columnar record forms and spill buffering for the batched fast path.

The scalar engine buffers map output as millions of small
``(key_bytes, value_bytes)`` tuples -- one Python object pair per record.
At paper scale (a sliding-window query emits 27 records per input cell,
i.e. 2.7e7 records for the Fig 8 grid) the object churn dominates map
runtime.  The columnar form keeps a whole batch of records as arrays
instead: keys are always an ``(n, key_size)`` uint8 matrix, and values
are one of two *value columns*:

* a fixed ``(n, value_size)`` uint8 matrix, when every value has one
  width (per-cell keys: a value is one packed scalar);
* a :class:`Ragged` column ``(offsets, data)``, when values differ in
  length (range keys: a value is a whole block of cells).

:class:`PartitionBuffer` accepts whole *chunks* in either form, kept
contiguous so the spill path can sort, combine and write them with numpy
passes and never materialize per-record ``bytes``.

Order is the invariant that makes the fast path byte-identical to the
scalar one: segments are kept in emission order, so concatenating them
reproduces exactly the record sequence the scalar buffer would hold, and
a *stable* sort of that sequence equals ``sort_records`` of the scalar
list.  Mixed buffers (some per-record appends, some chunks -- e.g. a
mapper that calls both ``emit`` and ``emit_batch``) simply decay to the
scalar representation via :meth:`PartitionBuffer.to_records`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "PartitionBuffer",
    "Ragged",
    "column_records",
    "concat_values",
    "range_index",
    "records_column",
    "split_rows",
    "take_rows",
]

Record = tuple[bytes, bytes]


def range_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``
    in one pass: the gather index that cuts many ranges out of an array."""
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if not starts.shape[0]:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    # steps of 1 inside a range, a jump to the next range's start at
    # each range's first slot; the running sum is the index
    index = np.ones(int(ends[-1]), dtype=np.int64)
    index[0] = starts[0]
    index[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(index, out=index)


def _parts(lengths: np.ndarray) -> np.ndarray:
    """For ``n`` rows of ``m`` parts each (``lengths`` is ``(n, m)``), the
    part number of every byte of the rows laid end to end."""
    n, m = lengths.shape
    return np.repeat(np.tile(np.arange(m, dtype=np.uint8), n),
                     lengths.ravel())


def split_rows(data: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """The inverse of :meth:`Ragged.hstack`: ``data`` is ``n`` rows laid
    end to end, row ``i`` made of ``m`` parts of ``lengths[i]`` bytes;
    returns each part's bytes over all rows, in row order."""
    part = _parts(lengths)
    return [data[part == j] for j in range(lengths.shape[1])]


class Ragged(NamedTuple):
    """A column of byte strings of any lengths.

    Row ``i`` is ``data[offsets[i]:offsets[i + 1]]``: ``offsets`` is an
    int64 array of ``rows + 1`` entries from 0 to ``len(data)``, ``data``
    a 1-D uint8 array holding the rows back to back.
    """

    offsets: np.ndarray
    data: np.ndarray

    @classmethod
    def from_lengths(cls, lengths: np.ndarray, data: np.ndarray) -> Ragged:
        offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(offsets, data)

    @classmethod
    def of(cls, values: np.ndarray | Ragged) -> Ragged:
        """A value column of either form as a ragged one."""
        if type(values) is cls:
            return values
        n, width = values.shape
        return cls(np.arange(n + 1, dtype=np.int64) * width,
                   np.ascontiguousarray(values).reshape(-1))

    @classmethod
    def from_table(cls, table: Sequence[bytes], which: np.ndarray) -> Ragged:
        """Row ``i`` is ``table[which[i]]``: a few distinct strings (record
        frames, block headers) repeated over many rows."""
        sizes = np.fromiter(map(len, table), np.int64, len(table))
        width = int(sizes.max()) if len(table) else 0
        padded = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in table),
                               np.uint8).reshape(len(table), width)
        lengths = sizes[which]
        rows = padded[which]
        return cls.from_lengths(
            lengths, rows[np.arange(width) < lengths[:, None]])

    @classmethod
    def join(cls, columns: Sequence[np.ndarray | Ragged]) -> Ragged:
        """Value columns of either form, one after another."""
        columns = [cls.of(c) for c in columns]
        if len(columns) == 1:
            return columns[0]
        return cls.from_lengths(np.concatenate([c.lengths() for c in columns]),
                                np.concatenate([c.data for c in columns]))

    @classmethod
    def hstack(cls, *columns: np.ndarray | Ragged) -> Ragged:
        """Row ``i`` is every column's row ``i``, concatenated (a record
        frame + key + value, a block header + values)."""
        columns = [cls.of(c) for c in columns]
        lengths = np.column_stack([c.lengths() for c in columns])
        part = _parts(lengths)
        data = np.empty(part.shape[0], dtype=np.uint8)
        for j, column in enumerate(columns):
            data[part == j] = column.data
        return cls.from_lengths(lengths.sum(axis=1), data)

    @property
    def rows(self) -> int:
        return self.offsets.shape[0] - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, index: np.ndarray) -> Ragged:
        """Rows ``index``, in that order."""
        lengths = self.lengths()[index]
        return Ragged.from_lengths(
            lengths, self.data[range_index(self.offsets[:-1][index], lengths)])

    def tolist(self) -> list[bytes]:
        flat = self.data.tobytes()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def take_rows(values: np.ndarray | Ragged, index: np.ndarray):
    """Rows ``index`` of a value column of either form, contiguous."""
    if type(values) is Ragged:
        return values.take(index)
    return np.ascontiguousarray(values[index])


def concat_values(columns: Sequence[np.ndarray | Ragged]):
    """Value columns one after another: a fixed matrix when they all are,
    of one width, else a ragged column."""
    if all(type(c) is not Ragged for c in columns) and len(
            {c.shape[1] for c in columns}) == 1:
        return columns[0] if len(columns) == 1 else np.concatenate(columns)
    return Ragged.join(columns)


def column_records(keys: np.ndarray,
                   values: np.ndarray | Ragged) -> list[Record]:
    """The records of a key matrix and a value column, in row order --
    how every columnar form decays to the scalar one."""
    n, kw = keys.shape
    kflat = keys.tobytes()  # C order, whatever the view's strides
    key_blobs = [kflat[i * kw:(i + 1) * kw] for i in range(n)]
    if type(values) is Ragged:
        return list(zip(key_blobs, values.tolist()))
    vw = values.shape[1]
    vflat = values.tobytes()
    return [(kb, vflat[i * vw:(i + 1) * vw]) for i, kb in enumerate(key_blobs)]


def records_column(records: Sequence[Record]) -> tuple[np.ndarray, Ragged] | None:
    """A record list as a key matrix and a ragged value column, or
    ``None`` when it is empty or its keys differ in width."""
    if not records:
        return None
    key_blobs, value_blobs = zip(*records)
    width = len(key_blobs[0])
    if width == 0 or len(set(map(len, key_blobs))) != 1:
        return None
    keys = np.frombuffer(b"".join(key_blobs), np.uint8).reshape(-1, width)
    lengths = np.fromiter(map(len, value_blobs), np.int64, len(value_blobs))
    return keys, Ragged.from_lengths(
        lengths, np.frombuffer(b"".join(value_blobs), np.uint8))


class PartitionBuffer:
    """Map-output buffer for one reducer partition.

    Holds an ordered list of segments, each either a ``list[Record]``
    (scalar appends) or a ``(keys, values)`` chunk (a key matrix and a
    value column of either form).  :meth:`columnar_view` returns one
    contiguous chunk when -- and only when -- the whole buffer is
    columnar with one key width; otherwise callers fall back to
    :meth:`to_records`.
    """

    __slots__ = ("_segments", "records", "nbytes", "presorted")

    def __init__(self) -> None:
        self._segments: list = []
        #: the buffer holds exactly one chunk, appended by
        #: :meth:`append_sorted`: it is key-sorted with ties in emission
        #: order, so a spill writes it without sorting
        self.presorted = False
        self.records = 0
        #: payload bytes held (sum of key+value lengths, no per-record
        #: overhead) -- identical between the scalar and columnar
        #: representations of the same record sequence, so memory-ledger
        #: charges sized from it never depend on which path filled the
        #: buffer
        self.nbytes = 0

    def append(self, key: bytes, value: bytes) -> None:
        """Append one serialized record (scalar path)."""
        self.presorted = False
        segments = self._segments
        if segments and type(segments[-1]) is list:
            segments[-1].append((key, value))
        else:
            segments.append([(key, value)])
        self.records += 1
        self.nbytes += len(key) + len(value)

    def append_chunk(self, keys: np.ndarray,
                     values: np.ndarray | Ragged) -> None:
        """Append an ``(n, kw)`` key matrix and its value column, in
        emission order."""
        self.presorted = False
        n = keys.shape[0]
        ragged = type(values) is Ragged
        rows = values.rows if ragged else values.shape[0]
        if n != rows:
            raise ValueError(f"{n} keys vs {rows} values")
        if n == 0:
            return
        self._segments.append((keys, values))
        self.records += n
        self.nbytes += n * keys.shape[1] + (
            values.data.shape[0] if ragged else values.size)

    def append_sorted(self, keys: np.ndarray,
                      values: np.ndarray | Ragged) -> None:
        """:meth:`append_chunk` for a chunk already in spill order: sorted
        by key bytes, equal keys in emission order.  The buffer stays
        :attr:`presorted` while this chunk is all it holds."""
        alone = not self._segments
        self.append_chunk(keys, values)
        self.presorted = alone and bool(self._segments)

    def columnar_view(self) -> tuple[np.ndarray, np.ndarray | Ragged] | None:
        """One ``(keys, values)`` chunk for the whole buffer.

        The values are a fixed matrix when every chunk's are, of one
        width, and a ragged column otherwise.  Returns ``None`` when the
        buffer holds any scalar segment or keys of differing widths --
        the caller then takes the scalar path via :meth:`to_records`.
        """
        if not self._segments:
            return None
        chunks: list[tuple[np.ndarray, np.ndarray | Ragged]] = []
        for seg in self._segments:
            if type(seg) is list:
                return None
            chunks.append(seg)
        if len({k.shape[1] for k, _ in chunks}) != 1:
            return None
        if len(chunks) == 1:
            return chunks[0]
        return (np.concatenate([k for k, _ in chunks]),
                concat_values([v for _, v in chunks]))

    def to_records(self) -> list[Record]:
        """Materialize the whole buffer as records, in emission order."""
        out: list[Record] = []
        for seg in self._segments:
            if type(seg) is list:
                out.extend(seg)
            else:
                out.extend(column_records(*seg))
        return out

    def clear(self) -> None:
        self._segments.clear()
        self.presorted = False
        self.records = 0
        self.nbytes = 0
