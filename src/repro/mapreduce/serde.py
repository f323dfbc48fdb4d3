"""Writable-style serializers.

Hadoop assumption (b) in §II-B: "Keys are serialized (converted to byte
representation) immediately when output from a Mapper."  Our engine keeps
that behaviour -- every emitted record is serialized to bytes on the spot
-- so the intermediate byte counts match Hadoop's record-at-a-time model.

Serialized integers use *order-preserving big-endian* (sign bit flipped)
so that sorting raw key bytes equals sorting semantically; Hadoop achieves
the same with per-type raw comparators.  Sizes match Hadoop's Writables
(int32 = 4 bytes, Text = vint length + UTF-8 bytes), which is what the
paper's byte arithmetic depends on.

Fixed-width serdes additionally support a *columnar* contract used by the
engine's batched record pipeline: :meth:`Serde.pack_batch` serializes a
whole value column into one contiguous blob and :meth:`Serde.read_batch` /
:meth:`Serde.read_column` decode a run of values in one numpy pass, and
:meth:`Serde.read_rows` decodes the rows of a key matrix
(:meth:`Serde.lazy_rows` when they are read).  All
are byte-for-byte (and object-for-object) equivalent to looping the scalar
:meth:`Serde.write` / :meth:`Serde.read` -- the engine's A/B equivalence
suite pins that down.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.util.errors import MalformedRecordError, TruncatedRecordError
from repro.util.varint import read_vlong, write_vlong

__all__ = [
    "Serde",
    "Int32Serde",
    "Int64Serde",
    "Float32Serde",
    "Float64Serde",
    "TextSerde",
    "BytesSerde",
    "ValueBlockSerde",
]

_I32 = struct.Struct(">I")
_I64 = struct.Struct(">Q")
_F32 = struct.Struct(">f")
_F64 = struct.Struct(">d")


def _unpack_fixed(st: struct.Struct, buf: memoryview | bytes, offset: int) -> Any:
    """Unpack one fixed-width field; structured error on short buffers.

    ``struct.unpack_from`` raises a raw ``struct.error`` when the buffer
    ends mid-field -- surface it as
    :class:`~repro.util.errors.TruncatedRecordError` with the offset so
    hostile bytes fail the same way everywhere.
    """
    try:
        return st.unpack_from(buf, offset)[0]
    except struct.error as exc:
        raise TruncatedRecordError(
            f"truncated {st.size}-byte field", offset=offset
        ) from exc


class Serde(ABC):
    """Bidirectional object <-> bytes converter for one record field."""

    @abstractmethod
    def write(self, obj: Any, out: bytearray) -> None:
        """Append the serialized form of ``obj`` to ``out``."""

    @abstractmethod
    def read(self, buf: memoryview | bytes, offset: int) -> tuple[Any, int]:
        """Decode one object at ``offset``; return ``(obj, next_offset)``."""

    def to_bytes(self, obj: Any) -> bytes:
        out = bytearray()
        self.write(obj, out)
        return bytes(out)

    def from_bytes(self, data: bytes | memoryview) -> Any:
        obj, end = self.read(data, 0)
        if end != len(data):
            raise MalformedRecordError(
                f"{end - len(data)} trailing bytes after decode", offset=end
            )
        return obj

    # -- columnar (batched) contract ---------------------------------------
    #
    # The defaults below fall back to the scalar methods, so every serde
    # supports the batched calls; fixed-width serdes override them with
    # single-numpy-pass implementations.  All overrides MUST produce the
    # same bytes / Python objects as the scalar loop.

    def pack_batch(self, values: Any) -> bytes:
        """Serialize a column of ``n`` objects into one contiguous blob.

        ``values`` is a sequence (or array) of objects; for multi-field
        serdes a 2-D ``(n, nfields)`` array is accepted, one row per
        object.
        """
        out = bytearray()
        for v in values:
            self.write(v, out)
        return bytes(out)

    def read_column(self, buf: bytes | bytearray | memoryview, count: int) -> list:
        """Decode ``count`` consecutive objects packed in ``buf``."""
        out = []
        offset = 0
        for index in range(count):
            try:
                obj, offset = self.read(buf, offset)
            except MalformedRecordError:
                raise
            except TruncatedRecordError as exc:
                raise TruncatedRecordError(
                    "truncated packed column",
                    offset=exc.offset if exc.offset is not None else offset,
                    record_index=index,
                ) from exc
            out.append(obj)
        if offset != len(buf):
            raise MalformedRecordError(
                f"{len(buf) - offset} trailing bytes after decode",
                offset=offset,
            )
        return out

    def read_rows(self, rows: np.ndarray) -> list:
        """Decode one object from each row of an ``(n, width)`` uint8
        matrix (a reduce task's group-leader keys): ``from_bytes`` row
        by row, and what an override must equal."""
        width = rows.shape[1]
        flat = rows.tobytes()  # C order, whatever the view's strides
        return [self.from_bytes(flat[i:i + width])
                for i in range(0, len(flat), width)]

    def lazy_rows(self, rows: np.ndarray) -> Sequence:
        """:meth:`read_rows` as a sequence that may decode when read,
        raising now whatever ``read_rows`` would.  This default decodes
        now; ``CellKeySerde`` returns the rows packed."""
        return self.read_rows(rows)

    def read_batch(self, blobs: Sequence[bytes]) -> list:
        """Decode one object from each blob (a reduce group's values)."""
        size = getattr(self, "SIZE", None)
        if size is not None and blobs:
            cat = b"".join(blobs)
            if len(cat) == size * len(blobs):
                return self.read_column(cat, len(blobs))
        return [self.from_bytes(b) for b in blobs]


def _check_column(buf: Any, count: int, size: int) -> None:
    """Reject a packed column whose byte length does not match ``count``."""
    nbytes = memoryview(buf).nbytes
    if nbytes != count * size:
        raise MalformedRecordError(
            f"packed column is {nbytes} bytes, expected {count}x{size}"
        )


def _int_column(values: Any, width: int) -> np.ndarray:
    """Validated int64 column for an order-preserving intN pack."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iufb" or arr.ndim != 1:
        raise TypeError(
            f"expected a 1-D numeric column, got {arr.dtype} shape {arr.shape}"
        )
    arr = arr.astype(np.int64)  # int(obj) semantics: floats truncate to zero
    half = 1 << (8 * width - 1)
    if arr.size and (arr.min() < -half or arr.max() >= half):
        raise ValueError(f"int{8 * width} out of range")
    return arr


def _float_column(values: Any) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iufb" or arr.ndim != 1:
        raise TypeError(
            f"expected a 1-D numeric column, got {arr.dtype} shape {arr.shape}"
        )
    return arr


class _ArrayColumnSerde(Serde):
    """A fixed-width scalar serde whose packed column is one ndarray.

    :meth:`read_column_array` is the single decode definition: a native
    int64 / float64 array whose ``tolist()`` is exactly what the scalar
    :meth:`Serde.read` loop returns.  The engine's batched reduce hands
    that array to ``Reducer.reduce_batch`` for a whole merged run;
    :meth:`read_column` is the same decode as Python objects.
    """

    SIZE: int

    @abstractmethod
    def read_column_array(self, buf, count: int) -> np.ndarray:
        """Decode ``count`` packed values; length-checked like
        :meth:`read_column`."""

    def read_column(self, buf, count: int) -> list:
        return self.read_column_array(buf, count).tolist()


class Int32Serde(_ArrayColumnSerde):
    """Order-preserving big-endian signed 32-bit integer (4 bytes)."""

    SIZE = 4

    def write(self, obj: Any, out: bytearray) -> None:
        value = int(obj)
        if not -(1 << 31) <= value < (1 << 31):
            raise ValueError(f"int32 out of range: {value}")
        out.extend(_I32.pack((value + (1 << 31)) & 0xFFFFFFFF))

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[int, int]:
        raw = _unpack_fixed(_I32, buf, offset)
        return raw - (1 << 31), offset + 4

    def pack_batch(self, values: Any) -> bytes:
        arr = _int_column(values, 4)
        return (((arr + (1 << 31)) & 0xFFFFFFFF).astype(">u4")).tobytes()

    def read_column_array(self, buf, count: int) -> np.ndarray:
        _check_column(buf, count, self.SIZE)
        raw = np.frombuffer(buf, dtype=">u4", count=count)
        return raw.astype(np.int64) - (1 << 31)


class Int64Serde(_ArrayColumnSerde):
    """Order-preserving big-endian signed 64-bit integer (8 bytes)."""

    SIZE = 8

    def write(self, obj: Any, out: bytearray) -> None:
        value = int(obj)
        if not -(1 << 63) <= value < (1 << 63):
            raise ValueError(f"int64 out of range: {value}")
        out.extend(_I64.pack((value + (1 << 63)) & 0xFFFFFFFFFFFFFFFF))

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[int, int]:
        raw = _unpack_fixed(_I64, buf, offset)
        return raw - (1 << 63), offset + 8

    def pack_batch(self, values: Any) -> bytes:
        arr = _int_column(values, 8)
        # uint64 arithmetic wraps correctly for the 64-bit sign-bit bias
        return (arr.astype(np.uint64) + np.uint64(1 << 63)).astype(">u8").tobytes()

    def read_column_array(self, buf, count: int) -> np.ndarray:
        _check_column(buf, count, self.SIZE)
        raw = np.frombuffer(buf, dtype=">u8", count=count).astype(np.uint64)
        return (raw ^ np.uint64(1 << 63)).view(np.int64)


class Float32Serde(_ArrayColumnSerde):
    """IEEE-754 single precision, big-endian (4 bytes, Hadoop FloatWritable)."""

    SIZE = 4

    def write(self, obj: Any, out: bytearray) -> None:
        out.extend(_F32.pack(float(obj)))

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[float, int]:
        return _unpack_fixed(_F32, buf, offset), offset + 4

    def pack_batch(self, values: Any) -> bytes:
        return _float_column(values).astype(">f4").tobytes()

    def read_column_array(self, buf, count: int) -> np.ndarray:
        _check_column(buf, count, self.SIZE)
        return np.frombuffer(buf, dtype=">f4", count=count).astype(np.float64)


class Float64Serde(_ArrayColumnSerde):
    """IEEE-754 double precision, big-endian (8 bytes, DoubleWritable)."""

    SIZE = 8

    def write(self, obj: Any, out: bytearray) -> None:
        out.extend(_F64.pack(float(obj)))

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[float, int]:
        return _unpack_fixed(_F64, buf, offset), offset + 8

    def pack_batch(self, values: Any) -> bytes:
        return _float_column(values).astype(">f8").tobytes()

    def read_column_array(self, buf, count: int) -> np.ndarray:
        _check_column(buf, count, self.SIZE)
        return np.frombuffer(buf, dtype=">f8", count=count).astype(np.float64)


class TextSerde(Serde):
    """Hadoop ``Text``: vint byte length followed by UTF-8 bytes.

    ``"windspeed1"`` serializes to 11 bytes (1 length byte + 10 chars),
    which is one term in the paper's 27-byte key (§I, key/value = 6.75).
    """

    def write(self, obj: Any, out: bytearray) -> None:
        data = str(obj).encode("utf-8")
        write_vlong(len(data), out)
        out.extend(data)

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[str, int]:
        length, offset = read_vlong(buf, offset)
        if length < 0:
            raise MalformedRecordError(f"bad Text length {length}",
                                       offset=offset)
        if offset + length > len(buf):
            raise TruncatedRecordError(f"bad Text length {length}",
                                       offset=offset)
        try:
            text = bytes(buf[offset:offset + length]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecordError(f"invalid UTF-8 in Text: {exc}",
                                       offset=offset) from exc
        return text, offset + length


class BytesSerde(Serde):
    """Length-prefixed raw bytes (Hadoop BytesWritable, vint length).

    Decoding is zero-copy when handed a :class:`memoryview`: the returned
    payload is a sub-view of the input buffer (read-only views of ``bytes``
    hash and compare like ``bytes``, so callers can use them
    interchangeably).  ``bytes`` input still returns ``bytes`` -- slicing
    an immutable buffer is the only way to get an independent object.
    """

    def write(self, obj: Any, out: bytearray) -> None:
        data = bytes(obj)
        write_vlong(len(data), out)
        out.extend(data)

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[bytes, int]:
        length, offset = read_vlong(buf, offset)
        if length < 0:
            raise MalformedRecordError(f"bad bytes length {length}",
                                       offset=offset)
        if offset + length > len(buf):
            raise TruncatedRecordError(f"bad bytes length {length}",
                                       offset=offset)
        if isinstance(buf, memoryview):
            return buf[offset:offset + length], offset + length
        return bytes(buf[offset:offset + length]), offset + length


class ValueBlockSerde(Serde):
    """A packed array of same-typed values (the aggregate-key payload).

    Key aggregation (§IV) relies on "values stored in order": one aggregate
    key carries a dense block of values for consecutive curve indices.  The
    wire form is a vint count followed by the raw little-endian array --
    count * itemsize bytes, zero per-value overhead, which is where most
    of Fig 8's savings come from.
    """

    def __init__(self, dtype: np.dtype | str) -> None:
        self.dtype = np.dtype(dtype).newbyteorder("<")
        if self.dtype.itemsize == 0:
            raise ValueError(f"dtype {dtype!r} has zero itemsize")

    def write(self, obj: Any, out: bytearray) -> None:
        arr = np.ascontiguousarray(obj, dtype=self.dtype)
        if arr.ndim != 1:
            raise ValueError(f"value block must be 1-D, got shape {arr.shape}")
        write_vlong(arr.shape[0], out)
        out.extend(arr.tobytes())

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[np.ndarray, int]:
        count, offset = read_vlong(buf, offset)
        if count < 0:
            raise MalformedRecordError(f"bad block count {count}",
                                       offset=offset)
        nbytes = count * self.dtype.itemsize
        if offset + nbytes > len(buf):
            raise TruncatedRecordError("truncated value block", offset=offset)
        # Zero-copy: the array is a view over the caller's buffer (bytes
        # or memoryview), not a slice copy.
        arr = np.frombuffer(buf, dtype=self.dtype, count=count, offset=offset)
        return arr, offset + nbytes
