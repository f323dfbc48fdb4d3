"""Value blocks: the payload of an aggregate key.

An aggregate key ``RangeKey(var, start, count)`` carries one value per
covered curve index, packed densely in index order -- the "values can be
stored in order" precondition of the paper's (corner, size) argument.

Two wire layouts share one class:

* **dense** -- every covered cell has a value; payload is the raw
  little-endian array (zero per-value overhead, the Fig 8 win);
* **masked** -- §IV-C alignment padding: the range was expanded to an
  alignment boundary, so some covered cells are empty; a validity bitmap
  precedes the values of the non-empty cells.

Wire format: ``flag`` byte (0 dense, 1 masked), vint cell count,
``[bitmap]`` (masked only, ceil(count/8) bytes, LSB-first), raw values.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.mapreduce.columnar import Ragged
from repro.mapreduce.serde import Serde
from repro.util.varint import read_vlong, write_vlong

__all__ = ["ValueBlock", "BlockSerde"]

_FLAG_DENSE = 0
_FLAG_MASKED = 1


class ValueBlock:
    """Values for the cells of one aggregate range.

    ``count`` is the number of covered curve indices; ``mask`` is either
    ``None`` (dense: every cell valid) or a bool array of length
    ``count``; ``values`` holds one entry per *valid* cell, in index
    order.
    """

    __slots__ = ("count", "values", "mask")

    def __init__(self, count: int, values: np.ndarray, mask: np.ndarray | None = None) -> None:
        if count <= 0:
            raise ValueError(f"block count must be positive, got {count}")
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if mask is None:
            if values.shape[0] != count:
                raise ValueError(
                    f"dense block needs {count} values, got {values.shape[0]}"
                )
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape[0] != count:
                raise ValueError(
                    f"mask length {mask.shape[0]} != count {count}"
                )
            if int(mask.sum()) != values.shape[0]:
                raise ValueError(
                    f"{values.shape[0]} values but mask marks {int(mask.sum())} valid"
                )
            if mask.all():
                mask = None  # canonical form: fully-valid is dense
        self.count = count
        self.values = values
        self.mask = mask

    @property
    def valid_cells(self) -> int:
        return self.values.shape[0]

    def is_dense(self) -> bool:
        return self.mask is None

    def slice(self, lo: int, hi: int) -> "ValueBlock":
        """Sub-block for cell offsets ``[lo, hi)`` relative to the range start."""
        if not 0 <= lo < hi <= self.count:
            raise ValueError(f"bad slice [{lo}, {hi}) of {self.count}-cell block")
        if self.mask is None:
            return ValueBlock(hi - lo, self.values[lo:hi])
        # values are packed over valid cells: offset by popcount prefix
        prefix = np.count_nonzero(self.mask[:lo])
        inner = np.count_nonzero(self.mask[lo:hi])
        return ValueBlock(
            hi - lo,
            self.values[prefix:prefix + inner],
            self.mask[lo:hi],
        )

    def expand(self, pad_before: int, pad_after: int) -> "ValueBlock":
        """Grow the block with empty cells on both sides (§IV-C padding)."""
        if pad_before < 0 or pad_after < 0:
            raise ValueError("padding must be non-negative")
        if pad_before == 0 and pad_after == 0:
            return self
        count = self.count + pad_before + pad_after
        mask = np.zeros(count, dtype=bool)
        if self.mask is None:
            mask[pad_before:pad_before + self.count] = True
        else:
            mask[pad_before:pad_before + self.count] = self.mask
        return ValueBlock(count, self.values, mask)

    def dense_mask(self) -> np.ndarray:
        """The validity mask as a bool array (all-True when dense)."""
        if self.mask is None:
            return np.ones(self.count, dtype=bool)
        return self.mask

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ValueBlock):
            return NotImplemented
        return (
            self.count == other.count
            and np.array_equal(self.dense_mask(), other.dense_mask())
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dense" if self.is_dense() else "masked"
        return f"ValueBlock({kind}, count={self.count}, valid={self.valid_cells})"


class BlockSerde(Serde):
    """Wire form of :class:`ValueBlock` for one value dtype."""

    def __init__(self, dtype: np.dtype | str) -> None:
        self.dtype = np.dtype(dtype).newbyteorder("<")
        if self.dtype.itemsize == 0:
            raise ValueError(f"dtype {dtype!r} has zero itemsize")

    def dense_header(self, count: int) -> bytes:
        """The bytes before a dense block's values: flag, vint count."""
        out = bytearray((_FLAG_DENSE,))
        write_vlong(count, out)
        return bytes(out)

    def write(self, obj: ValueBlock, out: bytearray) -> None:
        values = np.ascontiguousarray(obj.values, dtype=self.dtype)
        if obj.mask is None:
            out.extend(self.dense_header(obj.count))
        else:
            out.append(_FLAG_MASKED)
            write_vlong(obj.count, out)
            out.extend(np.packbits(obj.mask, bitorder="little").tobytes())
        out.extend(values.tobytes())

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[ValueBlock, int]:
        if offset >= len(buf):
            raise ValueError("empty block")
        flag = buf[offset]
        offset += 1
        count, offset = read_vlong(buf, offset)
        if count <= 0:
            raise ValueError(f"bad block count {count}")
        mask = None
        valid = count
        if flag == _FLAG_MASKED:
            nmask = (count + 7) // 8
            if offset + nmask > len(buf):
                raise ValueError("truncated block mask")
            # Zero-copy view of the bitmap bytes (unpackbits allocates
            # the expanded mask, but the packed input is not sliced out).
            bits = np.frombuffer(buf, dtype=np.uint8, count=nmask, offset=offset)
            mask = np.unpackbits(bits, bitorder="little")[:count].astype(bool)
            valid = int(mask.sum())
            offset += nmask
        elif flag != _FLAG_DENSE:
            raise ValueError(f"unknown block flag {flag}")
        nbytes = valid * self.dtype.itemsize
        if offset + nbytes > len(buf):
            raise ValueError("truncated block values")
        # Zero-copy: the value array is a read-only view over the
        # caller's buffer, not a slice copy -- the aggregate-key reduce
        # path decodes millions of cells through here.
        values = np.frombuffer(buf, dtype=self.dtype, count=valid, offset=offset)
        return ValueBlock(count, values, mask), offset + nbytes

    # -- vectorized bulk path -------------------------------------------------

    def dense_headers(self, counts: np.ndarray) -> tuple[list[bytes], np.ndarray]:
        """:meth:`dense_header` of each *distinct* count, and every
        count's index into that list."""
        distinct, which = np.unique(counts, return_inverse=True)
        return [self.dense_header(c) for c in distinct.tolist()], which

    def dense_column(self, counts: np.ndarray, values: np.ndarray) -> Ragged:
        """Wire form of many dense blocks as one ragged column.

        Block ``i`` holds the next ``counts[i]`` of ``values`` (packed in
        block order); row ``i`` equals :meth:`write` of that block.
        """
        headers, which = self.dense_headers(counts)
        packed = np.ascontiguousarray(values, dtype=self.dtype).view(np.uint8)
        return Ragged.hstack(
            Ragged.from_table(headers, which),
            Ragged.from_lengths(counts * self.dtype.itemsize, packed))

    def read_batch(self, blobs: Sequence[bytes]) -> list[ValueBlock]:
        """Decode one reduce group's blocks.

        After overlap splitting every block of a group covers the same
        range, so the blobs are normally dense and byte-equal up to the
        values: the first is decoded (and validated) by :meth:`read`,
        the rest are checked against its length and header and become
        row views of one ``frombuffer`` over the joined blobs.  Any
        other group decodes blob by blob.
        """
        if len(blobs) < 2 or blobs[0][:1] != bytes((_FLAG_DENSE,)):
            return [self.from_bytes(b) for b in blobs]
        first = self.from_bytes(blobs[0])
        size = len(blobs[0])
        header = blobs[0][:size - first.count * self.dtype.itemsize]
        if any(len(b) != size or b[:len(header)] != header for b in blobs):
            return [self.from_bytes(b) for b in blobs]
        rows = np.ndarray((len(blobs), first.count), dtype=self.dtype,
                          buffer=b"".join(blobs), offset=len(header),
                          strides=(size, self.dtype.itemsize))
        return [ValueBlock(first.count, row) for row in rows]
