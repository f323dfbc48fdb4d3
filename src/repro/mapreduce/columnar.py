"""Columnar spill buffering for the batched map-output fast path.

The scalar engine buffers map output as millions of small
``(key_bytes, value_bytes)`` tuples -- one Python object pair per record.
At paper scale (a sliding-window query emits 27 records per input cell,
i.e. 2.7e7 records for the Fig 8 grid) the object churn dominates map
runtime.  :class:`PartitionBuffer` instead accepts whole *chunks*: an
``(n, key_size)`` uint8 key matrix plus an ``(n, value_size)`` value
matrix, kept contiguous so the spill path can sort, combine and write
them with numpy passes and never materialize per-record ``bytes``.

Order is the invariant that makes the fast path byte-identical to the
scalar one: segments are kept in emission order, so concatenating them
reproduces exactly the record sequence the scalar buffer would hold, and
a *stable* sort of that sequence equals ``sort_records`` of the scalar
list.  Mixed buffers (some per-record appends, some chunks -- e.g. a
mapper that calls both ``emit`` and ``emit_batch``) simply decay to the
scalar representation via :meth:`PartitionBuffer.to_records`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PartitionBuffer", "matrix_records"]

Record = tuple[bytes, bytes]


def matrix_records(keys: np.ndarray, values: np.ndarray) -> list[Record]:
    """The records of an ``(n, kw)`` / ``(n, vw)`` uint8 matrix pair, in
    row order -- how every columnar form decays to the scalar one."""
    n, kw = keys.shape
    vw = values.shape[1]
    kflat = keys.tobytes()  # C order, whatever the view's strides
    vflat = values.tobytes()
    return [(kflat[i * kw:(i + 1) * kw], vflat[i * vw:(i + 1) * vw])
            for i in range(n)]


class PartitionBuffer:
    """Map-output buffer for one reducer partition.

    Holds an ordered list of segments, each either a ``list[Record]``
    (scalar appends) or a ``(keys, values)`` pair of uint8 matrices
    (columnar chunks).  :meth:`columnar_view` returns one contiguous
    matrix pair when -- and only when -- the whole buffer is columnar
    with uniform record widths; otherwise callers fall back to
    :meth:`to_records`.
    """

    __slots__ = ("_segments", "records", "nbytes")

    def __init__(self) -> None:
        self._segments: list = []
        self.records = 0
        #: payload bytes held (sum of key+value lengths, no per-record
        #: overhead) -- identical between the scalar and columnar
        #: representations of the same record sequence, so memory-ledger
        #: charges sized from it never depend on which path filled the
        #: buffer
        self.nbytes = 0

    def append(self, key: bytes, value: bytes) -> None:
        """Append one serialized record (scalar path)."""
        segments = self._segments
        if segments and type(segments[-1]) is list:
            segments[-1].append((key, value))
        else:
            segments.append([(key, value)])
        self.records += 1
        self.nbytes += len(key) + len(value)

    def append_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append an ``(n, kw)`` / ``(n, vw)`` uint8 chunk in emission order."""
        n = keys.shape[0]
        if n != values.shape[0]:
            raise ValueError(f"{n} keys vs {values.shape[0]} values")
        if n == 0:
            return
        self._segments.append((keys, values))
        self.records += n
        self.nbytes += n * (keys.shape[1] + values.shape[1])

    def columnar_view(self) -> tuple[np.ndarray, np.ndarray] | None:
        """One ``(keys, values)`` matrix pair for the whole buffer.

        Returns ``None`` when the buffer holds any scalar segment or
        chunks of differing record widths -- the caller then takes the
        scalar path via :meth:`to_records`.
        """
        if not self._segments:
            return None
        chunks: list[tuple[np.ndarray, np.ndarray]] = []
        for seg in self._segments:
            if type(seg) is list:
                return None
            chunks.append(seg)
        kw = chunks[0][0].shape[1]
        vw = chunks[0][1].shape[1]
        if any(k.shape[1] != kw or v.shape[1] != vw for k, v in chunks):
            return None
        if len(chunks) == 1:
            return chunks[0]
        return (
            np.concatenate([k for k, _ in chunks]),
            np.concatenate([v for _, v in chunks]),
        )

    def to_records(self) -> list[Record]:
        """Materialize the whole buffer as records, in emission order."""
        out: list[Record] = []
        for seg in self._segments:
            if type(seg) is list:
                out.extend(seg)
            else:
                out.extend(matrix_records(*seg))
        return out

    def clear(self) -> None:
        self._segments.clear()
        self.records = 0
        self.nbytes = 0
