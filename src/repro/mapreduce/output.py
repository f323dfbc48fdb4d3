"""Reduce output kept packed until someone reads it.

A batched reduce (``Reducer.reduce_batch``) already holds its output as
arrays: the group-leader rows of the merged key matrix and one value per
group (a median, a fold) or per record (a pass-through).  Turning that
into ``(CellKey, value)`` pairs inside the task builds one key object and
one boxed value per record for whoever reads the job's output -- which
is often nobody (a timed job), or a consumer that wants the arrays back
(a multi-stage plan).  This module keeps the arrays:

* :class:`PackedKeys` -- the keys of a key matrix's rows under a serde,
  decoded when read;
* :class:`PackedOutput` -- a task's (or a job's) output in emission
  order, as chunks: ``(PackedKeys, values)`` from ``emit_batch`` and a
  plain pair list from ``emit``.  It builds pairs only when iterated or
  indexed, compares equal to the pair list it replaces exactly when
  that list would, pickles as arrays, and concatenates by sharing
  chunks.

``TaskProfile.output_bytes`` is the packed size of an output
(:meth:`PackedOutput.packed_bytes`): per record the key's serialized
width plus :data:`VALUE_BYTES`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np

__all__ = ["PackedKeys", "PackedOutput", "VALUE_BYTES"]

#: the width a value is priced at: one int64 / float64
VALUE_BYTES = 8


class PackedKeys(Sequence):
    """The keys of an ``(n, width)`` uint8 matrix's rows, decoded when
    read: equal, item for item, to ``serde.read_rows(rows)``.

    Iteration decodes every row in one ``read_rows`` pass, an index one
    row; a slice is the rows' slice, still packed.  It compares equal to
    a list (or another ``PackedKeys``) holding equal keys.
    """

    __slots__ = ("rows", "serde")

    def __init__(self, rows: np.ndarray, serde: Any) -> None:
        self.rows = rows
        self.serde = serde

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PackedKeys(self.rows[index], self.serde)
        row = range(len(self))[index]
        return self.serde.read_rows(self.rows[row:row + 1])[0]

    def __iter__(self):
        return iter(self.serde.read_rows(self.rows))

    def __eq__(self, other):
        if isinstance(other, (list, PackedKeys)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def repeat(self, counts: np.ndarray) -> PackedKeys:
        """Row ``i`` repeated ``counts[i]`` times (``np.repeat``)."""
        return PackedKeys(np.repeat(self.rows, counts, axis=0), self.serde)


def _chunk_len(chunk) -> int:
    return len(chunk) if type(chunk) is list else len(chunk[0])


def _chunk_pairs(chunk) -> Iterable:
    """A chunk's pairs: the list itself, or keys zipped with the values'
    ``tolist()`` -- the Python ``int`` / ``float`` the per-group path
    emits."""
    if type(chunk) is list:
        return chunk
    keys, values = chunk
    return zip(keys, values.tolist())


def _cut(chunk, start: int, stop: int):
    """Pairs ``[start, stop)`` of a chunk, in the chunk's form."""
    if type(chunk) is list:
        return chunk[start:stop]
    keys, values = chunk
    return keys[start:stop], values[start:stop]


class PackedOutput(Sequence):
    """``(key, value)`` pairs in emission order, held as chunks.

    A chunk is a list of pairs (consecutive :meth:`append` calls) or a
    ``(PackedKeys, values)`` tuple (:meth:`add_batch`), ``values`` a 1-D
    numeric array.  Reading -- iteration, ``len``, indexing (negative
    indices and slices too; a slice is a list), ``==`` -- is the pair
    list's; pairs of a batched chunk are built when read, their values by
    ``tolist()``.  Equality is element by element like a list's, so a
    NaN value never equals a distinct NaN and ``-0.0 == 0.0``.  Growth
    (:meth:`append`, :meth:`add_batch`, :meth:`extend`) only appends; no
    pair is replaced or removed.

    Pickling keeps the chunks -- a batched chunk crosses a process
    boundary as its two arrays, not as objects -- and :meth:`extend` by
    another ``PackedOutput`` shares its batched chunks without copying.
    """

    def __init__(self) -> None:
        self._chunks: list = []
        #: the list chunk :meth:`append` extends (None: start a new one)
        self._tail: list | None = None
        self._len = 0

    # -- growth --------------------------------------------------------------

    def append(self, pair: tuple) -> None:
        tail = self._tail
        if tail is None:
            tail = self._tail = []
            self._chunks.append(tail)
        tail.append(pair)
        self._len += 1

    def add_batch(self, keys: PackedKeys, values: np.ndarray) -> None:
        """Append ``zip(keys, values.tolist())`` as one packed chunk."""
        if len(keys):
            self._chunks.append((keys, values))
            self._tail = None
            self._len += len(keys)

    def extend(self, pairs: Iterable) -> None:
        if isinstance(pairs, PackedOutput):
            for chunk in pairs._chunks:
                if type(chunk) is list:
                    self.extend(chunk)
                else:
                    self.add_batch(*chunk)
            return
        pairs = list(pairs)
        if pairs:
            if self._tail is None:
                self._tail = []
                self._chunks.append(self._tail)
            self._tail.extend(pairs)
            self._len += len(pairs)

    # -- reading -------------------------------------------------------------

    @property
    def chunks(self) -> tuple:
        """The chunks in order: pair lists and ``(PackedKeys, values)``."""
        return tuple(self._chunks)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(map(_chunk_pairs, self._chunks))

    def _locate(self, index: int) -> tuple[int, int]:
        """``(chunk number, offset inside it)`` of pair ``index``, which
        is in range."""
        for c, chunk in enumerate(self._chunks):
            size = _chunk_len(chunk)
            if index < size:
                return c, index
            index -= size
        raise IndexError(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            out: list = []
            if start < stop:
                c, lo = self._locate(start)
                while len(out) < stop - start:
                    chunk = self._chunks[c]
                    hi = min(_chunk_len(chunk), lo + stop - start - len(out))
                    out.extend(_chunk_pairs(_cut(chunk, lo, hi)))
                    c, lo = c + 1, 0
            return out
        index = range(self._len)[index]
        return self[index:index + 1][0]

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, (list, PackedOutput)):
            return NotImplemented
        # a list's element comparison: identity, else ``==``
        return len(self) == len(other) and all(
            a is b or a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    # -- measurement ---------------------------------------------------------

    def packed_bytes(self, key_serde: Any) -> int:
        """Per pair, the key's serialized width plus :data:`VALUE_BYTES`.

        A batched chunk's key width is its rows' width; a pair from
        ``emit`` is sized as if packed, by ``key_serde.to_bytes``.
        """
        total = VALUE_BYTES * self._len
        for chunk in self._chunks:
            if type(chunk) is list:
                total += sum(len(key_serde.to_bytes(key)) for key, _ in chunk)
            else:
                total += chunk[0].rows.size
        return total
