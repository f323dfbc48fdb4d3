"""Intermediate key types: per-cell keys and aggregate range keys.

``CellKey`` is the naive representation the paper's introduction costs
out: every grid cell's key carries the variable (name or index), one int32
per dimension, and an int32 result-slot word.  With the variable name
``windspeed1`` and 3 dimensions that is 11 + 12 + 4 = 27 bytes against a
4-byte value -- the paper's 6.75 key/value ratio -- and with a variable
*index* it is 4 + 12 + 4 = 20 bytes, giving the paper's 26,000,006-byte
intermediate file for 10^6 cells once IFile framing is added.

``RangeKey`` is the aggregate representation of §IV: a contiguous run of
space-filling-curve indices ``[start, start+count)`` for one variable.
Its value is a packed :class:`~repro.mapreduce.serde.ValueBlockSerde`
array with one value per covered cell, "stored in order".
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.mapreduce.output import PackedKeys
from repro.mapreduce.serde import Int32Serde, Int64Serde, Serde, TextSerde
from repro.util.errors import CorruptRecordError, MalformedRecordError

__all__ = ["CellKey", "CellKeySerde", "RangeKey", "RangeKeySerde"]

_INT32 = Int32Serde()
_INT64 = Int64Serde()
_TEXT = TextSerde()


@dataclass(frozen=True, order=True)
class CellKey:
    """One grid cell of one variable.

    ``variable`` is a name (``str``) or index (``int``) depending on the
    job's key mode; ``slot`` is SciHadoop's result-slot word (partial
    results of the same cell with different slots are not grouped).
    """

    variable: str | int
    coords: tuple[int, ...]
    slot: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if not self.coords:
            raise ValueError("cell key needs at least one coordinate")


def _cell_keys(variables: list, which: np.ndarray, coords: np.ndarray,
               slots: np.ndarray) -> list[CellKey]:
    """``CellKey``s of decoded key columns, built without
    ``__post_init__``: a ``tolist()`` row is already a run of Python
    ints, and a serde's ``ndim >= 1`` is checked when it is made.  The
    three fields land in the instance dict in declaration order, as the
    constructor leaves them, so equality, hashing, ordering and pickles
    are the same.

    The cyclic collector is paused for the build: the keys hold no
    cycles, and the passes it would otherwise make over tens of
    thousands of fresh objects are half the build's time."""
    n = which.shape[0]
    column = (repeat(variables[0], n) if len(variables) == 1
              else [variables[w] for w in which.tolist()])
    new = object.__new__
    keys = []
    append = keys.append
    collecting = gc.isenabled()
    gc.disable()
    try:
        for variable, cell, slot in zip(column, map(tuple, coords.tolist()),
                                        slots.tolist()):
            key = new(CellKey)
            fields = key.__dict__
            fields["variable"] = variable
            fields["coords"] = cell
            fields["slot"] = slot
            append(key)
    finally:
        if collecting:
            gc.enable()
    return keys


@dataclass(frozen=True, order=True)
class RangeKey:
    """A contiguous curve-index run ``[start, start+count)`` of a variable."""

    variable: str | int
    start: int
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"range count must be positive, got {self.count}")
        if self.start < 0:
            raise ValueError(f"range start must be >= 0, got {self.start}")

    @property
    def end(self) -> int:
        """Exclusive end index."""
        return self.start + self.count

    def overlaps(self, other: "RangeKey") -> bool:
        return (
            self.variable == other.variable
            and self.start < other.end
            and other.start < self.end
        )


def _variable_serde(mode: str) -> Serde:
    if mode == "name":
        return _TEXT
    if mode == "index":
        return _INT32
    raise ValueError(f"variable mode must be 'name' or 'index', got {mode!r}")


def _unpack_variables(var_serde: Serde,
                      prefixes: np.ndarray) -> tuple[list, np.ndarray]:
    """Decode the variable prefix column of a key matrix.

    ``prefixes`` is the ``(n, plen)`` uint8 block left of the fixed-width
    fields, ``n >= 1``.  Returns ``(variables, which)``: the distinct
    variables in byte order and each row's index into them.  A prefix is
    decoded once per distinct value and must fill its ``plen`` bytes
    exactly, as it does in every key ``write`` produced.
    """
    n, plen = prefixes.shape
    prefixes = np.ascontiguousarray(prefixes)
    if (prefixes == prefixes[0]).all():
        first = np.zeros(1, dtype=np.int64)
        which = np.zeros(n, dtype=np.int64)
    else:
        # rows of one width: ``S`` equality is byte equality; an ``S``
        # scalar drops trailing NULs, so the bytes come from the matrix
        _, first, which = np.unique(prefixes.view(f"S{plen}").ravel(),
                                    return_index=True, return_inverse=True)
    variables = []
    for row in first.tolist():
        variable, end = var_serde.read(prefixes[row].tobytes(), 0)
        if end != plen:
            raise MalformedRecordError(
                f"variable fills {end} of {plen} prefix bytes", offset=end)
        variables.append(variable)
    return variables, which


class CellKeySerde(Serde):
    """Serializer for :class:`CellKey`.

    Parameters
    ----------
    ndim:
        Number of coordinate words.
    variable_mode:
        ``"name"`` (Hadoop ``Text``) or ``"index"`` (int32).  The paper's
        intro measures both: 33,000,006 vs 26,000,006 bytes for 10^6 cells.
    coord_width:
        Bytes per coordinate: 4 (int32, the §I layout) or 8 (int64, the
        LongWritable layout whose 35-byte keys produce the 47-byte
        SequenceFile record pitch highlighted in Fig 2).
    include_slot:
        Whether keys carry the int32 result-slot word.  The shuffle-path
        layouts of §I include it; the Fig 2 SequenceFile keys do not.
    """

    def __init__(self, ndim: int, variable_mode: str = "name",
                 coord_width: int = 4, include_slot: bool = True) -> None:
        if ndim < 1:
            raise ValueError(f"ndim must be >= 1, got {ndim}")
        if coord_width not in (4, 8):
            raise ValueError(f"coord_width must be 4 or 8, got {coord_width}")
        self.ndim = ndim
        self.variable_mode = variable_mode
        self.coord_width = coord_width
        self.include_slot = include_slot
        self._var_serde = _variable_serde(variable_mode)
        self._coord_serde = _INT32 if coord_width == 4 else _INT64

    def write(self, obj: CellKey, out: bytearray) -> None:
        if len(obj.coords) != self.ndim:
            raise ValueError(
                f"key has {len(obj.coords)} coords, serde expects {self.ndim}"
            )
        self._var_serde.write(obj.variable, out)
        for c in obj.coords:
            self._coord_serde.write(c, out)
        if self.include_slot:
            _INT32.write(obj.slot, out)

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[CellKey, int]:
        start = offset
        variable, offset = self._var_serde.read(buf, offset)
        coords = []
        for _ in range(self.ndim):
            c, offset = self._coord_serde.read(buf, offset)
            coords.append(c)
        slot = 0
        if self.include_slot:
            slot, offset = _INT32.read(buf, offset)
        try:
            key = CellKey(variable, tuple(coords), slot)
        except CorruptRecordError:
            raise
        except ValueError as exc:
            raise MalformedRecordError(f"invalid cell key: {exc}",
                                       offset=start) from exc
        return key, offset

    # -- vectorized bulk path -------------------------------------------------

    def key_size(self, variable: str | int) -> int:
        """Serialized size of a key for ``variable`` (fixed given the mode)."""
        probe = bytearray()
        self._var_serde.write(variable, probe)
        slot = 4 if self.include_slot else 0
        return len(probe) + self.coord_width * self.ndim + slot

    def pack_batch_keys(
        self,
        variable: str | int,
        coords: np.ndarray,
        slots: np.ndarray | int = 0,
    ) -> tuple[np.ndarray, int]:
        """Serialize many keys of one variable into one uint8 matrix.

        Returns ``(matrix, key_size)`` where ``matrix`` is ``(n, key_size)``
        uint8 (variable prefix broadcast, order-preserving big-endian
        coordinate words) -- the columnar form the batched spill path
        consumes without materializing per-record ``bytes`` objects.
        """
        coords = np.ascontiguousarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ValueError(f"expected (n, {self.ndim}) coords, got {coords.shape}")
        n = coords.shape[0]
        cw = self.coord_width
        half = 1 << (8 * cw - 1)
        if n and (coords.min() < -half or coords.max() >= half):
            raise ValueError(f"coordinates exceed int{8 * cw} range")
        prefix = bytearray()
        self._var_serde.write(variable, prefix)
        plen = len(prefix)
        slot_bytes = 4 if self.include_slot else 0
        rec = plen + cw * self.ndim + slot_bytes
        mat = np.empty((n, rec), dtype=np.uint8)
        if plen:
            mat[:, :plen] = np.frombuffer(bytes(prefix), dtype=np.uint8)
        # order-preserving big-endian: flip the sign bit then pack >uN
        if cw == 4:
            body = ((coords + half) & 0xFFFFFFFF).astype(">u4")
        else:
            body = (coords.astype(np.uint64) + np.uint64(half)).astype(">u8")
        mat[:, plen:plen + cw * self.ndim] = (
            body.view(np.uint8).reshape(n, cw * self.ndim)
        )
        if self.include_slot:
            slot_col = np.broadcast_to(
                np.asarray(slots, dtype=np.int64), (n,)
            )
            slot_be = ((slot_col + (1 << 31)) & 0xFFFFFFFF).astype(">u4")
            mat[:, plen + cw * self.ndim:] = slot_be.view(np.uint8).reshape(n, 4)
        return mat, rec

    def write_batch(
        self,
        variable: str | int,
        coords: np.ndarray,
        slots: np.ndarray | int = 0,
    ) -> list[bytes]:
        """Serialize many keys of one variable into per-record ``bytes``.

        Convenience wrapper over :meth:`pack_batch_keys` for callers that
        need individual key blobs; the engine's columnar fast path uses
        the matrix form directly.
        """
        mat, rec = self.pack_batch_keys(variable, coords, slots)
        n = mat.shape[0]
        flat = mat.tobytes()
        return [flat[i * rec:(i + 1) * rec] for i in range(n)]

    def _variables(self, rows: np.ndarray) -> tuple[list, np.ndarray, int]:
        """``(variables, which, prefix length)`` of ``n >= 1`` key rows:
        the one decode of a row matrix that can fail (the fixed-width
        words are any bytes)."""
        plen = rows.shape[1] - self.coord_width * self.ndim - (
            4 if self.include_slot else 0)
        if plen < 1:
            raise MalformedRecordError(f"no cell keys of {rows.shape[1]} bytes")
        return (*_unpack_variables(self._var_serde, rows[:, :plen]), plen)

    def unpack_rows(
        self, rows: np.ndarray
    ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """Decode an ``(n, key_size)`` uint8 matrix of cell keys, ``n >=
        1``, as columns: ``(variables, which, coords, slots)`` -- the
        distinct variables in byte order, each row's index into them, the
        ``(n, ndim)`` int64 coordinates and the int64 slots.  The
        variable prefix is decoded once per distinct value and must fill
        the row up to the fixed-width words (a
        :class:`MalformedRecordError` otherwise); coordinates and slots
        take one numpy pass each.
        """
        n = rows.shape[0]
        variables, which, plen = self._variables(rows)
        body = self.coord_width * self.ndim
        coords = self._coord_serde.read_column_array(
            np.ascontiguousarray(rows[:, plen:plen + body]), n * self.ndim)
        if self.include_slot:
            slots = _INT32.read_column_array(
                np.ascontiguousarray(rows[:, plen + body:]), n)
        else:
            slots = np.zeros(n, dtype=np.int64)
        return variables, which, coords.reshape(n, self.ndim), slots

    def read_rows(self, rows: np.ndarray) -> list[CellKey]:
        """Decode an ``(n, key_size)`` uint8 matrix of cell keys.

        The inverse of :meth:`pack_batch_keys` for rows of any mix of
        variables, equal to ``[from_bytes(row) for row in rows]``: the
        columns of :meth:`unpack_rows`, each key built straight from its
        row's decoded fields (:func:`_cell_keys`).
        """
        if rows.shape[0] == 0:
            return []
        return _cell_keys(*self.unpack_rows(rows))

    def lazy_rows(self, rows: np.ndarray) -> PackedKeys:
        """:meth:`read_rows` decoded when read: the variable prefixes are
        checked now, so a matrix ``read_rows`` would reject raises here,
        and no key is built until the sequence is read."""
        if rows.shape[0]:
            self._variables(rows)
        return PackedKeys(rows, self)


class RangeKeySerde(Serde):
    """Serializer for :class:`RangeKey`.

    Layout: variable (Text or int32), order-preserving int64 ``start``,
    int32 ``count``.  Because every field is order-preserving, sorting the
    raw bytes sorts by ``(variable, start, count)`` -- which is exactly
    the order the reducer-side overlap splitter (§IV-B, Fig 7) needs.
    """

    def __init__(self, variable_mode: str = "name") -> None:
        self.variable_mode = variable_mode
        self._var_serde = _variable_serde(variable_mode)

    def write(self, obj: RangeKey, out: bytearray) -> None:
        self._var_serde.write(obj.variable, out)
        _INT64.write(obj.start, out)
        _INT32.write(obj.count, out)

    def read(self, buf: memoryview | bytes, offset: int) -> tuple[RangeKey, int]:
        begin = offset
        variable, offset = self._var_serde.read(buf, offset)
        start, offset = _INT64.read(buf, offset)
        count, offset = _INT32.read(buf, offset)
        try:
            key = RangeKey(variable, start, count)
        except CorruptRecordError:
            raise
        except ValueError as exc:
            raise MalformedRecordError(f"invalid range key: {exc}",
                                       offset=begin) from exc
        return key, offset

    def key_size(self, variable: str | int) -> int:
        probe = bytearray()
        self._var_serde.write(variable, probe)
        return len(probe) + 12

    # -- vectorized bulk path -------------------------------------------------

    def pack_batch_keys(
        self,
        variable: str | int,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Serialize many range keys of one variable into a uint8 matrix.

        Returns ``(matrix, key_size)``; rows are byte-identical to
        :meth:`write` of ``RangeKey(variable, start, count)``.
        """
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if starts.ndim != 1 or starts.shape != counts.shape:
            raise ValueError(
                f"starts/counts must be matching 1-D arrays, got "
                f"{starts.shape} vs {counts.shape}"
            )
        n = starts.shape[0]
        if n and starts.min() < 0:
            raise ValueError("range start must be >= 0")
        if n and (counts.min() <= 0 or counts.max() >= (1 << 31)):
            raise ValueError("range count must be in [1, 2**31)")
        prefix = bytearray()
        self._var_serde.write(variable, prefix)
        plen = len(prefix)
        rec = plen + 12
        mat = np.empty((n, rec), dtype=np.uint8)
        if plen:
            mat[:, :plen] = np.frombuffer(bytes(prefix), dtype=np.uint8)
        start_be = (starts.astype(np.uint64) + np.uint64(1 << 63)).astype(">u8")
        mat[:, plen:plen + 8] = start_be.view(np.uint8).reshape(n, 8)
        count_be = ((counts + (1 << 31)) & 0xFFFFFFFF).astype(">u4")
        mat[:, plen + 8:] = count_be.view(np.uint8).reshape(n, 4)
        return mat, rec

    def write_batch(
        self,
        variable: str | int,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> list[bytes]:
        """Per-record ``bytes`` convenience wrapper over :meth:`pack_batch_keys`."""
        mat, rec = self.pack_batch_keys(variable, starts, counts)
        flat = mat.tobytes()
        return [flat[i * rec:(i + 1) * rec] for i in range(mat.shape[0])]

    def unpack_batch_keys(
        self, keys: np.ndarray
    ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """Decode an ``(n, key_size)`` uint8 matrix of range keys.

        Returns ``(variables, which, starts, counts)``: the distinct
        variables in byte order, each row's index into them, and the
        int64 ``start`` / ``count`` columns.  The variable prefix is
        decoded once per distinct value and must fill the row up to the
        12 fixed bytes (a ``ValueError`` otherwise); ``start`` and
        ``count`` are returned as stored, unvalidated.
        """
        n, width = keys.shape
        plen = width - 12
        if n == 0 or plen < 1:
            raise MalformedRecordError(f"no range keys of {width} bytes")
        keys = np.ascontiguousarray(keys)
        variables, which = _unpack_variables(self._var_serde, keys[:, :plen])
        starts = np.ascontiguousarray(keys[:, plen:plen + 8]).view(">u8")
        starts = (starts.ravel().astype(np.uint64)
                  ^ np.uint64(1 << 63)).view(np.int64)
        counts = np.ascontiguousarray(keys[:, plen + 8:]).view(">u4")
        counts = counts.ravel().astype(np.int64) - (1 << 31)
        return variables, which, starts, counts
