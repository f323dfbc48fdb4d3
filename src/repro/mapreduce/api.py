"""User-facing Mapper / Reducer / Monoid APIs.

Mirrors Hadoop's programming model (§II-A): a Map function from input
records to intermediate key/value pairs and a Reduce function from a key
plus all its values to output pairs.  Hadoop's optional combiner (Fig 1
step 3) is not written by hand here: a reducer that declares a
:class:`Monoid` has one, and ``Job.combine`` runs it map-side.
Contexts own serialization -- keys are converted to bytes the moment
they are emitted, reproducing Hadoop assumption (b) of §II-B.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.mapreduce.columnar import Ragged, column_records
from repro.mapreduce.keys import CellKeySerde
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.output import PackedKeys, PackedOutput
from repro.mapreduce.serde import Serde
from repro.scidata.splits import InputSplit

__all__ = ["Mapper", "Reducer", "Monoid", "FoldReducer", "MIN", "MAX", "SUM",
           "SUM_COUNT", "MapContext", "ReduceContext"]


class MapContext:
    """Hands mapper output to the engine's spill buffer, serialized.

    The engine supplies ``sink`` -- a callable taking
    ``(key_bytes, value_bytes)`` -- plus the job's serdes.  The vectorized
    :meth:`emit_cells` path exists because a sliding-window mapper emits
    millions of cell keys; serializing them one Python call at a time
    would dominate runtime (see the HPC guide rule: vectorize hot loops).
    """

    def __init__(self, key_serde: Serde, value_serde: Serde, sink,
                 counters: Counters, batch_sink=None,
                 serialized_batch_sink=None) -> None:
        self.key_serde = key_serde
        self.value_serde = value_serde
        self._sink = sink
        #: engine-supplied columnar sink taking ``(keys, values)`` uint8
        #: matrices; ``None`` when the job has a shuffle plugin or the
        #: context is sink-only (then the batched emits below decay to
        #: per-record ``sink`` calls)
        self._batch_sink = batch_sink
        #: engine-supplied sink taking a key matrix and a ragged value
        #: column, the whole-batch form of ``sink`` for a shuffle plugin's
        #: records (``None``: :meth:`emit_serialized_batch` decays the
        #: same way)
        self._serialized_batch_sink = serialized_batch_sink
        self.counters = counters

    def emit(self, key: Any, value: Any) -> None:
        """Serialize and emit one intermediate pair."""
        kout = bytearray()
        self.key_serde.write(key, kout)
        vout = bytearray()
        self.value_serde.write(value, vout)
        self._sink(bytes(kout), bytes(vout))
        self.counters.incr(C.MAP_OUTPUT_RECORDS)

    def emit_serialized(self, key_bytes: bytes, value_bytes: bytes) -> None:
        """Emit an already-serialized pair (used by the aggregation library)."""
        self._sink(key_bytes, value_bytes)
        self.counters.incr(C.MAP_OUTPUT_RECORDS)

    def emit_serialized_batch(self, keys: np.ndarray, values: Ragged) -> None:
        """Emit many already-serialized pairs whose values differ in length.

        ``keys`` is an ``(n, key_size)`` uint8 matrix and ``values`` a
        :class:`~repro.mapreduce.columnar.Ragged` column: row ``i`` is
        the pair ``(keys[i], values[i])``.  Equivalent to
        :meth:`emit_serialized` row by row, in order.  The aggregation
        library hands over a whole flush this way: with a shuffle plugin
        that routes batches, the engine routes and buffers it as arrays;
        otherwise it decays to one ``sink`` call per record.
        """
        keys = np.asarray(keys, dtype=np.uint8)
        if keys.ndim != 2:
            raise ValueError("emit_serialized_batch takes (n, width) keys")
        n = keys.shape[0]
        if n != values.rows:
            raise ValueError(f"{n} keys vs {values.rows} values")
        if n == 0:
            return
        if self._serialized_batch_sink is not None:
            self._serialized_batch_sink(keys, values)
        else:
            sink = self._sink
            for kb, vb in column_records(keys, values):
                sink(kb, vb)
        self.counters.incr(C.MAP_OUTPUT_RECORDS, n)

    def emit_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Emit many already-serialized fixed-width pairs at once.

        ``keys`` is an ``(n, key_size)`` uint8 matrix, ``values`` an
        ``(n, value_size)`` uint8 matrix -- the columnar record form
        (obtained e.g. from ``CellKeySerde.pack_batch_keys`` and
        ``Serde.pack_batch``).  On a plugin-less job the whole batch is
        handed to the engine without creating per-record objects; on a
        sink-only context it decays to one ``sink`` call per record.
        """
        keys = np.asarray(keys, dtype=np.uint8)
        values = np.asarray(values, dtype=np.uint8)
        if keys.ndim != 2 or values.ndim != 2:
            raise ValueError("emit_batch takes (n, width) uint8 matrices")
        n = keys.shape[0]
        if n != values.shape[0]:
            raise ValueError(f"{n} keys vs {values.shape[0]} values")
        if n == 0:
            return
        if self._batch_sink is not None:
            self._batch_sink(keys, values)
        else:
            kw, vw = keys.shape[1], values.shape[1]
            kflat = np.ascontiguousarray(keys).tobytes()
            vflat = np.ascontiguousarray(values).tobytes()
            sink = self._sink
            for i in range(n):
                sink(kflat[i * kw:(i + 1) * kw], vflat[i * vw:(i + 1) * vw])
        self.counters.incr(C.MAP_OUTPUT_RECORDS, n)

    def emit_cells(
        self,
        variable: str | int,
        coords: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | int = 0,
    ) -> None:
        """Vectorized emit of many per-cell pairs for one variable.

        Requires the job's key serde to be a :class:`CellKeySerde` and a
        fixed-width value serde (``SIZE`` attribute).  ``values`` may be
        1-D (one scalar per cell, packed by dtype) or 2-D ``(n, nfields)``
        (one row per cell, packed by the value serde's ``pack_batch`` --
        for multi-field values such as running sum/count pairs).
        """
        if not isinstance(self.key_serde, CellKeySerde):
            raise TypeError("emit_cells requires a CellKeySerde key type")
        size = getattr(self.value_serde, "SIZE", None)
        if size is None:
            raise TypeError("emit_cells requires a fixed-width value serde")
        coords = np.asarray(coords)
        values = np.asarray(values)
        if values.ndim <= 1:
            values = values.ravel()
            if coords.shape[0] != values.shape[0]:
                raise ValueError(
                    f"{coords.shape[0]} coords vs {values.shape[0]} values"
                )
            value_blob = self._pack_values(values)
        else:
            if coords.shape[0] != values.shape[0]:
                raise ValueError(
                    f"{coords.shape[0]} coords vs {values.shape[0]} values"
                )
            value_blob = self.value_serde.pack_batch(values)
        n = coords.shape[0]
        if len(value_blob) != n * size:
            raise ValueError(
                f"value column is {len(value_blob)} bytes, expected {n}x{size}"
            )
        if self._batch_sink is not None:
            kmat, _ = self.key_serde.pack_batch_keys(variable, coords, slots)
            vmat = np.frombuffer(value_blob, dtype=np.uint8).reshape(n, size)
            self._batch_sink(kmat, vmat)
        else:
            keys = self.key_serde.write_batch(variable, coords, slots)
            sink = self._sink
            for i, kb in enumerate(keys):
                sink(kb, value_blob[i * size:(i + 1) * size])
        self.counters.incr(C.MAP_OUTPUT_RECORDS, n)

    def _pack_values(self, values: np.ndarray) -> bytes:
        """Serialize a homogeneous value column in one numpy pass."""
        # Fixed-width serdes are big-endian packers; replicate vectorized.
        kind = values.dtype.kind
        if kind in "iu":
            # order-preserving int packing (sign-bit flip); uint64
            # arithmetic wraps correctly for the 64-bit bias
            width = getattr(self.value_serde, "SIZE")
            bias = np.uint64(1 << (8 * width - 1))
            mask = np.uint64((1 << (8 * width)) - 1)
            biased = (values.astype(np.int64).astype(np.uint64) + bias) & mask
            packed = biased.astype(f">u{width}")
            return packed.tobytes()
        if kind == "f":
            width = getattr(self.value_serde, "SIZE")
            return values.astype(f">f{width}").tobytes()
        raise TypeError(f"unsupported value dtype {values.dtype}")


class ReduceContext:
    """Collects reducer output (and exposes counters).

    ``output`` is the task's ``(key, value)`` pairs in emission order, a
    :class:`~repro.mapreduce.output.PackedOutput`.  :meth:`emit` appends
    one; :meth:`emit_batch` appends many and is observably the same as
    calling :meth:`emit` pair by pair -- the reduce-side mirror of
    :meth:`MapContext.emit_batch`.
    """

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self.output = PackedOutput()

    def emit(self, key: Any, value: Any) -> None:
        self.output.append((key, value))
        self.counters.incr(C.REDUCE_OUTPUT_RECORDS)

    def emit_batch(self, keys: Sequence[Any], values: Sequence[Any]) -> None:
        """Emit ``zip(keys, values)``, counted once.

        ``values`` is a sequence of the Python objects :meth:`emit` would
        be given, or a 1-D numeric ndarray standing for its ``tolist()``
        (numpy scalars are not the values the per-group path emits).
        ``keys`` is a sequence of keys -- such as the
        :class:`~repro.mapreduce.output.PackedKeys` an engine hands
        ``reduce_batch``, or rows of it (``keys.repeat``).  Packed keys
        with an array stay packed: no key object is built until the
        output is read.
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(f"{n} keys vs {len(values)} values")
        if isinstance(values, np.ndarray):
            if (isinstance(keys, PackedKeys) and values.ndim == 1
                    and values.dtype.kind in "biuf"):
                self.output.add_batch(keys, values)
                self.counters.incr(C.REDUCE_OUTPUT_RECORDS, n)
                return
            values = values.tolist()
        self.output.extend(zip(keys, values))
        self.counters.incr(C.REDUCE_OUTPUT_RECORDS, n)


class Mapper(ABC):
    """Map half of the job.  One instance per map task."""

    #: set True on a subclass to receive ``self.dataset`` (the whole
    #: input dataset) before :meth:`setup` -- used by multi-variable
    #: mappers that must read slabs of variables other than the split's
    wants_dataset: bool = False

    def setup(self, split: InputSplit) -> None:
        """Called once before :meth:`map`; override for per-task state."""

    @abstractmethod
    def map(self, split: InputSplit, values: np.ndarray, ctx: MapContext) -> None:
        """Process one input split.

        ``values`` is the slab of input data for ``split`` (shape
        ``split.slab.shape``); emit intermediate pairs through ``ctx``.
        """

    def map_range(self, split: InputSplit, values: np.ndarray,
                  ctx: MapContext, start: int, stop: int) -> None:
        """Process input records ``[start, stop)`` of the split only.

        Records are flat (row-major) cell indices into the split's slab.
        Calling this over a partition of ``[0, values.size)`` in order
        must emit exactly what one :meth:`map` call would.  Skipping
        mode (Hadoop SkipBadRecords) requires it to bisect around poison
        records; mappers that don't override it are not skippable and
        fail the task as before.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support record-range mapping")

    def cleanup(self, ctx: MapContext) -> None:
        """Called once after :meth:`map` (flush buffered state here)."""


class Reducer(ABC):
    """Reduce half of the job.  One instance per reduce task.

    :meth:`reduce` is the definition of the job's reduce function and
    the only method a reducer must have; defining only it is always
    valid, for built-in reducers, user reducers and wrappers alike.

    A reducer *may* declare ``monoid``, the :class:`Monoid` its
    :meth:`reduce` folds a group's values with (:class:`FoldReducer`).
    ``Job.combine`` requires it: the engine folds each sorted spill
    group map-side with it, and the reducer folds the partial folds.

    A reducer *may* also define ``reduce_batch(keys, values, bounds,
    ctx)`` -- deliberately absent from this base class, so its presence
    is the opt-in.  The engine calls it once per reduce task, in place
    of the per-group loop, when the task's merged run is columnar and
    the value serde decodes a column as an array (``read_column_array``):

    - ``keys``: the key of every group, in sorted order -- a sequence,
      which for cell keys is a :class:`~repro.mapreduce.output.
      PackedKeys` over the group-leader rows (``Serde.lazy_rows``):
      ``len`` and indexing work, but a key is only built when read, so
      hand the sequence on rather than iterating it;
    - ``values``: a 1-D int64 / float64 ndarray, every value of the run
      in merged order (``values.tolist()`` is what the groups' ``reduce``
      calls would have received, concatenated);
    - ``bounds``: ``group_bounds`` of the sorted run -- an increasing
      int array of ``len(keys) + 1`` offsets, group ``g`` being
      ``values[bounds[g]:bounds[g + 1]]``, never empty.

    The contract is observational identity with the loop it replaces:
    the same ``ctx.output`` -- equal keys, **bit-identical** values of
    the same Python types, same order -- and the same counters (the
    engine counts the input groups and records).  Emit with
    :meth:`ReduceContext.emit_batch`: packed ``keys`` -- or, for a pair
    per record, ``keys.repeat(np.diff(bounds))`` -- with an ndarray of
    one value per key keeps the output packed, rows and array, to the
    job result.  A reducer that
    cannot promise that for the column it was handed (a float ``sum``,
    whose result depends on association order) returns
    ``NotImplemented`` *before emitting anything*, and the engine runs
    the per-group loop instead.  Skipping retries and record-form runs
    never consult it; a ``RangeGroupReducer`` tries it.
    """

    @abstractmethod
    def reduce(self, key: Any, values: Sequence[Any], ctx: ReduceContext) -> None:
        """Process one key group (all values for one intermediate key)."""


@dataclass(eq=False)
class Monoid:
    """An associative fold: a reducer's algebra, declared once.

    ``fold(values)`` is the definition: a fold of one group's non-empty
    value list with builtin semantics.  On integers it promises
    ``fold(xs + ys) == fold([fold(xs), fold(ys)])`` -- what folding spill
    groups map-side (``Job.combine``), then the partial folds at the
    reducer, relies on -- and, for every monoid declared here, that order
    does not matter (``tests/mapreduce/test_monoid_laws.py`` states each
    one's identity and checks the laws for every declared one).
    On floats regrouping rounds, so a combined float job may differ from
    an uncombined one in the last bits, as Hadoop's may.  ``ufunc`` is
    the numpy ufunc whose ``reduceat`` equals ``fold`` on integers.
    """

    fold: Callable[[Sequence[Any]], Any]
    ufunc: np.ufunc | None = None

    def fold_batch(self, values: np.ndarray, bounds: np.ndarray):
        """``fold`` of every group of a column, or ``NotImplemented``.

        ``values`` is a 1-D int64 / float64 array, group ``g`` being
        ``values[bounds[g]:bounds[g + 1]]`` (never empty).  Returns
        ``ufunc.reduceat(values, bounds[:-1])`` only where its
        ``tolist()`` is every group's ``fold`` bit for bit: an integer
        column, and for sums only when ``max|v| x largest group`` stays
        inside int64 (beyond it Python grows a big int).  Not on floats:
        builtin ``min`` / ``max`` return whichever operand a NaN
        comparison leaves standing (``min([nan, 1.0])`` is nan,
        ``min([1.0, nan])`` is 1.0) where ``np.minimum`` propagates NaN,
        and a float ``sum`` depends on association order and on the
        Python version's summation algorithm.
        """
        ufunc = self.ufunc
        if ufunc is None or values.dtype.kind != "i":
            return NotImplemented
        if ufunc is np.add:
            peak = max(abs(int(values.min())), abs(int(values.max())))
            if peak * int(np.diff(bounds).max()) >= 1 << 63:
                return NotImplemented
        return ufunc.reduceat(values, bounds[:-1])


def _sum_pairs(pairs: Sequence[tuple[Any, Any]]) -> tuple[Any, Any]:
    """Fold ``(total, count)`` pairs field by field."""
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


MIN = Monoid(min, np.minimum)
MAX = Monoid(max, np.maximum)
SUM = Monoid(sum, np.add)
#: the algebraic carrier of a mean: ``(total, count)`` pairs
SUM_COUNT = Monoid(_sum_pairs)


class FoldReducer(Reducer):
    """Emits ``finish(monoid.fold(values))`` per group -- every algebraic
    query's reducer.  Its ``monoid`` is also its combiner and, without a
    ``finish`` (such as a mean's ``total / count``), its batched reduce.
    """

    def __init__(self, monoid: Monoid,
                 finish: Callable[[Any], Any] | None = None) -> None:
        self.monoid = monoid
        self.finish = finish

    def reduce(self, key, values, ctx):
        value = self.monoid.fold(values)
        ctx.emit(key, value if self.finish is None else self.finish(value))

    def reduce_batch(self, keys, values, bounds, ctx):
        folded = (NotImplemented if self.finish is not None
                  else self.monoid.fold_batch(values, bounds))
        if folded is NotImplemented:
            return NotImplemented
        ctx.emit_batch(keys, folded)
