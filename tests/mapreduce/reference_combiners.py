"""The hand-written combiners as first written -- test-only oracle.

Map-side combining is now derived from the reducer's declared
:class:`~repro.mapreduce.api.Monoid`: ``Job.combine`` is a flag, the
engine has one ``_combine``, and every algebraic query reduces through
``FoldReducer``.  Before that each query wrote its algebra out by hand:
a ``Combiner`` class, a reducer, and a ``reduce_batch`` through
``integer_fold_batch``; the engine ran the combiner in two per-group
loops (records, and a fixed-width column), each decoding a key per group
that no combiner read.  Those classes and loops are kept here as they
were, so the tests can require the derived combine to write the same
segment bytes, count the same records and reduce to the same output.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from repro.mapreduce.api import Reducer
from repro.mapreduce.columnar import Ragged
from repro.mapreduce.metrics import C
from repro.mapreduce.sort import group_bounds, group_by_key, run_records


class Combiner(ABC):
    """Optional map-side partial reduce, applied per sorted spill run."""

    @abstractmethod
    def combine(self, key: Any, values: Sequence[Any]) -> Sequence[Any]:
        """Fold ``values`` for ``key``; return the surviving values."""


class CountCombiner(Combiner):
    """Map-side partial sum of bin counts."""

    def combine(self, key, values):
        return [sum(values)]


class FoldCombiner(Combiner):
    """Map-side partial fold with the reduce operator itself."""

    def __init__(self, fold: Callable) -> None:
        self.fold = fold

    def combine(self, key, values):
        return [self.fold(values)]


class SumCountCombiner(Combiner):
    """Fold (sum, count) pairs -- the algebraic partial reduce."""

    def combine(self, key, values):
        total = sum(v[0] for v in values)
        count = sum(v[1] for v in values)
        return [(total, count)]


_FOLD_UFUNCS = {min: np.minimum, max: np.maximum, sum: np.add}


def integer_fold_batch(fold, keys, values: np.ndarray, bounds: np.ndarray,
                       ctx):
    """``reduce_batch`` body of a reducer emitting ``fold(group values)``."""
    ufunc = _FOLD_UFUNCS.get(fold)
    if ufunc is None or values.dtype.kind != "i":
        return NotImplemented
    if ufunc is np.add:
        peak = max(abs(int(values.min())), abs(int(values.max())))
        if peak * int(np.diff(bounds).max()) >= 1 << 63:
            return NotImplemented  # the builtin would grow a big int
    ctx.emit_batch(keys, ufunc.reduceat(values, bounds[:-1]))


class CountReducer(Reducer):
    """Final sum of bin counts."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))

    def reduce_batch(self, keys, values, bounds, ctx):
        return integer_fold_batch(sum, keys, values, bounds, ctx)


class FoldReducer(Reducer):
    """Final fold of all window values with the operator."""

    def __init__(self, fold: Callable) -> None:
        self.fold = fold

    def reduce(self, key, values, ctx):
        ctx.emit(key, self.fold(values))

    def reduce_batch(self, keys, values, bounds, ctx):
        return integer_fold_batch(self.fold, keys, values, bounds, ctx)


class PlainMeanReducer(Reducer):
    """Final mean from folded (sum, count) pairs."""

    def reduce(self, key, values, ctx):
        total = sum(v[0] for v in values)
        count = sum(v[1] for v in values)
        ctx.emit(key, total / count)


def combine_records(job, combiner: Combiner, records, counters):
    """The engine's record-run combine loop."""
    out = []
    for kb, value_blobs in group_by_key(records):
        counters.incr(C.COMBINE_INPUT_RECORDS, len(value_blobs))
        key = job.key_serde.from_bytes(kb)
        values = job.value_serde.read_batch(value_blobs)
        for v in combiner.combine(key, values):
            vout = bytearray()
            job.value_serde.write(v, vout)
            out.append((kb, bytes(vout)))
            counters.incr(C.COMBINE_OUTPUT_RECORDS)
    return out


def combine_columnar(job, combiner: Combiner, kmat, vmat, counters):
    """The engine's fixed-width-run combine loop."""
    out = []
    bounds = group_bounds(kmat)
    vflat = memoryview(vmat).cast("B")
    vw = vmat.shape[1]
    for g in range(len(bounds) - 1):
        start, end = int(bounds[g]), int(bounds[g + 1])
        counters.incr(C.COMBINE_INPUT_RECORDS, end - start)
        kb = kmat[start].tobytes()
        key = job.key_serde.from_bytes(kb)
        values = job.value_serde.read_column(
            vflat[start * vw:end * vw], end - start)
        for v in combiner.combine(key, values):
            vout = bytearray()
            job.value_serde.write(v, vout)
            out.append((kb, bytes(vout)))
            counters.incr(C.COMBINE_OUTPUT_RECORDS)
    return out


def engine_combine(make_combiner: Callable[[], Combiner]):
    """A stand-in for ``engine._combine(job, run, counters)`` that runs
    ``make_combiner()`` the way the engine ran ``Job.combiner``: a
    fixed-width run as columns, any other run as records."""
    def combine(job, run, counters):
        if type(run) is tuple and type(run[1]) is not Ragged:
            return combine_columnar(job, make_combiner(), *run, counters)
        return combine_records(job, make_combiner(), run_records(run),
                               counters)
    return combine


#: algebraic query -> (combiner factory, reducer factory) of its plain job
ORACLES = {
    "min": (lambda: FoldCombiner(min), lambda: FoldReducer(min)),
    "max": (lambda: FoldCombiner(max), lambda: FoldReducer(max)),
    "sum": (lambda: FoldCombiner(sum), lambda: FoldReducer(sum)),
    "mean": (SumCountCombiner, PlainMeanReducer),
    "histogram": (CountCombiner, CountReducer),
}
