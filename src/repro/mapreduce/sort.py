"""Sorting and k-way merging of serialized record runs.

Hadoop sorts intermediate records by their serialized key bytes (raw
comparators); because every serde in :mod:`repro.mapreduce.serde` is
order-preserving, raw-byte order here equals semantic order.  The merge
machinery supports the multi-pass behaviour the paper lists as step 5 of
the data flow ("possibly requiring multiple on-disk sort phases"): when a
reducer holds more runs than ``merge_factor``, extra passes fold runs
together through real files, and that extra disk traffic is charged to
the task profile.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.mapreduce.columnar import (
    Ragged,
    column_records,
    concat_values,
    take_rows,
)

__all__ = [
    "sort_records",
    "merge_runs",
    "merge_sorted_runs",
    "run_rows",
    "run_records",
    "group_by_key",
    "plan_merge_passes",
    "order_key",
    "argsort_key_matrix",
    "sort_groups",
    "group_bounds",
]

Record = tuple[bytes, bytes]
#: a key-sorted run in either form: a record list, or the columnar
#: ``(keys, values)`` pair of an ``(n, kw)`` uint8 key matrix and a value
#: column -- an ``(n, vw)`` uint8 matrix or a :class:`Ragged` column
Run = list[Record] | tuple[np.ndarray, np.ndarray | Ragged]


def order_key(keys: np.ndarray) -> np.ndarray:
    """A 1-D key whose order and equality are the rows' raw-byte ones.

    Each byte column of the ``(n, w)`` uint8 matrix that varies becomes
    one digit of a mixed-radix integer, the leftmost column the most
    significant, with its observed ``[lo, hi]`` as the digit's range;
    constant columns cannot decide a comparison and drop out.  The
    integer is held in the narrowest of uint16 / uint32 / uint64 that
    fits the product of the spans -- a 20-byte cell key whose coordinates
    vary in three bytes becomes a uint16 -- so a stable argsort of it
    takes numpy's radix path.  A key space above 2**64 falls back to the
    fixed-width ``S`` view, whose comparisons are raw-byte ones for rows
    of one width.
    """
    n, width = keys.shape
    if n == 0:
        return np.zeros(0, np.uint16)
    # column ranges on a transposed copy: per-row reductions over
    # contiguous bytes cost far less than ``min(axis=0)`` on (n, w)
    cols = np.ascontiguousarray(keys.T)
    lo = cols.min(axis=1)
    spans = (cols.max(axis=1) - lo).astype(np.int64) + 1
    vary = np.flatnonzero(spans > 1).tolist()
    space = math.prod(int(spans[c]) for c in vary)
    for dtype in (np.uint16, np.uint32, np.uint64):
        if space <= 1 << (8 * np.dtype(dtype).itemsize):
            break
    else:
        return np.ascontiguousarray(keys).view(f"S{width}").ravel()
    key = np.zeros(n, dtype)
    for c in vary:
        key *= dtype(spans[c])
        key += cols[c] - lo[c]
    return key


def _bounds(sorted_key: np.ndarray) -> np.ndarray:
    """Group boundaries of a sorted 1-D order key (see :func:`group_bounds`)."""
    n = sorted_key.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    change = np.flatnonzero(sorted_key[1:] != sorted_key[:-1])
    return np.concatenate(([0], change + 1, [n]))


def argsort_key_matrix(keys: np.ndarray) -> np.ndarray:
    """Stable sort order of an ``(n, key_size)`` uint8 key matrix.

    The columnar counterpart of :func:`sort_records`: rows are compared
    as raw key bytes (through :func:`order_key`), and ``kind='stable'``
    preserves emission order among equal keys -- so gathering records by
    the returned order yields exactly the sequence :func:`sort_records`
    would produce.
    """
    return np.argsort(order_key(keys), kind="stable")


def sort_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stable sort serving both :func:`argsort_key_matrix` and
    :func:`group_bounds`: ``(order, bounds)``, where ``keys[order]`` is
    the sorted matrix and ``bounds`` its group boundaries."""
    key = order_key(keys)
    order = np.argsort(key, kind="stable")
    return order, _bounds(key[order])


def group_bounds(sorted_keys: np.ndarray) -> np.ndarray:
    """Group boundaries of a key-sorted ``(n, key_size)`` uint8 matrix.

    Returns indices ``b`` with ``len(b) == ngroups + 1``; group ``g``
    spans rows ``[b[g], b[g+1])``.  Grouping is by exact row (byte)
    equality, matching :func:`group_by_key`.
    """
    return _bounds(order_key(sorted_keys))


def sort_records(records: list[Record]) -> list[Record]:
    """Stable sort by raw key bytes.

    Fast path: when all keys share one length (true for cell and range
    keys of a single variable), pack keys into a numpy ``S``-dtype column
    and argsort -- numpy's bytes sort is ~10x faster than list.sort with
    Python bytes comparisons at mapper-buffer sizes.  ``kind='stable'``
    preserves emission order among equal keys, matching list.sort.
    """
    if len(records) < 2:
        return list(records)
    first_len = len(records[0][0])
    if first_len > 0 and all(len(k) == first_len for k, _ in records):
        keys = np.array([k for k, _ in records], dtype=f"S{first_len}")
        order = np.argsort(keys, kind="stable")
        return [records[i] for i in order]
    return sorted(records, key=itemgetter(0))


def merge_runs(runs: Sequence[Iterable[Record]]) -> Iterator[Record]:
    """K-way merge of key-sorted runs into one key-sorted stream."""
    return heapq.merge(*runs, key=itemgetter(0))


def run_rows(run: Run) -> int:
    """Record count of a run in either form.  A columnar run is a tuple,
    truthy even with zero rows -- test this, never the run itself."""
    return run[0].shape[0] if type(run) is tuple else len(run)


def run_records(run: Run) -> list[Record]:
    """A run as records: a columnar run decays row by row (the way
    ``PartitionBuffer.to_records`` does), a record run is itself."""
    return column_records(*run) if type(run) is tuple else run


def merge_sorted_runs(runs: Sequence[Run]) -> Run:
    """Merge key-sorted runs of either form into one materialized run.

    When every run is columnar with one key width the result is
    columnar: concatenate in run order and gather by one stable argsort
    -- a stable sort of concatenated sorted runs keeps equal keys in run
    order, which is exactly :func:`merge_runs`' (``heapq.merge``'s) tie
    order.  Its values are a fixed matrix when every run's are, of one
    width, and a ragged column otherwise.  Any other mix -- a record run
    among them, differing key widths -- takes the heap merge over
    records, columnar runs decaying first.  Both forms hold the same
    record sequence.
    """
    if runs and all(type(r) is tuple for r in runs) and len(
            {k.shape[1] for k, _ in runs}) == 1:
        if len(runs) == 1:
            return runs[0]
        kall = np.concatenate([k for k, _ in runs])
        vall = concat_values([v for _, v in runs])
        order = argsort_key_matrix(kall)
        return kall[order], take_rows(vall, order)
    return list(merge_runs([run_records(r) for r in runs]))


def group_by_key(stream: Iterable[Record]) -> Iterator[tuple[bytes, list[bytes]]]:
    """Group a key-sorted record stream into ``(key, [values...])``.

    This is the reducer-side grouping of step 5/6 in the paper's data
    flow; it relies on equal keys being byte-identical (our serdes are
    canonical encodings).
    """
    current_key: bytes | None = None
    values: list[bytes] = []
    for key, value in stream:
        if key != current_key:
            if current_key is not None:
                yield current_key, values
            current_key = key
            values = []
        values.append(value)
    if current_key is not None:
        yield current_key, values


def plan_merge_passes(num_runs: int, merge_factor: int) -> list[int]:
    """How many runs each intermediate merge pass folds together.

    Returns a list of group sizes for on-disk passes; after executing
    them the surviving run count is <= ``merge_factor`` so the final
    merge can stream.  Mirrors Hadoop's ``io.sort.factor`` behaviour in
    spirit (first pass may be smaller so later passes are full-width).
    """
    if merge_factor < 2:
        raise ValueError(f"merge_factor must be >= 2, got {merge_factor}")
    if num_runs < 0:
        raise ValueError(f"num_runs must be >= 0, got {num_runs}")
    passes: list[int] = []
    remaining = num_runs
    while remaining > merge_factor:
        # Fold merge_factor runs into one: net reduction merge_factor - 1.
        take = min(merge_factor, remaining - merge_factor + 1)
        if take < 2:
            break
        passes.append(take)
        remaining -= take - 1
    return passes
