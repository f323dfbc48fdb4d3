"""Properties of the integer order key behind every columnar sort.

``sort.order_key`` turns an ``(n, w)`` uint8 key matrix into one
mixed-radix integer per row (a digit per varying byte column, held in
the narrowest of uint16 / uint32 / uint64) or, above 2**64, the ``S``
view.  ``argsort_key_matrix``, ``group_bounds``, ``sort_groups`` and
``merge_sorted_runs`` all read it, so each is pinned here to its
definition over the rows' raw bytes -- Python's stable ``sorted``,
``itertools.groupby`` and ``heapq.merge`` -- on matrices built to reach
every width of the key: the generator picks the key space first and
puts each column's extremes in the matrix, so the observed spans are
the intended ones.  Constant columns, ``n`` of 0, 1 and 2, trailing and
embedded ``\\x00`` bytes, ``0x00``/``0xFF`` in one column and strided
views are all drawn.
"""

import heapq
import itertools
import math
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.columnar import PartitionBuffer, column_records
from repro.mapreduce.sort import (
    argsort_key_matrix,
    group_bounds,
    merge_sorted_runs,
    order_key,
    run_records,
    sort_groups,
)

#: per key space: the number of varying columns and their spans
SPACES = {
    "constant": (st.just(0), st.just(1)),
    "uint16": (st.integers(1, 2), st.sampled_from([2, 3, 17, 255, 256])),
    "uint32": (st.integers(3, 4), st.sampled_from([41, 200, 256])),
    "uint64": (st.integers(5, 8), st.sampled_from([256])),
    "S": (st.integers(9, 11), st.sampled_from([256])),
}


def expected_dtype(matrix: np.ndarray) -> np.dtype:
    """The narrowest key dtype for ``matrix``'s observed column spans."""
    if matrix.shape[0] == 0:
        return np.dtype(np.uint16)
    spans = matrix.max(axis=0).astype(int) - matrix.min(axis=0) + 1
    space = math.prod(spans.tolist())
    for dtype in (np.uint16, np.uint32, np.uint64):
        if space <= 2 ** (8 * np.dtype(dtype).itemsize):
            return np.dtype(dtype)
    return np.dtype(f"S{matrix.shape[1]}")


@st.composite
def key_matrices(draw, space=None):
    """An ``(n, w)`` uint8 matrix whose varying columns span a chosen
    key space; rows come from a small pool, so equal keys are common."""
    space = space or draw(st.sampled_from(sorted(SPACES)))
    count, span = SPACES[space]
    varying = [draw(span) for _ in range(draw(count))]
    constant = draw(st.lists(st.sampled_from([0, 0, 7, 255]), max_size=4))
    columns = []  # (lo, hi) per column
    for s in varying:
        lo = draw(st.integers(0, 256 - s))
        columns.append((lo, lo + s - 1))
    columns += [(c, c) for c in constant]
    order = draw(st.permutations(range(len(columns))))
    if draw(st.booleans()):  # a NUL column at the end of every row
        order = [*order, len(columns)]
        columns.append((0, 0))
    columns = [columns[c] for c in order]
    lo = np.array([a for a, _ in columns], np.uint8)
    hi = np.array([b for _, b in columns], np.uint8)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = np.vstack([lo, hi, rng.integers(
        lo, hi.astype(int) + 1, size=(draw(st.integers(0, 5)), len(lo)))
    ]).astype(np.uint8) if columns else np.zeros((2, 0), np.uint8)
    n = draw(st.sampled_from([0, 1, 2, 3, 8, 40]))
    picks = rng.integers(0, len(pool), size=n)
    if n >= 2:  # both extremes present: the spans are the drawn ones
        picks[rng.permutation(n)[:2]] = [0, 1]
    matrix = pool[picks]
    if draw(st.booleans()):  # the same rows seen through a strided view
        base = rng.integers(0, 256, size=(3 * n, 2 * matrix.shape[1]),
                            dtype=np.uint8)
        base[::3, ::2] = matrix
        matrix = base[::3, ::2]
    return matrix


def rows(matrix: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in matrix]


@settings(max_examples=400, deadline=None)
@given(key_matrices())
def test_argsort_is_the_stable_sort_of_the_row_bytes(matrix):
    blobs = rows(matrix)
    assert argsort_key_matrix(matrix).tolist() == sorted(
        range(len(blobs)), key=blobs.__getitem__)


@settings(max_examples=400, deadline=None)
@given(key_matrices())
def test_group_bounds_are_groupby_over_the_row_bytes(matrix):
    sorted_rows = matrix[argsort_key_matrix(matrix)]
    runs = [len(list(g)) for _, g in itertools.groupby(rows(sorted_rows))]
    assert group_bounds(sorted_rows).tolist() == [
        0, *itertools.accumulate(runs)]


@settings(max_examples=200, deadline=None)
@given(key_matrices())
def test_sort_groups_is_argsort_then_group_bounds(matrix):
    order, bounds = sort_groups(matrix)
    assert order.tolist() == argsort_key_matrix(matrix).tolist()
    assert bounds.tolist() == group_bounds(matrix[order]).tolist()


@pytest.mark.parametrize("space", sorted(SPACES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_key_space_is_reached(space, data):
    """The generator's matrices land in the key width they were drawn
    for (two or more rows), and the key's order and equality are the
    rows' byte order and equality, pair by pair."""
    matrix = data.draw(key_matrices(space))
    key = order_key(matrix)
    assert key.dtype == expected_dtype(matrix)
    if matrix.shape[0] >= 2:
        assert key.dtype == np.dtype({"constant": "uint16"}.get(
            space, space if space != "S" else f"S{matrix.shape[1]}"))
    blobs = rows(matrix)
    for i, j in itertools.combinations(range(len(blobs)), 2):
        assert (key[i] < key[j]) == (blobs[i] < blobs[j])
        assert (key[i] == key[j]) == (blobs[i] == blobs[j])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_merge_sorted_runs_is_heap_merge_of_the_records(k, data):
    """k columnar runs cut from one matrix, each sorted: the merge is
    ``heapq.merge``'s, ties in run order (values number the rows)."""
    matrix = data.draw(key_matrices())
    n = matrix.shape[0]
    values = np.arange(n, dtype=">u4").view(np.uint8).reshape(n, 4)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=k - 1,
                                     max_size=k - 1)))
    runs = []
    for a, b in zip([0, *cuts], [*cuts, n]):
        order = argsort_key_matrix(matrix[a:b])
        runs.append((matrix[a:b][order], values[a:b][order]))
    expected = list(heapq.merge(*(column_records(*r) for r in runs),
                                key=itemgetter(0)))
    assert run_records(merge_sorted_runs(runs)) == expected


def test_presorted_is_one_sorted_chunk_and_nothing_else():
    keys, values = np.zeros((2, 4), np.uint8), np.zeros((2, 2), np.uint8)
    buf = PartitionBuffer()
    buf.append_sorted(keys[:0], values[:0])
    assert not buf.presorted
    buf.append_sorted(keys, values)
    assert buf.presorted
    buf.append_sorted(keys, values)  # two sorted chunks are not sorted
    assert not buf.presorted
    for then in (lambda b: b.append(b"abcd", b"xy"),
                 lambda b: b.append_chunk(keys, values), PartitionBuffer.clear):
        buf.clear()
        buf.append_sorted(keys, values)
        then(buf)
        assert not buf.presorted
    buf.clear()
    buf.append_chunk(keys, values)
    buf.append_sorted(keys, values)
    assert not buf.presorted
