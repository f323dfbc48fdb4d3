"""The hash partitioner's batch kernel against an independent oracle.

``HashPartitioner`` routes a key to
``int.from_bytes(blake2b(key, digest_size=8).digest(), "big") % R``.
``partition_batch`` (dedupe, hash, scatter) and ``partition_rows``
(hash rows already known to be distinct) compute that number for a whole
matrix at once; here both are checked against the definition computed
row by row inside the test, on matrices of widths 0-40 and 0-300 rows
with heavy duplication, trailing and embedded ``\\x00`` bytes and strided
(non-contiguous) views, for ``R`` from 1 to 13 given as a Python int or
as ``np.int64``.  Golden vectors pin the routing itself: a change that
kept the kernel and the scalar path in agreement but moved keys to other
reducers would still fail them.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.partition import HashPartitioner, blake2b_column


def oracle(row: bytes, num_reducers: int) -> int:
    digest = hashlib.blake2b(row, digest_size=8).digest()
    return int.from_bytes(digest, "big") % int(num_reducers)


@st.composite
def key_matrices(draw):
    """An ``(n, width)`` uint8 matrix whose ``n`` rows are drawn (with
    repeats) from a pool of ``pool`` rows over a small or full byte
    alphabet, returned as a strided view into a larger buffer when
    ``row_step`` or ``col_step`` exceeds 1."""
    width = draw(st.integers(0, 40))
    n = draw(st.integers(0, 300))
    pool = draw(st.integers(1, max(1, n)))
    alphabet = draw(st.sampled_from([1, 2, 3, 256]))
    row_step = draw(st.integers(1, 3))
    col_step = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, alphabet, size=(pool, width), dtype=np.uint8)
    if alphabet < 256 and width:
        rows[:, -1] = 0  # a trailing NUL in every row
    mat = rows[rng.integers(0, pool, size=n)]
    big = np.full((n * row_step, width * col_step), 0xAB, dtype=np.uint8)
    big[::row_step, ::col_step] = mat
    return big[::row_step, ::col_step]


reducer_counts = st.tuples(st.integers(1, 13),
                           st.sampled_from([int, np.int64])).map(
    lambda t: t[1](t[0]))


@settings(max_examples=300, deadline=None)
@given(keys=key_matrices(), num_reducers=reducer_counts)
def test_partition_batch_matches_oracle(keys, num_reducers):
    batch = HashPartitioner(num_reducers).partition_batch(keys)
    assert batch.dtype == np.int64 and batch.shape == (keys.shape[0],)
    assert batch.tolist() == [oracle(row.tobytes(), num_reducers)
                              for row in keys]


@settings(max_examples=300, deadline=None)
@given(keys=key_matrices(), num_reducers=reducer_counts)
def test_partition_rows_matches_oracle_on_distinct_rows(keys, num_reducers):
    seen: dict[bytes, int] = {}
    for i, row in enumerate(keys):
        seen.setdefault(row.tobytes(), i)
    rows = keys[sorted(seen.values())]
    out = HashPartitioner(num_reducers).partition_rows(rows)
    assert out.dtype == np.int64 and out.shape == (rows.shape[0],)
    assert out.tolist() == [oracle(kb, num_reducers) for kb in seen]


@settings(max_examples=100, deadline=None)
@given(keys=key_matrices())
def test_blake2b_column_is_the_big_endian_digest(keys):
    column = blake2b_column(keys)
    assert column.shape == (keys.shape[0],)
    assert [int(d) for d in column] == [
        int.from_bytes(hashlib.blake2b(row.tobytes(), digest_size=8)
                       .digest(), "big") for row in keys]


#: 8-byte keys and their reducers for R = 2, 5, 7, as the per-key loop
#: routed them before the batch kernel existed.  Three digests have the
#: top bit set (``b982...``, ``9739...``, ``ca08...``) and every key but
#: the last ends in ``\x00``.
GOLDEN_KEYS = [
    b"\x00\x00\x00\x07\x00\x00\x01\x00",   # digest b982bcd9a3e4cdb6
    b"\x01\x00\x00\x00\x00\x00\x00\x00",   # digest 3304bc7bb02905fd
    b"\x00\x00\x01\x00\x00\x00\x01\x00",   # digest 9739d676ac1cc248
    b"\x00\x00\x00\x00\x00\x00\x00\x00",   # digest ca08ea5bca49cc18
    b"scihadop",                           # digest 2a9f768541da6ce3
]
GOLDEN_REDUCERS = {
    2: [0, 1, 0, 0, 1],
    5: [3, 1, 1, 3, 0],
    7: [4, 4, 5, 1, 1],
}


@pytest.mark.parametrize("as_type", [int, np.int64])
@pytest.mark.parametrize("num_reducers", sorted(GOLDEN_REDUCERS))
def test_golden_vectors(num_reducers, as_type):
    """An ``np.int64`` R must route like an int: ``uint64 % int64``
    promotes to float64 and rounds every digest above 2**53, and the
    scalar ``int % np.int64`` overflows on digests of 2**63 and up."""
    part = HashPartitioner(as_type(num_reducers))
    mat = np.frombuffer(b"".join(GOLDEN_KEYS), np.uint8).reshape(-1, 8)
    want = GOLDEN_REDUCERS[num_reducers]
    assert part.partition_batch(mat).tolist() == want
    assert part.partition_rows(mat).tolist() == want
    assert [part.partition(kb) for kb in GOLDEN_KEYS] == want
    # duplicated and reversed: the scatter puts each answer back
    dup = np.concatenate([mat, mat[::-1], mat])
    assert part.partition_batch(dup).tolist() == want + want[::-1] + want


def test_overridden_partition_routes_rows():
    """A subclass that overrides ``partition`` is the routing: the kernel
    must not bypass it."""
    class Reversed(HashPartitioner):
        def partition(self, key_bytes):
            return self.num_reducers - 1 - super().partition(key_bytes)

    mat = np.frombuffer(b"".join(GOLDEN_KEYS), np.uint8).reshape(-1, 8)
    assert Reversed(5).partition_rows(mat).tolist() == [
        4 - r for r in GOLDEN_REDUCERS[5]]
