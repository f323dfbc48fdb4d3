"""Unit tests for the columnar pipeline's building blocks.

Every batched/vectorized primitive must be byte- (and object-)
equivalent to the scalar loop it replaces; these tests pin each one
independently so an equivalence failure in the full-engine A/B suite
can be localized.
"""

import numpy as np
import pytest

from repro.mapreduce.columnar import PartitionBuffer
from repro.mapreduce.ifile import IFileReader, IFileWriter
from repro.mapreduce.keys import CellKey, CellKeySerde, RangeKey, RangeKeySerde
from repro.mapreduce.partition import HashPartitioner
from repro.mapreduce.serde import (
    BytesSerde,
    Float32Serde,
    Float64Serde,
    Int32Serde,
    Int64Serde,
)
from repro.mapreduce.sort import (
    argsort_key_matrix,
    group_bounds,
    group_by_key,
    sort_records,
)
from repro.queries.sliding_mean import SumCountSerde

RNG = np.random.default_rng(42)


def as_matrix(blobs: list[bytes]) -> np.ndarray:
    width = len(blobs[0])
    return np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(-1, width)


# --------------------------------------------------------------- serde batch


FIXED_CASES = [
    (Int32Serde(), [0, 1, -1, 2**31 - 1, -(2**31), 12345]),
    (Int64Serde(), [0, 1, -1, 2**63 - 1, -(2**63), -987654321]),
    (Float32Serde(), [0.0, -1.5, 3.25, 1e30, -1e-30]),
    (Float64Serde(), [0.0, -1.5, 3.141592653589793, 1e300, -1e-300]),
]


@pytest.mark.parametrize("serde,values", FIXED_CASES,
                         ids=[type(s).__name__ for s, _ in FIXED_CASES])
def test_pack_batch_matches_scalar_writes(serde, values):
    scalar = b"".join(serde.to_bytes(v) for v in values)
    assert serde.pack_batch(values) == scalar


@pytest.mark.parametrize("serde,values", FIXED_CASES,
                         ids=[type(s).__name__ for s, _ in FIXED_CASES])
def test_read_column_matches_scalar_reads(serde, values):
    blob = b"".join(serde.to_bytes(v) for v in values)
    decoded = serde.read_column(blob, len(values))
    expected = [serde.from_bytes(serde.to_bytes(v)) for v in values]
    assert decoded == expected
    assert all(type(d) is type(e) for d, e in zip(decoded, expected))


@pytest.mark.parametrize("serde,values", FIXED_CASES,
                         ids=[type(s).__name__ for s, _ in FIXED_CASES])
def test_read_batch_matches_scalar_reads(serde, values):
    blobs = [serde.to_bytes(v) for v in values]
    assert serde.read_batch(blobs) == [serde.from_bytes(b) for b in blobs]


def test_read_column_rejects_bad_length():
    with pytest.raises(ValueError):
        Int32Serde().read_column(b"\x00" * 9, 2)


def test_pack_batch_range_checks():
    with pytest.raises(ValueError):
        Int32Serde().pack_batch([2**31])
    with pytest.raises(TypeError):
        Int32Serde().pack_batch(np.zeros((2, 2)))


def test_variable_width_serde_uses_fallback():
    s = BytesSerde()
    blobs = [s.to_bytes(b"a"), s.to_bytes(b"longer")]
    assert s.read_batch(blobs) == [b"a", b"longer"]


def test_sumcount_pack_and_read_column():
    s = SumCountSerde()
    pairs = [(0.5, 1), (-2.25, 7), (1e9, 0), (3.0, 2**32 - 1)]
    scalar = b"".join(s.to_bytes(p) for p in pairs)
    rows = np.array([[a, b] for a, b in pairs], dtype=np.float64)
    assert s.pack_batch(rows) == scalar
    assert s.read_column(scalar, len(pairs)) == [
        s.from_bytes(s.to_bytes(p)) for p in pairs
    ]
    with pytest.raises(ValueError):
        s.pack_batch(np.array([[1.0, -1.0]]))


# ----------------------------------------------------------------- key batch


@pytest.mark.parametrize("variable_mode,variable", [
    ("name", "windspeed1"), ("index", 3),
])
def test_cell_key_batch_matches_scalar(variable_mode, variable):
    serde = CellKeySerde(3, variable_mode)
    coords = RNG.integers(0, 50, size=(64, 3))
    mat, width = serde.pack_batch_keys(variable, coords)
    assert mat.shape == (64, width)
    for i, row in enumerate(coords):
        expected = serde.to_bytes(CellKey(variable, tuple(int(c) for c in row)))
        assert mat[i].tobytes() == expected


@pytest.mark.parametrize("variable_mode,variable", [
    ("name", "windspeed1"), ("index", 3),
])
def test_range_key_batch_matches_scalar(variable_mode, variable):
    serde = RangeKeySerde(variable_mode)
    starts = RNG.integers(0, 10**9, size=40)
    counts = RNG.integers(1, 10**6, size=40)
    blobs = serde.write_batch(variable, starts, counts)
    for blob, start, count in zip(blobs, starts, counts):
        expected = serde.to_bytes(RangeKey(variable, int(start), int(count)))
        assert blob == expected


def test_range_key_batch_validation():
    serde = RangeKeySerde("index")
    with pytest.raises(ValueError):
        serde.pack_batch_keys(0, np.array([-1]), np.array([1]))
    with pytest.raises(ValueError):
        serde.pack_batch_keys(0, np.array([0]), np.array([0]))


# ------------------------------------------------------------- partitioning


@pytest.mark.parametrize("num_reducers", [1, 2, 5])
def test_partition_batch_matches_scalar(num_reducers):
    part = HashPartitioner(num_reducers)
    serde = CellKeySerde(2, "index")
    mat, width = serde.pack_batch_keys(7, RNG.integers(0, 100, size=(128, 2)))
    batch = part.partition_batch(mat)
    flat = mat.tobytes()
    for i in range(mat.shape[0]):
        assert batch[i] == part.partition(flat[i * width:(i + 1) * width])


def _nul_rows() -> np.ndarray:
    """Big-endian int32 pairs whose low bytes are NUL (256, 512, 0...):
    an ``S`` scalar read of such a row would drop the trailing zeros."""
    coords = np.array([[256, 0], [256, 256], [0, 0], [1, 256 << 8]], ">i4")
    return coords.view(np.uint8).reshape(4, 8)


PARTITION_BATCHES = {
    "trailing-nul": _nul_rows(),
    "heavy-duplication": np.repeat(_nul_rows(), 50, axis=0)[
        RNG.permutation(200)],
    "empty": np.empty((0, 8), np.uint8),
    # every other column of every third row: neither C- nor F-contiguous
    "non-contiguous": RNG.integers(0, 3, size=(90, 16)).astype(
        np.uint8)[::3, ::2],
}


@pytest.mark.parametrize("num_reducers", [1, 3])
@pytest.mark.parametrize("name", sorted(PARTITION_BATCHES))
def test_partition_batch_hashes_raw_row_bytes(name, num_reducers):
    keys = PARTITION_BATCHES[name]
    part = HashPartitioner(num_reducers)
    batch = part.partition_batch(keys)
    assert batch.dtype == np.int64 and batch.shape == (keys.shape[0],)
    assert batch.tolist() == [part.partition(row.tobytes()) for row in keys]


def test_partition_batch_calls_partition_once_per_distinct_row():
    calls = []

    class Counting(HashPartitioner):
        def partition(self, key_bytes):
            calls.append(key_bytes)
            return super().partition(key_bytes)

    keys = PARTITION_BATCHES["heavy-duplication"]
    Counting(3).partition_batch(keys)
    assert sorted(calls) == sorted({row.tobytes() for row in keys})


# ----------------------------------------------------------- sorting helpers


def test_argsort_key_matrix_matches_sort_records():
    serde = CellKeySerde(2, "index")
    coords = RNG.integers(0, 4, size=(200, 2))  # duplicates on purpose
    mat, width = serde.pack_batch_keys(5, coords)
    values = [i.to_bytes(4, "big") for i in range(200)]
    records = [(mat[i].tobytes(), values[i]) for i in range(200)]
    order = argsort_key_matrix(mat)
    fast = [(mat[i].tobytes(), values[i]) for i in order]
    assert fast == sort_records(records)  # stable: ties keep emission order


def test_group_bounds_matches_group_by_key():
    serde = CellKeySerde(1, "index")
    coords = np.sort(RNG.integers(0, 10, size=(60, 1)), axis=0)
    mat, _ = serde.pack_batch_keys(1, coords)
    records = [(mat[i].tobytes(), b"") for i in range(60)]
    groups = [(k, len(vs)) for k, vs in group_by_key(records)]
    bounds = group_bounds(mat)
    fast = [
        (mat[bounds[g]].tobytes(), int(bounds[g + 1] - bounds[g]))
        for g in range(len(bounds) - 1)
    ]
    assert fast == groups
    assert group_bounds(np.empty((0, 4), np.uint8)).tolist() == [0]


# ------------------------------------------------------------------- IFile


def test_append_batch_matches_append_loop(tmp_path):
    keys = RNG.integers(0, 256, size=(50, 12)).astype(np.uint8)
    values = RNG.integers(0, 256, size=(50, 4)).astype(np.uint8)

    loop = IFileWriter(None)
    for i in range(50):
        loop.append(keys[i].tobytes(), values[i].tobytes())
    loop_stats = loop.close()

    batch = IFileWriter(None)
    batch.append_batch(keys, values)
    batch_stats = batch.close()

    assert batch.getvalue() == loop.getvalue()
    assert batch_stats == loop_stats


def test_read_columnar_roundtrip():
    keys = RNG.integers(0, 256, size=(30, 8)).astype(np.uint8)
    values = RNG.integers(0, 256, size=(30, 12)).astype(np.uint8)
    writer = IFileWriter(None)
    writer.append_batch(keys, values)
    writer.close()
    reader = IFileReader(writer.getvalue())
    kmat, vmat = reader.read_columnar(8, 12)
    assert np.array_equal(kmat, keys)
    assert np.array_equal(vmat, values)
    # wrong widths are detected, not misparsed: (12, 8) has the same
    # pitch but a different frame; (7, 12) does not divide the stream
    assert reader.read_columnar(12, 8) is None
    assert reader.read_columnar(7, 12) is None


def test_read_columnar_rejects_variable_width_stream():
    writer = IFileWriter(None)
    writer.append(b"abcd", b"xy")
    writer.append(b"ab", b"wxyz")  # same pitch, different frame
    writer.close()
    reader = IFileReader(writer.getvalue())
    assert reader.read_columnar(4, 2) is None
    assert reader.read_all() == [(b"abcd", b"xy"), (b"ab", b"wxyz")]


def test_read_columnar_empty_segment():
    writer = IFileWriter(None)
    writer.close()
    kmat, vmat = IFileReader(writer.getvalue()).read_columnar(4, 2)
    assert kmat.shape == (0, 4) and vmat.shape == (0, 2)


# --------------------------------------------------------- PartitionBuffer


def test_partition_buffer_columnar_view_and_order():
    buf = PartitionBuffer()
    k1 = np.arange(8, dtype=np.uint8).reshape(2, 4)
    v1 = np.arange(4, dtype=np.uint8).reshape(2, 2)
    k2 = np.arange(100, 112, dtype=np.uint8).reshape(3, 4)
    v2 = np.arange(50, 56, dtype=np.uint8).reshape(3, 2)
    buf.append_chunk(k1, v1)
    buf.append_chunk(k2, v2)
    assert buf.records == 5
    kmat, vmat = buf.columnar_view()
    assert np.array_equal(kmat, np.vstack([k1, k2]))
    assert np.array_equal(vmat, np.vstack([v1, v2]))
    # to_records preserves emission order too
    recs = buf.to_records()
    assert recs[0] == (k1[0].tobytes(), v1[0].tobytes())
    assert recs[-1] == (k2[-1].tobytes(), v2[-1].tobytes())
    buf.clear()
    assert buf.records == 0 and buf.columnar_view() is None


def test_partition_buffer_mixed_decays_to_records():
    buf = PartitionBuffer()
    buf.append_chunk(np.zeros((1, 4), np.uint8), np.zeros((1, 2), np.uint8))
    buf.append(b"abcd", b"xy")
    assert buf.columnar_view() is None
    assert buf.to_records() == [
        (b"\x00\x00\x00\x00", b"\x00\x00"), (b"abcd", b"xy")
    ]


def test_partition_buffer_width_mismatch_decays():
    buf = PartitionBuffer()
    buf.append_chunk(np.zeros((1, 4), np.uint8), np.zeros((1, 2), np.uint8))
    buf.append_chunk(np.zeros((1, 6), np.uint8), np.zeros((1, 2), np.uint8))
    assert buf.columnar_view() is None
    assert buf.records == 2
