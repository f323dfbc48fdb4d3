"""Unit tests for the columnar pipeline's building blocks.

Every batched/vectorized primitive must be byte- (and object-)
equivalent to the scalar loop it replaces; these tests pin each one
independently so an equivalence failure in the full-engine A/B suite
can be localized.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.columnar import PartitionBuffer, Ragged, column_records
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
from repro.util.errors import CorruptRecordError

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


@st.composite
def ragged_records(draw):
    """One key width (130: a two-byte key-length vint) and values of 0,
    1-127 and >= 128 bytes (a multi-byte value-length vint)."""
    width = draw(st.sampled_from([1, 4, 12, 130]))
    sizes = st.one_of(st.just(0), st.integers(1, 127), st.integers(128, 300))
    return width, draw(st.lists(
        st.tuples(st.binary(min_size=width, max_size=width),
                  sizes.flatmap(lambda n: st.binary(min_size=n, max_size=n))),
        max_size=10))


def as_columns(width, records):
    keys = np.frombuffer(b"".join(k for k, _ in records), np.uint8)
    lengths = np.array([len(v) for _, v in records], np.int64)
    return keys.reshape(-1, width), Ragged.from_lengths(
        lengths, np.frombuffer(b"".join(v for _, v in records), np.uint8))


@settings(max_examples=150, deadline=None)
@given(ragged_records(), st.sampled_from([None, 256, 700]), st.data())
def test_ragged_append_batch_equals_append_loop(case, block_bytes, data):
    """Bytes and stats equal per-record ``append`` in both layouts, also
    when the batch is written in two parts after per-record appends (a
    block is pending); the ragged reader reads back ``read_all``."""
    width, records = case
    loop = IFileWriter(None, block_bytes=block_bytes)
    for kb, vb in records:
        loop.append(kb, vb)
    loop_stats = loop.close()

    head, cut = sorted(data.draw(st.lists(
        st.integers(0, len(records)), min_size=2, max_size=2)))
    batch = IFileWriter(None, block_bytes=block_bytes)
    for kb, vb in records[:head]:
        batch.append(kb, vb)
    keys, values = as_columns(width, records)
    for lo, hi in ((head, cut), (cut, len(records))):
        batch.append_batch(keys[lo:hi], values.take(np.arange(lo, hi)))
    assert batch.close() == loop_stats
    assert batch.getvalue() == loop.getvalue()

    reader = IFileReader(batch.getvalue())
    run = reader.read_columnar(width)
    if block_bytes is not None:
        assert run is None  # chunked segments are read as records
        return
    assert column_records(*run) == reader.read_all() == records


@pytest.mark.parametrize("value_len", [57, 58, 59])
def test_ragged_append_batch_seals_blocks_where_append_does(value_len):
    """Records of 2 + 4 + 58 bytes fill a 256-byte block exactly at the
    fourth: the block is sealed there, not one record later (57 and 59
    land on either side)."""
    records = [(b"k%03d" % i, bytes([i]) * value_len) for i in range(9)]
    loop = IFileWriter(None, block_bytes=256)
    for kb, vb in records:
        loop.append(kb, vb)
    loop.close()
    batch = IFileWriter(None, block_bytes=256)
    batch.append_batch(*as_columns(4, records))
    batch.close()
    # the footer lists every block's record count
    assert batch.getvalue() == loop.getvalue()


def _segment(payload: bytes) -> bytes:
    """A plain null-codec segment around a raw record stream."""
    return payload + zlib.crc32(payload).to_bytes(4, "big")


#: a well-formed stream: key width 4, values of 0, 5 and 200 bytes
GOOD = (b"\x04\x00" + b"k000"
        + b"\x04\x05" + b"k001" + b"v" * 5
        + b"\x04\x8f\xc8" + b"k002" + b"w" * 200
        + b"\xff\xff")
MALFORMED = {
    "truncated-frame": GOOD[:-3] + GOOD[-2:],
    "wrong-key-length": b"\x05" + GOOD[1:],
    # a two-byte vint of -5
    "bad-value-length": GOOD[:7] + b"\x87\x04" + GOOD[8:],
    "trailing-bytes": GOOD + b"\x00",
    "missing-eof-marker": GOOD[:-2],
}


def test_ragged_reader_reads_a_well_formed_stream():
    reader = IFileReader(_segment(GOOD))
    keys, values = reader.read_columnar(4)
    assert column_records(keys, values) == reader.read_all() == [
        (b"k000", b""), (b"k001", b"v" * 5), (b"k002", b"w" * 200)]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_ragged_reader_leaves_a_malformed_stream_to_read_all(name):
    """The ragged reader says ``None``; ``read_all`` on the same reader
    then raises what it raises on a fresh one."""
    blob = _segment(MALFORMED[name])
    with pytest.raises(CorruptRecordError) as fresh:
        IFileReader(blob).read_all()
    reader = IFileReader(blob)
    assert reader.read_columnar(4) is None
    with pytest.raises(type(fresh.value)) as after:
        reader.read_all()
    assert str(after.value) == str(fresh.value)


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
