"""Hostile-byte hardening for the varint / serde / key decode layers.

Every hand-rolled decoder must turn truncated, malformed, or fuzzed
input into a structured :class:`~repro.util.errors.CorruptRecordError`
subclass carrying offset context -- never a raw ``struct.error`` or
``IndexError``, and never a silently wrong value.  Since the whole
family subclasses ``ValueError``, legacy ``except ValueError`` callers
keep working; these tests pin both properties.
"""

import numpy as np
import pytest

from repro.mapreduce.keys import CellKey, CellKeySerde, RangeKey, RangeKeySerde
from repro.mapreduce.serde import (
    BytesSerde,
    Float32Serde,
    Float64Serde,
    Int32Serde,
    Int64Serde,
    TextSerde,
    ValueBlockSerde,
)
from repro.queries.sliding_mean import SumCountSerde
from repro.util.errors import (
    CorruptRecordError,
    MalformedRecordError,
    TruncatedRecordError,
)
from repro.util.varint import read_vlong, write_vlong


class TestVarintHardening:
    def test_read_past_end_of_empty_buffer(self):
        with pytest.raises(TruncatedRecordError) as exc:
            read_vlong(b"")
        assert exc.value.offset == 0
        assert isinstance(exc.value, ValueError)

    def test_read_at_offset_past_end(self):
        with pytest.raises(TruncatedRecordError) as exc:
            read_vlong(b"\x01\x02", 5)
        assert exc.value.offset == 5

    @pytest.mark.parametrize("value", [128, 65536, 2**31, 2**63 - 1, -(2**63)])
    def test_every_truncation_of_multibyte_varint_raises(self, value):
        buf = bytearray()
        write_vlong(value, buf)
        assert len(buf) > 1
        for cut in range(1, len(buf)):
            with pytest.raises(TruncatedRecordError) as exc:
                read_vlong(buf[:cut])
            assert exc.value.offset == 0

    def test_memoryview_input_fails_identically(self):
        buf = bytearray()
        write_vlong(65536, buf)
        with pytest.raises(TruncatedRecordError):
            read_vlong(memoryview(bytes(buf[:2])))
        # and decodes identically when intact
        assert read_vlong(memoryview(bytes(buf))) == read_vlong(bytes(buf))


class TestFixedWidthSerdes:
    @pytest.mark.parametrize("serde,sample", [
        (Int32Serde(), 42), (Int64Serde(), -7),
        (Float32Serde(), 1.5), (Float64Serde(), -2.25),
    ])
    def test_short_buffer_is_structured_not_struct_error(self, serde, sample):
        blob = serde.to_bytes(sample)
        for cut in range(len(blob)):
            with pytest.raises(TruncatedRecordError) as exc:
                serde.read(blob[:cut], 0)
            assert exc.value.offset == 0

    def test_trailing_bytes_rejected_by_from_bytes(self):
        serde = Int32Serde()
        with pytest.raises(MalformedRecordError):
            serde.from_bytes(serde.to_bytes(1) + b"\x00")

    @pytest.mark.parametrize("serde,samples", [
        (Int32Serde(), [42, -1]), (Int64Serde(), [-7, 1 << 40]),
        (Float32Serde(), [1.5, 0.0]), (Float64Serde(), [-2.25, 1e300]),
        (SumCountSerde(), [(1.5, 2), (0.0, 1)]),
    ], ids=["int32", "int64", "float32", "float64", "sum-count"])
    def test_packed_column_of_the_wrong_length_is_malformed(self, serde,
                                                             samples):
        """Every fixed-width column decode classifies a length mismatch
        the same way, so the skipping runtime sees one family."""
        blob = b"".join(serde.to_bytes(v) for v in samples)
        assert serde.read_column(blob, 2) == samples
        for hostile, count in ((blob[:-1], 2), (blob + b"\x00", 2),
                               (blob, 1), (blob, 3), (b"", 1)):
            with pytest.raises(MalformedRecordError):
                serde.read_column(hostile, count)
            with pytest.raises(MalformedRecordError):
                serde.read_column(memoryview(hostile), count)


class TestSumCountSerde:
    @pytest.mark.parametrize("count", [-1, 1 << 32, 1 << 40])
    def test_write_range_checks_the_count_like_pack_batch(self, count):
        """A folded count that leaves uint32 is refused the same way by
        the scalar and the column pack -- not a bare ``struct.error``."""
        serde = SumCountSerde()
        with pytest.raises(ValueError, match="count out of uint32 range"):
            serde.pack_batch(np.array([[1.0, count]]))
        with pytest.raises(ValueError, match="count out of uint32 range"):
            serde.to_bytes((1.0, count))

    def test_the_uint32_edges_pack_identically(self):
        serde = SumCountSerde()
        pairs = [(1.0, 0), (-2.5, (1 << 32) - 1)]
        assert b"".join(map(serde.to_bytes, pairs)) == serde.pack_batch(
            np.array(pairs))


class TestTextSerde:
    def test_length_past_eof(self):
        blob = bytearray()
        write_vlong(100, blob)
        blob.extend(b"short")
        with pytest.raises(TruncatedRecordError):
            TextSerde().read(bytes(blob), 0)

    def test_negative_length_is_malformed(self):
        blob = bytearray()
        write_vlong(-5, blob)
        with pytest.raises(MalformedRecordError):
            TextSerde().read(bytes(blob), 0)

    def test_invalid_utf8_is_malformed(self):
        blob = bytearray()
        write_vlong(2, blob)
        blob.extend(b"\xff\xfe")
        with pytest.raises(MalformedRecordError) as exc:
            TextSerde().read(bytes(blob), 0)
        assert "UTF-8" in str(exc.value)

    def test_memoryview_roundtrip(self):
        blob = TextSerde().to_bytes("windspeed1")
        text, end = TextSerde().read(memoryview(blob), 0)
        assert text == "windspeed1"
        assert end == len(blob)


class TestBytesSerde:
    def test_length_past_eof(self):
        blob = bytearray()
        write_vlong(10, blob)
        blob.extend(b"abc")
        with pytest.raises(TruncatedRecordError):
            BytesSerde().read(bytes(blob), 0)
        with pytest.raises(TruncatedRecordError):
            BytesSerde().read(memoryview(bytes(blob)), 0)

    def test_negative_length_is_malformed(self):
        blob = bytearray()
        write_vlong(-1, blob)
        with pytest.raises(MalformedRecordError):
            BytesSerde().read(bytes(blob), 0)

    def test_memoryview_decode_is_zero_copy_but_equal(self):
        blob = BytesSerde().to_bytes(b"payload")
        view, _ = BytesSerde().read(memoryview(blob), 0)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"payload"
        data, _ = BytesSerde().read(blob, 0)
        assert isinstance(data, bytes) and data == b"payload"


class TestValueBlockSerde:
    def test_count_past_eof(self):
        serde = ValueBlockSerde("<i4")
        blob = bytearray()
        write_vlong(1000, blob)
        blob.extend(b"\x00" * 8)
        with pytest.raises(TruncatedRecordError):
            serde.read(bytes(blob), 0)

    def test_negative_count_is_malformed(self):
        serde = ValueBlockSerde("<i4")
        blob = bytearray()
        write_vlong(-3, blob)
        with pytest.raises(MalformedRecordError):
            serde.read(bytes(blob), 0)


class TestKeySerdes:
    def test_truncated_cell_key(self):
        serde = CellKeySerde(ndim=3, variable_mode="name")
        blob = serde.to_bytes(CellKey("temp", (1, 2, 3)))
        for cut in range(len(blob)):
            with pytest.raises(TruncatedRecordError):
                serde.read(blob[:cut], 0)

    def test_truncated_range_key(self):
        serde = RangeKeySerde(variable_mode="index")
        blob = serde.to_bytes(RangeKey(0, 5, 10))
        for cut in range(len(blob)):
            with pytest.raises(TruncatedRecordError):
                serde.read(blob[:cut], 0)

    def test_invalid_range_key_fields_are_malformed(self):
        # Zero the count field: RangeKey's own validation (count >= 1)
        # must surface as a structured decode error, not a bare
        # ValueError without context.
        serde = RangeKeySerde(variable_mode="index")
        blob = bytearray(serde.to_bytes(RangeKey(0, 5, 10)))
        good_count = bytes(blob[-4:])
        for tamper in (b"\x00\x00\x00\x00", b"\x7f\xff\xff\xff"):
            if tamper == good_count:
                continue
            blob[-4:] = tamper
            with pytest.raises(CorruptRecordError):
                serde.from_bytes(bytes(blob))

    @pytest.mark.parametrize("serde", [
        CellKeySerde(ndim=2, variable_mode="name"),
        CellKeySerde(ndim=3, variable_mode="index"),
        RangeKeySerde(variable_mode="name"),
    ])
    def test_fuzzed_bytes_never_escape_the_error_family(self, serde):
        """Random buffers either decode or raise CorruptRecordError --
        no IndexError, struct.error, or unicode errors leak out."""
        rng = np.random.default_rng(2026)
        for _ in range(300):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 40)),
                                dtype=np.uint8).tobytes()
            try:
                serde.from_bytes(blob)
            except CorruptRecordError:
                pass  # the structured family is the only allowed failure

    def test_bitflipped_cell_keys_never_escape_the_error_family(self):
        serde = CellKeySerde(ndim=2, variable_mode="name")
        blob = bytearray(serde.to_bytes(CellKey("values", (3, 4))))
        for i in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(blob)
                flipped[i] ^= mask
                try:
                    serde.from_bytes(bytes(flipped))
                except CorruptRecordError:
                    pass
