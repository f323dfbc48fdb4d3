"""Tests for serializers and key types, including paper byte layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce import (
    BytesSerde,
    CellKey,
    CellKeySerde,
    Float32Serde,
    Float64Serde,
    Int32Serde,
    Int64Serde,
    RangeKey,
    RangeKeySerde,
    TextSerde,
    ValueBlockSerde,
)


class TestScalarSerdes:
    @pytest.mark.parametrize("serde,values", [
        (Int32Serde(), [0, 1, -1, 2**31 - 1, -(2**31)]),
        (Int64Serde(), [0, 1, -1, 2**63 - 1, -(2**63)]),
        (Float32Serde(), [0.0, 1.5, -3.25]),
        (Float64Serde(), [0.0, 1.5, -3.25, 1e300]),
        (TextSerde(), ["", "windspeed1", "héllo"]),
        (BytesSerde(), [b"", b"abc", bytes(300)]),
    ])
    def test_roundtrip(self, serde, values):
        for v in values:
            assert serde.from_bytes(serde.to_bytes(v)) == v

    def test_int32_order_preserving(self):
        s = Int32Serde()
        values = [-(2**31), -5, -1, 0, 1, 7, 2**31 - 1]
        encoded = [s.to_bytes(v) for v in values]
        assert encoded == sorted(encoded)

    def test_int64_order_preserving(self):
        s = Int64Serde()
        values = [-(2**63), -10**12, -1, 0, 1, 10**15, 2**63 - 1]
        encoded = [s.to_bytes(v) for v in values]
        assert encoded == sorted(encoded)

    def test_int32_range_check(self):
        with pytest.raises(ValueError):
            Int32Serde().to_bytes(2**31)
        with pytest.raises(ValueError):
            Int32Serde().to_bytes(-(2**31) - 1)

    def test_sizes_match_hadoop_writables(self):
        assert len(Int32Serde().to_bytes(5)) == 4
        assert len(Int64Serde().to_bytes(5)) == 8
        assert len(Float32Serde().to_bytes(1.0)) == 4
        assert len(Float64Serde().to_bytes(1.0)) == 8
        # "windspeed1" as Text: 1 length byte + 10 chars = 11 bytes (§I)
        assert len(TextSerde().to_bytes("windspeed1")) == 11

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            Int32Serde().from_bytes(b"\x00" * 5)

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    def test_int32_order_property(self, a, b):
        s = Int32Serde()
        assert (a < b) == (s.to_bytes(a) < s.to_bytes(b))

    @given(st.text(max_size=50))
    def test_text_roundtrip_property(self, value):
        s = TextSerde()
        assert s.from_bytes(s.to_bytes(value)) == value


class TestValueBlockSerde:
    def test_roundtrip(self):
        s = ValueBlockSerde(np.int32)
        arr = np.array([1, -2, 3], dtype=np.int32)
        out = s.from_bytes(s.to_bytes(arr))
        assert (out == arr).all()
        assert out.dtype == np.dtype("<i4")

    def test_empty_block(self):
        s = ValueBlockSerde(np.float32)
        out = s.from_bytes(s.to_bytes(np.zeros(0, dtype=np.float32)))
        assert out.shape == (0,)

    def test_size_is_count_plus_payload(self):
        s = ValueBlockSerde(np.int32)
        blob = s.to_bytes(np.arange(100, dtype=np.int32))
        assert len(blob) == 1 + 400  # vint(100) + 100 * 4

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            ValueBlockSerde(np.int32).to_bytes(np.zeros((2, 2), dtype=np.int32))

    def test_truncation_detected(self):
        s = ValueBlockSerde(np.int32)
        blob = s.to_bytes(np.arange(4, dtype=np.int32))
        with pytest.raises(ValueError):
            s.from_bytes(blob[:-2])


class TestCellKey:
    def test_paper_key_sizes(self):
        """§I arithmetic: name-mode key = 27 B, index-mode key = 20 B."""
        name_serde = CellKeySerde(ndim=3, variable_mode="name")
        index_serde = CellKeySerde(ndim=3, variable_mode="index")
        assert name_serde.key_size("windspeed1") == 27
        assert index_serde.key_size(0) == 20
        k = CellKey("windspeed1", (1, 2, 3))
        assert len(name_serde.to_bytes(k)) == 27
        ki = CellKey(7, (1, 2, 3))
        assert len(index_serde.to_bytes(ki)) == 20

    def test_key_value_ratio_is_675(self):
        """The paper's headline 6.75 key/value byte ratio."""
        serde = CellKeySerde(ndim=3, variable_mode="name")
        key_bytes = serde.key_size("windspeed1")
        value_bytes = 4  # one float32
        assert key_bytes / value_bytes == 6.75

    def test_roundtrip(self):
        serde = CellKeySerde(ndim=2, variable_mode="name")
        k = CellKey("v", (-1, 10), slot=3)
        assert serde.from_bytes(serde.to_bytes(k)) == k

    def test_roundtrip_index_mode(self):
        serde = CellKeySerde(ndim=3, variable_mode="index")
        k = CellKey(5, (0, 0, 99))
        assert serde.from_bytes(serde.to_bytes(k)) == k

    def test_raw_sort_matches_coordinate_order(self):
        serde = CellKeySerde(ndim=2, variable_mode="name")
        keys = [CellKey("v", (i, j)) for i in range(-2, 3) for j in range(-2, 3)]
        blobs = [serde.to_bytes(k) for k in keys]
        by_bytes = [serde.from_bytes(b) for b in sorted(blobs)]
        assert by_bytes == sorted(keys, key=lambda k: k.coords)

    def test_ndim_mismatch(self):
        serde = CellKeySerde(ndim=3)
        with pytest.raises(ValueError):
            serde.to_bytes(CellKey("v", (1, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            CellKeySerde(ndim=0)
        with pytest.raises(ValueError):
            CellKeySerde(ndim=2, variable_mode="bogus")
        with pytest.raises(ValueError):
            CellKey("v", ())

    def test_write_batch_matches_scalar_path(self):
        serde = CellKeySerde(ndim=3, variable_mode="name")
        coords = np.array([[0, 0, 0], [1, -2, 3], [99, 0, 5]])
        batch = serde.write_batch("windspeed1", coords, slots=2)
        for row, blob in zip(coords, batch):
            expected = serde.to_bytes(CellKey("windspeed1", tuple(row), slot=2))
            assert blob == expected

    def test_write_batch_index_mode(self):
        serde = CellKeySerde(ndim=2, variable_mode="index")
        coords = np.array([[5, 6]])
        assert serde.write_batch(3, coords)[0] == serde.to_bytes(CellKey(3, (5, 6)))

    def test_write_batch_validation(self):
        serde = CellKeySerde(ndim=2)
        with pytest.raises(ValueError):
            serde.write_batch("v", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            serde.write_batch("v", np.array([[2**31, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                 min_size=1, max_size=20),
        st.integers(0, 5),
    )
    def test_batch_property(self, coord_list, slot):
        serde = CellKeySerde(ndim=2, variable_mode="name")
        coords = np.array(coord_list)
        batch = serde.write_batch("var", coords, slots=slot)
        decoded = [serde.from_bytes(b) for b in batch]
        assert decoded == [CellKey("var", tuple(c), slot) for c in coord_list]


class TestRangeKey:
    def test_roundtrip(self):
        serde = RangeKeySerde("name")
        k = RangeKey("v", 100, 50)
        assert serde.from_bytes(serde.to_bytes(k)) == k

    def test_sizes(self):
        assert RangeKeySerde("name").key_size("windspeed1") == 23
        assert RangeKeySerde("index").key_size(0) == 16

    def test_overlaps(self):
        a = RangeKey("v", 0, 10)
        assert a.overlaps(RangeKey("v", 9, 5))
        assert not a.overlaps(RangeKey("v", 10, 5))
        assert not a.overlaps(RangeKey("w", 0, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            RangeKey("v", 0, 0)
        with pytest.raises(ValueError):
            RangeKey("v", -1, 5)

    def test_raw_sort_is_start_order(self):
        serde = RangeKeySerde("name")
        keys = [RangeKey("v", s, c) for s, c in [(50, 3), (0, 10), (7, 2), (7, 9)]]
        blobs = sorted(serde.to_bytes(k) for k in keys)
        decoded = [serde.from_bytes(b) for b in blobs]
        assert decoded == sorted(keys, key=lambda k: (k.start, k.count))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("index", [0, 256, 9, 10]),
                            ("name", ["ab", "a\x00", "zz"])]),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**62),
                              st.integers(1, 2**31 - 1)),
                    min_size=1, max_size=8))
    def test_unpack_batch_keys_inverts_scalar_write(self, mode_vars, rows):
        """One decode per distinct variable; index 256 and the name
        ``a\\0`` end in a NUL byte, which an ``S`` scalar would drop."""
        mode, variables = mode_vars
        serde = RangeKeySerde(mode)
        keys = [RangeKey(variables[v % len(variables)], start, count)
                for v, start, count in rows]
        mat = np.frombuffer(b"".join(serde.to_bytes(k) for k in keys),
                            np.uint8).reshape(len(keys), -1)
        distinct, which, starts, counts = serde.unpack_batch_keys(mat)
        assert len(set(distinct)) == len(distinct)
        assert [RangeKey(distinct[w], s, c) for w, s, c in
                zip(which.tolist(), starts.tolist(), counts.tolist())] == keys

    def test_unpack_batch_keys_rejects_a_prefix_that_is_not_a_variable(self):
        serde = RangeKeySerde("name")
        good = serde.to_bytes(RangeKey("abc", 1, 2))
        # the Text length byte claims 2 characters, the prefix holds 3
        bad = bytes([2]) + good[1:]
        for blob in (bad, good[:11]):
            with pytest.raises(ValueError):
                serde.unpack_batch_keys(
                    np.frombuffer(blob, np.uint8).reshape(1, -1))
