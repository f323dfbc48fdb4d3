"""Tests for IFile framing, byte accounting, and the codec registry."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mapreduce import available_codecs, get_codec
from repro.mapreduce.ifile import IFileReader, IFileWriter, TRAILER_BYTES


class TestIFileBasics:
    def test_roundtrip_memory(self):
        w = IFileWriter(None)
        records = [(b"k1", b"v1"), (b"k2", b""), (b"", b"v3")]
        for k, v in records:
            w.append(k, v)
        w.close()
        assert IFileReader(w.getvalue()).read_all() == records

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "seg"
        w = IFileWriter(path)
        w.append(b"key", b"value")
        stats = w.close()
        assert path.stat().st_size == stats.materialized_bytes
        assert IFileReader(path).read_all() == [(b"key", b"value")]

    def test_empty_segment(self):
        w = IFileWriter(None)
        stats = w.close()
        assert stats.records == 0
        assert stats.materialized_bytes == TRAILER_BYTES
        assert IFileReader(w.getvalue()).read_all() == []

    def test_double_close_is_idempotent(self):
        w = IFileWriter(None)
        w.append(b"a", b"b")
        s1 = w.close()
        s2 = w.close()
        assert s1 is s2

    def test_append_after_close_raises(self):
        w = IFileWriter(None)
        w.close()
        with pytest.raises(RuntimeError):
            w.append(b"a", b"b")

    def test_getvalue_requires_close(self):
        w = IFileWriter(None)
        with pytest.raises(RuntimeError):
            w.getvalue()


class TestByteAccounting:
    def test_paper_intro_file_sizes(self):
        """§I: 10^6 cells -> 26,000,006 B (index) / 33,000,006 B (name).

        Verified here at 10^3 records (same per-record constants): the
        benchmark reproduces the full-size number.
        """
        n = 1000
        w = IFileWriter(None)
        for _ in range(n):
            w.append(bytes(20), bytes(4))  # index-mode cell key + float
        stats = w.close()
        assert stats.materialized_bytes == 26 * n + 6

        w = IFileWriter(None)
        for _ in range(n):
            w.append(bytes(27), bytes(4))  # name-mode ("windspeed1") key
        stats = w.close()
        assert stats.materialized_bytes == 33 * n + 6

    def test_stats_breakdown(self):
        w = IFileWriter(None)
        w.append(b"0123456789", b"abcd")
        stats = w.close()
        assert stats.records == 1
        assert stats.key_bytes == 10
        assert stats.value_bytes == 4
        assert stats.overhead_bytes == 2 + TRAILER_BYTES
        assert stats.raw_bytes == 10 + 4 + 2 + TRAILER_BYTES
        assert stats.materialized_bytes == stats.raw_bytes  # null codec

    def test_large_record_varint_overhead(self):
        w = IFileWriter(None)
        w.append(bytes(200), bytes(300))
        stats = w.close()
        # 200 needs a 2-byte varint, 300 a 3-byte varint
        assert stats.overhead_bytes == 2 + 3 + TRAILER_BYTES

    def test_stats_merge(self):
        a = IFileWriter(None)
        a.append(b"k", b"v")
        sa = a.close()
        b = IFileWriter(None)
        b.append(b"kk", b"vv")
        sb = b.close()
        sa.merge(sb)
        assert sa.records == 2
        assert sa.key_bytes == 3


class TestCompression:
    def test_zlib_roundtrip_and_shrink(self):
        codec = get_codec("zlib")
        w = IFileWriter(None, codec)
        for i in range(500):
            w.append(b"same-key-prefix-%04d" % (i % 10), b"\x00" * 16)
        stats = w.close()
        assert stats.materialized_bytes < stats.raw_bytes / 3
        records = IFileReader(w.getvalue(), get_codec("zlib")).read_all()
        assert len(records) == 500

    def test_reader_needs_matching_codec(self):
        codec = get_codec("zlib")
        w = IFileWriter(None, codec)
        w.append(b"k", b"v")
        w.close()
        with pytest.raises(Exception):
            IFileReader(w.getvalue()).read_all()  # null codec can't parse

    def test_corruption_detected(self):
        w = IFileWriter(None)
        w.append(b"key", b"value")
        w.close()
        blob = bytearray(w.getvalue())
        blob[1] ^= 0xFF
        with pytest.raises(ValueError):
            IFileReader(bytes(blob))

    def test_truncated_blob(self):
        with pytest.raises(ValueError):
            IFileReader(b"\x00\x01")


class TestCodecRegistry:
    def test_builtin_and_stride_codecs_registered(self):
        names = available_codecs()
        for expected in ["null", "zlib", "bz2", "stride+zlib", "stride+bz2",
                         "fastpred+zlib", "fastpred+bz2"]:
            assert expected in names

    def test_unknown_codec(self):
        with pytest.raises(KeyError):
            get_codec("snappy")

    @pytest.mark.parametrize("name", ["null", "zlib", "bz2", "fastpred+zlib"])
    def test_codec_roundtrip(self, name):
        codec = get_codec(name)
        data = b"hello world " * 100
        assert codec.decompress(codec.compress(data)) == data
        assert codec.cpu_seconds >= 0.0

    def test_stride_codec_roundtrip_and_timing_split(self):
        codec = get_codec("stride+zlib")
        data = bytes(range(24)) * 100
        out = codec.compress(data)
        assert codec.decompress(out) == data
        assert codec.transform_seconds > 0.0
        assert codec.backend_seconds > 0.0

    def test_codec_options(self):
        codec = get_codec("zlib", level=1)
        assert codec.level == 1
        with pytest.raises(ValueError):
            get_codec("zlib", level=0)
        with pytest.raises(ValueError):
            get_codec("bz2", level=10)

    @pytest.mark.parametrize("name, options, argument", [
        ("fastpred+zlib", {"chunk_size": 2}, "chunk_size"),
        ("fastpred+zlib", {"max_stride": 0}, "max_stride"),
        ("fastpred+bz2", {"max_stride": -3}, "max_stride"),
        ("stride+zlib", {"max_stride": 0}, "max_stride"),
    ])
    def test_transform_codec_options_validated_at_construction(
            self, name, options, argument):
        # a bad knob must not survive until the first decompress, where it
        # would be re-labelled CorruptStreamError and blamed on the data
        with pytest.raises(ValueError, match=argument):
            get_codec(name, **options)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=2000), st.sampled_from(["null", "zlib", "bz2", "fastpred+zlib"]))
    def test_codec_roundtrip_property(self, data, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.binary(max_size=40), st.binary(max_size=40)), max_size=40),
       st.sampled_from(["null", "zlib"]))
def test_ifile_roundtrip_property(records, codec_name):
    w = IFileWriter(None, get_codec(codec_name))
    for k, v in records:
        w.append(k, v)
    stats = w.close()
    assert stats.records == len(records)
    out = IFileReader(w.getvalue(), get_codec(codec_name)).read_all()
    assert out == records


def _stage_cases():
    """Every registered codec at its defaults; the stride codecs also at
    a chunk and stride small enough that short inputs span several
    chunks and end mid-stride."""
    for name in available_codecs():
        yield name, {}
        if name.startswith("fastpred"):
            yield name, {"chunk_size": 16, "max_stride": 5}
        elif name.startswith("stride"):
            yield name, {"max_stride": 5}


@st.composite
def _streams(draw):
    """Raw bytes, or records of one pitch stepping by a constant delta
    (what the stride predictors lock onto) with a partial last record."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    pitch = draw(st.integers(1, 7))
    base = draw(st.binary(min_size=pitch, max_size=pitch))
    step = draw(st.integers(0, 255))
    rows = draw(st.integers(0, 40))
    body = b"".join(bytes((b + r * step) % 256 for b in base)
                    for r in range(rows))
    return body + base[:draw(st.integers(0, pitch - 1))]


def _codec_state(codec):
    return (codec.clock.as_dict(), getattr(codec, "transform_seconds", None),
            getattr(codec, "backend_seconds", None))


@pytest.mark.parametrize("name, options", list(_stage_cases()))
@settings(max_examples=40, deadline=None)
@given(data=_streams())
@example(data=b"")
@example(data=b"\x07")
@example(data=bytes(range(40)) + b"\x01\x02")
def test_codec_stages_compose_to_compress(name, options, data):
    """The two compression stages the map task overlaps across partitions
    (``prepare`` on the caller, ``finish`` on any thread) are
    ``compress`` byte for byte, ``decompress`` inverts them, and the back
    stage leaves the codec's state alone (its owner charges the seconds)."""
    codec = get_codec(name, **options)
    staged = codec.prepare(data)
    before = _codec_state(codec)
    out = codec.finish(staged)
    assert _codec_state(codec) == before
    assert out == get_codec(name, **options).compress(data)
    assert codec.decompress(out) == data
