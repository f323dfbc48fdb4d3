"""Tests for codec CPU-cost attribution (cost_categories)."""

from repro.mapreduce.codecs import cost_categories, get_codec
from repro.scidata import walk_grid_int32_triples


def test_plain_codec_reports_single_category():
    codec = get_codec("zlib")
    codec.compress(b"x" * 10000)
    cats = cost_categories(codec)
    assert set(cats) == {"codec"}
    assert cats["codec"] > 0.0


def test_null_codec_near_zero_cost():
    codec = get_codec("null")
    codec.compress(b"x" * 100)
    assert cost_categories(codec)["codec"] >= 0.0


def test_transform_codec_splits_transform_from_backend():
    codec = get_codec("stride+zlib", max_stride=20)
    data = bytes(range(16)) * 200
    out = codec.compress(data)
    assert codec.decompress(out) == data
    cats = cost_categories(codec)
    assert set(cats) == {"transform", "codec"}
    assert cats["transform"] > 0.0
    assert cats["codec"] > 0.0
    # the exact Python transform dominates the zlib backend massively
    assert cats["transform"] > cats["codec"]


def test_fastpred_codec_also_splits():
    codec = get_codec("fastpred+zlib")
    codec.compress(bytes(range(64)) * 100)
    cats = cost_categories(codec)
    assert set(cats) == {"transform", "codec"}


def test_fastpred_multi_chunk_stream_still_reports_both_categories():
    # Past the first chunks the sticky stride leaves the transform little
    # to do; the cost model still needs a nonzero term for each side.
    codec = get_codec("fastpred+zlib")
    data = walk_grid_int32_triples(30)  # 324,000 bytes of pitch-12 keys
    assert len(data) > 3 * codec.chunk_size
    assert codec.decompress(codec.compress(data)) == data
    cats = cost_categories(codec)
    assert set(cats) == {"transform", "codec"}
    assert cats["transform"] > 0.0
    assert cats["codec"] > 0.0
