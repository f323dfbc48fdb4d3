"""Differential tests: the uint8 block predictor vs its int16/int64 oracle.

``reference_fast`` is the implementation ``repro.core.stride.fast``
replaced; scores, residuals and prefix sums must be bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stride import fast
from repro.mapreduce.ifile import IFileWriter
from repro.scidata import walk_grid_int32_triples
from tests.core_stride import reference_fast as ref


def as_u8(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


@st.composite
def planted_period(draw):
    """A random pattern of period 1..100 repeated (optionally counting up
    once per period, as a record counter does) to a drawn length --
    including lengths too short to score every stride."""
    period = draw(st.integers(1, 100))
    n = draw(st.integers(0, 700))
    pattern = as_u8(draw(st.binary(min_size=period, max_size=period)))
    x = np.resize(pattern, n)
    if draw(st.booleans()):
        x = x + (np.arange(n) // period).astype(np.uint8)
    return x.astype(np.uint8)


class TestSelectStride:
    @settings(max_examples=150, deadline=None)
    @given(planted_period(), st.sampled_from([1, 7, 100]))
    def test_planted_periods_pick_identically(self, x, max_stride):
        assert fast.select_stride(x, max_stride) == ref.select_stride(x, max_stride)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=400), st.integers(1, 100))
    def test_random_bytes_pick_identically(self, data, max_stride):
        x = as_u8(data)
        assert fast.select_stride(x, max_stride) == ref.select_stride(x, max_stride)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_tiny_inputs(self, n):
        # below 2*max_stride the candidate range is clipped to (n-1)//2
        x = as_u8(bytes(range(n)))
        for max_stride in (1, 3, 100):
            assert fast.select_stride(x, max_stride) == ref.select_stride(
                x, max_stride)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=600), st.integers(1, 100))
def test_kernels_match_reference_for_every_stride(data, stride):
    """Residual and reconstruction, including strides that do not divide
    the chunk (ragged last row) and strides longer than the chunk."""
    x = as_u8(data)
    wide = x.astype(np.int64)

    residual = np.empty_like(x)
    fast._second_diff(x, stride, residual)
    assert np.array_equal(residual, ref._second_diff(wide, stride))

    summed = np.empty_like(x)
    fast._double_cumsum(x, stride, summed)
    assert np.array_equal(summed, ref._double_cumsum(wide, stride))

    back = np.empty_like(x)
    fast._double_cumsum(residual, stride, back)
    assert np.array_equal(back, x)


def ifile_spill_payload(side: int = 22) -> bytes:
    """An uncompressed IFile segment as a map task spills it: sorted
    fixed-width cell keys (variable index, three coordinates, slot; int32
    big-endian) with 4-byte values, vint-framed -- record pitch 26."""
    coords = np.indices((side,) * 3).reshape(3, -1).T
    words = np.zeros((coords.shape[0], 5), dtype=">i4")
    words[:, 1:4] = coords
    keys = words.view(np.uint8).reshape(-1, 20)
    rng = np.random.default_rng(11)
    values = rng.integers(0, 200, coords.shape[0]).astype(">i4")
    writer = IFileWriter(None)
    writer.append_batch(keys, values.view(np.uint8).reshape(-1, 4))
    writer.close()
    return writer.getvalue()


@pytest.mark.parametrize("data, chunk", [
    (walk_grid_int32_triples(30), fast.DEFAULT_CHUNK),
    (walk_grid_int32_triples(16), 4096),
    (ifile_spill_payload(), fast.DEFAULT_CHUNK),
], ids=["grid30", "grid16-chunk4096", "ifile-spill"])
def test_single_pitch_stream_identical_to_reference(data, chunk):
    """The reference rescans every chunk; the sticky rule must land on the
    same strides -- hence the same bytes -- when one pitch holds throughout."""
    x = as_u8(data)
    picks = {ref.select_stride(x[off - chunk:off], 100)
             for off in range(chunk, len(data), chunk)}
    assert len(picks) == 1 and picks != {0}, "precondition: one stride throughout"

    residual = fast.fast_forward_transform(data, 100, chunk)
    assert residual == ref.fast_forward_transform(data, 100, chunk)
    assert fast.fast_inverse_transform(residual, 100, chunk) == data
    assert ref.fast_inverse_transform(residual, 100, chunk) == data
