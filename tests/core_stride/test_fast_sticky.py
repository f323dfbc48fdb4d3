"""The sticky stride rule: kept while it predicts, dropped when it stops."""

import numpy as np
import pytest

from repro.core.stride import fast
from repro.core.stride.fast import (
    fast_forward_transform,
    fast_inverse_transform,
    next_stride,
)

CHUNK = 4096
MAX_STRIDE = 100


def records(pitch: int, nbytes: int, seed: int) -> bytes:
    """A fixed-width record stream cut to ``nbytes``: a big-endian record
    counter followed by ``pitch - 4`` bytes of per-stream constant filler,
    so only multiples of the pitch predict it."""
    count = -(-nbytes // pitch)
    rec = np.empty((count, pitch), dtype=np.uint8)
    rec[:, :4] = np.arange(count, dtype=">u4").view(np.uint8).reshape(-1, 4)
    rec[:, 4:] = np.random.default_rng(seed).integers(
        0, 256, pitch - 4, dtype=np.uint8)
    return rec.tobytes()[:nbytes]


def noise(nbytes: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, nbytes, dtype=np.uint8).tobytes()


def stride_sequence(data: bytes) -> list[int]:
    """The stride of every chunk, by folding the transform's own picker
    over the stream the way both directions do."""
    x = np.frombuffer(data, dtype=np.uint8)
    seq = [0]
    for off in range(CHUNK, x.shape[0], CHUNK):
        seq.append(next_stride(seq[-1], x[off - CHUNK:off], MAX_STRIDE))
    return seq


def roundtrip(data: bytes) -> bytes:
    residual = fast_forward_transform(data, MAX_STRIDE, CHUNK)
    assert fast_inverse_transform(residual, MAX_STRIDE, CHUNK) == data
    return residual


@pytest.fixture
def full_scans(monkeypatch):
    """Counts calls to the full 1..max_stride scan."""
    calls = []
    scan = fast.select_stride

    def counting(prev_chunk, max_stride):
        calls.append(prev_chunk.shape[0])
        return scan(prev_chunk, max_stride)

    monkeypatch.setattr(fast, "select_stride", counting)
    return calls


def test_single_pitch_scans_once(full_scans):
    data = records(26, 10 * CHUNK, seed=1)
    roundtrip(data)
    # per direction: one full scan for chunk 1, the incumbent after that
    assert len(full_scans) == 2
    full_scans.clear()
    assert stride_sequence(data) == [0] + [26] * 9
    assert len(full_scans) == 1


def test_pitch_switch_mid_stream_drops_the_incumbent(full_scans):
    # the pitch changes half way through chunk 4
    data = records(12, 4 * CHUNK + CHUNK // 2, seed=2) + records(
        26, 5 * CHUNK + CHUNK // 2, seed=3)
    roundtrip(data)
    full_scans.clear()
    seq = stride_sequence(data)
    assert seq[0] == 0
    assert all(s and s % 12 == 0 for s in seq[1:5])
    # chunk 4 is half pitch 12, half pitch 26: no stride holds 5/6 of it
    # (seq[5] is whatever the rescan made of the mix); once a pure
    # pitch-26 chunk has been seen the rescan lands on the new pitch
    assert all(s and s % 26 == 0 for s in seq[6:])
    # the first pick, the mixed chunk, and the first pure chunk after it
    assert len(full_scans) == 3


def test_pitch_switch_on_a_chunk_boundary(full_scans):
    data = records(12, 4 * CHUNK, seed=4) + records(26, 4 * CHUNK, seed=5)
    residual = roundtrip(data)
    full_scans.clear()
    seq = stride_sequence(data)
    # chunk 4 is the first of the new pitch, but its predecessor is pure
    # pitch 12, so it is still coded (losslessly, badly) with the incumbent
    assert all(s and s % 12 == 0 for s in seq[1:5])
    assert all(s and s % 26 == 0 for s in seq[5:])
    assert len(full_scans) == 2
    # ... and only that one chunk pays for it
    late = np.frombuffer(residual, dtype=np.uint8)[5 * CHUNK:]
    assert np.count_nonzero(late) < late.shape[0] // 20


def test_structured_noise_structured(full_scans):
    data = (records(26, 3 * CHUNK, seed=6) + noise(3 * CHUNK, seed=7)
            + records(26, 3 * CHUNK, seed=8))
    roundtrip(data)
    full_scans.clear()
    seq = stride_sequence(data)
    # a chunk is coded from its predecessor, so each regime change shows
    # one chunk late
    assert seq == [0, 26, 26, 26, 0, 0, 0, 26, 26]
    # the first pick, then one rescan per chunk from the first noisy
    # predecessor until a stride is found again -- nothing is kept
    # through noise
    assert len(full_scans) == 5


def test_pure_noise_never_predicts():
    data = noise(8 * CHUNK + 123, seed=9)
    assert stride_sequence(data) == [0] * 9
    assert roundtrip(data) == data


def test_incumbent_longer_than_half_the_chunk_is_rescanned():
    # nothing to score it on: fall back to the scan instead of guessing
    x = np.frombuffer(records(4, 12, seed=10), dtype=np.uint8)
    assert next_stride(6, x, MAX_STRIDE) == fast.select_stride(x, MAX_STRIDE)


@pytest.mark.parametrize("wrap", [
    bytearray,
    lambda b: memoryview(b),
    lambda b: memoryview(bytearray(b"\xAA" * 3 + b + b"\x55" * 5))[3:-5],
], ids=["bytearray", "readonly-memoryview", "sliced-memoryview"])
def test_buffer_inputs_are_read_in_place(wrap):
    data = records(26, 3 * CHUNK + 17, seed=12)
    buf = wrap(data)
    residual = fast_forward_transform(buf, MAX_STRIDE, CHUNK)
    assert residual == fast_forward_transform(data, MAX_STRIDE, CHUNK)
    assert bytes(buf) == data  # not mutated
    back = fast_inverse_transform(wrap(residual), MAX_STRIDE, CHUNK)
    assert back == data
    if isinstance(buf, bytearray):
        buf.append(0)  # BufferError if the transform still held an export
