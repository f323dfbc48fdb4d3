"""The block predictor as first written -- test-only differential oracle.

``repro.core.stride.fast`` computes the same scores, residuals and
prefix sums in native ``uint8``; this is the int16/int64 version with
explicit ``& 0xFF`` masks and pad-copies it replaced, kept so the tests
can require bit-identical results.  The reference transform rescans all
strides for every chunk (no sticky incumbent), so whole-stream output is
comparable only on streams whose full scan picks one stride throughout.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CHUNK = 1 << 16


def select_stride(prev_chunk: np.ndarray, max_stride: int) -> int:
    """Pick the stride for a chunk from the previous chunk's bytes.

    Scores stride ``s`` by how many positions satisfy
    ``x[i] - x[i-s] == x[i-s] - x[i-2s]`` (mod 256) in ``prev_chunk`` --
    exactly the positions the order-2 predictor would nail.  Returns 0
    (identity / no prediction) when nothing scores better than chance.
    Deterministic: ties break toward the smallest stride, so encoder and
    decoder always agree.
    """
    n = prev_chunk.shape[0]
    if n == 0:
        return 0
    x = prev_chunk.astype(np.int16)
    best_s = 0
    best_score = n // 4  # require a clearly-better-than-noise score
    limit = min(max_stride, (n - 1) // 2)
    for s in range(1, limit + 1):
        d = (x[s:] - x[:-s]) & 0xFF
        score = int(np.count_nonzero(d[s:] == d[:-s]))
        # Normalize: longer strides see fewer comparison positions.
        score = score * n // max(1, n - 2 * s)
        if score > best_score:
            best_score = score
            best_s = s
    return best_s


def _second_diff(chunk: np.ndarray, stride: int) -> np.ndarray:
    """Residual of one chunk under the order-2 predictor (vectorized)."""
    n = chunk.shape[0]
    nrows = -(-n // stride)
    padded = np.zeros(nrows * stride, dtype=np.int64)
    padded[:n] = chunk
    mat = padded.reshape(nrows, stride)
    out = np.empty_like(mat)
    out[0] = mat[0]
    if nrows > 1:
        out[1] = mat[1] - mat[0]
    if nrows > 2:
        out[2:] = mat[2:] - 2 * mat[1:-1] + mat[:-2]
    return (out.reshape(-1)[:n]) & 0xFF


def _double_cumsum(chunk: np.ndarray, stride: int) -> np.ndarray:
    """Inverse of :func:`_second_diff`: double per-phase prefix sum mod 256."""
    n = chunk.shape[0]
    nrows = -(-n // stride)
    padded = np.zeros(nrows * stride, dtype=np.int64)
    padded[:n] = chunk
    mat = padded.reshape(nrows, stride)
    # Let z[r] be the lag-s differences (z[0] = x[0]).  The forward
    # residual is y[0] = z[0], y[1] = z[1], y[r>=2] = z[r] - z[r-1], so
    # z[r>=1] = sum_{k=1..r} y[k] and x = per-column prefix sum of z.
    c = np.cumsum(mat, axis=0)
    z = c - mat[0]
    z[0] = mat[0]
    x = np.cumsum(z, axis=0)
    return (x.reshape(-1)[:n]) & 0xFF


def fast_forward_transform(
    data: bytes | bytearray | memoryview,
    max_stride: int = 100,
    chunk_size: int = DEFAULT_CHUNK,
) -> bytes:
    """Vectorized forward transform (same length as input)."""
    if chunk_size < 4:
        raise ValueError(f"chunk_size must be >= 4, got {chunk_size}")
    if max_stride < 1:
        raise ValueError(f"max_stride must be >= 1, got {max_stride}")
    x = np.frombuffer(bytes(data), dtype=np.uint8)
    out = np.empty_like(x)
    prev: np.ndarray | None = None
    for off in range(0, x.shape[0], chunk_size):
        chunk = x[off:off + chunk_size].astype(np.int64)
        stride = 0 if prev is None else select_stride(prev, max_stride)
        if stride == 0:
            out[off:off + chunk.shape[0]] = chunk
        else:
            out[off:off + chunk.shape[0]] = _second_diff(chunk, stride)
        prev = x[off:off + chunk_size]
    return out.tobytes()


def fast_inverse_transform(
    data: bytes | bytearray | memoryview,
    max_stride: int = 100,
    chunk_size: int = DEFAULT_CHUNK,
) -> bytes:
    """Inverse of :func:`fast_forward_transform` (same parameters)."""
    if chunk_size < 4:
        raise ValueError(f"chunk_size must be >= 4, got {chunk_size}")
    if max_stride < 1:
        raise ValueError(f"max_stride must be >= 1, got {max_stride}")
    y = np.frombuffer(bytes(data), dtype=np.uint8)
    out = np.empty_like(y)
    prev: np.ndarray | None = None
    for off in range(0, y.shape[0], chunk_size):
        chunk = y[off:off + chunk_size].astype(np.int64)
        stride = 0 if prev is None else select_stride(prev, max_stride)
        if stride == 0:
            rec = chunk & 0xFF
        else:
            rec = _double_cumsum(chunk, stride)
        out[off:off + chunk.shape[0]] = rec
        # the decoder's next stride choice reads the *reconstructed* chunk
        prev = out[off:off + chunk.shape[0]]
    return out.tobytes()
