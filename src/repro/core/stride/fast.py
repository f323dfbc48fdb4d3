"""Vectorized block predictor -- our scalable variant of §III.

The exact §III algorithm is inherently per-byte (every byte's prediction
depends on adaptively chosen state), which is slow in pure Python at
paper scale.  This variant restructures the same idea -- predict each
byte from the bytes one and two strides back -- so that both directions
are pure numpy, in ``uint8`` end to end (numpy's wraparound *is* the
mod-256 arithmetic of the paper, so nothing is upcast or masked):

* the stream is processed in fixed chunks, each under one stride;
* within a chunk the residual is the second difference along the stride:
  ``y_i = x_i - 2*x_{i-s} + x_{i-2s}`` (mod 256), i.e. an order-2 linear
  predictor.  This predicts exactly the sequences of paper eq. (1):
  whenever ``x_{i-s} = x_{i-2s} + delta`` held and ``x_i = x_{i-s} +
  delta`` continues, the residual is zero -- without tracking ``delta``
  explicitly;
* inversion is two per-phase prefix sums (the second difference is
  inverted by a double cumulative sum mod 256), so decode is vectorized
  too.

**Choosing the stride: a chunk-granular §III-A active set.**  The paper
does not keep scoring all ``max_stride`` candidates once the stream's
periodicity is known: strides whose hit rate falls below a bar leave the
active set, and brute force over all of them is 4x/17x slower (E5).
:func:`next_stride` is that rule at chunk granularity.  The incumbent
stride is carried from chunk to chunk; for each new chunk only the
incumbent is re-scored, on the previous chunk, and it is kept while more
than :data:`STICKY_HIT_RATE` of that chunk's positions were predicted
exactly.  Only when there is no incumbent, or it drops below the bar (the
record pitch changed, or structure gave way to noise), are all
``1..max_stride`` candidates scanned again by :func:`select_stride`.  A
key stream has one record pitch per file, so a multi-chunk segment costs
one full scan plus one single-stride score per further chunk.

**Why no header bytes.**  The rule reads nothing but the incumbent and the
previous chunk *of the original stream*.  The encoder has that chunk in
its input; the decoder has just reconstructed it.  Both directions run
the same loop (:func:`_run`) and the same :func:`next_stride`, so they
reach the same stride for every chunk and none is ever stored.  The
first chunk has no predecessor and passes through untransformed.

Ablation A5 measures what this buys and costs versus the exact
algorithm: orders of magnitude more throughput, with a somewhat larger
residual file because a single stride serves a whole chunk.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "fast_forward_transform",
    "fast_inverse_transform",
    "select_stride",
    "next_stride",
    "check_params",
    "DEFAULT_CHUNK",
    "STICKY_HIT_RATE",
]

DEFAULT_CHUNK = 1 << 16

#: The incumbent stride is kept while more than this share of the previous
#: chunk's positions were predicted exactly -- the paper's pruning bar for
#: the active set (§III-A).  IFile key streams sit at 0.88.  A Fraction, so
#: encoder and decoder compare in exact integer arithmetic.
STICKY_HIT_RATE = Fraction(5, 6)


def check_params(max_stride: int, chunk_size: int) -> None:
    """Reject parameters no stream can be transformed under."""
    if chunk_size < 4:
        raise ValueError(f"chunk_size must be >= 4, got {chunk_size}")
    if max_stride < 1:
        raise ValueError(f"max_stride must be >= 1, got {max_stride}")


def _hits(x: np.ndarray, stride: int) -> int:
    """Positions of ``x`` (uint8) the order-2 predictor nails at ``stride``:
    ``x[i] - x[i-s] == x[i-s] - x[i-2s]`` (mod 256)."""
    d = x[stride:] - x[:-stride]
    return int(np.count_nonzero(d[stride:] == d[:-stride]))


def select_stride(prev_chunk: np.ndarray, max_stride: int) -> int:
    """Full scan: the best of strides ``1..max_stride`` on ``prev_chunk``.

    Scores stride ``s`` by how many positions satisfy
    ``x[i] - x[i-s] == x[i-s] - x[i-2s]`` (mod 256) in ``prev_chunk``
    (a ``uint8`` array) -- exactly the positions the order-2 predictor
    would nail.  Returns 0 (identity / no prediction) when nothing scores
    better than chance.  Deterministic: ties break toward the smallest
    stride, so encoder and decoder always agree.
    """
    n = prev_chunk.shape[0]
    best_s = 0
    best_score = n // 4  # require a clearly-better-than-noise score
    for s in range(1, min(max_stride, (n - 1) // 2) + 1):
        # Normalize: longer strides see fewer comparison positions.
        score = _hits(prev_chunk, s) * n // (n - 2 * s)
        if score > best_score:
            best_score = score
            best_s = s
    return best_s


def next_stride(incumbent: int, prev_chunk: np.ndarray, max_stride: int) -> int:
    """The stride for the chunk after ``prev_chunk`` (sticky rule).

    Keeps ``incumbent`` while its hit rate on ``prev_chunk`` stays above
    :data:`STICKY_HIT_RATE`; otherwise (or with no incumbent) rescans all
    candidates.  A pure function of already-reconstructed bytes, shared
    by both directions of the transform.
    """
    positions = prev_chunk.shape[0] - 2 * incumbent
    if incumbent and positions > 0 and (
            _hits(prev_chunk, incumbent) > STICKY_HIT_RATE * positions):
        return incumbent
    return select_stride(prev_chunk, max_stride)


def _second_diff(chunk: np.ndarray, stride: int, out: np.ndarray) -> None:
    """Residual of one chunk under the order-2 predictor, into ``out``."""
    d = chunk[stride:] - chunk[:-stride]  # lag-s differences, mod 256
    out[:stride] = chunk[:stride]
    out[stride:2 * stride] = d[:stride]
    np.subtract(d[stride:], d[:-stride], out=out[2 * stride:])


def _double_cumsum(chunk: np.ndarray, stride: int, out: np.ndarray) -> None:
    """Inverse of :func:`_second_diff`: double per-phase prefix sum mod 256."""
    n = chunk.shape[0]
    nrows = n // stride
    if nrows == 0:  # shorter than one stride: nothing was predicted
        out[:] = chunk
        return
    body = nrows * stride
    y = chunk[:body].reshape(nrows, stride)
    x = out[:body].reshape(nrows, stride)
    # Let z[r] be the lag-s differences (z[0] = x[0]).  The forward
    # residual is y[0] = z[0], y[1] = z[1], y[r>=2] = z[r] - z[r-1], so
    # z[r>=1] = sum_{k=1..r} y[k] and x = per-column prefix sum of z.
    np.cumsum(y, axis=0, dtype=np.uint8, out=x)
    x[1:] -= y[0]
    np.cumsum(x, axis=0, dtype=np.uint8, out=x)
    # The ragged last row (n not a multiple of the stride) continues its
    # columns by one step of the forward recurrence, solved for x:
    # x[r] = y[r] + x[r-1] + z[r-1], where row 0 has no lag-s difference.
    tail = n - body
    out[body:] = chunk[body:] + x[-1, :tail]
    if nrows >= 2:
        out[body:] += x[-1, :tail] - x[-2, :tail]


def _run(data: bytes | bytearray | memoryview, max_stride: int,
         chunk_size: int, inverse: bool) -> bytes:
    """Both directions: one loop, one stride rule, one output buffer."""
    check_params(max_stride, chunk_size)
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty_like(src)
    # the original stream, as far as this direction has it: the encoder
    # reads it, the decoder has reconstructed it up to the current chunk
    plain = out if inverse else src
    kernel = _double_cumsum if inverse else _second_diff
    stride = 0
    for off in range(0, src.shape[0], chunk_size):
        end = off + chunk_size
        if off:
            stride = next_stride(stride, plain[off - chunk_size:off], max_stride)
        if stride:
            kernel(src[off:end], stride, out[off:end])
        else:
            out[off:end] = src[off:end]
    return out.tobytes()


def fast_forward_transform(
    data: bytes | bytearray | memoryview,
    max_stride: int = 100,
    chunk_size: int = DEFAULT_CHUNK,
) -> bytes:
    """Vectorized forward transform (same length as input)."""
    return _run(data, max_stride, chunk_size, inverse=False)


def fast_inverse_transform(
    data: bytes | bytearray | memoryview,
    max_stride: int = 100,
    chunk_size: int = DEFAULT_CHUNK,
) -> bytes:
    """Inverse of :func:`fast_forward_transform` (same parameters)."""
    return _run(data, max_stride, chunk_size, inverse=True)
