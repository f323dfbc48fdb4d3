"""Pluggable stride codecs (§III-E).

"A custom codec applied the transform and then compressed the data with
the built-in zlib compressor."  These classes register the paper's codec
-- transform + generic compressor -- plus variants, into the engine's
codec registry:

* ``stride+zlib`` / ``stride+bz2`` -- the exact §III transform;
* ``fastpred+zlib`` / ``fastpred+bz2`` -- the vectorized block predictor.

The transform's CPU time is recorded separately from the generic
compressor's (``transform_seconds``) so E6 can report the paper's key
diagnostic: "the runtime cost of the transform ... is roughly 2.9 times
the cost of gzip alone."
"""

from __future__ import annotations

import bz2
import time
import zlib

from repro.core.stride.fast import (
    DEFAULT_CHUNK,
    check_params,
    fast_forward_transform,
    fast_inverse_transform,
)
from repro.core.stride.model import StrideConfig
from repro.core.stride.transform import forward_transform, inverse_transform
from repro.mapreduce.codecs import Codec, register_codec

__all__ = [
    "StrideZlibCodec",
    "StrideBz2Codec",
    "FastPredZlibCodec",
    "FastPredBz2Codec",
]


class _TransformCodec(Codec):
    """Shared plumbing: forward/inverse transform around a compressor."""

    def __init__(self) -> None:
        super().__init__()
        #: CPU seconds spent in the transform itself (both directions)
        self.transform_seconds = 0.0
        #: CPU seconds spent in the generic compressor alone
        self.backend_seconds = 0.0

    # hooks -------------------------------------------------------------
    def _transform(self, data: bytes) -> bytes:
        raise NotImplementedError

    def _untransform(self, data: bytes) -> bytes:
        raise NotImplementedError

    def _backend_compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def _backend_decompress(self, data: bytes) -> bytes:
        raise NotImplementedError

    # codec interface -----------------------------------------------------
    def _compress(self, data: bytes) -> bytes:
        t0 = time.perf_counter()
        transformed = self._transform(data)
        t1 = time.perf_counter()
        out = self._backend_compress(transformed)
        t2 = time.perf_counter()
        self.transform_seconds += t1 - t0
        self.backend_seconds += t2 - t1
        return out

    def _decompress(self, data: bytes) -> bytes:
        t0 = time.perf_counter()
        transformed = self._backend_decompress(data)
        t1 = time.perf_counter()
        out = self._untransform(transformed)
        t2 = time.perf_counter()
        self.backend_seconds += t1 - t0
        self.transform_seconds += t2 - t1
        return out


class _ZlibBackend:
    level = 6

    def _backend_compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def _backend_decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class _Bz2Backend:
    level = 9

    def _backend_compress(self, data: bytes) -> bytes:
        return bz2.compress(data, self.level)

    def _backend_decompress(self, data: bytes) -> bytes:
        # bz2.decompress(b"") returns b"" instead of raising; treat a
        # zero-length input as the truncated stream it is.
        if not data:
            raise EOFError("empty bz2 stream")
        return bz2.decompress(data)


class _ExactStrideMixin:
    """Transform hooks running the exact per-byte §III algorithm."""

    def __init__(self, max_stride: int = 100) -> None:
        super().__init__()
        self.config = StrideConfig(max_stride=max_stride)

    def _transform(self, data: bytes) -> bytes:
        return forward_transform(data, self.config)

    def _untransform(self, data: bytes) -> bytes:
        return inverse_transform(data, self.config)


class _FastPredMixin:
    """Transform hooks running the vectorized block predictor."""

    def __init__(self, max_stride: int = 100,
                 chunk_size: int = DEFAULT_CHUNK) -> None:
        super().__init__()
        # a bad knob is a config error: fail here, not inside the first
        # decompress, where it would be reported as a corrupt stream
        check_params(max_stride, chunk_size)
        self.max_stride = max_stride
        self.chunk_size = chunk_size

    def _transform(self, data: bytes) -> bytes:
        return fast_forward_transform(data, self.max_stride, self.chunk_size)

    def _untransform(self, data: bytes) -> bytes:
        return fast_inverse_transform(data, self.max_stride, self.chunk_size)


@register_codec
class StrideZlibCodec(_ExactStrideMixin, _ZlibBackend, _TransformCodec):
    """§III-E's codec: exact stride transform + zlib."""

    name = "stride+zlib"


@register_codec
class StrideBz2Codec(_ExactStrideMixin, _Bz2Backend, _TransformCodec):
    """Exact stride transform + bzip2 (the Fig 3 'transform+bzip' row)."""

    name = "stride+bz2"


@register_codec
class FastPredZlibCodec(_FastPredMixin, _ZlibBackend, _TransformCodec):
    """Vectorized block predictor + zlib (scales to paper-sized inputs)."""

    name = "fastpred+zlib"


@register_codec
class FastPredBz2Codec(_FastPredMixin, _Bz2Backend, _TransformCodec):
    """Vectorized block predictor + bzip2."""

    name = "fastpred+bz2"
