"""Pluggable compression codecs (Hadoop's ``CompressionCodec`` hook).

§III's whole strategy rests on this extension point: "Given the difficulty
of changing core Hadoop code, our first approach was to take advantage of
Hadoop's pluggable compression and write a custom compression module."
The stride codec in :mod:`repro.core.stride.codec` registers itself here;
the engine looks codecs up by name from the job configuration.

Every codec reports CPU seconds spent compressing/decompressing via a
:class:`~repro.util.timing.CostClock`, which the cluster simulator uses to
reproduce §III-E's finding that the transform's CPU cost (about 2.9x
gzip) can erase its I/O savings.

Compression runs in two stages, so a map task can overlap them across
partitions (``engine._commit_segments``): :meth:`Codec.prepare` is the
front stage, which holds the GIL (the §III transform, or nothing for a
plain codec), and :meth:`Codec.finish` the back stage, the zlib or bz2
call, which releases it and touches no codec state, so it may run on
another thread.  ``finish(prepare(x)) == compress(x)`` byte for byte.
"""

from __future__ import annotations

import bz2
import time
import zlib
from abc import ABC, abstractmethod

from repro.util.errors import CorruptRecordError, CorruptStreamError
from repro.util.timing import CostClock

__all__ = [
    "Codec",
    "NullCodec",
    "ZlibCodec",
    "Bz2Codec",
    "register_codec",
    "get_codec",
    "available_codecs",
]


class Codec(ABC):
    """Block compressor applied to a whole IFile segment."""

    #: registry name, set by subclasses
    name: str = "abstract"

    def __init__(self) -> None:
        self.clock = CostClock()

    @abstractmethod
    def _compress(self, data: bytes) -> bytes: ...

    @abstractmethod
    def _decompress(self, data: bytes) -> bytes: ...

    def prepare(self, data: bytes) -> bytes:
        """Front stage of :meth:`compress`: the work that holds the GIL.

        Runs on the calling thread and charges its own seconds.  Plain
        codecs have none: the identity.
        """
        return data

    def finish(self, data: bytes) -> bytes:
        """Back stage of :meth:`compress`: the backend compressor.

        Mutates no codec state, so it is safe on any thread; whoever
        timed it charges the seconds through :meth:`charge_finish`.
        """
        return self._compress(data)

    def charge_finish(self, seconds: float) -> None:
        """Charge one back stage's seconds (on the thread that owns the
        codec)."""
        self.clock.add("compress", seconds)

    def compress(self, data: bytes) -> bytes:
        staged = self.prepare(data)
        start = time.perf_counter()
        out = self.finish(staged)
        self.charge_finish(time.perf_counter() - start)
        return out

    def decompress(self, data: bytes) -> bytes:
        """Decompress ``data``, charging CPU time to the cost clock.

        Backend failures on corrupt input (``zlib.error``, bz2's
        ``OSError``/``EOFError``, stride metadata errors) are surfaced
        as :class:`~repro.util.errors.CorruptStreamError` so a
        bit-flipped stream fails the same structured way everywhere.
        """
        with self.clock.measure("decompress"):
            try:
                return self._decompress(data)
            except CorruptRecordError:
                raise
            except Exception as exc:
                raise CorruptStreamError(
                    f"codec {self.name!r} failed to decompress: {exc}"
                ) from exc

    @property
    def cpu_seconds(self) -> float:
        """Total codec CPU charged so far (compress + decompress)."""
        return self.clock.total()


class NullCodec(Codec):
    """Identity codec -- plain Hadoop without intermediate compression."""

    name = "null"

    def _compress(self, data: bytes) -> bytes:
        return data

    def _decompress(self, data: bytes) -> bytes:
        return data


class ZlibCodec(Codec):
    """zlib/DEFLATE, Hadoop's built-in default codec (§III-E uses it)."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        super().__init__()
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be 1..9, got {level}")
        self.level = level

    def _compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def _decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class Bz2Codec(Codec):
    """bzip2 -- the stronger/slower generic codec in Fig 3."""

    name = "bz2"

    def __init__(self, level: int = 9) -> None:
        super().__init__()
        if not 1 <= level <= 9:
            raise ValueError(f"bz2 level must be 1..9, got {level}")
        self.level = level

    def _compress(self, data: bytes) -> bytes:
        return bz2.compress(data, self.level)

    def _decompress(self, data: bytes) -> bytes:
        # bz2.decompress(b"") returns b"" instead of raising, but no
        # bz2 stream is ever empty -- a zero-length input is a truncated
        # stream and must fail like one.
        if not data:
            raise EOFError("empty bz2 stream")
        return bz2.decompress(data)


def cost_categories(codec: Codec) -> dict[str, float]:
    """Split a codec's CPU cost into named categories for task profiles.

    Transform codecs (§III) report ``transform`` and ``codec`` (generic
    compressor) separately -- the split behind the paper's "2.9 times the
    cost of gzip alone" diagnosis; plain codecs report only ``codec``.
    """
    transform = getattr(codec, "transform_seconds", None)
    if transform is not None:
        return {
            "transform": transform,
            "codec": getattr(codec, "backend_seconds", 0.0),
        }
    return {"codec": codec.cpu_seconds}


_REGISTRY: dict[str, type[Codec]] = {}


def register_codec(cls: type[Codec]) -> type[Codec]:
    """Class decorator adding a codec to the registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"{cls.__name__} must define a registry name")
    _REGISTRY[cls.name] = cls
    return cls


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate a registered codec by name.

    Imports :mod:`repro.core.stride.codec` lazily on first miss so the
    stride codecs are available without an import cycle.
    """
    if name not in _REGISTRY:
        _load_plugin_codecs()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def _load_plugin_codecs() -> None:
    """Import modules that register additional codecs (stride, §III)."""
    import repro.core.stride.codec  # noqa: F401  (registration side effect)


def available_codecs() -> list[str]:
    """Names of all registered codecs (forces stride codec registration)."""
    _load_plugin_codecs()
    return sorted(_REGISTRY)


register_codec(NullCodec)
register_codec(ZlibCodec)
register_codec(Bz2Codec)
