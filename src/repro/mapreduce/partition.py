"""Partitioners: route intermediate keys to reducers.

Hadoop's default hashes each key independently (assumption (a) in §II-B:
"keys are routed independently, and the user has no information about or
control over grouping or dispersal of keys").  Key aggregation needs a
*total-order* partitioner over the space-filling-curve index space so an
aggregate range maps to a contiguous set of reducers and can be split at
the partition boundaries ("A mapper may generate an aggregate key whose
simple keys do not all route to the same reducer", §IV-B).
"""

from __future__ import annotations

import hashlib
import operator
from abc import ABC, abstractmethod

import numpy as np

from repro.mapreduce.keys import RangeKey

__all__ = ["Partitioner", "HashPartitioner", "CurveRangePartitioner"]


_DIGEST_SIZE = 8


def blake2b_column(rows: np.ndarray) -> np.ndarray:
    """``(n,)`` uint64: each row's 8-byte blake2b digest, big-endian --
    the number :meth:`HashPartitioner.partition` reduces mod ``R``."""
    proto = hashlib.blake2b(digest_size=_DIGEST_SIZE)

    def digest(row: bytes) -> bytes:
        h = proto.copy()
        h.update(row)
        return h.digest()

    digests = b"".join([digest(row) for row in _row_bytes(rows)])
    return np.frombuffer(digests, dtype=">u8")


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    """Each row of an ``(n, width)`` uint8 matrix as ``bytes``.  A ``V``
    (void) scalar keeps every byte, trailing NULs included."""
    n, width = rows.shape
    if width == 0:
        return [b""] * n
    return np.ascontiguousarray(rows).view(f"V{width}").ravel().tolist()


class Partitioner(ABC):
    """Maps a serialized key to a reducer index in ``[0, num_reducers)``."""

    def __init__(self, num_reducers: int) -> None:
        if num_reducers < 1:
            raise ValueError(f"num_reducers must be >= 1, got {num_reducers}")
        # a Python int: ``int % np.int64`` overflows on digests >= 2**63
        self.num_reducers = operator.index(num_reducers)

    @abstractmethod
    def partition(self, key_bytes: bytes) -> int: ...

    def partition_batch(self, keys: np.ndarray) -> np.ndarray:
        """Partition an ``(n, key_size)`` uint8 key matrix.

        Returns an ``(n,)`` int64 array equal to calling
        :meth:`partition` row by row, but hands each *distinct* row to
        :meth:`partition_rows` once and scatters the answers back: a
        sliding-window mapper emits every target key many times, and the
        per-key hash dominates.

        Distinct rows are found through a fixed-width ``S`` view (for
        rows of one width, ``S`` equality is byte equality); the rows
        handed on are taken from the raw matrix, never read through an
        ``S`` scalar -- those drop trailing NULs, and big-endian packed
        coordinates such as 256 end in ``\\x00``.
        """
        n, width = keys.shape
        if self.num_reducers == 1 or n == 0 or width == 0:
            return self.partition_rows(keys)
        keys = np.ascontiguousarray(keys)
        _, first, inverse = np.unique(keys.view(f"S{width}").ravel(),
                                      return_index=True, return_inverse=True)
        return self.partition_rows(keys[first])[inverse]

    def partition_rows(self, rows: np.ndarray) -> np.ndarray:
        """Partition an ``(n, key_size)`` uint8 matrix of rows the caller
        already knows to be distinct (a sorted stage's group heads), so
        nothing is deduplicated a second time.  Returns ``(n,)`` int64,
        row ``i`` equal to ``partition(rows[i].tobytes())``; this default
        calls :meth:`partition` once per row."""
        n, width = rows.shape
        if self.num_reducers == 1 or n == 0:
            return np.zeros(n, dtype=np.int64)
        if width == 0:
            return np.full(n, self.partition(b""), dtype=np.int64)
        return np.fromiter(map(self.partition, _row_bytes(rows)),
                           dtype=np.int64, count=n)


class HashPartitioner(Partitioner):
    """Hadoop's default: stable hash of the serialized key, mod reducers.

    The hash is the key's 8-byte blake2b digest read big-endian, rather
    than Python's randomized ``hash()``, so runs are reproducible across
    processes.  :meth:`partition_rows` computes the same digest for a
    whole matrix in one pass -- one hashlib object per row, copied from a
    prototype, the digests read as one big-endian ``uint64`` column and
    reduced modulo ``R`` in numpy -- so the scalar record path and the
    batch agree by construction.
    """

    def partition(self, key_bytes: bytes) -> int:
        digest = hashlib.blake2b(key_bytes, digest_size=_DIGEST_SIZE).digest()
        return int.from_bytes(digest, "big") % self.num_reducers

    def partition_rows(self, rows: np.ndarray) -> np.ndarray:
        if (type(self).partition is not HashPartitioner.partition
                or self.num_reducers == 1):
            # an overridden ``partition`` is the routing (honoured row by
            # row); one reducer needs no hash
            return super().partition_rows(rows)
        # ``uint64 % uint64``: an int64 divisor would promote the column
        # to float64 and round every digest above 2**53
        return (blake2b_column(rows) % np.uint64(self.num_reducers)
                ).astype(np.int64)


class CurveRangePartitioner(Partitioner):
    """Total-order partitioner over curve indices ``[0, curve_size)``.

    Reducer ``r`` owns indices ``[boundary[r], boundary[r+1])`` with
    near-equal spans.  Aggregate keys must be pre-split so each emitted
    range lies within one reducer's span; :meth:`check_range` enforces
    that invariant (it is the routing half of §IV-B key splitting).
    """

    def __init__(self, num_reducers: int, curve_size: int) -> None:
        super().__init__(num_reducers)
        if curve_size < 1:
            raise ValueError(f"curve_size must be >= 1, got {curve_size}")
        self.curve_size = curve_size
        # boundary[r] = first index owned by reducer r; boundary[R] = size.
        self.boundaries = [
            (curve_size * r) // num_reducers for r in range(num_reducers + 1)
        ]

    def reducer_for_index(self, index: int) -> int:
        if not 0 <= index < self.curve_size:
            raise ValueError(f"index {index} outside [0, {self.curve_size})")
        # num_reducers is small (paper uses 5); linear scan beats bisect
        # overhead for these sizes and is obviously correct.
        for r in range(self.num_reducers):
            if index < self.boundaries[r + 1]:
                return r
        raise AssertionError("unreachable")

    def split_points(self) -> list[int]:
        """Interior partition boundaries (where ranges must be split)."""
        return self.boundaries[1:-1]

    def check_range(self, rng: RangeKey) -> int:
        """Reducer owning ``rng``; raises if it straddles a boundary."""
        first = self.reducer_for_index(rng.start)
        last = self.reducer_for_index(rng.end - 1)
        if first != last:
            raise ValueError(
                f"{rng} straddles reducers {first}..{last}; split it before routing"
            )
        return first

    def partition(self, key_bytes: bytes) -> int:
        raise NotImplementedError(
            "CurveRangePartitioner routes decoded ranges via check_range(); "
            "raw-bytes partitioning would re-parse every key"
        )
