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
from abc import ABC, abstractmethod

import numpy as np

from repro.mapreduce.keys import RangeKey

__all__ = ["Partitioner", "HashPartitioner", "CurveRangePartitioner"]


class Partitioner(ABC):
    """Maps a serialized key to a reducer index in ``[0, num_reducers)``."""

    def __init__(self, num_reducers: int) -> None:
        if num_reducers < 1:
            raise ValueError(f"num_reducers must be >= 1, got {num_reducers}")
        self.num_reducers = num_reducers

    @abstractmethod
    def partition(self, key_bytes: bytes) -> int: ...

    def partition_batch(self, keys: np.ndarray) -> np.ndarray:
        """Partition an ``(n, key_size)`` uint8 key matrix.

        Returns an ``(n,)`` int64 array equal to calling
        :meth:`partition` row by row, but calls it once per *distinct*
        row and scatters the answers back: a sliding-window mapper emits
        every target key many times, and the per-key hash dominates.

        Distinct rows are found through a fixed-width ``S`` view (for
        rows of one width, ``S`` equality is byte equality).  The bytes
        handed to :meth:`partition` are sliced from the raw matrix, never
        read through an ``S`` scalar -- those drop trailing NULs, and
        big-endian packed coordinates such as 256 end in ``\\x00``.
        """
        n, width = keys.shape
        if self.num_reducers == 1 or n == 0:
            return np.zeros(n, dtype=np.int64)
        if width == 0:
            return np.full(n, self.partition(b""), dtype=np.int64)
        keys = np.ascontiguousarray(keys)
        _, first, inverse = np.unique(keys.view(f"S{width}").ravel(),
                                      return_index=True, return_inverse=True)
        flat = keys[first].tobytes()
        distinct = np.fromiter(
            (self.partition(flat[i:i + width])
             for i in range(0, len(flat), width)),
            dtype=np.int64, count=len(first),
        )
        return distinct[inverse]


class HashPartitioner(Partitioner):
    """Hadoop's default: stable hash of the serialized key, mod reducers.

    Uses blake2b rather than Python's randomized ``hash()`` so runs are
    reproducible across processes.
    """

    def partition(self, key_bytes: bytes) -> int:
        digest = hashlib.blake2b(key_bytes, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.num_reducers


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
