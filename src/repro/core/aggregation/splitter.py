"""Key splitting (§IV-B, Fig 7).

Two cases, quoted from the paper:

* "A mapper may generate an aggregate key whose simple keys do not all
  route to the same reducer" -- :func:`split_at_boundaries` cuts a
  (range, block) pair at the total-order partitioner's boundary indices
  so each piece routes whole.
* "When sorting keys at a reducer, overlapping keys are split along the
  overlap boundaries ... unequal overlapping keys contain data that map
  to the same simple keys, but since the aggregate keys are unequal, the
  data would not be reduced together" -- :func:`split_overlaps` cuts
  every range at every other range's endpoints, after which overlapping
  ranges are *equal* and group correctly.

The object functions above are the definition.  :func:`boundary_pieces`
and :func:`overlap_pieces` are the same two cuts as array arithmetic
over ``(variable, start, count)`` columns -- cut points by
``np.unique``, each range's cut span by ``np.searchsorted``, pieces by
``repeat``/``arange`` -- and return *which* slices to take, in the order
the object functions return them; the shuffle plugin turns those into
bytes.  They are tested piece for piece against the object functions.

Why cutting is safe at all (the *Monoidify!* argument): value blocks
over adjacent ranges form a monoid under
:func:`~repro.core.aggregation.reaggregate.concat_blocks` -- it is
associative, and slicing a block at any set of cut points then
concatenating the pieces in order gives the block back.  A block is
therefore the same data however it is cut, so the map side may cut at
partition boundaries, the reducer at overlap boundaries, and
re-aggregation may fuse pieces again, in any order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.core.aggregation.blocks import ValueBlock
from repro.mapreduce.keys import RangeKey

__all__ = ["split_at_boundaries", "split_overlaps", "boundary_pieces",
           "overlap_pieces"]

Pair = tuple[RangeKey, ValueBlock]


def _cut(key: RangeKey, block: ValueBlock, cuts: Sequence[int]) -> list[Pair]:
    """Split one (range, block) at the given absolute curve indices.

    ``cuts`` must be sorted; only cuts strictly inside the range apply.
    """
    lo_i = bisect_right(cuts, key.start)
    hi_i = bisect_left(cuts, key.end)
    inner = list(cuts[lo_i:hi_i])
    if not inner:
        return [(key, block)]
    edges = [key.start] + inner + [key.end]
    out: list[Pair] = []
    for a, b in zip(edges[:-1], edges[1:]):
        piece = block.slice(a - key.start, b - key.start)
        out.append((RangeKey(key.variable, a, b - a), piece))
    return out


def split_at_boundaries(
    key: RangeKey, block: ValueBlock, boundaries: Sequence[int]
) -> list[Pair]:
    """Routing-time split at partition boundaries (sorted ascending)."""
    if block.count != key.count:
        raise ValueError(
            f"block covers {block.count} cells but key spans {key.count}"
        )
    return _cut(key, block, sorted(boundaries))


def split_overlaps(pairs: list[Pair]) -> list[Pair]:
    """Reducer-side overlap splitting (Fig 7).

    Cuts every range at every distinct endpoint of any overlapping range
    of the same variable, then returns the pieces sorted by
    ``(variable, start, count)`` -- the grouping order.  After this,
    ranges of one variable either coincide exactly or are disjoint, so
    byte-equal keys group all data for the same simple keys.
    """
    by_var: dict[object, list[Pair]] = {}
    for key, block in pairs:
        if block.count != key.count:
            raise ValueError(
                f"block covers {block.count} cells but key spans {key.count}"
            )
        by_var.setdefault(key.variable, []).append((key, block))

    out: list[Pair] = []
    for variable in by_var:
        var_pairs = by_var[variable]
        endpoints: set[int] = set()
        for key, _ in var_pairs:
            endpoints.add(key.start)
            endpoints.add(key.end)
        cuts = sorted(endpoints)
        for key, block in var_pairs:
            out.extend(_cut(key, block, cuts))
    out.sort(key=lambda p: (str(p[0].variable), p[0].start, p[0].count))
    return out


# -- array form ---------------------------------------------------------------


def _expand(npieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, ordinal)`` of every piece: range ``i`` owns ``npieces[i]``
    consecutive pieces numbered from 0."""
    owner = np.repeat(np.arange(npieces.shape[0]), npieces)
    first = np.cumsum(npieces) - npieces
    return owner, np.arange(owner.shape[0]) - first[owner]


def boundary_pieces(
    starts: np.ndarray, counts: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`split_at_boundaries` over many ranges at once.

    ``boundaries`` must be strictly increasing.  Returns ``(owner,
    piece_starts, piece_counts, below)``: the pieces of range ``0``, then
    of range ``1``, ..., each in ascending order, and for every piece the
    number of boundaries at or below its start (the reducer index when
    the boundaries are a partitioner's split points).
    """
    ends = starts + counts
    lo = np.searchsorted(boundaries, starts, side="right")
    hi = np.searchsorted(boundaries, ends, side="left")
    npieces = hi - lo + 1  # hi >= lo: a boundary <= start is < end
    owner, k = _expand(npieces)
    below = lo[owner] + k
    if boundaries.shape[0] == 0:
        return owner, starts, counts, below
    last = boundaries.shape[0] - 1
    piece_starts = np.where(
        k == 0, starts[owner], boundaries[np.clip(below - 1, 0, last)])
    piece_ends = np.where(
        k == npieces[owner] - 1, ends[owner],
        boundaries[np.clip(below, 0, last)])
    return owner, piece_starts, piece_ends - piece_starts, below


def overlap_pieces(
    variable_rank: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`split_overlaps` over ``(variable, start, count)`` columns.

    ``variable_rank[i]`` is the position of range ``i``'s variable in
    the ``str(variable)`` order :func:`split_overlaps` sorts by.
    Returns ``(owner, piece_starts, piece_counts)`` in that function's
    output order, ties included: its sort is stable over pieces laid
    out range by range, and so is the ``lexsort`` here.  (Its third
    sort key, ``count``, never decides: after the cut, the pieces of one
    variable that start at a cut point all end at the next one.)
    """
    n = starts.shape[0]
    ends = starts + counts
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    cut_lists = []
    base = 0
    for rank in np.unique(variable_rank).tolist():
        sel = np.flatnonzero(variable_rank == rank)
        cuts = np.unique(np.concatenate((starts[sel], ends[sel])))
        lo[sel] = base + np.searchsorted(cuts, starts[sel])
        hi[sel] = base + np.searchsorted(cuts, ends[sel])
        cut_lists.append(cuts)
        base += cuts.shape[0]
    cuts = np.concatenate(cut_lists)
    owner, k = _expand(hi - lo)
    at = lo[owner] + k
    piece_starts = cuts[at]
    piece_counts = cuts[at + 1] - piece_starts
    order = np.lexsort((piece_starts, variable_rank[owner]))
    return owner[order], piece_starts[order], piece_counts[order]
