"""Coalescing curve indices into contiguous runs (Fig 6).

"Aggregation is then simple; each contiguous range of indices becomes an
aggregate key" -- the Fig 6 example collapses cells {1, 2, 7, 9, 10, 13}
into ranges ``1-2, 7, 9-10, 13``.

One wrinkle the figure does not show: a sliding-window mapper emits the
*same* cell several times (once per window that covers it), and a value
block can hold only one value per covered index.  :func:`layered_runs`
therefore decomposes duplicate-bearing input into layers -- occurrence 0
of every index, occurrence 1, ... -- and coalesces runs within each
layer.  For a k-wide window this yields about k long ranges instead of
per-cell fragmentation, preserving the aggregation win.
"""

from __future__ import annotations

import numpy as np

__all__ = ["coalesce_indices", "layered_run_arrays", "layered_runs"]


def coalesce_indices(indices: np.ndarray) -> list[tuple[int, int]]:
    """Collapse *sorted, distinct* indices into ``(start, count)`` runs.

    The literal Fig 6 operation.  Raises on unsorted or duplicate input
    (use :func:`layered_runs` for the general case).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
    n = indices.shape[0]
    if n == 0:
        return []
    gaps = np.diff(indices)
    if (gaps <= 0).any():
        raise ValueError("indices must be strictly increasing")
    breaks = np.flatnonzero(gaps > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [n]))
    return [
        (int(indices[s]), int(e - s)) for s, e in zip(starts, ends)
    ]


def layered_run_arrays(
    indices: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose (index, value) pairs into contiguous runs, as arrays.

    Input need not be sorted and may contain duplicate indices.  Returns
    ``(starts, counts, values)``: run ``i`` covers curve indices
    ``[starts[i], starts[i] + counts[i])`` and its values are the next
    ``counts[i]`` entries of ``values`` (runs packed back to back, in
    order).  Duplicates are spread across layers: occurrence ``r`` of
    every index lands in layer ``r``, and each layer is coalesced
    independently.  Within a duplicate group, occurrences keep their
    input order (stable), so deterministic inputs produce deterministic
    output.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values)
    if indices.ndim != 1 or values.ndim != 1:
        raise ValueError("indices and values must be 1-D")
    if indices.shape[0] != values.shape[0]:
        raise ValueError(
            f"{indices.shape[0]} indices vs {values.shape[0]} values"
        )
    n = indices.shape[0]
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), values

    order = np.argsort(indices, kind="stable")
    idx = indices[order]
    vals = values[order]

    # occurrence rank within each duplicate group
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(idx[1:], idx[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    group_lengths = np.diff(np.append(group_starts, n))
    rank = np.arange(n, dtype=np.int64) - np.repeat(group_starts, group_lengths)

    starts, counts, layers = [], [], []
    for layer in range(int(rank.max()) + 1):
        sel = rank == layer
        lidx = idx[sel]
        first = np.concatenate(([0], np.flatnonzero(np.diff(lidx) != 1) + 1))
        starts.append(lidx[first])
        counts.append(np.diff(np.append(first, lidx.shape[0])))
        layers.append(vals[sel])
    return (np.concatenate(starts), np.concatenate(counts),
            np.concatenate(layers))


def layered_runs(
    indices: np.ndarray, values: np.ndarray
) -> list[tuple[int, int, np.ndarray]]:
    """:func:`layered_run_arrays` as ``(start, count, values)`` tuples,
    where ``values[j]`` belongs to curve index ``start + j``."""
    starts, counts, values = layered_run_arrays(indices, values)
    ends = np.cumsum(counts).tolist()
    return [(start, count, values[end - count:end]) for start, count, end
            in zip(starts.tolist(), counts.tolist(), ends)]
