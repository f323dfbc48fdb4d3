"""Shared query plumbing: window geometry and job assembly.

The sliding-window pattern of §IV-C, generalized: "mappers take a value
with key (x, y) and output the value for keys (x, y), (x+1, y),
(x+1, y+1), etc." -- i.e. the value of a cell is emitted under every key
whose window covers the cell.  Emissions falling outside the variable's
extent are dropped (the window is clipped at the grid edge), keeping
coordinates valid for the space-filling curve and giving both plain and
aggregate modes identical semantics.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod

import numpy as np

from repro.core.aggregation import AggregationConfig
from repro.mapreduce.job import Job
from repro.scidata.dataset import Dataset
from repro.scidata.slab import Slab

__all__ = ["window_offsets", "shifted_cells", "integer_fold_batch",
           "GridQuery"]


def window_offsets(ndim: int, window: int) -> list[tuple[int, ...]]:
    """All offsets of a centered ``window**ndim`` stencil.

    ``window`` must be odd so the stencil is centered (the paper's
    example is 3x3).
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    half = window // 2
    return list(itertools.product(range(-half, half + 1), repeat=ndim))


def shifted_cells(
    coords: np.ndarray,
    values: np.ndarray,
    offset: tuple[int, ...],
    extent: Slab,
) -> tuple[np.ndarray, np.ndarray]:
    """Shift cell coordinates by ``offset`` and clip to ``extent``.

    Returns the surviving (shifted coords, values).  A cell's value
    shifted by ``offset`` lands under the key of the window *centered*
    there.
    """
    shifted = coords + np.asarray(offset, dtype=np.int64)
    keep = np.ones(shifted.shape[0], dtype=bool)
    for d in range(shifted.shape[1]):
        lo = extent.corner[d]
        hi = lo + extent.shape[d]
        keep &= (shifted[:, d] >= lo) & (shifted[:, d] < hi)
    return shifted[keep], values[keep]


#: builtin fold over a group's value list -> the ufunc whose ``reduceat``
#: equals it on an integer column
_FOLD_UFUNCS = {min: np.minimum, max: np.maximum, sum: np.add}


def integer_fold_batch(fold, keys, values: np.ndarray, bounds: np.ndarray,
                       ctx):
    """``reduce_batch`` body of a reducer emitting ``fold(group values)``.

    Taken only where the fold is an exact monoid, so regrouping cannot
    change a bit: ``fold`` is the builtin ``min`` / ``max`` / ``sum`` and
    the column is integer, sums provably inside int64.  Everything else
    returns ``NotImplemented`` and keeps the per-group call -- float
    columns in particular: builtin ``min`` / ``max`` return whichever
    operand a NaN comparison leaves standing (``min([nan, 1.0])`` is
    nan, ``min([1.0, nan])`` is 1.0) where ``np.minimum`` propagates
    NaN, and a float ``sum`` depends on association order and on the
    Python version's summation algorithm.
    """
    ufunc = _FOLD_UFUNCS.get(fold)
    if ufunc is None or values.dtype.kind != "i":
        return NotImplemented
    if ufunc is np.add:
        peak = max(abs(int(values.min())), abs(int(values.max())))
        if peak * int(np.diff(bounds).max()) >= 1 << 63:
            return NotImplemented  # the builtin would grow a big int
    ctx.emit_batch(keys, ufunc.reduceat(values, bounds[:-1]))


class GridQuery(ABC):
    """A query that can be built in plain or aggregate mode.

    Subclasses supply the mode-specific mappers/reducers; this base owns
    the common job-assembly surface so benchmarks can swap queries
    freely.
    """

    def __init__(self, dataset: Dataset, variable: str) -> None:
        if variable not in dataset:
            raise KeyError(f"dataset has no variable {variable!r}")
        self.dataset = dataset
        self.variable = variable
        self.extent = dataset[variable].extent

    def aggregation_config(self, **overrides) -> AggregationConfig:
        """Aggregation settings sized to this query's grid."""
        ndim = self.extent.ndim
        side = max(self.extent.shape)
        bits = max(1, (side - 1).bit_length())
        defaults = dict(
            curve="zorder",
            ndim=ndim,
            bits=bits,
            dtype=str(self.dataset[self.variable].data.dtype),
        )
        defaults.update(overrides)
        return AggregationConfig(**defaults)

    @abstractmethod
    def build_job(self, mode: str = "plain", **job_overrides) -> Job:
        """Assemble the :class:`~repro.mapreduce.job.Job` for one mode."""

    @abstractmethod
    def expected_output_cells(self) -> int:
        """How many output records a correct run must produce."""
