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

__all__ = ["window_offsets", "shifted_cells", "GridQuery"]


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
