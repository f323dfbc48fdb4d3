"""Key aggregation (paper §IV).

Instead of one key per grid cell, a mapper's output is buffered, mapped
onto a space-filling curve, and emitted as aggregate keys -- contiguous
curve-index ranges carrying a packed block of values "stored in order".
Hadoop's assumption that keys are atomic (§II-B c) is removed by a
shuffle plugin that splits aggregate keys in two places (§IV-B):

* at *routing* time, when a range straddles reducer partition boundaries;
* at *sort* time on the reducer, when unequal ranges overlap (Fig 7).

Modules:

* :mod:`~repro.core.aggregation.ranges` -- coalescing sorted curve
  indices (with duplicates) into contiguous runs (Fig 6);
* :mod:`~repro.core.aggregation.blocks` -- dense and masked value blocks
  (masked blocks implement §IV-C alignment padding: "keys are allowed to
  contain empty space");
* :mod:`~repro.core.aggregation.aggregator` -- the buffering library the
  user's map code feeds pairs into (§IV-A);
* :mod:`~repro.core.aggregation.splitter` -- routing- and overlap-
  splitting of (range, block) pairs, as objects (the definition) and as
  array arithmetic over ``(variable, start, count)`` columns;
* :mod:`~repro.core.aggregation.plugin` -- the engine hook wiring it all
  into the shuffle; cuts whole batches as arrays when the data is plain
  (dense, well-formed) and falls back to the object code otherwise;
* :mod:`~repro.core.aggregation.groups` -- range groups back into cell
  groups, so an aggregate job reduces through its query's plain reducer.
"""

from repro.core.aggregation.blocks import BlockSerde, ValueBlock
from repro.core.aggregation.ranges import (
    coalesce_indices,
    layered_run_arrays,
    layered_runs,
)
from repro.core.aggregation.aggregator import AggregationConfig, Aggregator
from repro.core.aggregation.splitter import (
    boundary_pieces,
    overlap_pieces,
    split_at_boundaries,
    split_overlaps,
)
from repro.core.aggregation.groups import (
    Pieces,
    RangeGroupReducer,
    expand_cells,
    range_group_reducer,
)
from repro.core.aggregation.plugin import AggregateShufflePlugin

__all__ = [
    "ValueBlock",
    "BlockSerde",
    "coalesce_indices",
    "layered_run_arrays",
    "layered_runs",
    "AggregationConfig",
    "Aggregator",
    "split_at_boundaries",
    "split_overlaps",
    "boundary_pieces",
    "overlap_pieces",
    "AggregateShufflePlugin",
    "Pieces",
    "expand_cells",
    "RangeGroupReducer",
    "range_group_reducer",
]
