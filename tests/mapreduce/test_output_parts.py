"""Tests for the reducer output size (Fig 1 step 7)."""

from repro.mapreduce import CellKeySerde, Int32Serde, Job, LocalJobRunner
from repro.scidata import integer_grid
from tests.mapreduce.test_engine import EmitCellsMapper, SumReducer


def make_job(**overrides):
    defaults = dict(
        name="parts",
        mapper=EmitCellsMapper,
        reducer=SumReducer,
        key_serde=CellKeySerde(ndim=2, variable_mode="name"),
        value_serde=Int32Serde(),
    )
    defaults.update(overrides)
    return Job(**defaults)


def test_fallback_heuristic_without_serdes():
    """The output's packed size under the job's key serde, each value
    priced at 8 bytes."""
    grid = integer_grid((4, 4), seed=4)
    result = LocalJobRunner().run(make_job(), grid)
    reduce_profiles = [p for p in result.task_profiles if p.kind == "reduce"]
    # 16 records x (7-byte name + 8 coordinate + 4 slot bytes + 8)
    assert reduce_profiles[0].output_bytes == 16 * (19 + 8)
