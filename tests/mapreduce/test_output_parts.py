"""Tests for measured reducer output part files (Fig 1 step 7)."""

import os

import pytest

from repro.mapreduce import CellKeySerde, Int32Serde, Job, LocalJobRunner
from repro.mapreduce.serde import Float64Serde
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


def test_output_bytes_measured_when_serdes_given():
    grid = integer_grid((6, 6), seed=4)
    job = make_job(
        output_key_serde=CellKeySerde(ndim=2, variable_mode="name"),
        output_value_serde=Int32Serde(),
    )
    result = LocalJobRunner().run(job, grid)
    reduce_profiles = [p for p in result.task_profiles if p.kind == "reduce"]
    # 36 records x (2 + 19 + 4) + 6-byte trailer
    assert reduce_profiles[0].output_bytes == 36 * 25 + 6


def test_fallback_heuristic_without_serdes():
    """No part file: the output's packed size under the job's key serde,
    each value priced at 8 bytes."""
    grid = integer_grid((4, 4), seed=4)
    result = LocalJobRunner().run(make_job(), grid)
    reduce_profiles = [p for p in result.task_profiles if p.kind == "reduce"]
    # 16 records x (7-byte name + 8 coordinate + 4 slot bytes + 8)
    assert reduce_profiles[0].output_bytes == 16 * (19 + 8)


def test_part_files_kept_when_requested(tmp_path):
    grid = integer_grid((4, 4), seed=4)
    job = make_job(
        output_key_serde=CellKeySerde(ndim=2, variable_mode="name"),
        output_value_serde=Int32Serde(),
    )
    runner = LocalJobRunner(workdir=str(tmp_path), keep_files=True)
    runner.run(job, grid)
    parts = [f for f in os.listdir(tmp_path) if f.endswith("-part")]
    assert parts


def test_bad_output_serde_surfaces():
    grid = integer_grid((4, 4), seed=4)
    job = make_job(
        output_key_serde=Int32Serde(),  # cannot serialize CellKey output
        output_value_serde=Float64Serde(),
    )
    with pytest.raises(Exception):
        LocalJobRunner().run(job, grid)
