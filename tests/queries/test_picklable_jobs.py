"""Query jobs pickle, so they run under every start method.

A worker started by ``spawn`` or ``forkserver`` receives the job by
pickle; a ``lambda`` mapper or reducer factory cannot go that way.
Every query builds its factories from module-level callables bound with
:func:`functools.partial`, and each call still builds a fresh instance.
"""

import pickle

import numpy as np
import pytest

from repro.mapreduce import LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime.recovery import job_fingerprint
from repro.queries import (
    BoxSubsetQuery,
    DerivedVariableQuery,
    HistogramQuery,
    SlidingAggregateQuery,
    SlidingMeanQuery,
    SlidingMedianQuery,
)
from repro.scidata import Dataset, Variable, integer_grid
from repro.scidata.slab import Slab


@pytest.fixture(scope="module")
def grid():
    return integer_grid((12, 12), seed=5, low=0, high=200)


@pytest.fixture(scope="module")
def two_vars():
    rng = np.random.default_rng(3)
    ds = Dataset()
    ds.add(Variable("u", rng.integers(0, 100, (8, 8)).astype(np.int32)))
    ds.add(Variable("v", rng.integers(0, 100, (8, 8)).astype(np.int32)))
    return ds


def query_jobs(grid, two_vars):
    queries = [SlidingMedianQuery(grid, "values", window=3),
               SlidingMeanQuery(grid, "values", window=3),
               SlidingAggregateQuery(grid, "values", op="max"),
               BoxSubsetQuery(grid, "values", Slab((1, 1), (10, 10))),
               DerivedVariableQuery(two_vars, "u", "v", op="add")]
    for query in queries:
        for mode in ("plain", "aggregate"):
            yield f"{type(query).__name__}-{mode}", query.build_job(mode)
    yield "HistogramQuery-plain", HistogramQuery(grid, "values").build_job()


def test_every_query_job_pickles_with_fresh_factories(grid, two_vars):
    for name, job in query_jobs(grid, two_vars):
        clone = pickle.loads(pickle.dumps(job))
        for factory in (clone.mapper, clone.reducer):
            first, second = factory(), factory()
            assert type(first) is type(second), name
            assert first is not second, name


def test_a_factory_fingerprints_by_what_it_binds(grid):
    """A resume adopts checkpoints only for an identical job: the
    fingerprint must see a factory's bound arguments (a lambda hid its
    closure, so windows 3 and 5 hashed alike)."""
    def fingerprint(query):
        job = query.build_job("plain", num_map_tasks=2)
        return job_fingerprint(job, [])

    assert (fingerprint(SlidingMedianQuery(grid, "values", window=3))
            == fingerprint(SlidingMedianQuery(grid, "values", window=3)))
    assert (fingerprint(SlidingMedianQuery(grid, "values", window=3))
            != fingerprint(SlidingMedianQuery(grid, "values", window=5)))
    assert (fingerprint(HistogramQuery(grid, "values", bins=8))
            != fingerprint(HistogramQuery(grid, "values", bins=16)))


@pytest.mark.parametrize("mode", ["aggregate", "plain"])
def test_query_jobs_run_under_spawn(grid, mode):
    job = SlidingMedianQuery(grid, "values", window=3).build_job(
        mode, num_map_tasks=2, num_reducers=2)
    serial = LocalJobRunner().run(job, grid)
    with ParallelJobRunner(max_workers=2, start_method="spawn",
                           speculation=False) as runner:
        spawned = runner.run(job, grid)
    assert spawned.output == serial.output
    assert spawned.counters == serial.counters
