"""E8 -- §IV-D cluster result: key aggregation's bytes/runtime win.

Paper (same cluster/query as E6): intermediate data -60.7%
(55.5 -> 21.8 GB) and runtime -28.5% (183 -> 131 min) -- aggregation
shrinks data *and* is cheap, unlike the byte-level codec.

Shape asserted: materialized bytes drop substantially, parity-model
runtime *decreases* versus baseline, and (the paper's §IV-D mechanism)
partitioning across map tasks yields less aggregation than one mapper.
"""

from repro.experiments.cluster_runs import run as cluster_run
from repro.experiments.fig8_aggregation import run as fig8_run
from repro.mapreduce.runtime import LocalJobRunner
from repro.queries.sliding_median import SlidingMedianQuery
from repro.scidata import integer_grid

import bench_e6_cluster_bytelevel as e6


def test_e8_bytes_and_runtime_shape(tabulate):
    result = tabulate(e6._shared_result, filename="e6_e8_cluster")
    rows = {r["config"]: r for r in result.rows}
    agg = rows["key aggregation (E8)"]
    assert agg["delta_bytes_pct"] < -40.0  # paper: -60.7%
    assert agg["delta_runtime_parity_pct"] < 0.0  # paper: -28.5%


def test_e8_partitioning_reduces_aggregation(tabulate, report):
    """§IV-D: 'Partitioning the data set across Map tasks results in
    less aggregation.'"""
    one = fig8_run(side=40, num_map_tasks=1)
    many = tabulate(fig8_run, side=40, num_map_tasks=8,
                    filename="e8_partitioning")
    one_total = one.row_by("mode", "aggregate")["records"]
    many_total = many.row_by("mode", "aggregate")["records"]
    assert many_total > one_total


def test_e8_aggregate_job_kernel(benchmark):
    grid = integer_grid((24, 24), seed=2)
    query = SlidingMedianQuery(grid, "values", window=3)
    job = query.build_job("aggregate", num_map_tasks=2, num_reducers=2)

    def run_job():
        return LocalJobRunner().run(job, grid)

    result = benchmark.pedantic(run_job, rounds=3, iterations=1)
    assert len(result.output) == 576
