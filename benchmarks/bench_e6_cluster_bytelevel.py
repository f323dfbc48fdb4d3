"""E6 -- §III-E cluster result: the byte-level codec's bytes/runtime trade.

Paper (5 nodes, 10 map slots, 5 reducers, sliding median): intermediate
data -77.8% (55.5 -> 12.3 GB) but total runtime +106% (183 -> 377 min),
because the transform costs ~2.9x gzip.

Shape asserted: materialized bytes drop by >60%, and under the
native-parity runtime model (transform CPU = 2.9x gzip, the paper's own
ratio) simulated runtime *increases* versus the uncompressed baseline.
"""

from repro.experiments.cluster_runs import run
from repro.mapreduce.runtime import LocalJobRunner
from repro.queries.sliding_median import SlidingMedianQuery
from repro.scidata import integer_grid

_RESULT_CACHE = {}


def _shared_result():
    """E6 and E8 share one (expensive) three-config run."""
    if "r" not in _RESULT_CACHE:
        _RESULT_CACHE["r"] = run()
    return _RESULT_CACHE["r"]


def test_e6_bytes_and_runtime_shape(tabulate):
    result = tabulate(_shared_result, filename="e6_e8_cluster")
    rows = {r["config"]: r for r in result.rows}
    bytelevel = rows["byte-level codec (E6, stride+zlib)"]
    assert bytelevel["delta_bytes_pct"] < -60.0  # paper: -77.8%
    assert bytelevel["delta_runtime_parity_pct"] > 25.0  # paper: +106%


def test_e6_map_task_kernel(benchmark):
    """Time one plain-mode sliding-median map+shuffle at small scale."""
    grid = integer_grid((24, 24), seed=2)
    query = SlidingMedianQuery(grid, "values", window=3)
    job = query.build_job("plain", num_map_tasks=2, num_reducers=2)

    def run_job():
        return LocalJobRunner().run(job, grid)

    result = benchmark.pedantic(run_job, rounds=3, iterations=1)
    assert len(result.output) == 576
