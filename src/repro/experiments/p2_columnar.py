"""P2 -- columnar vs scalar throughput through the record pipeline.

Not a paper figure: this sizes the repo's own columnar fast path
(:mod:`repro.mapreduce.columnar`, ``Job.columnar``) against the
record-at-a-time reference path it replaces.  The paper's argument is
that per-record overheads dominate dense scientific shuffles; this
harness quantifies our engine's version of that overhead by timing the
map phase only (``run_map_task`` = map + sort + spill + map-side merge,
the "records/sec through map+spill" number) with the flag on and off.

Three workloads:

``sliding-median``
    The paper's sliding-window pattern in plain per-cell-key mode: every
    cell emits ``window**ndim`` records, so at the Fig 8 grid size
    (side=100, window=3) the map phase pushes 27M records.  This is the
    workload the columnar path exists for.

``e7-subset-plain``
    The Fig 8 full-box subset query with per-cell keys -- one record per
    cell, the E7 experiment's "plain" bar.

``e7-subset-aggregate``
    The same query under key aggregation (§IV).  Value blocks differ in
    length, so the columnar form is a key matrix plus a ragged value
    column: ``emit_serialized_batch`` hands over a whole aggregator
    flush, the shuffle plugin's ``route_batch`` cuts it as arrays, and
    the spill sorts and writes it in numpy passes (against a ``route``
    call, a record tuple and an IFile ``append`` per record).  What both
    rows share -- curve encoding and the coalescing sort -- bounds the
    ratio below the plain rows'.

Every scalar/columnar pair is checked for identical map counters -- the
speedup table is only meaningful because the two paths are
interchangeable (the full byte-identity proof lives in
``tests/mapreduce/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.experiments.common import ExperimentResult, scaled
from repro.mapreduce.engine import run_map_task
from repro.mapreduce.metrics import C, Counters
from repro.queries.sliding_median import SlidingMedianQuery
from repro.queries.subset import BoxSubsetQuery
from repro.scidata.generator import integer_grid
from repro.scidata.splits import ArraySplitter

__all__ = ["run", "measure_map_phase"]


def measure_map_phase(job, dataset, repeats: int = 1):
    """Best-of-``repeats`` wall time of all map tasks of ``job``.

    Runs ``run_map_task`` over every input split into a throwaway
    workdir -- map, sort, combine, spill, and map-side merge, but no
    shuffle or reduce.  Returns ``(seconds, counters)`` where counters
    are the merged map counters (asserted stable across repeats).
    """
    variables = (list(job.input_variables)
                 if job.input_variables is not None else None)
    splits = ArraySplitter(job.num_map_tasks).split(dataset, variables)
    best = float("inf")
    counters: Counters | None = None
    for _ in range(repeats):
        workdir = tempfile.mkdtemp(prefix="p2-map-")
        try:
            merged = Counters()
            start = time.perf_counter()
            for split in splits:
                mo = run_map_task(job, split, dataset, workdir)
                merged.merge(mo.counters)
            best = min(best, time.perf_counter() - start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if counters is None:
            counters = merged
        elif counters != merged:
            raise AssertionError("map counters drifted between repeats")
    return best, counters


def run(side: int | None = None, window: int = 3, num_map_tasks: int = 4,
        repeats: int = 2) -> ExperimentResult:
    """Time the map phase scalar vs columnar on three workloads.

    ``side=100`` is the Fig 8 grid (10^6 cells; the sliding workload
    then moves 27M records); the default is scaled down
    (REPRO_SCALE=1.0 restores it).
    """
    if side is None:
        side = scaled(100, default_scale=0.3)
    grid = integer_grid((side, side, side), seed=1234)
    sliding = SlidingMedianQuery(grid, "values", window=window)
    subset = BoxSubsetQuery(grid, "values", grid["values"].extent)

    # One spill per map task (a well-sized io.sort.mb): the comparison
    # then isolates the record pipeline itself rather than spill count.
    buffer_bytes = 256 << 20
    workloads = [
        ("sliding-median", lambda: sliding.build_job(
            "plain", variable_mode="index", num_map_tasks=num_map_tasks,
            sort_buffer_bytes=buffer_bytes)),
        ("e7-subset-plain", lambda: subset.build_job(
            "plain", variable_mode="index", num_map_tasks=num_map_tasks,
            sort_buffer_bytes=buffer_bytes)),
        ("e7-subset-aggregate", lambda: subset.build_job(
            "aggregate", variable_mode="index",
            num_map_tasks=num_map_tasks)),
    ]

    result = ExperimentResult(
        experiment="P2",
        title=f"scalar vs columnar map-phase throughput, {side}^3 grid "
              f"({num_map_tasks} map tasks, best of {repeats})",
        columns=["workload", "path", "map_records", "seconds",
                 "records_per_s", "speedup", "counters"],
    )
    for name, make_job in workloads:
        timings: dict[str, float] = {}
        counters: dict[str, Counters] = {}
        for path in ("scalar", "columnar"):
            job = make_job()
            job.columnar = path == "columnar"
            timings[path], counters[path] = measure_map_phase(
                job, grid, repeats)
        identical = counters["scalar"] == counters["columnar"]
        for path in ("scalar", "columnar"):
            records = counters[path][C.MAP_OUTPUT_RECORDS]
            secs = timings[path]
            result.add(
                workload=name,
                path=path,
                map_records=records,
                seconds=round(secs, 3),
                records_per_s=int(records / secs) if secs > 0 else 0,
                speedup=(f"{timings['scalar'] / secs:.2f}x"
                         if path == "columnar" else "1.00x"),
                counters="identical" if identical else "DRIFT",
            )
    result.note("seconds = map phase only (run_map_task: map + sort + "
                "spill + map-side merge); shuffle/reduce excluded")
    result.note(f"sliding workload: window={window} -> each cell emits "
                f"{window ** 3} per-cell records")
    result.note("e7-subset-aggregate: ragged value blocks; columnar = one "
                "route_batch per aggregator flush, argsort + bulk IFile "
                "write per spill; scalar = route, sort and append per "
                "record")
    result.note("counters: scalar and columnar map counters compared per "
                "workload (byte-identity proof lives in the equivalence "
                "test suite)")
    return result
