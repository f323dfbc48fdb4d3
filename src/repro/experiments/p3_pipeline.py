"""P3 -- pipelined shuffle: overlap map, fetch, and reduce-side merge.

Classic MapReduce puts a hard barrier between the map and reduce
phases: no reducer may start until every map has committed, so one
straggling map idles the whole reduce fleet.  The pipelined mode
removes the barrier the way MapReduce Online does: reducers are
admitted alongside the maps, fetch each producer's segments the moment
it commits (its segment refs, sent down each reducer's worker pipe,
replace the barrier), and run their merge incrementally over the runs
already fetched -- while holding the *final* reduce until the last
producer lands, so the output and every counter stay byte-identical to
the barrier run.

The matrix pins that identity claim from every direction:

* ``clean-*`` -- every query x {direct, network} transport, pipeline
  on: serial and parallel pipelined runs must agree with each other
  *and* with the same-transport barrier baseline on output and full
  counters;
* ``barrier-*`` -- the off switch: ``pipeline=False`` runs stay
  identical too (the flag changes wall-clock shape, never bytes);
* ``straggler-*`` -- one map hangs; starved reducers (every committed
  segment consumed, one producer missing) trigger progress-based
  speculation of exactly that map, and the run still matches the
  baseline byte-for-byte with measured fetch/merge overlap;
* ``host-crash-*`` -- a whole host dies mid-pipeline; reducers discard
  the dead host's already-fetched epoch-0 runs, re-point at the
  re-executed maps' commits, and recover with identical output (the
  fetch-accounting counters legitimately differ -- they *measure* the
  recovery -- and are excluded exactly like R4 does);
* a seeded fuzz tail of randomized straggler schedules, bounded by
  ``REPRO_P3_FUZZ`` / ``REPRO_P3_SECONDS``.

``run_bench`` is the PR's headline: wall-clock of barrier vs pipelined
execution on the same job with an injected map straggler (the bench
asserts pipelined <= barrier and writes ``BENCH_P3.json`` at paper
scale).
"""

from __future__ import annotations

import time

from repro.experiments.common import ExperimentResult, scaled
from repro.experiments.matrix import (
    Matrix,
    Scenario,
    build_query_job,
    fuzz_budget,
    stable_counters,
)
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import (
    FaultInjector,
    LocalJobRunner,
    ParallelJobRunner,
    ShuffleConfig,
    host_for,
)
from repro.scidata.generator import integer_grid

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: transports the pipeline must be byte-identical over
_TRANSPORTS = ("direct", "network")
#: counters that legitimately differ once a fault forces refetching:
#: a pipelined reducer may fetch a segment at epoch 0 and fetch it
#: again after the producer's re-execution bumps the epoch, so every
#: fetch-accounting counter is timing-dependent under faults (clean
#: runs fetch exactly once and must still match in full)
_VOLATILE = frozenset({
    C.SHUFFLE_FETCHES,
    C.SHUFFLE_RETRIES,
    C.SHUFFLE_FAILED_FETCHES,
    C.SHUFFLE_BYTES_TRANSFERRED,
    C.SHUFFLE_WIRE_BYTES,
    C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED,
    C.MAPS_REEXECUTED,
})
#: counters that *account* an injected host fault (identical between
#: runners, but necessarily absent from the clean baseline)
_FAULT_ACCOUNTING = frozenset({
    C.HOSTS_LOST,
    C.MAPS_REEXECUTED_HOST,
    C.DISK_FAILOVERS,
})


def _pipelined(transport: str) -> ShuffleConfig:
    return ShuffleConfig(transport=transport, pipeline=True,
                         starvation_threshold=2)


def _accounting_agrees(serial, parallel) -> bool:
    """The runners counted the host fault identically."""
    return all(serial.counter(c) == parallel.counter(c)
               for c in _FAULT_ACCOUNTING)


def _row(sc: Scenario, runs) -> dict:
    return {"transport": sc.shuffle.transport,
            "pipeline": "on" if sc.shuffle.pipeline else "off",
            "overlap": max(o.overlap() for o in runs)}


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the P3 matrix; returns the scenario table."""
    budget = fuzz_budget("P3", num_fuzz, seconds)
    side = scaled(24, 1.0, minimum=12)
    num_map_tasks, num_reducers = 3, 2
    grid = integer_grid((side, side), seed=17)
    m = Matrix(
        ExperimentResult(
            experiment="P3",
            title="Pipelined shuffle: overlap map, fetch, and reduce-side "
                  "merge vs the barrier",
            columns=("scenario", "query", "transport", "pipeline",
                     "overlap", "outcome")),
        grid,
        lambda query, qdir, **fields: build_query_job(
            grid, query, side, num_map_tasks, num_reducers, **fields),
        _row, volatile=_VOLATILE | _FAULT_ACCOUNTING,
        promote=[(C.HOSTS_LOST, "recovered")],
        parallel={"max_workers": 4, "min_straggler_seconds": 0.2})

    # Every row is compared against the serial barrier run over its own
    # transport: the bytes every pipelined run must reproduce.
    def scenario(name, query, transport, shuffle=None, **kw) -> Scenario:
        return Scenario(name, query, shuffle=shuffle or _pipelined(transport),
                        baseline=ShuffleConfig(transport=transport), **kw)

    for query in _QUERIES:
        for transport in _TRANSPORTS:
            m.add(scenario("clean", query, transport))
    for transport in _TRANSPORTS:
        m.add(scenario("barrier", "subset-agg", transport,
                       ShuffleConfig(transport=transport, pipeline=False)))
    # One map hangs; starved reducers speculate it.  The hang delays
    # the producer without damaging anything, so no refetch happens and
    # even the fetch counters must match in full.
    straggler = f"m{num_map_tasks - 1:05d}"
    for transport in _TRANSPORTS:
        m.add(scenario("straggler", "histogram", transport,
                       plan=lambda: FaultInjector().hang(straggler, 1.0),
                       sides="parallel", parallel={"speculation": True}))
    # Whole-host loss mid-pipeline: reducers have fetched the dead
    # host's epoch-0 segments by the time it dies, and the epoch bump
    # forces a discard + refetch, so only the stable counters are
    # compared (the volatile ones measure the recovery itself and
    # differ between runners and runs).
    victim = host_for("m00000", 2)
    for transport in _TRANSPORTS:
        m.add(scenario("host-crash", "subset-plain", transport,
                       plan=lambda: FaultInjector().host_crash(victim),
                       strict=False, check=_accounting_agrees,
                       runner={"max_host_reexecs": 8}))

    def draw(rng, i: int) -> Scenario:
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        transport = _TRANSPORTS[rng.integers(0, len(_TRANSPORTS))]
        target = f"m{int(rng.integers(0, num_map_tasks)):05d}"
        delay = 0.1 + 0.3 * float(rng.random())
        return scenario(f"fuzz-{i}", query, transport,
                        plan=lambda: FaultInjector().hang(target, delay),
                        sides="parallel", parallel={"speculation": True})

    m.fuzz(draw, 3100, budget)
    return m.finish(
        f"grid {side}x{side}, {num_map_tasks} maps x {num_reducers} "
        f"reducers; baselines are serial barrier runs per (query, "
        f"transport); fuzz rows are randomized straggler schedules",
        "clean/barrier/straggler rows compare full counters; host-crash "
        "rows exclude the fetch-accounting counters (refetching after an "
        "epoch bump is timing-dependent)")


def run_bench(side: int | None = None, num_map_tasks: int = 8,
              num_reducers: int = 2, straggler_seconds: float = 3.0,
              link_delay_seconds: float = 0.3,
              repeats: int = 3) -> ExperimentResult:
    """Wall-clock headline: barrier vs pipelined on a straggler job.

    This is the scenario pipelining exists for: a shuffle whose
    transfers take real time (every map->reduce link carries an
    injected ``link_delay_seconds`` wire latency, fetched serially per
    reducer -- a congested oversubscribed network) plus one map hung
    for ``straggler_seconds``.  The barrier pays those costs end to
    end: all maps, then the hang, then every transfer, then the merge.
    The pipeline hides the transfers *inside* the map phase and the
    hang -- each segment is fetched and decoded the moment its producer
    commits -- leaving only the straggler's own transfer and the merge
    after the last commit.

    Speculation is off in both modes so neither gets rescued: the
    comparison isolates the wave shape itself.  Runs alternate
    barrier/pipelined so machine-load epochs hit both modes equally;
    the best of ``repeats`` counts.  Output and counters must be
    identical across all rows -- the pipeline may only move wall-clock.
    """
    if side is None:
        side = scaled(200, default_scale=0.2, minimum=40)
    grid = integer_grid((side, side), seed=23)
    job = build_query_job(grid, "subset-plain", side, num_map_tasks,
                          num_reducers)
    straggler = f"m{num_map_tasks - 1:05d}"
    workers = num_map_tasks + num_reducers

    def make_injector() -> FaultInjector:
        injector = FaultInjector().hang(straggler,
                                        seconds=straggler_seconds)
        for m in range(num_map_tasks):
            for r in range(num_reducers):
                injector.fetch(f"m{m:05d}", f"r{r:05d}", op="delay",
                               seconds=link_delay_seconds)
        return injector

    result = ExperimentResult(
        experiment="P3-bench",
        title="End-to-end wall-clock with one straggling map and slow "
              "shuffle links: barrier vs pipelined",
        columns=("mode", "transport", "seconds", "overlap",
                 "first_fetch_ms", "outcome"),
    )

    with LocalJobRunner() as runner:
        reference = runner.run(job, grid)

    for transport in _TRANSPORTS:
        best: dict[str, tuple[float, object]] = {}
        for _ in range(repeats):
            for mode in ("barrier", "pipelined"):
                cfg = ShuffleConfig(transport=transport,
                                    pipeline=(mode == "pipelined"))
                runner = ParallelJobRunner(
                    max_workers=workers, shuffle=cfg,
                    fault_injector=make_injector(), speculation=False,
                    retry_backoff=0.01)
                with runner:
                    t0 = time.perf_counter()
                    run_result = runner.run(job, grid)
                    elapsed = time.perf_counter() - t0
                if mode not in best or elapsed < best[mode][0]:
                    best[mode] = (elapsed, run_result)
        for mode in ("barrier", "pipelined"):
            seconds, mode_result = best[mode]
            stats = mode_result.pipeline_stats or {}
            identical = (mode_result.output == reference.output
                         and stable_counters(mode_result, _VOLATILE)
                         == stable_counters(reference, _VOLATILE))
            result.add(
                mode=mode, transport=transport,
                seconds=round(seconds, 3),
                overlap=stats.get(C.PIPELINE_OVERLAP, 0),
                first_fetch_ms=stats.get(C.REDUCE_FIRST_FETCH_MS),
                outcome="identical" if identical else "DRIFT")

    result.note(f"grid {side}x{side}, {num_map_tasks} maps x "
                f"{num_reducers} reducers, {workers} workers; last map "
                f"hangs {straggler_seconds}s on its first attempt; every "
                f"map->reduce link delayed {link_delay_seconds}s, fetch "
                f"concurrency 1; best of {repeats}, runs interleaved")
    return result
