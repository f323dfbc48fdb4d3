"""P3 -- pipelined shuffle: overlap map, fetch, and reduce-side merge.

Classic MapReduce puts a hard barrier between the map and reduce
phases: no reducer may start until every map has committed, so one
straggling map idles the whole reduce fleet.  The pipelined mode
removes the barrier the way MapReduce Online does: reducers are
admitted alongside the maps, fetch each producer's segments the moment
it commits (a commit-log completion-event stream replaces the barrier),
and run their merge incrementally over the runs already fetched --
while holding the *final* reduce until the last producer lands, so the
output and every counter stay byte-identical to the barrier run.

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
  recovery -- and are excluded exactly like R3/R4 do);
* a seeded fuzz tail of randomized straggler schedules, bounded by
  ``REPRO_P3_FUZZ`` / ``REPRO_P3_SECONDS``.

``run_bench`` is the PR's headline: wall-clock of barrier vs pipelined
execution on the same job with an injected map straggler (the bench
asserts pipelined <= barrier and writes ``BENCH_P3.json`` at paper
scale).
"""

from __future__ import annotations

import os
import time

from repro.experiments.common import (
    ExperimentResult,
    RunOutcome,
    build_query_job,
    scaled,
    stable_counters,
)
from repro.mapreduce.engine import LocalJobRunner
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import (
    FaultInjector,
    ParallelJobRunner,
    ShuffleConfig,
    host_for,
)
from repro.scidata.generator import integer_grid
from repro.util.rng import make_rng

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


def _run_one(runner_name: str, grid, job, shuffle: ShuffleConfig | None,
             injector: FaultInjector | None, *,
             speculation: bool = False,
             max_host_reexecs: int = 2) -> RunOutcome:
    kwargs: dict = {"shuffle": shuffle, "fault_injector": injector,
                    "max_host_reexecs": max_host_reexecs}
    if runner_name == "serial":
        runner = LocalJobRunner(**kwargs)
    else:
        runner = ParallelJobRunner(
            max_workers=4, speculation=speculation,
            min_straggler_seconds=0.2, retry_backoff=0.01, **kwargs)
    try:
        with runner:
            return RunOutcome(runner.run(job, grid), None)
    except Exception as exc:
        return RunOutcome(None, exc)


#: counters that *account* an injected host fault (identical between
#: runners, but necessarily absent from the clean baseline)
_FAULT_ACCOUNTING = frozenset({
    C.HOSTS_LOST,
    C.MAPS_REEXECUTED_HOST,
    C.DISK_FAILOVERS,
})
#: what a faulted run is compared against the clean baseline *minus*
_VS_BASELINE = _VOLATILE | _FAULT_ACCOUNTING


def _classify(serial: RunOutcome, parallel: RunOutcome, baseline, *,
              strict: bool = True) -> str:
    """Where a scenario landed: identical / recovered / failed / DRIFT.

    The runners must agree with *each other* (in full for clean runs;
    on stable counters once a fault forces refetching, which is
    timing-dependent), and a successful run must match the barrier
    baseline's output and stable counters exactly.
    """
    if (serial.error is None) != (parallel.error is None):
        return "DRIFT"
    if serial.error is not None:
        return "failed"
    if serial.result.output != parallel.result.output:
        return "DRIFT"
    if strict:
        if serial.result.counters != parallel.result.counters:
            return "DRIFT"
    elif (stable_counters(serial.result, _VOLATILE)
            != stable_counters(parallel.result, _VOLATILE)):
        return "DRIFT"
    if serial.result.output != baseline.output:
        return "DRIFT"
    if (stable_counters(serial.result, _VS_BASELINE)
            != stable_counters(baseline, _VS_BASELINE)):
        return "DRIFT"
    if serial.counter(C.HOSTS_LOST) > 0:
        return "recovered"
    return "identical"


def _classify_single(outcome: RunOutcome, baseline, *,
                     strict: bool = True) -> str:
    """One runner's scenario against the barrier baseline."""
    if outcome.error is not None:
        return "failed"
    if outcome.result.output != baseline.output:
        return "DRIFT"
    if strict and outcome.result.counters != baseline.counters:
        return "DRIFT"
    if (stable_counters(outcome.result, _VS_BASELINE)
            != stable_counters(baseline, _VS_BASELINE)):
        return "DRIFT"
    if outcome.counter(C.HOSTS_LOST) > 0:
        return "recovered"
    return "identical"


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the P3 matrix; returns the scenario table."""
    side = scaled(24, 1.0, minimum=12)
    num_map_tasks, num_reducers = 3, 2
    grid = integer_grid((side, side), seed=17)

    if num_fuzz is None:
        num_fuzz = int(os.environ.get("REPRO_P3_FUZZ", "3"))
    if seconds is None:
        seconds = float(os.environ.get("REPRO_P3_SECONDS", "120"))
    t0 = time.monotonic()

    result = ExperimentResult(
        experiment="P3",
        title="Pipelined shuffle: overlap map, fetch, and reduce-side "
              "merge vs the barrier",
        columns=("scenario", "query", "transport", "pipeline", "overlap",
                 "outcome"),
    )

    # Barrier baselines, one per (query, transport): the bytes every
    # pipelined run must reproduce.
    baselines: dict[tuple[str, str], object] = {}

    def baseline(query: str, transport: str):
        key = (query, transport)
        if key not in baselines:
            job = build_query_job(grid, query, side, num_map_tasks,
                                  num_reducers)
            cfg = ShuffleConfig(transport=transport)
            with LocalJobRunner(shuffle=cfg) as runner:
                baselines[key] = runner.run(job, grid)
        return baselines[key]

    def pipelined_cfg(transport: str) -> ShuffleConfig:
        return ShuffleConfig(transport=transport, pipeline=True,
                             starvation_threshold=2)

    # -- clean equivalence: every query x transport, pipeline on -------
    for query in _QUERIES:
        for transport in _TRANSPORTS:
            job = build_query_job(grid, query, side, num_map_tasks,
                                  num_reducers)
            cfg = pipelined_cfg(transport)
            serial = _run_one("serial", grid, job, cfg, None)
            parallel = _run_one("parallel", grid, job, cfg, None)
            result.add(scenario="clean", query=query, transport=transport,
                       pipeline="on",
                       overlap=max(serial.overlap(), parallel.overlap()),
                       outcome=_classify(serial, parallel,
                                         baseline(query, transport)))

    # -- the off switch: pipeline=False must be the barrier ------------
    for transport in _TRANSPORTS:
        job = build_query_job(grid, "subset-agg", side, num_map_tasks,
                              num_reducers)
        cfg = ShuffleConfig(transport=transport, pipeline=False)
        serial = _run_one("serial", grid, job, cfg, None)
        parallel = _run_one("parallel", grid, job, cfg, None)
        result.add(scenario="barrier", query="subset-agg",
                   transport=transport, pipeline="off", overlap=0,
                   outcome=_classify(serial, parallel,
                                     baseline("subset-agg", transport)))

    # -- straggler: one map hangs; starved reducers speculate it -------
    # The hang delays the producer without damaging anything, so no
    # refetch happens and even the fetch counters must match in full.
    for transport in _TRANSPORTS:
        job = build_query_job(grid, "histogram", side, num_map_tasks,
                              num_reducers)
        straggler = f"m{num_map_tasks - 1:05d}"
        injector = FaultInjector().hang(straggler, seconds=1.0)
        outcome = _run_one("parallel", grid, job, pipelined_cfg(transport),
                           injector, speculation=True)
        result.add(scenario="straggler", query="histogram",
                   transport=transport, pipeline="on",
                   overlap=outcome.overlap(),
                   outcome=_classify_single(
                       outcome, baseline("histogram", transport)))

    # -- whole-host loss mid-pipeline ----------------------------------
    # Reducers have fetched the dead host's epoch-0 segments by the
    # time it dies; the epoch bump forces a discard + refetch, so only
    # the stable counters are compared (the volatile ones measure the
    # recovery itself and differ between runners and runs).
    for transport in _TRANSPORTS:
        job = build_query_job(grid, "subset-plain", side, num_map_tasks,
                              num_reducers)
        victim = host_for("m00000", 2)
        serial = _run_one(
            "serial", grid, job, pipelined_cfg(transport),
            FaultInjector().host_crash(victim), max_host_reexecs=8)
        parallel = _run_one(
            "parallel", grid, job, pipelined_cfg(transport),
            FaultInjector().host_crash(victim), max_host_reexecs=8)
        result.add(scenario="host-crash", query="subset-plain",
                   transport=transport, pipeline="on",
                   overlap=max(serial.overlap(), parallel.overlap()),
                   outcome=_classify(serial, parallel,
                                     baseline("subset-plain", transport),
                                     strict=False))

    # -- seeded fuzz tail: randomized straggler schedules --------------
    rng = make_rng(3100)
    ran = 0
    for i in range(num_fuzz):
        if time.monotonic() - t0 > seconds:
            break
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        transport = _TRANSPORTS[rng.integers(0, len(_TRANSPORTS))]
        target = int(rng.integers(0, num_map_tasks))
        delay = 0.1 + 0.3 * float(rng.random())
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        injector = FaultInjector().hang(f"m{target:05d}", seconds=delay)
        outcome = _run_one("parallel", grid, job, pipelined_cfg(transport),
                           injector, speculation=True)
        result.add(scenario=f"fuzz-{i}", query=query, transport=transport,
                   pipeline="on", overlap=outcome.overlap(),
                   outcome=_classify_single(outcome,
                                            baseline(query, transport)))
        ran += 1

    result.note(f"grid {side}x{side}, {num_map_tasks} maps x "
                f"{num_reducers} reducers; baselines are serial barrier "
                f"runs per (query, transport)")
    result.note("clean/barrier/straggler rows compare full counters; "
                "host-crash rows exclude the fetch-accounting counters "
                "(refetching after an epoch bump is timing-dependent)")
    result.note(f"fuzz tail: {ran}/{num_fuzz} randomized straggler "
                f"schedules (REPRO_P3_FUZZ / REPRO_P3_SECONDS)")
    return result


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
    hang -- each segment is fetched the moment its producer commits,
    and the merge folds forward -- leaving only the straggler's own
    transfer and the residual merge after the last commit.

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
                                    pipeline=(mode == "pipelined"),
                                    concurrency=1)
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
