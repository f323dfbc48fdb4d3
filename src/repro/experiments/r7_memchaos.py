"""R7 -- memory chaos: OOM kills, rlimit pressure, byte backpressure.

Not a paper figure: this is the robustness ladder's memory rung.
Every byte-holding stage of a task rents from a per-task
:class:`~repro.mapreduce.runtime.memory.MemoryBudget` (the map sort
buffer under ``"sort"``, in-flight shuffle fetches under ``"fetch"``,
the decoded reduce runs under ``"merge"``), and the ledger is then
attacked.  Pinned here:

* **clean equivalence under accounting** -- with a budget and a fetch
  byte window configured but no faults, queries x transports x
  pipeline on/off x runners must stay byte-identical to the unbudgeted
  serial baseline on output AND counters, with the ledger peak never
  exceeding the budget;
* **degrade-on-retry** -- an injected ``MemoryError`` (simulated
  ``raise``, threshold ``kill``, or a *genuine* allocation failure via
  ``alloc``) at any site kills the attempt; the retry runs with a
  deterministically halved sort buffer / fetch window and the output
  never changes.  ``MEMORY_OOM_EVENTS`` / ``MEMORY_DEGRADED_ATTEMPTS``
  count identically in both runners;
* **OOM-kill divergence** -- the serial runner surfaces a threshold
  kill as an in-process ``MemoryError`` while a parallel worker dies
  SIGKILL-style (``os._exit(137)`` after durably recording the OOM),
  yet both take the same ladder to the same bytes;
* **real rlimit** -- with ``worker_rlimit_bytes`` set the parallel
  workers run under a genuine ``RLIMIT_AS``; an ``alloc`` fault that
  would otherwise succeed becomes a real kernel-refused allocation and
  still degrades to the baseline bytes (Linux only);
* **backpressure or death** -- a skewed fetch plan under a sticky
  ``kill`` threshold completes only when ``max_inflight_bytes``
  holds the in-flight bytes below the trip wire; without the window
  the same job must fail identically in both runners;
* **bounded** -- a sticky ``raise`` fault outlasting
  ``max_memory_retries`` fails the job cleanly in both runners.

``REPRO_R7_FUZZ`` bounds the fuzz-tail seed count and
``REPRO_R7_SECONDS`` the wall clock.  The bench
(``benchmarks/bench_r7_memchaos.py``) asserts no row reads DRIFT.
"""

from __future__ import annotations

import os
import sys
import time

from repro.experiments.common import (
    ExperimentResult,
    RunOutcome,
    scaled,
    stable_counters,
)
from repro.mapreduce.engine import LocalJobRunner
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import (
    FaultInjector,
    ParallelJobRunner,
    ShuffleConfig,
)
from repro.queries.histogram import HistogramQuery
from repro.queries.subset import BoxSubsetQuery
from repro.scidata.generator import integer_grid
from repro.scidata.slab import Slab
from repro.util.rng import make_rng

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset", "histogram")
#: shuffle transports the memory faults are exercised over
_TRANSPORTS = ("direct", "channel", "network")
#: memory-ledger sites the fuzz tail aims at
_SITES = ("sort", "fetch", "merge")
#: a sort buffer small enough that every R7 map flushes several times
_SORT_BUFFER = 2048
#: counters that legitimately differ between a faulted/budgeted run
#: and the plain serial baseline (they measure the faults / the wire /
#: the transport); the rest must match the baseline exactly
_VOLATILE = frozenset({
    C.MEMORY_OOM_EVENTS,
    C.MEMORY_DEGRADED_ATTEMPTS,
    C.SHUFFLE_FETCHES,
    C.SHUFFLE_RETRIES,
    C.SHUFFLE_FAILED_FETCHES,
    C.SHUFFLE_BYTES_TRANSFERRED,
    C.SHUFFLE_WIRE_BYTES,
    C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED,
})


def _build(grid, query: str, side: int, num_map_tasks: int,
           num_reducers: int):
    """One query job over the harness grid, with the tiny sort buffer."""
    var = grid.names[0]
    overrides = dict(num_map_tasks=num_map_tasks,
                     num_reducers=num_reducers,
                     sort_buffer_bytes=_SORT_BUFFER)
    if query == "subset":
        box = Slab((1, 1), (side - 2, side - 2))
        return BoxSubsetQuery(grid, var, box).build_job("plain", **overrides)
    if query == "histogram":
        return HistogramQuery(grid, var, bins=16).build_job(
            "plain", **overrides)
    raise ValueError(f"unknown query {query!r}")


def _run_one(runner_name: str, grid, job, shuffle: ShuffleConfig,
             injector: FaultInjector | None,
             rlimit_bytes: int | None = None) -> RunOutcome:
    kwargs: dict = {"shuffle": shuffle, "fault_injector": injector}
    if runner_name == "serial":
        runner = LocalJobRunner(**kwargs)
    else:
        if rlimit_bytes is not None:
            kwargs["worker_rlimit_bytes"] = rlimit_bytes
        runner = ParallelJobRunner(
            max_workers=2, speculation=False, retry_backoff=0.01, **kwargs)
    try:
        with runner:
            return RunOutcome(runner.run(job, grid), None)
    except Exception as exc:
        return RunOutcome(None, exc)


def _classify(serial: RunOutcome, parallel: RunOutcome, baseline) -> str:
    """Where the scenario landed: identical / degraded / failed / DRIFT.

    Serial and parallel must agree on *everything* -- output bytes and
    the full counter set including the MEMORY_* tallies (the degrade
    ladder is deterministic).  Against the plain serial baseline,
    output bytes must always match; the non-volatile counters must
    match too unless the run took an OOM (a degraded retry spills on
    a different cadence, which is the point of degrading).
    """
    if (serial.error is None) != (parallel.error is None):
        return "DRIFT"
    if serial.error is not None:
        return "failed"
    if serial.result.output != parallel.result.output:
        return "DRIFT"
    if serial.result.counters != parallel.result.counters:
        return "DRIFT"
    if serial.result.output != baseline.output:
        return "DRIFT"
    if serial.counter(C.MEMORY_OOM_EVENTS) > 0:
        # A degraded retry legitimately reshapes work-measuring
        # counters (a halved sort buffer spills more often), so only
        # the bytes and the runner-vs-runner identity are held here.
        return "degraded"
    if (stable_counters(serial.result, _VOLATILE)
            != stable_counters(baseline, _VOLATILE)):
        return "DRIFT"
    return "identical"


def _peak_within_budget(outcome: RunOutcome) -> bool:
    """The ledger's recorded peak never exceeded the configured budget."""
    mem = outcome.memory
    budget = mem.get("budget")
    if budget is None:
        return True
    return mem.get("peak_bytes", 0) <= budget


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R7 memory-chaos matrix; returns the scenario table."""
    side = scaled(1000, 0.032, minimum=32)
    num_map_tasks, num_reducers = 4, 2
    grid = integer_grid((side, side), seed=13)

    if num_fuzz is None:
        num_fuzz = int(os.environ.get("REPRO_R7_FUZZ", "3"))
    if seconds is None:
        seconds = float(os.environ.get("REPRO_R7_SECONDS", "120"))
    t0 = time.monotonic()

    result = ExperimentResult(
        experiment="R7",
        title="Memory chaos: OOM kills, rlimit pressure, and byte-based "
              "shuffle backpressure",
        columns=["scenario", "query", "transport", "pipeline", "fault",
                 "oom_events", "degraded", "peak_bytes", "waits",
                 "outcome"],
    )

    def shuffle_config(transport: str, *, pipeline: bool = False,
                       memory_budget: int | None = 1 << 20,
                       max_inflight_bytes: int | None = 4096,
                       max_memory_retries: int = 2) -> ShuffleConfig:
        return ShuffleConfig(
            transport=transport, fetch_retries=2, fetch_timeout=2.0,
            backoff=0.005, backoff_max=0.02, pipeline=pipeline,
            wire_codec="fastpred+zlib" if transport == "network" else "null",
            memory_budget=memory_budget,
            max_inflight_bytes=max_inflight_bytes,
            max_memory_retries=max_memory_retries)

    baselines = {}
    for query in _QUERIES:
        job = _build(grid, query, side, num_map_tasks, num_reducers)
        baselines[query] = LocalJobRunner().run(job, grid)

    def add_row(scenario: str, query: str, cfg: ShuffleConfig,
                fault_label: str, plan, expect=None,
                check_peak: bool = False,
                rlimit_bytes: int | None = None) -> None:
        job = _build(grid, query, side, num_map_tasks, num_reducers)
        serial = _run_one("serial", grid, job, cfg, plan())
        parallel = _run_one("parallel", grid, job, cfg, plan(),
                            rlimit_bytes=rlimit_bytes)
        outcome = _classify(serial, parallel, baselines[query])
        if check_peak and outcome != "DRIFT" and not (
                _peak_within_budget(serial)
                and _peak_within_budget(parallel)):
            outcome = "DRIFT"
        if expect is not None and outcome != "DRIFT" and outcome != expect:
            outcome = "DRIFT"
        mem = serial.memory
        result.add(scenario=scenario, query=query, transport=cfg.transport,
                   pipeline="on" if cfg.pipeline else "off",
                   fault=fault_label,
                   oom_events=serial.counter(C.MEMORY_OOM_EVENTS),
                   degraded=serial.counter(C.MEMORY_DEGRADED_ATTEMPTS),
                   peak_bytes=mem.get("peak_bytes", 0),
                   waits=mem.get("backpressure_waits", 0),
                   outcome=outcome)

    # -- clean equivalence with the ledger and window always on -----------
    for transport in _TRANSPORTS:
        for pipeline in (False, True):
            query = _QUERIES[(_TRANSPORTS.index(transport) + pipeline)
                             % len(_QUERIES)]
            add_row("clean-budgeted", query,
                    shuffle_config(transport, pipeline=pipeline),
                    "none", lambda: None, expect="identical",
                    check_peak=True)

    # -- simulated MemoryError at each ledger site -------------------------
    for site, task in (("sort", "m00001"), ("fetch", "r00000"),
                       ("merge", "r00001")):
        add_row(f"oom-raise-{site}", "subset", shuffle_config("direct"),
                f"raise at {site} ({task})",
                lambda site=site, task=task: FaultInjector().oom(
                    task, site=site, op="raise"),
                expect="degraded")

    # -- the same faults through the pipelined reduce path -----------------
    for site, task in (("fetch", "r00000"), ("merge", "r00001")):
        add_row(f"oom-raise-{site}", "subset",
                shuffle_config("channel", pipeline=True),
                f"raise at {site} ({task}), pipelined",
                lambda site=site, task=task: FaultInjector().oom(
                    task, site=site, op="raise"),
                expect="degraded")

    # -- threshold kill: the simulated kernel OOM killer -------------------
    # The sort buffer is 2048, so attempt 0's flushes charge >= 2048 and
    # trip the 1600-byte wire; the degraded retry flushes at 1024 and
    # stays under it even though the kill stays armed (sticky).
    add_row("oom-kill-sort", "subset", shuffle_config("direct"),
            "kill above 1600 at sort (m00001), sticky",
            lambda: FaultInjector().oom(
                "m00001", site="sort", op="kill", nbytes=1600, sticky=True),
            expect="degraded")

    # -- genuine allocation failure (alloc well past any real machine) ----
    add_row("oom-alloc-sort", "histogram", shuffle_config("direct"),
            "alloc 1 PiB at sort (m00000)",
            lambda: FaultInjector().oom(
                "m00000", site="sort", op="alloc", nbytes=1 << 50),
            expect="degraded")

    # -- real RLIMIT_AS on forked workers (Linux only) ---------------------
    if sys.platform.startswith("linux"):
        # Clean soak: a generous address-space cap must change nothing.
        job = _build(grid, "histogram", side, num_map_tasks, num_reducers)
        cfg = shuffle_config("direct")
        parallel = _run_one("parallel", grid, job, cfg, None,
                            rlimit_bytes=8 << 30)
        ok = (parallel.error is None
              and parallel.result.output == baselines["histogram"].output
              and stable_counters(parallel.result, _VOLATILE)
              == stable_counters(baselines["histogram"], _VOLATILE))
        result.add(scenario="rlimit-soak", query="histogram",
                   transport="direct", pipeline="off",
                   fault="RLIMIT_AS 8 GiB, no faults",
                   oom_events=parallel.counter(C.MEMORY_OOM_EVENTS),
                   degraded=parallel.counter(C.MEMORY_DEGRADED_ATTEMPTS),
                   peak_bytes=parallel.memory.get("peak_bytes", 0),
                   waits=parallel.memory.get("backpressure_waits", 0),
                   outcome="identical" if ok else "DRIFT")
        # A 6 GiB allocation fits most build hosts but can never fit
        # under a 4 GiB address-space cap: the MemoryError is the
        # kernel's, not ours, and the ladder still lands on baseline
        # bytes.  Parallel-only (the serial runner takes no rlimit).
        job = _build(grid, "histogram", side, num_map_tasks, num_reducers)
        injector = FaultInjector().oom(
            "m00000", site="sort", op="alloc", nbytes=6 << 30)
        parallel = _run_one("parallel", grid, job, cfg, injector,
                            rlimit_bytes=4 << 30)
        ok = (parallel.error is None
              and parallel.result.output == baselines["histogram"].output
              and parallel.counter(C.MEMORY_OOM_EVENTS) >= 1)
        result.add(scenario="rlimit-alloc", query="histogram",
                   transport="direct", pipeline="off",
                   fault="alloc 6 GiB under RLIMIT_AS 4 GiB",
                   oom_events=parallel.counter(C.MEMORY_OOM_EVENTS),
                   degraded=parallel.counter(C.MEMORY_DEGRADED_ATTEMPTS),
                   peak_bytes=parallel.memory.get("peak_bytes", 0),
                   waits=parallel.memory.get("backpressure_waits", 0),
                   outcome="degraded" if ok else "DRIFT")

    # -- backpressure or death: a skewed fetch plan under a trip wire ------
    # Each reducer's four segments sum past 4096 priced bytes.  With the
    # 2048-byte window, in-flight fetch charges stay below the sticky
    # 4200-byte kill threshold; without the window every segment is in
    # flight at once and the kill fires on every attempt.
    add_row("backpressure-on", "subset",
            shuffle_config("direct", max_inflight_bytes=2048),
            "fetch kill above 4200 (r00000), window 2048",
            lambda: FaultInjector().oom(
                "r00000", site="fetch", op="kill", nbytes=4200, sticky=True),
            expect="identical")
    add_row("backpressure-off", "subset",
            shuffle_config("direct", max_inflight_bytes=None),
            "fetch kill above 4200 (r00000), no window",
            lambda: FaultInjector().oom(
                "r00000", site="fetch", op="kill", nbytes=4200, sticky=True),
            expect="failed")

    # -- bounded: a sticky fault outlasting the retry budget ---------------
    add_row("bounded", "histogram",
            shuffle_config("direct", max_memory_retries=1),
            "sticky raise at sort (m00000), max_memory_retries=1",
            lambda: FaultInjector().oom(
                "m00000", site="sort", op="raise", sticky=True),
            expect="failed")

    # -- seeded fuzz tail --------------------------------------------------
    rng = make_rng(7000)
    ran = 0
    for seed in range(num_fuzz):
        if time.monotonic() - t0 > seconds:
            break
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        transport = _TRANSPORTS[rng.integers(0, len(_TRANSPORTS))]
        pipeline = bool(rng.integers(0, 2))
        site = _SITES[rng.integers(0, len(_SITES))]
        task = ("m%05d" % rng.integers(0, num_map_tasks) if site == "sort"
                else "r%05d" % rng.integers(0, num_reducers))
        add_row(f"fuzz-{seed}", query,
                shuffle_config(transport, pipeline=pipeline),
                f"raise at {site} ({task})",
                lambda site=site, task=task: FaultInjector().oom(
                    task, site=site, op="raise"),
                expect="degraded")
        ran += 1

    result.note(f"grid {side}x{side}, {num_map_tasks} maps x "
                f"{num_reducers} reducers, sort buffer {_SORT_BUFFER} B; "
                f"fuzz tail ran {ran}/{num_fuzz} seeds in "
                f"{time.monotonic() - t0:.1f}s")
    result.note("oom_events/degraded are the serial run's "
                "MEMORY_OOM_EVENTS / MEMORY_DEGRADED_ATTEMPTS (parallel "
                "must count identically); peak_bytes/waits come from "
                "JobResult.memory_stats and are telemetry, never compared")
    result.note("outcome=identical: byte-identical output and stable "
                "counters vs the unbudgeted serial baseline; "
                "outcome=degraded: same, after OOM-killed attempts were "
                "retried with halved memory knobs")
    return result
