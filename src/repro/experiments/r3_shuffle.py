"""R3 -- shuffle transport service: fetch retries and map re-execution.

Not a paper figure: this is the transfer-level robustness analogue of
R1 (process faults) and R2 (data faults).  The map->reduce hop is the
link the paper compresses and the phase Hadoop treats as its most
fragile; this harness makes the hop actually fail and checks the
runtime's answer never changes the answer:

* **clean equivalence** -- every query runs through the serial and
  parallel runner over both transports (``direct`` file reads and the
  CRC-framed ``channel``); all eight combinations must be
  byte-identical to the serial/direct baseline, counters included;
* **transient transfer faults** -- in-flight bit flips, dropped
  connections, silent truncations, delays, and stalls (against a fetch
  deadline) are retried with capped jittered backoff; output stays
  identical while ``SHUFFLE_RETRIES`` / ``SHUFFLE_FAILED_FETCHES``
  record the damage;
* **map re-execution** -- a segment that stays unfetchable for a whole
  reduce attempt (a *sticky* fault pinned to fetch epoch 0) escalates
  past retries: the fetch failure is charged to the producing map,
  which is re-executed, waiting reducers are re-pointed at the fresh
  epoch, and the job completes identically with ``MAPS_REEXECUTED``
  nonzero -- Hadoop's "too many fetch failures" protocol, in both
  runners;
* **bounded escalation** -- a fault sticky across *all* epochs can
  never be out-run; both runners must fail the job (after
  ``max_map_reexecs``) rather than loop, and they must agree.

A seeded fuzz tail draws random (query, op, link, anchor) combinations
on top of the deterministic matrix; ``REPRO_R3_FUZZ`` bounds the seed
count and ``REPRO_R3_SECONDS`` the wall clock.  The bench
(``benchmarks/bench_r3_shuffle.py``) asserts no row ever reads DRIFT.
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
)
from repro.scidata.generator import integer_grid
from repro.util.rng import make_rng

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: wire damage ops the fuzz tail draws from
_FUZZ_OPS = ("flip", "drop", "truncate", "delay", "stall")
#: counters that legitimately differ between a faulted run and the
#: baseline (they *measure* the faults); everything else must match
_VOLATILE = frozenset({
    C.SHUFFLE_FETCHES,
    C.SHUFFLE_RETRIES,
    C.SHUFFLE_FAILED_FETCHES,
    C.SHUFFLE_BYTES_TRANSFERRED,
    C.MAPS_REEXECUTED,
})


def _run_one(runner_name: str, grid, job, shuffle: ShuffleConfig | None,
             injector: FaultInjector | None) -> RunOutcome:
    kwargs: dict = {"shuffle": shuffle, "fault_injector": injector}
    if runner_name == "serial":
        runner = LocalJobRunner(**kwargs)
    else:
        runner = ParallelJobRunner(
            max_workers=2, speculation=False, retry_backoff=0.01,
            **kwargs)
    try:
        with runner:
            return RunOutcome(runner.run(job, grid), None)
    except Exception as exc:
        return RunOutcome(None, exc)


def _classify(serial: RunOutcome, parallel: RunOutcome,
              baseline) -> str:
    """Where the scenario landed: identical / reexecuted / failed / DRIFT.

    The runners must agree with *each other* unconditionally; a
    successful run must additionally match the clean baseline's output
    and non-shuffle counters exactly.
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
    if (stable_counters(serial.result, _VOLATILE)
            != stable_counters(baseline, _VOLATILE)):
        return "DRIFT"
    if serial.counter(C.MAPS_REEXECUTED) > 0:
        return "reexecuted"
    return "identical"


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R3 matrix; returns the scenario table."""
    side = scaled(24, 1.0, minimum=12)
    num_map_tasks, num_reducers = 3, 2
    grid = integer_grid((side, side), seed=11)

    if num_fuzz is None:
        num_fuzz = int(os.environ.get("REPRO_R3_FUZZ", "4"))
    if seconds is None:
        seconds = float(os.environ.get("REPRO_R3_SECONDS", "120"))
    t0 = time.monotonic()

    result = ExperimentResult(
        experiment="R3",
        title="Shuffle transport: fetch retries, failure accounting, "
              "and map re-execution",
        columns=["scenario", "query", "fault", "retries", "reexecs",
                 "outcome"],
    )

    #: fast-failing channel config for fault scenarios: a tight fetch
    #: deadline (delays/stalls resolve quickly) and a small retry budget
    faulty = ShuffleConfig(transport="channel", fetch_retries=1,
                           fetch_timeout=0.2, backoff=0.005,
                           backoff_max=0.02)

    baselines = {}
    for query in _QUERIES:
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        baselines[query] = LocalJobRunner().run(job, grid)

    # -- clean equivalence: queries x runners x transports ----------------
    for query in _QUERIES:
        for transport in ("direct", "channel"):
            job = build_query_job(grid, query, side, num_map_tasks,
                                  num_reducers)
            shuffle = ShuffleConfig(transport=transport)
            serial = _run_one("serial", grid, job, shuffle, None)
            parallel = _run_one("parallel", grid, job, shuffle, None)
            outcome = _classify(serial, parallel, baselines[query])
            # The clean path must also match on the shuffle counters
            # themselves: both transports move each segment exactly once.
            if (outcome == "identical"
                    and serial.result.counters != baselines[query].counters):
                outcome = "DRIFT"
            result.add(scenario=f"clean-{transport}", query=query,
                       fault="none",
                       retries=serial.counter(C.SHUFFLE_RETRIES),
                       reexecs=serial.counter(C.MAPS_REEXECUTED),
                       outcome=outcome)

    def fault_scenario(scenario: str, query: str, fault_label: str,
                       plan) -> None:
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        serial = _run_one("serial", grid, job, faulty, plan())
        parallel = _run_one("parallel", grid, job, faulty, plan())
        result.add(scenario=scenario, query=query, fault=fault_label,
                   retries=serial.counter(C.SHUFFLE_RETRIES),
                   reexecs=serial.counter(C.MAPS_REEXECUTED),
                   outcome=_classify(serial, parallel, baselines[query]))

    # -- transient wire damage: one bad fetch attempt, retry heals -------
    for op in ("flip", "drop", "truncate", "delay", "stall"):
        def plan(op=op):
            inj = FaultInjector()
            inj.fetch("m00001", "r00000", op=op, attempt=0, seconds=0.5)
            return inj
        fault_scenario(f"wire-{op}", "subset-plain",
                       f"{op} m00001->r00000#0", plan)

    # -- sticky epoch-0 fault: retries exhaust, the map is re-executed ---
    def reexec_plan():
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", op="flip", attempt=0, sticky=True,
                  epoch=0)
        return inj
    fault_scenario("reexec-map", "subset-plain",
                   "sticky flip m00000->r00000 (epoch 0)", reexec_plan)

    # -- fault sticky across every epoch: the job must fail, agreed -----
    def doomed_plan():
        inj = FaultInjector()
        inj.fetch("m00000", "r00001", op="drop", attempt=0, sticky=True,
                  epoch=None)
        return inj
    fault_scenario("unfetchable", "subset-plain",
                   "sticky drop m00000->r00001 (all epochs)", doomed_plan)

    # -- seeded fuzz tail ------------------------------------------------
    rng = make_rng(3000)
    ran = 0
    for seed in range(num_fuzz):
        if time.monotonic() - t0 > seconds:
            break
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        op = _FUZZ_OPS[rng.integers(0, len(_FUZZ_OPS))]
        map_id = f"m{rng.integers(0, num_map_tasks):05d}"
        reduce_id = f"r{rng.integers(0, num_reducers):05d}"
        sticky = bool(rng.integers(0, 5) == 0)  # 20%: escalates to reexec
        attempt = int(rng.integers(0, 2))

        def fuzz_plan(op=op, map_id=map_id, reduce_id=reduce_id,
                      sticky=sticky, attempt=attempt):
            inj = FaultInjector()
            inj.fetch(map_id, reduce_id, op=op, attempt=attempt,
                      sticky=sticky, seconds=0.5, epoch=0)
            return inj
        sticky_note = " sticky" if sticky else ""
        fault_scenario(f"fuzz-{seed}", query,
                       f"{op}{sticky_note} {map_id}->{reduce_id}#{attempt}",
                       fuzz_plan)
        ran += 1

    result.note(f"grid {side}x{side}, {num_map_tasks} maps x "
                f"{num_reducers} reducers; fuzz tail ran {ran}/{num_fuzz} "
                f"seeds in {time.monotonic() - t0:.1f}s")
    result.note("outcome=identical: byte-identical output and non-shuffle "
                "counters vs the serial/direct baseline, runners agreeing "
                "on everything including SHUFFLE_* counters")
    return result
