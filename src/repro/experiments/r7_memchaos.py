"""R7 -- memory chaos: OOM kills, rlimit pressure, one fetch in flight.

Not a paper figure: this is the robustness ladder's memory rung.
Every byte-holding stage of a task rents from a per-task
:class:`~repro.mapreduce.runtime.memory.MemoryBudget` (the map sort
buffer under ``"sort"``, the shuffle segment in transfer under
``"fetch"``, the decoded reduce runs under ``"merge"``), and the ledger
is then attacked.  Pinned here:

* **clean equivalence under accounting** -- with a budget configured
  but no faults, queries x transports x
  pipeline on/off x runners must stay byte-identical to the unbudgeted
  serial baseline on output AND counters, with the ledger peak never
  exceeding the budget;
* **degrade-on-retry** -- an injected ``MemoryError`` (simulated
  ``raise``, threshold ``kill``, or a *genuine* allocation failure via
  ``alloc``) at any site kills the attempt; the retry runs with a
  deterministically halved sort buffer and the output never changes.  ``MEMORY_OOM_EVENTS`` / ``MEMORY_DEGRADED_ATTEMPTS``
  count identically in both runners;
* **OOM-kill divergence** -- the serial runner surfaces a threshold
  kill as an in-process ``MemoryError`` while a parallel worker dies
  SIGKILL-style (``os._exit(137)`` after durably recording the OOM),
  yet both take the same ladder to the same bytes;
* **real rlimit** -- with ``worker_rlimit_bytes`` set the parallel
  workers run under a genuine ``RLIMIT_AS``; an ``alloc`` fault that
  would otherwise succeed becomes a real kernel-refused allocation and
  still degrades to the baseline bytes (Linux only);
* **one fetch in flight** -- a reducer whose segments sum past a
  sticky ``fetch`` ``kill`` threshold, each one below it, completes
  byte-identically: a reduce task holds one segment in transfer at a
  time, on every host, whatever its CPU count;
* **bounded** -- a sticky ``raise`` fault outlasting
  ``max_memory_retries`` fails the job cleanly in both runners.

``REPRO_R7_FUZZ`` bounds the fuzz-tail seed count and
``REPRO_R7_SECONDS`` the wall clock.  The bench
(``benchmarks/bench_r7_memchaos.py``) asserts no row reads DRIFT.
"""

from __future__ import annotations

import sys

from repro.experiments.common import ExperimentResult, scaled
from repro.experiments.matrix import (
    Matrix,
    Scenario,
    build_query_job,
    fuzz_budget,
)
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import FaultInjector, ShuffleConfig
from repro.scidata.generator import integer_grid

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from ("subset" is the
#: plain-key box subset)
_QUERIES = ("subset", "histogram")
#: shuffle transports the memory faults are exercised over
_TRANSPORTS = ("direct", "network")
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


def _shuffle(transport: str = "direct", *, pipeline: bool = False,
             memory_budget: int | None = 1 << 20,
             max_memory_retries: int = 2) -> ShuffleConfig:
    return ShuffleConfig(
        transport=transport, fetch_retries=2, fetch_timeout=2.0,
        backoff=0.005, backoff_max=0.02, pipeline=pipeline,
        wire_codec="fastpred+zlib" if transport == "network" else "null",
        memory_budget=memory_budget,
        max_memory_retries=max_memory_retries)


def _oom(task: str, **fault):
    """A fresh-injector factory for one planned OOM."""
    return lambda: FaultInjector().oom(task, **fault)


def _peak_within_budget(serial, parallel) -> bool:
    """The ledger's recorded peak never exceeded the configured budget."""
    return all(o.memory.get("peak_bytes", 0)
               <= (o.memory.get("budget") or float("inf"))
               for o in (serial, parallel) if o is not None)


def _row(sc: Scenario, runs) -> dict:
    first = runs[0]
    return {"transport": sc.shuffle.transport,
            "pipeline": "on" if sc.shuffle.pipeline else "off",
            "oom_events": first.counter(C.MEMORY_OOM_EVENTS),
            "degraded": first.counter(C.MEMORY_DEGRADED_ATTEMPTS),
            "peak_bytes": first.memory.get("peak_bytes", 0)}


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R7 memory-chaos matrix; returns the scenario table."""
    budget = fuzz_budget("R7", num_fuzz, seconds)
    side = scaled(1000, 0.032, minimum=32)
    num_map_tasks, num_reducers = 4, 2
    grid = integer_grid((side, side), seed=13)
    m = Matrix(
        ExperimentResult(
            experiment="R7",
            title="Memory chaos: OOM kills, rlimit pressure, and one "
                  "shuffle fetch in flight",
            columns=["scenario", "query", "transport", "pipeline", "fault",
                     "oom_events", "degraded", "peak_bytes", "outcome"]),
        grid,
        lambda query, qdir, **fields: build_query_job(
            grid, "subset-plain" if query == "subset" else query, side,
            num_map_tasks, num_reducers, sort_buffer_bytes=_SORT_BUFFER,
            **fields),
        _row, volatile=_VOLATILE,
        promote=[(C.MEMORY_OOM_EVENTS, "degraded")])

    for transport, pipeline, query in (
            ("direct", False, "subset"), ("direct", True, "histogram"),
            ("network", False, "subset"), ("network", True, "histogram")):
        m.add(Scenario("clean-budgeted", query,
                       shuffle=_shuffle(transport, pipeline=pipeline),
                       expect="identical", check=_peak_within_budget))
    for site, task in (("sort", "m00001"), ("fetch", "r00000"),
                       ("merge", "r00001")):
        m.add(Scenario(f"oom-raise-{site}", "subset",
                       f"raise at {site} ({task})",
                       _oom(task, site=site, op="raise"), _shuffle(),
                       expect="degraded"))
    # the same faults through the pipelined reduce path
    for site, task in (("fetch", "r00000"), ("merge", "r00001")):
        m.add(Scenario(f"oom-raise-{site}", "subset",
                       f"raise at {site} ({task}), pipelined",
                       _oom(task, site=site, op="raise"),
                       _shuffle("network", pipeline=True),
                       expect="degraded"))
    # The threshold kill (the simulated kernel OOM killer): the sort
    # buffer is 2048, so attempt 0's flushes charge >= 2048 and trip
    # the 1600-byte wire; the degraded retry flushes at 1024 and stays
    # under it even though the kill stays armed (sticky).
    m.add(Scenario("oom-kill-sort", "subset",
                   "kill above 1600 at sort (m00001), sticky",
                   _oom("m00001", site="sort", op="kill", nbytes=1600,
                        sticky=True),
                   _shuffle(), expect="degraded"))
    # a genuine allocation failure (alloc well past any real machine)
    m.add(Scenario("oom-alloc-sort", "histogram",
                   "alloc 1 PiB at sort (m00000)",
                   _oom("m00000", site="sort", op="alloc", nbytes=1 << 50),
                   _shuffle(), expect="degraded"))
    if sys.platform.startswith("linux"):
        # Real RLIMIT_AS on forked workers (the serial runner takes no
        # rlimit, so these rows are parallel-only).  A generous cap must
        # change nothing; a 6 GiB allocation fits most build hosts but
        # can never fit under a 4 GiB cap, so the MemoryError is the
        # kernel's, not ours, and the ladder still lands on the bytes.
        m.add(Scenario("rlimit-soak", "histogram",
                       "RLIMIT_AS 8 GiB, no faults", shuffle=_shuffle(),
                       sides="parallel", strict=False, expect="identical",
                       parallel={"worker_rlimit_bytes": 8 << 30}))
        m.add(Scenario("rlimit-alloc", "histogram",
                       "alloc 6 GiB under RLIMIT_AS 4 GiB",
                       _oom("m00000", site="sort", op="alloc",
                            nbytes=6 << 30),
                       _shuffle(), sides="parallel", strict=False,
                       expect="degraded",
                       parallel={"worker_rlimit_bytes": 4 << 30}))
    # One fetch in flight: r00000's four segments sum past 4200 priced
    # bytes, each one below it.  The reducer holds one segment in
    # transfer at a time, so the sticky kill never fires, on any host.
    m.add(Scenario("fetch-one-in-flight", "subset",
                   "fetch kill above 4200 (r00000), sticky",
                   _oom("r00000", site="fetch", op="kill", nbytes=4200,
                        sticky=True),
                   _shuffle(), expect="identical"))
    m.add(Scenario("bounded", "histogram",
                   "sticky raise at sort (m00000), max_memory_retries=1",
                   _oom("m00000", site="sort", op="raise", sticky=True),
                   _shuffle(max_memory_retries=1), expect="failed"))

    def draw(rng, i: int) -> Scenario:
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        transport = _TRANSPORTS[rng.integers(0, len(_TRANSPORTS))]
        pipeline = bool(rng.integers(0, 2))
        site = _SITES[rng.integers(0, len(_SITES))]
        task = ("m%05d" % rng.integers(0, num_map_tasks) if site == "sort"
                else "r%05d" % rng.integers(0, num_reducers))
        return Scenario(f"fuzz-{i}", query, f"raise at {site} ({task})",
                        _oom(task, site=site, op="raise"),
                        _shuffle(transport, pipeline=pipeline),
                        expect="degraded")

    m.fuzz(draw, 7000, budget)
    return m.finish(
        f"grid {side}x{side}, {num_map_tasks} maps x {num_reducers} "
        f"reducers, sort buffer {_SORT_BUFFER} B",
        "oom_events/degraded are the serial run's MEMORY_OOM_EVENTS / "
        "MEMORY_DEGRADED_ATTEMPTS (parallel must count identically); "
        "peak_bytes comes from JobResult.memory_stats and is telemetry, "
        "never compared",
        "outcome=identical: byte-identical output and stable counters vs "
        "the unbudgeted serial baseline; outcome=degraded: same, after "
        "OOM-killed attempts were retried with a halved sort buffer")
