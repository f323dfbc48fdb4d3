"""R5 -- host failure domains: crashes, partitions, disk failover.

Not a paper figure: this is the robustness ladder's host-level rung.
Every task (and, with the network transport, every segment server) is
pinned to a simulated host by a stable hash
(:func:`repro.mapreduce.runtime.hosts.host_for`), and whole hosts are
then failed under the job.  Pinned here:

* **clean equivalence under monitoring** -- health tracking is always
  on now; queries x transports x runners with zero faults must stay
  byte-identical to the serial/direct baseline with zero retries (the
  monitor itself costs nothing on the clean path);
* **whole-host crash** -- a host dies at the shuffle barrier taking
  its segment server and the only copies of its maps' segments; every
  completed map homed there is re-executed (``HOSTS_LOST`` /
  ``MAPS_REEXECUTED_HOST``) and the output never changes;
* **network partition** -- every shuffle link out of a host drops its
  first fetch attempts while the host keeps heartbeating; the health
  monitor must *not* declare it dead (partition-vs-death rule) and the
  per-link retry ladder heals it with retry counts that are pure
  functions of the plan;
* **disk-fault failover** -- a host's workdir starts raising
  ENOSPC/EIO; tasks homed there fail over to a spare volume, the bad
  directory is quarantined, and deterministic side-files land under
  ``$REPRO_QUARANTINE_DIR`` -- byte-identical between runners;
* **bounded re-execution** -- with ``max_host_reexecs=0`` a host crash
  must fail the job identically in both runners instead of cascading.

``REPRO_R5_FUZZ`` bounds the fuzz-tail seed count and
``REPRO_R5_SECONDS`` the wall clock.  The bench
(``benchmarks/bench_r5_hostchaos.py``) asserts no row reads DRIFT.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.experiments.common import (
    ExperimentResult,
    RunOutcome,
    build_query_job,
    read_quarantine,
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

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: shuffle transports the host faults are exercised over
_TRANSPORTS = ("direct", "channel", "network")
#: host-level fault kinds the fuzz tail draws from
_HOST_FAULTS = ("host_crash", "host_partition", "disk_fault")
#: counters that legitimately differ between a faulted run and the
#: baseline (they *measure* the faults / the wire); the rest must match
_VOLATILE = frozenset({
    C.SHUFFLE_FETCHES,
    C.SHUFFLE_RETRIES,
    C.SHUFFLE_FAILED_FETCHES,
    C.SHUFFLE_BYTES_TRANSFERRED,
    C.SHUFFLE_WIRE_BYTES,
    C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED,
    C.MAPS_REEXECUTED,
    C.HOSTS_LOST,
    C.MAPS_REEXECUTED_HOST,
    C.DISK_FAILOVERS,
})


def _run_one(runner_name: str, grid, job, shuffle: ShuffleConfig,
             injector: FaultInjector | None,
             num_hosts: int = 3,
             max_host_reexecs: int = 2) -> RunOutcome:
    kwargs: dict = {"shuffle": shuffle, "fault_injector": injector,
                    "num_hosts": num_hosts,
                    "max_host_reexecs": max_host_reexecs}
    if runner_name == "serial":
        runner = LocalJobRunner(fetch_failure_threshold=1, **kwargs)
    else:
        runner = ParallelJobRunner(
            max_workers=2, speculation=False, retry_backoff=0.01,
            fetch_failure_threshold=1, **kwargs)
    saved = os.environ.get("REPRO_QUARANTINE_DIR")
    with tempfile.TemporaryDirectory(prefix="r5-quarantine-") as qdir:
        os.environ["REPRO_QUARANTINE_DIR"] = qdir
        try:
            with runner:
                result = runner.run(job, grid)
            return RunOutcome(result, None, read_quarantine(qdir))
        except Exception as exc:
            return RunOutcome(None, exc, read_quarantine(qdir))
        finally:
            if saved is None:
                os.environ.pop("REPRO_QUARANTINE_DIR", None)
            else:
                os.environ["REPRO_QUARANTINE_DIR"] = saved


def _classify(serial: RunOutcome, parallel: RunOutcome,
              baseline) -> str:
    """Where the scenario landed: identical / reexecuted / failed / DRIFT."""
    if (serial.error is None) != (parallel.error is None):
        return "DRIFT"
    if serial.quarantine != parallel.quarantine:
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
    if (serial.counter(C.HOSTS_LOST) > 0
            or serial.counter(C.MAPS_REEXECUTED) > 0):
        return "reexecuted"
    return "identical"


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R5 host-chaos matrix; returns the scenario table."""
    side = scaled(1000, 0.048, minimum=24)
    # Three hosts spread the 3 maps as host1:{m00000} host2:{m00001,
    # m00002} (stable hash), so there is both a cheap host to crash and
    # a populated one to partition / disk-fail.
    num_map_tasks, num_reducers, num_hosts = 3, 2, 3
    grid = integer_grid((side, side), seed=11)

    if num_fuzz is None:
        num_fuzz = int(os.environ.get("REPRO_R5_FUZZ", "3"))
    if seconds is None:
        seconds = float(os.environ.get("REPRO_R5_SECONDS", "120"))
    t0 = time.monotonic()

    result = ExperimentResult(
        experiment="R5",
        title="Host failure domains: crashes, partitions, and disk "
              "failover",
        columns=["scenario", "query", "transport", "fault", "hosts_lost",
                 "host_reexecs", "failovers", "retries", "quarantine",
                 "outcome"],
    )

    def shuffle_config(transport: str) -> ShuffleConfig:
        return ShuffleConfig(
            transport=transport, fetch_retries=2, fetch_timeout=2.0,
            backoff=0.005, backoff_max=0.02,
            wire_codec="fastpred+zlib" if transport == "network" else "null",
            num_servers=num_hosts)

    # Which simulated host holds which completed maps (stable hash).
    map_ids = [f"m{i:05d}" for i in range(num_map_tasks)]
    maps_on = {h: [m for m in map_ids if host_for(m, num_hosts) == h]
               for h in (f"host{i}" for i in range(num_hosts))}
    # A host whose loss stays inside the default budget of 2 maps, and
    # one that definitely holds at least one map (for the bounded row).
    crashable = min((h for h, ms in maps_on.items() if 0 < len(ms) <= 2),
                    key=lambda h: (len(maps_on[h]), h))
    populated = max(maps_on, key=lambda h: (len(maps_on[h]), h))

    baselines = {}
    for query in _QUERIES:
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        baselines[query] = LocalJobRunner().run(job, grid)

    def add_row(scenario: str, query: str, transport: str,
                fault_label: str, plan, max_host_reexecs: int = 2,
                expect=None) -> None:
        cfg = shuffle_config(transport)
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        serial = _run_one("serial", grid, job, cfg, plan(),
                          num_hosts=num_hosts,
                          max_host_reexecs=max_host_reexecs)
        parallel = _run_one("parallel", grid, job, cfg, plan(),
                            num_hosts=num_hosts,
                            max_host_reexecs=max_host_reexecs)
        outcome = _classify(serial, parallel, baselines[query])
        if expect is not None and outcome != "DRIFT" and outcome != expect:
            outcome = "DRIFT"
        result.add(scenario=scenario, query=query, transport=transport,
                   fault=fault_label,
                   hosts_lost=serial.counter(C.HOSTS_LOST),
                   host_reexecs=serial.counter(C.MAPS_REEXECUTED_HOST),
                   failovers=serial.counter(C.DISK_FAILOVERS),
                   retries=serial.counter(C.SHUFFLE_RETRIES),
                   quarantine=len(serial.quarantine),
                   outcome=outcome)

    # -- clean equivalence with monitoring always on ----------------------
    for transport in _TRANSPORTS:
        query = _QUERIES[_TRANSPORTS.index(transport) % len(_QUERIES)]
        cfg = shuffle_config(transport)
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        serial = _run_one("serial", grid, job, cfg, None,
                          num_hosts=num_hosts)
        parallel = _run_one("parallel", grid, job, cfg, None,
                            num_hosts=num_hosts)
        outcome = _classify(serial, parallel, baselines[query])
        # The clean path must not retry, fail over, or lose anything.
        if outcome == "identical" and (
                serial.counter(C.SHUFFLE_RETRIES)
                or serial.counter(C.HOSTS_LOST)
                or serial.counter(C.DISK_FAILOVERS)):
            outcome = "DRIFT"
        result.add(scenario="clean-monitored", query=query,
                   transport=transport, fault="none",
                   hosts_lost=serial.counter(C.HOSTS_LOST),
                   host_reexecs=serial.counter(C.MAPS_REEXECUTED_HOST),
                   failovers=serial.counter(C.DISK_FAILOVERS),
                   retries=serial.counter(C.SHUFFLE_RETRIES),
                   quarantine=len(serial.quarantine),
                   outcome=outcome)

    # -- whole-host crash at the shuffle barrier --------------------------
    for transport in _TRANSPORTS:
        add_row("host-crash", "subset-plain", transport,
                f"crash {crashable} ({len(maps_on[crashable])} maps)",
                lambda: FaultInjector().host_crash(crashable),
                expect="reexecuted")

    # -- network partition: drops heal in-attempt, host stays alive -------
    for transport in _TRANSPORTS:
        add_row("host-partition", "histogram", transport,
                f"partition {populated} (2 drops/link)",
                lambda: FaultInjector().host_partition(populated, drops=2),
                expect="identical")

    # -- disk failure: spare-volume failover + quarantine -----------------
    for transport, op in (("direct", "enospc"), ("channel", "eio"),
                          ("network", "enospc")):
        add_row("disk-fault", "subset-agg", transport,
                f"{op} on {populated}",
                lambda op=op: FaultInjector().disk_fault(populated, op=op),
                expect="identical")

    # -- compound: crash one host while the other's disk is failing -------
    other = next(h for h in maps_on if h != crashable)
    add_row("compound", "subset-plain", "network",
            f"crash {crashable} + enospc on {other}",
            lambda: (FaultInjector().host_crash(crashable)
                     .disk_fault(other, op="enospc")),
            expect="reexecuted")

    # -- bounded: a zero re-execution budget fails the job cleanly --------
    add_row("bounded", "subset-plain", "direct",
            f"crash {populated}, max_host_reexecs=0",
            lambda: FaultInjector().host_crash(populated),
            max_host_reexecs=0, expect="failed")

    # -- seeded fuzz tail --------------------------------------------------
    rng = make_rng(5000)
    ran = 0
    for seed in range(num_fuzz):
        if time.monotonic() - t0 > seconds:
            break
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        transport = _TRANSPORTS[rng.integers(0, len(_TRANSPORTS))]
        kind = _HOST_FAULTS[rng.integers(0, len(_HOST_FAULTS))]
        host = f"host{rng.integers(0, num_hosts)}"
        op = ("enospc", "eio")[rng.integers(0, 2)]
        drops = int(rng.integers(1, 3))
        if kind == "host_crash" and len(maps_on[host]) > 2:
            host = crashable  # stay inside the default budget

        def fuzz_plan(kind=kind, host=host, op=op, drops=drops):
            inj = FaultInjector()
            if kind == "host_crash":
                inj.host_crash(host)
            elif kind == "host_partition":
                inj.host_partition(host, drops=drops)
            else:
                inj.disk_fault(host, op=op)
            return inj
        detail = {"host_crash": f"crash {host}",
                  "host_partition": f"partition {host} ({drops} drops)",
                  "disk_fault": f"{op} on {host}"}[kind]
        add_row(f"fuzz-{seed}", query, transport, detail, fuzz_plan)
        ran += 1

    result.note(f"grid {side}x{side}, {num_map_tasks} maps x "
                f"{num_reducers} reducers over {num_hosts} hosts; fuzz "
                f"tail ran {ran}/{num_fuzz} seeds in "
                f"{time.monotonic() - t0:.1f}s")
    result.note("hosts_lost/host_reexecs/failovers/retries are the serial "
                "run's HOSTS_LOST / MAPS_REEXECUTED_HOST / DISK_FAILOVERS "
                "/ SHUFFLE_RETRIES; quarantine counts the disk side-files, "
                "which must be byte-identical between runners")
    result.note("outcome=identical: byte-identical output and stable "
                "counters vs the serial/direct baseline, runners agreeing "
                "on everything including the host counters")
    return result
