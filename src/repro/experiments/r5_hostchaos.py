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

from repro.experiments.common import ExperimentResult, scaled
from repro.experiments.matrix import (
    Matrix,
    Scenario,
    build_query_job,
    fuzz_budget,
)
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import FaultInjector, ShuffleConfig, host_for
from repro.scidata.generator import integer_grid

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: shuffle transports the host faults are exercised over
_TRANSPORTS = ("direct", "network")
#: host-level fault kinds the fuzz tail draws from
_HOST_FAULTS = ("host_crash", "host_partition", "disk_fault")
#: three hosts spread the 3 maps as host1:{m00000} host2:{m00001,
#: m00002} (stable hash), so there is both a cheap host to crash and a
#: populated one to partition / disk-fail
_NUM_HOSTS = 3
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


def _shuffle(transport: str) -> ShuffleConfig:
    return ShuffleConfig(
        transport=transport, fetch_retries=2, fetch_timeout=2.0,
        backoff=0.005, backoff_max=0.02,
        wire_codec="fastpred+zlib" if transport == "network" else "null",
        num_servers=_NUM_HOSTS)


def _row(sc: Scenario, runs) -> dict:
    first = runs[0]
    return {"transport": sc.shuffle.transport,
            "hosts_lost": first.counter(C.HOSTS_LOST),
            "host_reexecs": first.counter(C.MAPS_REEXECUTED_HOST),
            "failovers": first.counter(C.DISK_FAILOVERS),
            "retries": first.counter(C.SHUFFLE_RETRIES),
            "quarantine": len(first.quarantine)}


def _quiet(serial, parallel) -> bool:
    """The clean path retried, lost and failed over nothing."""
    return not (serial.counter(C.SHUFFLE_RETRIES)
                or serial.counter(C.HOSTS_LOST)
                or serial.counter(C.DISK_FAILOVERS))


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R5 host-chaos matrix; returns the scenario table."""
    budget = fuzz_budget("R5", num_fuzz, seconds)
    side = scaled(1000, 0.048, minimum=24)
    num_map_tasks, num_reducers = 3, 2
    grid = integer_grid((side, side), seed=11)
    m = Matrix(
        ExperimentResult(
            experiment="R5",
            title="Host failure domains: crashes, partitions, and disk "
                  "failover",
            columns=["scenario", "query", "transport", "fault",
                     "hosts_lost", "host_reexecs", "failovers", "retries",
                     "quarantine", "outcome"]),
        grid,
        lambda query, qdir, **fields: build_query_job(
            grid, query, side, num_map_tasks, num_reducers, **fields),
        _row, volatile=_VOLATILE,
        promote=[(C.HOSTS_LOST, "reexecuted"),
                 (C.MAPS_REEXECUTED, "reexecuted")],
        runner={"fetch_failure_threshold": 1, "num_hosts": _NUM_HOSTS,
                "max_host_reexecs": 2})

    # Which simulated host holds which completed maps (stable hash).
    map_ids = [f"m{i:05d}" for i in range(num_map_tasks)]
    maps_on = {h: [m for m in map_ids if host_for(m, _NUM_HOSTS) == h]
               for h in (f"host{i}" for i in range(_NUM_HOSTS))}
    # A host whose loss stays inside the default budget of 2 maps, and
    # one that definitely holds at least one map (for the bounded row).
    crashable = min((h for h, ms in maps_on.items() if 0 < len(ms) <= 2),
                    key=lambda h: (len(maps_on[h]), h))
    populated = max(maps_on, key=lambda h: (len(maps_on[h]), h))
    other = next(h for h in maps_on if h != crashable)

    for transport, query in zip(_TRANSPORTS, ("subset-plain", "histogram")):
        m.add(Scenario("clean-monitored", query, shuffle=_shuffle(transport),
                       check=_quiet))
    for transport in _TRANSPORTS:
        m.add(Scenario(
            "host-crash", "subset-plain",
            f"crash {crashable} ({len(maps_on[crashable])} maps)",
            lambda: FaultInjector().host_crash(crashable),
            _shuffle(transport), expect="reexecuted"))
    for transport in _TRANSPORTS:
        m.add(Scenario(
            "host-partition", "histogram",
            f"partition {populated} (2 drops/link)",
            lambda: FaultInjector().host_partition(populated, drops=2),
            _shuffle(transport), expect="identical"))
    for transport, op in (("direct", "enospc"), ("network", "eio"),
                          ("network", "enospc")):
        m.add(Scenario(
            "disk-fault", "subset-agg", f"{op} on {populated}",
            lambda op=op: FaultInjector().disk_fault(populated, op=op),
            _shuffle(transport), expect="identical"))
    m.add(Scenario(
        "compound", "subset-plain", f"crash {crashable} + enospc on {other}",
        lambda: (FaultInjector().host_crash(crashable)
                 .disk_fault(other, op="enospc")),
        _shuffle("network"), expect="reexecuted"))
    m.add(Scenario(
        "bounded", "subset-plain", f"crash {populated}, max_host_reexecs=0",
        lambda: FaultInjector().host_crash(populated), _shuffle("direct"),
        expect="failed", runner={"max_host_reexecs": 0}))

    def draw(rng, i: int) -> Scenario:
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        transport = _TRANSPORTS[rng.integers(0, len(_TRANSPORTS))]
        kind = _HOST_FAULTS[rng.integers(0, len(_HOST_FAULTS))]
        host = f"host{rng.integers(0, _NUM_HOSTS)}"
        op = ("enospc", "eio")[rng.integers(0, 2)]
        drops = int(rng.integers(1, 3))
        if kind == "host_crash" and len(maps_on[host]) > 2:
            host = crashable  # stay inside the default budget
        plan, detail = {
            "host_crash": (lambda: FaultInjector().host_crash(host),
                           f"crash {host}"),
            "host_partition": (
                lambda: FaultInjector().host_partition(host, drops=drops),
                f"partition {host} ({drops} drops)"),
            "disk_fault": (lambda: FaultInjector().disk_fault(host, op=op),
                           f"{op} on {host}"),
        }[kind]
        return Scenario(f"fuzz-{i}", query, detail, plan,
                        _shuffle(transport))

    m.fuzz(draw, 5000, budget)
    return m.finish(
        f"grid {side}x{side}, {num_map_tasks} maps x {num_reducers} "
        f"reducers over {_NUM_HOSTS} hosts",
        "hosts_lost/host_reexecs/failovers/retries are the serial run's "
        "HOSTS_LOST / MAPS_REEXECUTED_HOST / DISK_FAILOVERS / "
        "SHUFFLE_RETRIES; quarantine counts the disk side-files, which "
        "must be byte-identical between runners",
        "outcome=identical: byte-identical output and stable counters vs "
        "the serial/direct baseline, runners agreeing on everything "
        "including the host counters")
