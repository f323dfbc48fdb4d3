"""R4 -- the shuffle-transport matrix: fetch retries, map re-execution,
socket segment servers and wire compression.

Not a paper figure: this is the transfer-level robustness analogue of
R1 (process faults) and R2 (data faults).  Map outputs are served by
per-worker TCP segment servers (:mod:`repro.mapreduce.runtime.
netshuffle`) and reducers fetch them over loopback sockets, optionally
compressing segment bytes *on the wire* with any registered codec --
including the paper's §III stride-predictor transform.  Pinned here:

* **wire compression** -- one serial run per codec over the network
  transport; ``SHUFFLE_WIRE_BYTES`` (bytes that crossed the socket)
  versus ``SHUFFLE_WIRE_BYTES_UNCOMPRESSED`` (decoded segment bytes)
  gives the measured on-the-wire reduction, and every codec's output
  must stay byte-identical to the serial/direct baseline;
* **clean equivalence** -- queries x runners over the direct transport
  match the baseline's *full* counter set, ``SHUFFLE_*`` included; over
  the network they match it too, the wire counters agreeing between
  runners (the framing is deterministic) and each segment moving once;
* **wire faults against a live socket** -- flips, drops, truncations,
  delays, and stalls are injected *server-side* while bytes stream;
  retries heal them and the output never changes;
* **epoch escalation** -- a sticky epoch-0 fault drives map
  re-execution: the service drains the doomed map (in-flight requests
  get a clean STALE_EPOCH), the fresh epoch is re-registered, and the
  job completes identically (Hadoop's "too many fetch failures");
* **bounded escalation** -- a fault sticky across *all* epochs can
  never be out-run; both runners must fail the job (after
  ``max_map_reexecs``) rather than loop, and they must agree;
* **server loss** -- a segment server killed mid-job surfaces as
  connection-refused transients, escalates to map re-execution, and
  the re-registration revives the server on a fresh port -- the
  "worker host lost its shuffle server" scenario.

``REPRO_R4_FUZZ`` bounds the fuzz-tail seed count and
``REPRO_R4_SECONDS`` the wall clock.  The bench
(``benchmarks/bench_r4_netshuffle.py``) asserts no row reads DRIFT and
that the stride codec measurably shrinks the wire.
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
from repro.mapreduce.runtime import (
    FaultInjector,
    LocalJobRunner,
    ShuffleConfig,
)
from repro.mapreduce.runtime.ledger import MapOutputLedger
from repro.mapreduce.runtime.netshuffle import ShuffleService
from repro.scidata.generator import integer_grid

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: codecs compared on the wire (§III stride transform last)
_WIRE_CODECS = ("null", "zlib", "bz2", "fastpred+zlib")
#: wire damage ops the fuzz tail draws from
_FUZZ_OPS = ("flip", "drop", "truncate", "delay", "stall")
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
})


def _net(codec: str = "fastpred+zlib") -> ShuffleConfig:
    """The fast-failing network config every network row runs with."""
    return ShuffleConfig(transport="network", wire_codec=codec,
                         fetch_retries=2, fetch_timeout=2.0, backoff=0.005,
                         backoff_max=0.02)


class _ServerLossService(ShuffleService):
    """A service that loses ``doomed_map``'s server at first address use.

    The kill fires when the runner first resolves the doomed map's
    server address -- i.e. after registration, right before reducers
    start fetching -- so every fetch against that server sees
    connection-refused until map re-execution's re-registration
    revives it.
    """

    doomed_map = "m00001"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._loss_fired = False

    def address_for(self, map_id: str) -> tuple[str, int]:
        if not self._loss_fired and map_id == self.doomed_map:
            self._loss_fired = True
            self.kill_server(self.server_index(map_id))
        return super().address_for(map_id)


class _ServerLossLedger(MapOutputLedger):
    """A map-output ledger whose shuffle service loses a server mid-job."""

    def _make_service(self, shuffle, faults):
        return _ServerLossService.from_config(shuffle, faults=faults)


class _ServerLossRunner(LocalJobRunner):
    """Serial runner whose shuffle service suffers a mid-job server kill."""

    def _make_ledger(self, *args, **kwargs):
        return _ServerLossLedger(*args, **kwargs)


def _row(sc: Scenario, runs) -> dict:
    first = runs[0]
    wire = first.counter(C.SHUFFLE_WIRE_BYTES)
    raw = first.counter(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED)
    network = sc.shuffle is not None and sc.shuffle.transport == "network"
    return {"codec": sc.shuffle.wire_codec if network else "-",
            "wire_bytes": wire, "raw_bytes": raw,
            "saved": f"{100.0 * (1 - wire / raw):.1f}%" if raw else "-",
            "retries": first.counter(C.SHUFFLE_RETRIES),
            "reexecs": first.counter(C.MAPS_REEXECUTED)}


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R4 matrix; returns the scenario table."""
    budget = fuzz_budget("R4", num_fuzz, seconds)
    side = scaled(1000, 0.048, minimum=24)
    num_map_tasks, num_reducers = 3, 2
    grid = integer_grid((side, side), seed=11)
    m = Matrix(
        ExperimentResult(
            experiment="R4",
            title="Shuffle transport: segment servers, wire compression, "
                  "fetch retries, and map re-execution",
            columns=["scenario", "query", "codec", "fault", "wire_bytes",
                     "raw_bytes", "saved", "retries", "reexecs",
                     "outcome"]),
        grid,
        lambda query, qdir, **fields: build_query_job(
            grid, query, side, num_map_tasks, num_reducers, **fields),
        _row, volatile=_VOLATILE,
        promote=[(C.MAPS_REEXECUTED, "reexecuted")],
        runner={"fetch_failure_threshold": 1})

    for codec in _WIRE_CODECS:
        m.add(Scenario("wire-codec", "subset-plain", shuffle=_net(codec),
                       sides="serial", strict=False))
    # The direct clean path moves each segment exactly once, so even
    # the SHUFFLE_* counters match the baseline.
    for query in _QUERIES:
        m.add(Scenario(
            "clean-direct", query, shuffle=ShuffleConfig(),
            expect="identical",
            check=lambda s, p, q=query: (
                s.result.counters == m.baseline(q).counters)))
    # Over the network the fetch accounting still matches the direct
    # baseline even though the bytes now cross a socket.
    for query in _QUERIES:
        m.add(Scenario(
            "clean-network", query, shuffle=_net(), expect="identical",
            check=lambda s, p, q=query: (
                s.counter(C.SHUFFLE_FETCHES)
                == m.baseline(q).counters.get(C.SHUFFLE_FETCHES)
                and not s.counter(C.SHUFFLE_RETRIES))))
    for op in _FUZZ_OPS:
        m.add(Scenario(
            f"wire-{op}", "subset-plain", f"{op} m00001->r00000#0",
            lambda op=op: FaultInjector().fetch(
                "m00001", "r00000", op=op, attempt=0, seconds=0.1),
            _net()))
    m.add(Scenario(
        "reexec-map", "subset-plain", "sticky flip m00000->r00000 (epoch 0)",
        lambda: FaultInjector().fetch("m00000", "r00000", op="flip",
                                      attempt=0, sticky=True, epoch=0),
        _net()))
    m.add(Scenario(
        "unfetchable", "subset-plain",
        "sticky drop m00000->r00001 (all epochs)",
        lambda: FaultInjector().fetch("m00000", "r00001", op="drop",
                                      attempt=0, sticky=True, epoch=None),
        _net(), expect="failed"))
    m.add(Scenario("server-loss", "subset-plain",
                   "kill segment server of m00001", shuffle=_net(),
                   sides="serial", strict=False, expect="reexecuted",
                   serial_runner=_ServerLossRunner))

    def draw(rng, i: int) -> Scenario:
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        op = _FUZZ_OPS[rng.integers(0, len(_FUZZ_OPS))]
        codec = _WIRE_CODECS[rng.integers(0, len(_WIRE_CODECS))]
        map_id = f"m{rng.integers(0, num_map_tasks):05d}"
        reduce_id = f"r{rng.integers(0, num_reducers):05d}"
        sticky = bool(rng.integers(0, 5) == 0)  # 20%: escalates to reexec
        return Scenario(
            f"fuzz-{i}", query,
            f"{op}{' sticky' if sticky else ''} {map_id}->{reduce_id}",
            lambda: FaultInjector().fetch(map_id, reduce_id, op=op,
                                          attempt=0, sticky=sticky,
                                          seconds=0.1, epoch=0),
            _net(codec))

    m.fuzz(draw, 4000, budget)
    return m.finish(
        f"grid {side}x{side}, {num_map_tasks} maps x {num_reducers} "
        f"reducers",
        "wire_bytes = compressed bytes that crossed the socket "
        "(SHUFFLE_WIRE_BYTES); raw_bytes = decoded segment bytes "
        "(SHUFFLE_WIRE_BYTES_UNCOMPRESSED); faults are applied "
        "server-side while the bytes stream",
        "outcome=identical: byte-identical output and stable counters vs "
        "the serial/direct baseline, runners agreeing on everything "
        "including the wire counters (clean-direct rows: the baseline's "
        "full counter set)")
