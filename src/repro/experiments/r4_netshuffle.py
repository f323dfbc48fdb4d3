"""R4 -- network shuffle: socket segment servers and wire compression.

Not a paper figure: this is R3's shuffle-robustness matrix moved onto a
real network hop.  Map outputs are served by per-worker TCP segment
servers (:mod:`repro.mapreduce.runtime.netshuffle`) and reducers fetch
them over loopback sockets, optionally compressing segment bytes *on
the wire* with any registered codec -- including the paper's §III
stride-predictor transform.  Pinned here:

* **wire compression** -- one serial run per codec over the network
  transport; ``SHUFFLE_WIRE_BYTES`` (bytes that crossed the socket)
  versus ``SHUFFLE_WIRE_BYTES_UNCOMPRESSED`` (decoded segment bytes)
  gives the measured on-the-wire reduction, and every codec's output
  must stay byte-identical to the serial/direct baseline;
* **clean equivalence** -- queries x runners over the network
  transport are byte-identical to the baseline, counters included
  (the wire counters themselves must agree between runners: the
  framing is deterministic);
* **wire faults against a live socket** -- flips, drops, truncations,
  delays, and stalls are injected *server-side* while bytes stream;
  retries heal them and the output never changes;
* **epoch escalation** -- a sticky epoch-0 fault drives map
  re-execution through the PR 5 ladder unchanged: the service drains
  the doomed map (in-flight requests get a clean STALE_EPOCH), the
  fresh epoch is re-registered, and the job completes identically;
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
from repro.mapreduce.runtime.ledger import MapOutputLedger
from repro.mapreduce.runtime.netshuffle import ShuffleService
from repro.scidata.generator import integer_grid
from repro.util.rng import make_rng

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


def _run_one(runner_name: str, grid, job, shuffle: ShuffleConfig,
             injector: FaultInjector | None,
             runner_cls=None) -> RunOutcome:
    kwargs: dict = {"shuffle": shuffle, "fault_injector": injector}
    if runner_name == "serial":
        runner = (runner_cls or LocalJobRunner)(
            fetch_failure_threshold=1, **kwargs)
    else:
        runner = ParallelJobRunner(
            max_workers=2, speculation=False, retry_backoff=0.01,
            fetch_failure_threshold=1, **kwargs)
    try:
        with runner:
            return RunOutcome(runner.run(job, grid), None)
    except Exception as exc:
        return RunOutcome(None, exc)


def _classify(serial: RunOutcome, parallel: RunOutcome,
              baseline) -> str:
    """Where the scenario landed: identical / reexecuted / failed / DRIFT."""
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


def run(num_fuzz: int | None = None,
        seconds: float | None = None) -> ExperimentResult:
    """Execute the R4 matrix; returns the scenario table."""
    side = scaled(1000, 0.048, minimum=24)
    num_map_tasks, num_reducers = 3, 2
    grid = integer_grid((side, side), seed=11)

    if num_fuzz is None:
        num_fuzz = int(os.environ.get("REPRO_R4_FUZZ", "3"))
    if seconds is None:
        seconds = float(os.environ.get("REPRO_R4_SECONDS", "120"))
    t0 = time.monotonic()

    result = ExperimentResult(
        experiment="R4",
        title="Network shuffle: segment servers, wire compression, and "
              "fault recovery",
        columns=["scenario", "query", "codec", "fault", "wire_bytes",
                 "raw_bytes", "saved", "retries", "reexecs", "outcome"],
    )

    #: fast-failing network config for fault scenarios
    def net_config(codec: str = "fastpred+zlib",
                   **overrides) -> ShuffleConfig:
        base = dict(transport="network", wire_codec=codec,
                    fetch_retries=2, fetch_timeout=2.0, backoff=0.005,
                    backoff_max=0.02)
        base.update(overrides)
        return ShuffleConfig(**base)

    baselines = {}
    for query in _QUERIES:
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        baselines[query] = LocalJobRunner().run(job, grid)

    def wire_cells(outcome: RunOutcome) -> dict:
        wire = outcome.counter(C.SHUFFLE_WIRE_BYTES)
        raw = outcome.counter(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED)
        saved = f"{100.0 * (1 - wire / raw):.1f}%" if raw else "-"
        return {"wire_bytes": wire, "raw_bytes": raw, "saved": saved}

    # -- wire compression: one serial network run per codec ---------------
    for codec in _WIRE_CODECS:
        job = build_query_job(grid, "subset-plain", side, num_map_tasks,
                              num_reducers)
        outcome = _run_one("serial", grid, job, net_config(codec), None)
        ok = (outcome.error is None
              and outcome.result.output == baselines["subset-plain"].output
              and (stable_counters(outcome.result, _VOLATILE)
                   == stable_counters(baselines["subset-plain"], _VOLATILE)))
        result.add(scenario="wire-codec", query="subset-plain",
                   codec=codec, fault="none", **wire_cells(outcome),
                   retries=outcome.counter(C.SHUFFLE_RETRIES),
                   reexecs=outcome.counter(C.MAPS_REEXECUTED),
                   outcome="identical" if ok else "DRIFT")

    # -- clean equivalence: queries x runners over the network ------------
    for query in _QUERIES:
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        shuffle = net_config()
        serial = _run_one("serial", grid, job, shuffle, None)
        parallel = _run_one("parallel", grid, job, shuffle, None)
        outcome = _classify(serial, parallel, baselines[query])
        # Clean runs must also move each segment exactly once: the fetch
        # accounting matches the direct baseline even though the bytes
        # now cross a socket.
        if outcome == "identical" and (
                serial.counter(C.SHUFFLE_FETCHES)
                != baselines[query].counters.get(C.SHUFFLE_FETCHES)
                or serial.counter(C.SHUFFLE_RETRIES)):
            outcome = "DRIFT"
        result.add(scenario="clean-network", query=query,
                   codec="fastpred+zlib", fault="none",
                   **wire_cells(serial),
                   retries=serial.counter(C.SHUFFLE_RETRIES),
                   reexecs=serial.counter(C.MAPS_REEXECUTED),
                   outcome=outcome)

    def fault_scenario(scenario: str, query: str, fault_label: str,
                       plan, config: ShuffleConfig | None = None) -> None:
        cfg = config or net_config()
        job = build_query_job(grid, query, side, num_map_tasks, num_reducers)
        serial = _run_one("serial", grid, job, cfg, plan())
        parallel = _run_one("parallel", grid, job, cfg, plan())
        result.add(scenario=scenario, query=query, codec=cfg.wire_codec,
                   fault=fault_label, **wire_cells(serial),
                   retries=serial.counter(C.SHUFFLE_RETRIES),
                   reexecs=serial.counter(C.MAPS_REEXECUTED),
                   outcome=_classify(serial, parallel, baselines[query]))

    # -- wire faults against a live socket, retry heals -------------------
    for op in _FUZZ_OPS:
        def plan(op=op):
            inj = FaultInjector()
            inj.fetch("m00001", "r00000", op=op, attempt=0, seconds=0.1)
            return inj
        fault_scenario(f"wire-{op}", "subset-plain",
                       f"{op} m00001->r00000#0", plan)

    # -- sticky epoch-0 fault: drain, re-execute, re-register -------------
    def reexec_plan():
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", op="flip", attempt=0, sticky=True,
                  epoch=0)
        return inj
    fault_scenario("reexec-map", "subset-plain",
                   "sticky flip m00000->r00000 (epoch 0)", reexec_plan)

    # -- server loss: kill one segment server mid-job (serial ladder) -----
    job = build_query_job(grid, "subset-plain", side, num_map_tasks,
                          num_reducers)
    loss = _run_one("serial", grid, job, net_config(), None,
                    runner_cls=_ServerLossRunner)
    loss_ok = (loss.error is None
               and loss.result.output == baselines["subset-plain"].output
               and (stable_counters(loss.result, _VOLATILE)
                    == stable_counters(baselines["subset-plain"], _VOLATILE))
               and loss.counter(C.MAPS_REEXECUTED) > 0)
    result.add(scenario="server-loss", query="subset-plain",
               codec="fastpred+zlib",
               fault="kill segment server of m00001", **wire_cells(loss),
               retries=loss.counter(C.SHUFFLE_RETRIES),
               reexecs=loss.counter(C.MAPS_REEXECUTED),
               outcome="reexecuted" if loss_ok else "DRIFT")

    # -- seeded fuzz tail --------------------------------------------------
    rng = make_rng(4000)
    ran = 0
    for seed in range(num_fuzz):
        if time.monotonic() - t0 > seconds:
            break
        query = _QUERIES[rng.integers(0, len(_QUERIES))]
        op = _FUZZ_OPS[rng.integers(0, len(_FUZZ_OPS))]
        codec = _WIRE_CODECS[rng.integers(0, len(_WIRE_CODECS))]
        map_id = f"m{rng.integers(0, num_map_tasks):05d}"
        reduce_id = f"r{rng.integers(0, num_reducers):05d}"
        sticky = bool(rng.integers(0, 5) == 0)  # 20%: escalates to reexec

        def fuzz_plan(op=op, map_id=map_id, reduce_id=reduce_id,
                      sticky=sticky):
            inj = FaultInjector()
            inj.fetch(map_id, reduce_id, op=op, attempt=0,
                      sticky=sticky, seconds=0.1, epoch=0)
            return inj
        sticky_note = " sticky" if sticky else ""
        fault_scenario(f"fuzz-{seed}", query,
                       f"{op}{sticky_note} {map_id}->{reduce_id}",
                       fuzz_plan, config=net_config(codec))
        ran += 1

    result.note(f"grid {side}x{side}, {num_map_tasks} maps x "
                f"{num_reducers} reducers; fuzz tail ran {ran}/{num_fuzz} "
                f"seeds in {time.monotonic() - t0:.1f}s")
    result.note("wire_bytes = compressed bytes that crossed the socket "
                "(SHUFFLE_WIRE_BYTES); raw_bytes = decoded segment bytes "
                "(SHUFFLE_WIRE_BYTES_UNCOMPRESSED); faults are applied "
                "server-side while the bytes stream")
    result.note("outcome=identical: byte-identical output and stable "
                "counters vs the serial/direct baseline, runners agreeing "
                "on everything including the wire counters")
    return result
