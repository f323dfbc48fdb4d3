"""Pluggable shuffle transport: how reducers fetch map-output segments.

Reducers used to ``open()`` map-output IFiles directly, so the
map->reduce hop -- the link the paper compresses, and the one Hadoop
treats as its most fragile phase -- could never fail.  This module
makes the transfer a first-class, failable step:

* :class:`SegmentRef` names one partition segment (producing map task,
  path, byte stats, and an *epoch* that bumps when the scheduler
  re-executes the producer);
* a **transport** moves one segment's bytes: :class:`DirectTransport`
  reads the file (byte-identical, zero overhead), while
  :class:`~repro.mapreduce.runtime.netshuffle.NetworkTransport` fetches
  it from a per-worker TCP segment server (with an optional on-the-wire
  codec -- §III's key compression measured as network bytes) whose
  stream a :class:`~repro.mapreduce.runtime.fault.FaultInjector`
  ``fetch`` fault can drop, delay, stall, truncate, or bit-flip in
  flight;
* the :class:`ShuffleFetcher` fetches one segment at a time, on the
  reduce task's own thread, with per-fetch deadlines, capped
  exponential backoff with deterministic jitter
  (:mod:`repro.util.backoff`), and ``SHUFFLE_*`` counter accounting.
  A segment that stays unfetchable raises :class:`FetchFailedError`
  naming the producing map task -- the signal the scheduler's
  fetch-failure accounting turns into map re-execution (Hadoop's "too
  many fetch failures" protocol).

The failure ladder this module adds, from cheapest rung up: fetch retry
(with backoff) -> reduce-attempt requeue (uncharged against the retry
budget) -> re-execution of the *completed* source map task.  Transfer
damage is the transport's to detect (frame and segment CRCs); damage
at rest still surfaces as decode-time :class:`~repro.mapreduce.ifile.
IFileCorruptError` and takes the existing repair/skipping rungs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import settings
from repro.mapreduce.ifile import IFileStats
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime.fault import Fault
from repro.mapreduce.runtime.memory import MemoryBudget
from repro.settings import ConfigError
from repro.util.backoff import backoff_delay
from repro.util.timing import Deadline

__all__ = [
    "SegmentRef",
    "ShuffleConfig",
    "ConfigError",
    "FetchFailedError",
    "TransientFetchError",
    "DirectTransport",
    "ShuffleFetcher",
    "make_transport",
    "select_fetch_fault",
    "shuffle_config_from_env",
    "TRANSPORTS",
]

TRANSPORTS = settings.get("REPRO_TRANSPORT").choices


@dataclass(frozen=True)
class SegmentRef:
    """One map-output partition segment, as a reducer addresses it."""

    map_id: str
    path: str
    stats: IFileStats
    #: generation counter: 0 for the original map execution, bumped each
    #: time the scheduler re-executes the producer (old epochs' faults
    #: no longer match, which is what models "re-execution fixed it")
    epoch: int = 0
    #: ``(host, port)`` of the segment server holding this segment, for
    #: the network transport (``None`` for in-process transports).
    #: Addresses ride on refs rather than on the config so a map
    #: re-execution naturally re-points waiting reducers at the
    #: (possibly re-spawned) server.
    address: tuple[str, int] | None = None

    @classmethod
    def from_pair(cls, pair: "tuple[str, IFileStats] | SegmentRef",
                  epoch: int = 0) -> "SegmentRef":
        """Adopt the legacy ``(path, stats)`` segment tuple."""
        if isinstance(pair, cls):
            return pair
        path, stats = pair
        name = os.path.basename(path)
        return cls(map_id=name.split("-out-")[0], path=path, stats=stats,
                   epoch=epoch)


@dataclass(frozen=True)
class ShuffleConfig:
    """Picklable knobs for the reduce-side shuffle (rides into workers)."""

    transport: str = settings.default("REPRO_TRANSPORT")
    #: extra fetch attempts per segment after the first failure
    fetch_retries: int = settings.default("REPRO_FETCH_RETRIES")
    #: per-fetch-attempt deadline in seconds (None = no deadline)
    fetch_timeout: float | None = settings.default("REPRO_FETCH_TIMEOUT")
    #: base/cap for the capped, jittered inter-attempt backoff
    backoff: float = 0.02
    backoff_max: float = 0.25
    #: accepted and validated (>= 1) for callers that still pass it,
    #: but selects nothing: a reduce task fetches one segment at a time
    concurrency: int = 4
    #: wire frame size (bytes of segment per CRC-framed chunk)
    chunk_bytes: int = 64 * 1024
    #: codec segment bytes are compressed with *on the wire* (network
    #: transport only; "null" serves segments verbatim via sendfile)
    wire_codec: str = settings.default("REPRO_WIRE_CODEC")
    #: first TCP port for the network shuffle servers (None = ephemeral)
    port_base: int | None = settings.default("REPRO_SHUFFLE_PORT_BASE")
    #: how many segment servers the service spreads map outputs across
    num_servers: int = 2
    #: concurrent requests one segment server will serve; further
    #: connections queue in the listen backlog (server-side backpressure)
    server_concurrency: int = 8
    #: pipelined shuffle: reducers start alongside maps and fetch each
    #: segment as its producing map commits, instead of waiting at the
    #: map->reduce barrier (output stays byte-identical either way)
    pipeline: bool = settings.default("REPRO_PIPELINE")
    #: with pipelining on, a reducer starved on at most this many
    #: missing map outputs asks the scheduler to speculate them
    starvation_threshold: int = settings.default(
        "REPRO_STARVATION_THRESHOLD")
    #: per-task memory ledger capacity in bytes (None = accounting
    #: only).  An enforced charge past this raises ``MemoryError`` and
    #: triggers the runners' degrade-on-retry ladder.
    memory_budget: int | None = settings.default("REPRO_MEMORY_BUDGET")
    #: how many OOM-dead attempts of one task the degrade ladder
    #: absorbs (each retry halves the sort buffer)
    max_memory_retries: int = settings.default(
        "REPRO_MAX_MEMORY_RETRIES")

    def __post_init__(self) -> None:
        # the env-backed fields are bounded by their REPRO_* entries
        settings.check_fields(self)
        if not self.wire_codec:
            raise ValueError("wire_codec must be a codec name")
        if self.backoff < 0 or self.backoff_max < 0:
            raise ValueError("backoff and backoff_max must be >= 0")
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}")
        if self.chunk_bytes < 256:
            raise ValueError(
                f"chunk_bytes must be >= 256, got {self.chunk_bytes}")
        if self.num_servers < 1:
            raise ValueError(
                f"num_servers must be >= 1, got {self.num_servers}")
        if self.server_concurrency < 1:
            raise ValueError(
                f"server_concurrency must be >= 1, "
                f"got {self.server_concurrency}")


def shuffle_config_from_env() -> ShuffleConfig | None:
    """A :class:`ShuffleConfig` from the ``REPRO_*`` knobs that fill its
    fields (:mod:`repro.settings`), or ``None`` when none of them is set
    (runner default applies).  A malformed or out-of-range value raises
    :class:`ConfigError` naming the variable."""
    fields = settings.read_fields(ShuffleConfig)
    return ShuffleConfig(**fields) if fields else None


class TransientFetchError(RuntimeError):
    """One fetch attempt failed in a way a retry may fix.

    ``bytes_received`` is how much crossed the wire before the error,
    for ``SHUFFLE_BYTES_TRANSFERRED`` accounting.
    """

    def __init__(self, message: str, bytes_received: int = 0) -> None:
        super().__init__(message)
        self.bytes_received = bytes_received


class FetchFailedError(RuntimeError):
    """A segment stayed unfetchable through the whole retry budget.

    Names the producing map task so the scheduler can charge the
    (map, reduce) link and, past the threshold, re-execute the map.
    Deliberately *not* skip-eligible: record skipping salvages damaged
    data, but a failed transfer has no data to salvage around.
    """

    def __init__(self, map_id: str, reduce_id: str, attempts: int,
                 detail: str) -> None:
        super().__init__(
            f"fetch of {map_id} -> {reduce_id} failed after "
            f"{attempts} attempt(s): {detail}")
        self.map_id = map_id
        self.reduce_id = reduce_id
        self.attempts = attempts
        self.detail = detail


def select_fetch_fault(faults: Sequence[Fault], attempt: int,
                       epoch: int) -> Fault | None:
    """The planned fault for one fetch attempt of one segment epoch.

    Mirrors :meth:`FaultInjector.fault_for` semantics: an exact attempt
    anchor wins; otherwise the most recently anchored sticky fault at or
    before this attempt applies.  Faults scoped to another epoch never
    match -- re-executed segments escape their predecessor's faults.
    """
    best: Fault | None = None
    for fault in faults:
        if fault.epoch is not None and fault.epoch != epoch:
            continue
        if fault.attempt == attempt:
            return fault
        if fault.sticky and fault.attempt <= attempt:
            if best is None or fault.attempt > best.attempt:
                best = fault
    return best


class DirectTransport:
    """Read the segment file from shared disk -- today's shuffle,
    byte-identical.  There is no wire, so only *connection-level* fetch
    faults apply: ``drop`` (the read is refused outright -- how a host
    partition looks from a shared-disk reducer), ``delay`` (late but
    intact) and ``stall`` (hangs until the fetch deadline).  Payload
    damage ops (``flip``/``truncate``) are meaningless without a frame
    stream and are ignored.  With no faults planned (the default) the
    fetch is a plain file read, zero overhead."""

    def __init__(self,
                 faults: Mapping[str, Sequence[Fault]] | None = None) -> None:
        self.faults = dict(faults) if faults else {}

    def fetch(self, ref: SegmentRef, attempt: int,
              deadline: Deadline) -> bytes:
        if self.faults:
            fault = select_fetch_fault(self.faults.get(ref.map_id, ()),
                                       attempt, ref.epoch)
            if fault is not None:
                if fault.op == "drop":
                    raise TransientFetchError(
                        f"connection to {ref.map_id}'s host refused")
                if fault.op == "delay":
                    deadline.sleep(fault.seconds)
                    if deadline.expired():
                        raise TransientFetchError(
                            f"fetch deadline expired waiting "
                            f"{fault.seconds:.3f}s for a delayed read")
                elif fault.op == "stall":
                    remaining = deadline.remaining()
                    time.sleep(fault.seconds if remaining is None
                               else min(fault.seconds, remaining))
                    raise TransientFetchError(
                        "read stalled; fetch timed out")
        with open(ref.path, "rb") as fh:
            return fh.read()


def make_transport(config: ShuffleConfig,
                   fetch_faults: Mapping[str, Sequence[Fault]] | None = None,
                   counter_sink=None, reduce_id: str = "",
                   memory: MemoryBudget | None = None):
    """Instantiate the transport ``config`` names.

    ``counter_sink(name, amount)`` receives wire-level byte counters
    from transports that measure them (the network transport); the
    direct transport ignores it.  ``reduce_id`` identifies the
    fetching reduce task on the wire (servers key their fault plan by
    the ``map->reduce`` pair).  ``memory`` (the task ledger) lets the
    network transport account its decompress-time transient under the
    ``"wire"`` site.  The network transport ignores ``fetch_faults``:
    wire faults are applied *server-side*, by the
    :class:`~repro.mapreduce.runtime.netshuffle.ShuffleService`.
    """
    if config.transport == "direct":
        return DirectTransport(fetch_faults)
    # Lazy import: netshuffle imports this module's ref/error types.
    from repro.mapreduce.runtime.netshuffle import NetworkTransport
    return NetworkTransport(config, counter_sink=counter_sink,
                            reduce_id=reduce_id, memory=memory)


class ShuffleFetcher:
    """Reduce-side fetch loop: one segment at a time, deadlines, retries.

    A reduce task fetches each segment on its own thread and decodes it
    before asking for the next, so at most one transfer is in flight and
    the blobs it holds never depend on the host's CPU count.  ``memory``
    (the task's :class:`~repro.mapreduce.runtime.memory.MemoryBudget`,
    if any) sees that transfer's priced bytes under the ``"fetch"``
    site -- where ``oom`` faults and threshold kills are applied -- as a
    *forced* charge, released when the transfer ends.

    One fetcher serves a reduce task for its whole fetch phase, so
    pooled connections are reused across segments; the task calls
    :meth:`close` once, when it stops fetching.
    """

    def __init__(
        self,
        config: ShuffleConfig,
        counters: Counters,
        reduce_id: str,
        fetch_faults: Mapping[str, Sequence[Fault]] | None = None,
        memory: MemoryBudget | None = None,
    ) -> None:
        self.config = config
        self.counters = counters
        self.reduce_id = reduce_id
        self.memory = memory
        self.transport = make_transport(config, fetch_faults,
                                        counter_sink=counters.incr,
                                        reduce_id=reduce_id,
                                        memory=memory)

    def fetch_all(self, refs: Sequence[SegmentRef]) -> list[bytes]:
        """Every segment's blob, **in input order**, fetched one at a
        time.  Raises :class:`FetchFailedError` from the first segment
        that exhausts its retry budget."""
        return [self.fetch_one(ref) for ref in refs]

    def close(self) -> None:
        """Release pooled transport connections (idempotent)."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    def fetch_one(self, ref: SegmentRef) -> bytes:
        """Fetch one segment through the full retry ladder, charged to
        the task ledger's ``"fetch"`` site (priced from its materialized
        size) while it is in transfer."""
        price = max(1, ref.stats.materialized_bytes)
        if self.memory is not None:
            self.memory.charge(price, site="fetch", force=True)
        try:
            return self._fetch_with_retries(ref)
        finally:
            if self.memory is not None:
                self.memory.release(price, site="fetch")

    def _fetch_with_retries(self, ref: SegmentRef) -> bytes:
        last = "no attempts made"
        incr = self.counters.incr
        for attempt in range(self.config.fetch_retries + 1):
            if attempt > 0:
                incr(C.SHUFFLE_RETRIES)
                time.sleep(backoff_delay(
                    self.config.backoff, attempt, self.config.backoff_max,
                    key=f"{self.reduce_id}:{ref.map_id}:{ref.epoch}"))
            incr(C.SHUFFLE_FETCHES)
            deadline = Deadline(self.config.fetch_timeout)
            try:
                blob = self.transport.fetch(ref, attempt, deadline)
            except FileNotFoundError as exc:
                # The segment is *gone* (invalidated or lost): no retry
                # of this epoch can succeed, so escalate immediately.
                incr(C.SHUFFLE_FAILED_FETCHES)
                raise FetchFailedError(
                    ref.map_id, self.reduce_id, attempt + 1,
                    f"segment missing: {exc}") from exc
            except TransientFetchError as exc:
                incr(C.SHUFFLE_FAILED_FETCHES)
                incr(C.SHUFFLE_BYTES_TRANSFERRED, exc.bytes_received)
                last = str(exc)
                continue
            incr(C.SHUFFLE_BYTES_TRANSFERRED, len(blob))
            return blob
        raise FetchFailedError(ref.map_id, self.reduce_id,
                               self.config.fetch_retries + 1, last)
