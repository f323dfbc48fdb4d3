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
* the :class:`ShuffleFetcher` drives bounded-concurrency fetches with
  per-fetch deadlines, capped exponential backoff with deterministic
  jitter (:mod:`repro.util.backoff`), and ``SHUFFLE_*`` counter
  accounting.  A segment that stays unfetchable raises
  :class:`FetchFailedError` naming the producing map task -- the signal
  the scheduler's fetch-failure accounting turns into map re-execution
  (Hadoop's "too many fetch failures" protocol).

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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from threading import Lock
from typing import Mapping, Sequence

from repro import settings
from repro.mapreduce.ifile import IFileStats
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime import helpers
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
    #: concurrent in-flight fetches per reduce task
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
    #: byte-based fetch backpressure: cap on the summed priced size of
    #: in-flight fetches per reduce task (None = count-based
    #: ``concurrency`` only).  Admission of the next fetch waits on
    #: budget headroom, priced from :class:`SegmentRef` stats.
    max_inflight_bytes: int | None = settings.default(
        "REPRO_MAX_INFLIGHT_BYTES")
    #: per-task memory ledger capacity in bytes (None = accounting
    #: only).  An enforced charge past this raises ``MemoryError`` and
    #: triggers the runners' degrade-on-retry ladder.
    memory_budget: int | None = settings.default("REPRO_MEMORY_BUDGET")
    #: how many OOM-dead attempts of one task the degrade ladder
    #: absorbs (each retry halves the sort buffer / fetch window)
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
    """Reduce-side fetch loop: bounded concurrency, deadlines, retries.

    ``fetch_all`` returns segment blobs **in input order** regardless of
    completion order, so downstream merge behavior -- and therefore
    output bytes -- never depends on scheduling.  Counter totals are
    order-independent sums, guarded by a lock (fetches run on threads).

    With ``config.max_inflight_bytes`` set, admission of the next fetch
    additionally waits on *byte* headroom: each fetch is priced from its
    ref's :class:`~repro.mapreduce.ifile.IFileStats` before being
    issued and charged against a window budget until its transfer
    completes.  ``memory`` (the task's :class:`~repro.mapreduce.runtime.
    memory.MemoryBudget`, if any) sees the same in-flight charges under
    the ``"fetch"`` site -- where ``oom`` faults and threshold kills
    are applied -- as *forced* charges, since in-flight totals are
    timing-dependent and must never raise on their own.

    One fetcher serves a reduce task for its whole fetch phase, however
    many :meth:`fetch_all` calls that takes (one per committed segment
    on the pipelined shuffle), so pooled connections are reused across
    calls; the task calls :meth:`close` once, when it stops fetching.
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
        self._window = (MemoryBudget(config.max_inflight_bytes,
                                     name=f"{reduce_id}:fetch-window")
                        if config.max_inflight_bytes is not None else None)
        lock = Lock()

        def incr(name: str, amount: int = 1) -> None:
            with lock:
                counters.incr(name, amount)

        # A closure, not a bound method: a transport holding its fetcher
        # would keep a fetcher dropped without close() -- and with it
        # the pooled connections -- alive until the cycle collector ran.
        self._incr = incr
        self.transport = make_transport(config, fetch_faults,
                                        counter_sink=incr,
                                        reduce_id=reduce_id,
                                        memory=memory)

    @staticmethod
    def price(ref: SegmentRef) -> int:
        """What one fetch costs the byte window, priced *before* the
        transfer from the segment's materialized size."""
        return max(1, ref.stats.materialized_bytes)

    def admit(self, ref: SegmentRef, *, block: bool = True) -> int | None:
        """Charge one fetch against the byte window and the task ledger.

        ``block=True`` waits for window headroom; ``block=False``
        returns ``None`` instead of waiting, so :meth:`fetch_all` can
        collect a completion first.  Either way the first in-flight
        fetch is always admitted (grant-when-alone), which is what keeps
        a window smaller than any one segment live.  Returns the price
        to hand back to :meth:`retire`.
        """
        price = self.price(ref)
        if self._window is not None:
            if block:
                self._window.charge(price, site="fetch", wait=True)
            elif not self._window.try_charge(price, site="fetch"):
                return None
        if self.memory is not None:
            try:
                self.memory.charge(price, site="fetch", force=True)
            except MemoryError:
                # the injected-fault path: give the window bytes back
                # before propagating, or the next attempt starts starved
                if self._window is not None:
                    self._window.release(price, site="fetch")
                raise
        return price

    def retire(self, price: int) -> None:
        """Return one admitted fetch's bytes to the window and ledger."""
        if self._window is not None:
            self._window.release(price, site="fetch")
        if self.memory is not None:
            self.memory.release(price, site="fetch")

    @property
    def backpressure_waits(self) -> int:
        """How many fetch admissions blocked on byte headroom."""
        return (self._window.backpressure_waits
                if self._window is not None else 0)

    def fetch_all(self, refs: Sequence[SegmentRef]) -> list[bytes]:
        """Fetch every segment, up to ``config.concurrency`` at a time on
        the process's helper pool; blobs come back **in input order**
        regardless of which fetch finished first.

        Raises :class:`FetchFailedError` from the first segment that
        exhausts its retry budget; every fetch still in flight is
        cancelled or finished first.  Pooled transport connections stay
        open for the next call -- whoever is done fetching calls
        :meth:`close`.
        """
        refs = list(refs)
        blobs: list[bytes | None] = [None] * len(refs)
        workers = min(self.config.concurrency, len(refs))
        executor = helpers.pool() if workers > 1 else None
        if executor is None:
            for index, ref in enumerate(refs):
                price = self.admit(ref)
                try:
                    blobs[index] = self.fetch_one(ref)
                finally:
                    self.retire(price)
            return blobs  # type: ignore[return-value]
        admitted: deque[tuple[int, int]] = deque()  # waiting for a slot
        running: dict[Future, tuple[int, int]] = {}
        next_up = 0
        try:
            while next_up < len(refs) or admitted or running:
                # admit while the byte window has headroom; with nothing
                # in flight the next fetch always goes out
                # (grant-when-alone), so the loop cannot starve
                while next_up < len(refs):
                    price = self.admit(refs[next_up],
                                       block=not (admitted or running))
                    if price is None:
                        break  # wait for a completion to free bytes
                    admitted.append((next_up, price))
                    next_up += 1
                while admitted and len(running) < workers:
                    index, price = admitted.popleft()
                    future = executor.submit(self.fetch_one, refs[index])
                    running[future] = (index, price)
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    index, price = running.pop(future)
                    try:
                        blobs[index] = future.result()
                    finally:
                        self.retire(price)
        finally:
            helpers.drain(running)
            for _, price in (*running.values(), *admitted):
                self.retire(price)
        return blobs  # type: ignore[return-value]

    def close(self) -> None:
        """Release pooled transport connections (idempotent)."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    def fetch_one(self, ref: SegmentRef) -> bytes:
        """Fetch one segment through the full retry ladder."""
        last = "no attempts made"
        for attempt in range(self.config.fetch_retries + 1):
            if attempt > 0:
                self._incr(C.SHUFFLE_RETRIES)
                time.sleep(backoff_delay(
                    self.config.backoff, attempt, self.config.backoff_max,
                    key=f"{self.reduce_id}:{ref.map_id}:{ref.epoch}"))
            self._incr(C.SHUFFLE_FETCHES)
            deadline = Deadline(self.config.fetch_timeout)
            try:
                blob = self.transport.fetch(ref, attempt, deadline)
            except FileNotFoundError as exc:
                # The segment is *gone* (invalidated or lost): no retry
                # of this epoch can succeed, so escalate immediately.
                self._incr(C.SHUFFLE_FAILED_FETCHES)
                raise FetchFailedError(
                    ref.map_id, self.reduce_id, attempt + 1,
                    f"segment missing: {exc}") from exc
            except TransientFetchError as exc:
                self._incr(C.SHUFFLE_FAILED_FETCHES)
                self._incr(C.SHUFFLE_BYTES_TRANSFERRED, exc.bytes_received)
                last = str(exc)
                continue
            self._incr(C.SHUFFLE_BYTES_TRANSFERRED, len(blob))
            return blob
        raise FetchFailedError(ref.map_id, self.reduce_id,
                               self.config.fetch_retries + 1, last)
