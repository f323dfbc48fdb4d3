"""Network shuffle: per-worker TCP segment servers + fetch client.

The ROADMAP's first open item: the paper compresses the *map->reduce*
hop, so the stride key codec must be measurable as bytes on an actual
wire, not just as materialized disk bytes.  This module provides both
ends of that wire:

* :class:`ShuffleService` -- owns a small fleet of :class:`SegmentServer`
  threads (one per simulated worker host), a registry of committed map
  outputs (``map_id -> epoch + segment paths``), and a CRC cache so the
  verbatim path can serve a segment zero-copy (``socket.sendfile``)
  without re-reading it.  Map re-execution drains gracefully: the
  scheduler marks the map *draining*, requests carrying the old epoch
  are rejected with a ``stale epoch`` error (a transient failure, so
  the PR 5 escalation ladder -- retry, requeue, re-execute -- works
  unchanged over the network), and the fresh registration flips the
  entry to the new epoch.  Dead servers are re-spawned on registration,
  which is what lets a killed server heal through the same ladder.

* :class:`NetworkTransport` -- the client side, plugged into
  :class:`~repro.mapreduce.runtime.shuffle.ShuffleFetcher` by
  ``make_transport``.  Keeps one idle connection per address (a socket
  is returned after a fully-consumed response and reused), enforces
  the fetcher's per-attempt deadline as socket timeouts, verifies every
  frame CRC plus a whole-segment CRC32, and accounts
  ``SHUFFLE_WIRE_BYTES`` (compressed payload actually transmitted) and
  ``SHUFFLE_WIRE_BYTES_UNCOMPRESSED`` through the fetcher's counter
  sink.

Wire protocol (all integers big-endian):

* request: ``b"RSH1" | u32 len | JSON`` object with the strings
  ``map_id``, ``path``, ``reduce_id``, ``codec`` and the integers
  ``epoch``, ``attempt``, ``chunk``.  A body that is no JSON object, or
  a field of another type, is answered ``BAD_REQUEST``;
* response: one status byte.  Non-OK: ``u32 len | utf-8 message``.
  OK: ``u32 len | JSON header`` (``codec`` actually negotiated,
  ``length``/``crc`` of the raw segment, ``framed`` flag, and --
  framed only -- ``wire_length``, the compressed byte count), then
  - verbatim (``framed`` false): exactly ``length`` raw bytes
    (``sendfile`` on the server, after the header); or
  - framed: the segment compressed *whole* (the §III stride transform
    needs the full key stream; compressing per chunk silently degrades
    it to its generic backend), cut into transport chunks of
    ``u32 chunk_len | u32 crc32(chunk) | chunk``, terminated by an
    all-zero frame head.  The client refuses a frame that would carry
    the stream past ``wire_length`` before reading its payload,
    reassembles, checks ``wire_length``, then decodes once.

A framed response -- status, header, every frame and the terminator --
leaves the server in *one* write.  Written piecewise, each small
trailing write sat in Nagle's buffer until the client's delayed ACK
for the previous one came back: on loopback a framed read took ≈20 ms
per fetch on the ``median-net-wirepred`` bench workload, ≈16 ms of it
an idle socket, against ≈4 ms in one write, which also cuts the
syscall and packet count.  A verbatim response is two writes, the
status and header and then the ``sendfile`` body, and a body smaller
than one TCP segment sat in Nagle's buffer the same way: every fetch
after the first on a pooled connection took 40-44 ms against
0.2-0.4 ms.  So the server sets ``TCP_NODELAY`` on each accepted
socket.

Where the whole-segment compress happens: once per segment, when it is
published, not when it is fetched.  A service with a wire codec other
than ``null`` queues each registered segment for *staging*; a window
of ``W`` staged segments (two per CPU the process may run on, counting
at most four) fills in partition-major order -- the order reducers
fetch.  Staging reads the segment once, feeding both the CRC cache and
the codec's front stage (:meth:`~repro.mapreduce.codecs.Codec.prepare`,
the GIL-bound §III transform), which runs on whichever thread staged
it: the publisher at registration, or a handler that just served a
segment and so freed a slot.  The back stage (``finish``: zlib or bz2,
which release the GIL) runs on the process's helper pool
(:mod:`~repro.mapreduce.runtime.helpers`); a fetch that finds it still
queued there takes the work and runs it on its handler.  A process
without a helper pool (one CPU) stages nothing.  A fetch
takes the finished payload, validated against the file's current
``(size, mtime_ns)`` and the negotiated codec, and sends it.  Anything
not staged compresses inline at serve time, as every fetch once did: a
segment still queued (it is then never staged), a file rewritten in
place by repair or damaged at rest, a codec that negotiated
differently, or a retry after the staged copy was consumed.  Either way
the payload is ``codec.compress(segment)`` byte for byte, so frames,
faults, CRCs and counters do not depend on which path served it.

Codec negotiation: the client *requests* a wire codec; a server that
does not know it answers with ``codec: "null"`` in the header and the
client decodes whatever the header names -- an unknown codec degrades
to verbatim service instead of failing the job.

Fault injection happens server-side (the planned ``fetch`` faults ride
into the service as a full :meth:`~repro.mapreduce.runtime.fault.
FaultInjector.fetch_plan`): ``delay`` sleeps before the response,
``stall`` hangs then closes without one, ``drop`` dies mid-stream,
``truncate`` ends early but claims completion (only the length/CRC
check notices), ``flip`` damages one frame after its CRC was computed.
All five surface client-side as ``TransientFetchError`` -- the same
failure surface the direct transport's connection-level faults have,
so counters and escalation stay byte-identical across transports.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import json
import os
import socket
import struct
import threading
import time
import zlib
from concurrent.futures import Future
from typing import Callable, Mapping, Sequence

from repro.mapreduce.codecs import Codec, get_codec
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import helpers
from repro.mapreduce.runtime.fault import Fault
from repro.mapreduce.runtime.memory import MemoryBudget
from repro.mapreduce.runtime.shuffle import (
    SegmentRef,
    ShuffleConfig,
    TransientFetchError,
    select_fetch_fault,
)
from repro.util.backoff import backoff_delay
from repro.util.errors import CorruptRecordError
from repro.util.placement import placement_index
from repro.util.timing import Deadline

__all__ = ["ShuffleService", "SegmentServer", "NetworkTransport"]

#: how many times a server retries binding its port before giving up
_BIND_ATTEMPTS = 8
_BIND_BACKOFF = 0.02
_BIND_BACKOFF_MAX = 0.25

REQUEST_MAGIC = b"RSH1"
#: response status codes
OK, STALE_EPOCH, UNKNOWN_SEGMENT, MISSING_FILE, BAD_REQUEST = range(5)
#: largest request / header JSON the server or client will accept
_MAX_META = 64 * 1024
#: server-side idle timeout on a pooled connection between requests
_IDLE_TIMEOUT = 30.0
_U32 = struct.Struct(">I")
_FRAME_HEAD = struct.Struct(">II")
#: every request field with its default; a value present on the wire
#: must have its default's JSON type (``true`` is no integer)
_REQUEST_DEFAULTS = {"map_id": "", "path": "", "epoch": 0, "reduce_id": "",
                     "attempt": 0, "codec": "null", "chunk": 0}
#: staged segments a service holds per CPU, counting at most
#: ``_WINDOW_CPUS`` of them (the window W)
_WINDOW_PER_CPU = 2
_WINDOW_CPUS = 4


def _parse_request(body: bytes) -> dict:
    """The request's fields, defaults filled in.

    Raises :class:`ValueError` naming the first problem: a body that is
    no JSON object, or a field of the wrong type.  The server answers
    that with ``BAD_REQUEST`` instead of letting it reach a handler.
    """
    try:
        request = json.loads(body)
    except RecursionError:
        raise ValueError("request JSON nests too deeply") from None
    if not isinstance(request, dict):
        raise ValueError(f"request is a JSON {type(request).__name__}, "
                         f"not an object")
    fields = {}
    for name, default in _REQUEST_DEFAULTS.items():
        value = request.get(name, default)
        if type(value) is not type(default):
            raise ValueError(f"request field {name!r} must be "
                             f"{type(default).__name__}, got {value!r:.40}")
        fields[name] = value
    return fields


# ------------------------------------------------------------- socket I/O


def _op_timeout(deadline: Deadline) -> float | None:
    """Socket timeout for the next operation under ``deadline``."""
    remaining = deadline.remaining()
    if remaining is None:
        return None
    if remaining <= 0:
        raise TransientFetchError("fetch deadline expired")
    return remaining


def _recv_exact(sock: socket.socket, n: int, deadline: Deadline,
                what: str = "response") -> bytes:
    """Read exactly ``n`` bytes or raise :class:`TransientFetchError`."""
    buf = bytearray()
    while len(buf) < n:
        sock.settimeout(_op_timeout(deadline))
        try:
            chunk = sock.recv(min(1 << 16, n - len(buf)))
        except socket.timeout:
            raise TransientFetchError(
                f"fetch deadline expired reading {what} "
                f"({len(buf)}/{n} bytes)", bytes_received=len(buf)) from None
        if not chunk:
            raise TransientFetchError(
                f"connection closed reading {what} ({len(buf)}/{n} bytes)",
                bytes_received=len(buf))
        buf.extend(chunk)
    return bytes(buf)


def _send_all(sock: socket.socket, data: bytes, deadline: Deadline) -> None:
    sock.settimeout(_op_timeout(deadline))
    try:
        sock.sendall(data)
    except socket.timeout:
        raise TransientFetchError("fetch deadline expired sending "
                                  "request") from None


# ---------------------------------------------------------------- service


class _MapEntry:
    """Registry state for one map task's committed segments."""

    __slots__ = ("epoch", "paths", "draining")

    def __init__(self, epoch: int, paths: frozenset[str]) -> None:
        self.epoch = epoch
        self.paths = paths
        #: re-execution in progress: every request is epoch-stale until
        #: the replacement registers (graceful drain)
        self.draining = False


class _Stage:
    """One segment's wire payload in the staging window.

    Every field changes only under the service lock, and only while the
    stage is not ``dropped``; each change to ``future``, ``payload`` or
    ``dropped`` is announced on the service's ``_changed`` condition.
    """

    __slots__ = ("path", "key", "charged", "prepared", "future", "payload",
                 "dropped")

    def __init__(self, path: str) -> None:
        self.path = path
        #: ``(size, mtime_ns)`` of the bytes staged, once read
        self.key: tuple[int, int] | None = None
        #: bytes charged to the service ledger for what the stage holds
        self.charged = 0
        #: the front stage's output, until the back stage takes it
        self.prepared: bytes | None = None
        #: the back stage on the helper pool, once submitted
        self.future: Future | None = None
        #: the compressed segment, once the back stage finished
        self.payload: bytes | None = None
        self.dropped = False


class ShuffleService:
    """A fleet of segment servers plus the registry they serve from.

    One service runs inside the scheduling process per job; map outputs
    are spread across ``num_servers`` servers by a stable hash of the
    map id, modelling per-worker segment servers on one host.  All
    servers share the registry, the CRC cache, and the (server-side)
    fetch-fault plan.
    """

    def __init__(self, num_servers: int = 2, port_base: int | None = None,
                 host: str = "127.0.0.1", server_concurrency: int = 8,
                 wire_codec: str = "null", chunk_bytes: int = 64 * 1024,
                 faults: Mapping[str, Sequence[Fault]] | None = None,
                 trace=None) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        self.host = host
        self.port_base = port_base
        self.num_servers = num_servers
        self.server_concurrency = server_concurrency
        self.wire_codec = wire_codec
        self.chunk_bytes = chunk_bytes
        self.faults = dict(faults) if faults else {}
        self.trace = trace
        #: unbounded accounting ledger for the server-side compress
        #: working set: staged segments (site ``stage``) and inline
        #: compresses (site ``compress``).  Charged with ``force=True``
        #: so serving never blocks on accounting; nothing outside this
        #: module reads it but tests, which pin its peak and its return
        #: to zero after a job
        self.memory = MemoryBudget(None, name="netshuffle")
        self._lock = threading.Lock()
        #: a stage's back stage was submitted, or it finished or dropped
        self._changed = threading.Condition(self._lock)
        self._registry: dict[str, _MapEntry] = {}
        #: path -> (size, mtime_ns, crc32) -- revalidated by stat on
        #: every request, so damage-at-rest is served as-is (and caught
        #: by the reader's decode, taking the repair rung) while
        #: in-flight damage is caught by a CRC the file never had
        self._crc_cache: dict[str, tuple[int, int, int]] = {}
        self.servers: list[SegmentServer] = []
        self._started = False
        # Staging (see the module docstring); off while the window is
        # 0: a null or unknown wire codec, a process without a helper
        # pool, or a stopped service.
        self._window = 0
        #: ``(partition, seq, path)`` of registered segments not yet
        #: staged; an entry whose seq ``_queued`` no longer names was
        #: dropped or fetched first, and is skipped
        self._queue: list[tuple[int, int, str]] = []
        self._queued: dict[str, int] = {}
        self._seq = itertools.count()
        #: path -> stage, for every segment holding a window slot
        self._staged: dict[str, _Stage] = {}
        #: back stages submitted and not yet done, dropped ones included
        self._back_stages: set[Future] = set()

    @classmethod
    def from_config(cls, config: ShuffleConfig,
                    faults: Mapping[str, Sequence[Fault]] | None = None,
                    trace=None) -> "ShuffleService":
        return cls(num_servers=config.num_servers,
                   port_base=config.port_base,
                   server_concurrency=config.server_concurrency,
                   wire_codec=config.wire_codec,
                   chunk_bytes=config.chunk_bytes,
                   faults=faults, trace=trace)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ShuffleService":
        if self._started:
            return self
        for index in range(self.num_servers):
            self.servers.append(self._spawn(index))
        if self._codec_known() and helpers.pool() is not None:
            self._window = _WINDOW_PER_CPU * min(helpers.threads() + 1,
                                                 _WINDOW_CPUS)
        self._started = True
        return self

    def _codec_known(self) -> bool:
        """Whether this service's wire codec compresses anything: not
        ``null``, and registered (an unknown one negotiates to null)."""
        if self.wire_codec == "null":
            return False
        try:
            get_codec(self.wire_codec)
        except KeyError:
            return False
        return True

    def _spawn(self, index: int) -> "SegmentServer":
        port = 0 if self.port_base is None else self.port_base + index
        server = SegmentServer(self, self.host, port,
                               self.server_concurrency)
        server.start()
        return server

    def stop(self) -> None:
        """Stop every server and drop every staged and queued segment:
        back stages not yet started are cancelled, running ones are
        waited for."""
        for server in self.servers:
            server.stop()
        self.servers = []
        self._started = False
        with self._lock:
            self._window = 0
            self._unstage(list(self._staged))
            self._queue.clear()
            self._queued.clear()
        helpers.drain(list(self._back_stages))

    def __enter__(self) -> "ShuffleService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- registry

    def server_index(self, map_id: str) -> int:
        """Which server hosts ``map_id``'s segments.

        Same :func:`~repro.util.placement.placement_index` hash as task
        homing (``hosts.host_for``): host k and server k are one failure
        domain, structurally.
        """
        return placement_index(map_id, self.num_servers)

    def address_for(self, map_id: str) -> tuple[str, int]:
        """Current ``(host, port)`` serving ``map_id``'s segments."""
        if not self._started:
            raise RuntimeError("shuffle service is not running")
        return self.servers[self.server_index(map_id)].address

    def register_map_output(self, map_id: str, paths: Sequence[str],
                            epoch: int = 0) -> None:
        """Publish (or re-publish) one map task's committed segments.

        Re-spawns any dead server, so a registration after map
        re-execution both ends the drain and heals a killed server.
        Without staging, primes the CRC cache for each path.  With it,
        drops whatever the map had staged or queued, queues ``paths``
        -- position ``i`` is partition ``i``, the key of the window's
        partition-major order -- and stages on this thread while the
        window has room.
        """
        self._revive_dead_servers()
        staging = self._window > 0
        if not staging:
            for path in paths:
                self._segment_crc(path)
        with self._lock:
            old = self._registry.get(map_id)
            if old is not None:
                self._unstage(old.paths)
            self._registry[map_id] = _MapEntry(epoch, frozenset(paths))
            if staging:
                for part, path in enumerate(paths):
                    seq = next(self._seq)
                    self._queued[path] = seq
                    heapq.heappush(self._queue, (part, seq, path))
        if staging:
            self._pump()

    def invalidate(self, map_id: str) -> None:
        """Begin draining ``map_id``: every request is now epoch-stale.

        Called when map re-execution starts, *before* the old segment
        files are deleted -- in-flight fetches get a clean transient
        rejection instead of racing file deletion.  The map's staged
        and queued segments are dropped, freeing their window slots.
        """
        with self._lock:
            entry = self._registry.get(map_id)
            if entry is not None:
                entry.draining = True
                self._unstage(entry.paths)

    def _lookup(self, map_id: str) -> _MapEntry | None:
        with self._lock:
            return self._registry.get(map_id)

    def _revive_dead_servers(self) -> None:
        if not self._started:
            return
        for index, server in enumerate(self.servers):
            if not server.alive:
                self.servers[index] = self._spawn(index)

    def kill_server(self, index: int) -> None:
        """Abruptly stop one server (test/experiment hook).

        Live connections die and new ones are refused until a
        registration re-spawns the server -- the "worker host lost its
        shuffle server" scenario the escalation ladder must absorb.
        """
        self.servers[index].stop()

    def partition_server(self, index: int, seconds: float) -> None:
        """Blackhole one server for ``seconds`` (host_partition hook).

        The listener keeps accepting -- the host is *alive* -- but every
        connection is hung up before a byte is read, so clients see
        transient connection loss and their retry ladder (not map
        re-execution) is what heals the partition.
        """
        self.servers[index].refuse_until = time.monotonic() + seconds

    # ------------------------------------------------------------ integrity

    def _segment_crc(self, path: str) -> tuple[int, int, int]:
        """``(size, mtime_ns, crc32)`` of the file at ``path``,
        stat-validated.

        The cache key is ``(size, mtime_ns)``: an unchanged committed
        segment is never re-read (the verbatim path stays zero-copy),
        while a rewritten file -- repair, or injected damage at rest --
        is re-read so the served CRC always describes the bytes sent.
        """
        st = os.stat(path)
        key = (st.st_size, st.st_mtime_ns)
        with self._lock:
            cached = self._crc_cache.get(path)
            if cached is not None and cached[:2] == key:
                return cached
        with open(path, "rb") as fh:
            crc = zlib.crc32(fh.read())
        with self._lock:
            self._crc_cache[path] = (*key, crc)
        return (*key, crc)

    # -------------------------------------------------------------- staging

    def _unstage(self, paths) -> None:
        """Drop ``paths`` from the queue and the window, cancelling back
        stages not yet started, releasing what their stages held and
        waking their waiters (lock held)."""
        for path in paths:
            self._queued.pop(path, None)
            stage = self._staged.pop(path, None)
            if stage is not None:
                stage.dropped = True
                stage.prepared = None
                if stage.future is not None:
                    stage.future.cancel()
                self.memory.release(stage.charged, site="stage")
                stage.charged = 0
                self._changed.notify_all()

    def _recharge(self, stage: _Stage, nbytes: int) -> bool:
        """Charge ``stage`` for holding ``nbytes`` now instead of what it
        held before; ``False`` if it was dropped (lock held)."""
        if stage.dropped:
            return False
        self.memory.release(stage.charged, site="stage")
        self.memory.charge(nbytes, site="stage", force=True)
        stage.charged = nbytes
        return True

    def _pump(self) -> None:
        """Stage queued segments on this thread while the window has
        room, lowest partition first."""
        while True:
            with self._lock:
                stage = None
                while self._queue and len(self._staged) < self._window:
                    _, seq, path = heapq.heappop(self._queue)
                    if self._queued.get(path) == seq:
                        del self._queued[path]
                        stage = self._staged[path] = _Stage(path)
                        break
            if stage is None:
                return
            self._stage(stage)

    def _stage(self, stage: _Stage) -> None:
        """Read one claimed segment once, for the CRC cache and the
        codec's front stage, and hand the back stage to the helper pool.

        A stage that fails is dropped: the fetch compresses inline,
        which meets the same failure where the fetch can report it.
        """
        try:
            with open(stage.path, "rb") as fh:
                st = os.fstat(fh.fileno())
                blob = fh.read()
            key = (st.st_size, st.st_mtime_ns)
            crc = zlib.crc32(blob)
            with self._lock:
                self._crc_cache[stage.path] = (*key, crc)
                if not self._recharge(stage, len(blob)):
                    return
                stage.key = key
            codec = get_codec(self.wire_codec)
            prepared = codec.prepare(blob)
            del blob
            with self._lock:
                if self._recharge(stage, len(prepared)):
                    stage.prepared = prepared
                    stage.future = helpers.pool().submit(self._finish,
                                                         stage, codec)
                    self._back_stages.add(stage.future)
                    stage.future.add_done_callback(
                        self._back_stages.discard)
                    self._changed.notify_all()
        except Exception:
            with self._lock:
                if self._staged.get(stage.path) is stage:
                    self._unstage([stage.path])

    def _finish(self, stage: _Stage, codec: Codec) -> None:
        """The back stage, on a helper thread or on a handler that took
        the work.  It must end the stage one way or the other: a fetch
        may be waiting for it."""
        with self._lock:
            prepared, stage.prepared = stage.prepared, None
        try:
            payload = None if prepared is None else codec.finish(prepared)
        except Exception:
            payload = None
        del prepared
        with self._lock:
            if payload is not None and self._recharge(stage, len(payload)):
                stage.payload = payload
                self._changed.notify_all()
            elif self._staged.get(stage.path) is stage:
                self._unstage([stage.path])

    def _take_staged(self, path: str, codec_name: str,
                     key: tuple[int, int]) -> bytes | None:
        """The staged payload for ``path``, or ``None``: compress inline.

        A segment still queued leaves the queue for good.  A staged one
        leaves the window, waiting for its back stage if need be; its
        payload is returned only if it was staged from the bytes at
        ``key`` for ``codec_name``, and then stays charged to the
        ``stage`` site until the caller releases it.

        A back stage still queued on the helper pool is not waited for:
        this handler takes the work, cancelling the stage's future and
        running ``finish`` itself, instead of queueing behind the other
        stages.  Liveness does not need this: fetches run on their
        reduce task's thread, never on the pool, so no pool work waits
        for a stage.
        """
        if codec_name != self.wire_codec:
            return None
        with self._lock:
            stage = self._staged.get(path)
            if stage is None:
                self._queued.pop(path, None)
                return None
            take = False
            while stage.payload is None and not stage.dropped and not take:
                take = stage.future is not None and stage.future.cancel()
                if not take:
                    self._changed.wait()
        if take:
            self._finish(stage, get_codec(codec_name))
        with self._lock:
            if self._staged.get(path) is not stage:
                return None  # dropped, or another fetch took it
            if stage.key != key:
                self._unstage([path])  # rewritten in place since staging
                return None
            del self._staged[path]
            return stage.payload

    def _record(self, map_id: str, attempt: int, event: str,
                detail: str) -> None:
        if self.trace is not None:
            self.trace.record(map_id, attempt, "map", event, detail)


class SegmentServer:
    """One TCP segment server: accept loop + bounded request handlers.

    Concurrency is bounded by a semaphore acquired *before* a handler
    thread is spawned: past ``concurrency`` in-flight requests the
    accept loop itself blocks, new connections queue in the listen
    backlog, and TCP flow control pushes back on clients -- server-side
    backpressure without dropping anything.
    """

    def __init__(self, service: ShuffleService, host: str, port: int,
                 concurrency: int) -> None:
        self.service = service
        self._sock = self._bind(host, port)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._sem = threading.BoundedSemaphore(concurrency)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: monotonic deadline until which every connection is refused
        #: (host_partition injection: the listener answers, then hangs
        #: up before reading the request -- a blackholed switch port)
        self.refuse_until = 0.0

    @staticmethod
    def _bind(host: str, port: int) -> socket.socket:
        """Bind the listening socket, retrying ``EADDRINUSE``.

        A revived server re-binding a fixed ``port_base`` port can race
        its predecessor's close (the old listener lingers briefly even
        with ``SO_REUSEADDR``); failing the whole shuffle service over
        that transient is wrong, so retry with capped backoff and only
        re-raise once the budget is spent.
        """
        last: OSError | None = None
        for attempt in range(_BIND_ATTEMPTS):
            if attempt > 0:
                time.sleep(backoff_delay(
                    _BIND_BACKOFF, attempt, _BIND_BACKOFF_MAX,
                    key=f"bind:{host}:{port}"))
            try:
                return socket.create_server((host, port), backlog=64)
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE:
                    raise
                last = exc
        raise OSError(
            errno.EADDRINUSE,
            f"port {port} still in use after {_BIND_ATTEMPTS} bind "
            f"attempts: {last}")

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"segsrv-{self.address[1]}")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        # shutdown() wakes a thread blocked in accept(); close() alone
        # leaves it blocked forever on Linux.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected / already closed
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listening socket closed: shutdown
            self._sem.acquire()
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    # ------------------------------------------------------------ handling

    def _handle(self, conn: socket.socket) -> None:
        try:
            if time.monotonic() < self.refuse_until:
                return  # partitioned: hang up without reading anything
            conn.settimeout(_IDLE_TIMEOUT)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                body = self._read_request(conn)
                if body is None:
                    return
                try:
                    request = _parse_request(body)
                except ValueError as exc:
                    # The length prefix kept the stream in step, so the
                    # connection survives a malformed body.
                    self._error(conn, BAD_REQUEST,
                                f"malformed request: {exc}")
                    continue
                if not self._serve(conn, request):
                    return
        except (OSError, ValueError):
            pass  # client went away or spoke garbage: drop the connection
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._sem.release()

    @staticmethod
    def _read_n(conn: socket.socket, n: int) -> bytes | None:
        """Server-side exact read; ``None`` on clean EOF at a boundary."""
        buf = bytearray()
        while len(buf) < n:
            chunk = conn.recv(n - len(buf))
            if not chunk:
                if buf:
                    raise OSError("connection closed mid-request")
                return None
            buf.extend(chunk)
        return bytes(buf)

    def _read_request(self, conn: socket.socket) -> bytes | None:
        """One request's JSON body; ``None`` on clean EOF."""
        magic = self._read_n(conn, len(REQUEST_MAGIC))
        if magic is None:
            return None
        if magic != REQUEST_MAGIC:
            self._error(conn, BAD_REQUEST, "bad request magic")
            raise OSError("bad magic")
        head = self._read_n(conn, _U32.size)
        if head is None:
            raise OSError("connection closed mid-request")
        (length,) = _U32.unpack(head)
        if length > _MAX_META:
            self._error(conn, BAD_REQUEST, "oversized request")
            raise OSError("oversized request")
        body = self._read_n(conn, length)
        if body is None:
            raise OSError("connection closed mid-request")
        return body

    @staticmethod
    def _error(conn: socket.socket, status: int, message: str) -> None:
        data = message.encode("utf-8")
        conn.sendall(bytes([status]) + _U32.pack(len(data)) + data)

    def _serve(self, conn: socket.socket, request: dict) -> bool:
        """Serve one parsed request; ``False`` means the connection must
        die (abrupt-close faults and mid-stream errors)."""
        service = self.service
        map_id = request["map_id"]
        path = request["path"]
        epoch = request["epoch"]
        reduce_id = request["reduce_id"]
        attempt = request["attempt"]

        entry = service._lookup(map_id)
        if entry is None:
            self._error(conn, UNKNOWN_SEGMENT,
                        f"unknown map {map_id!r}")
            return True
        if entry.draining or entry.epoch != epoch:
            service._record(map_id, attempt, "wire_stale",
                            f"epoch {epoch} -> {reduce_id}")
            self._error(conn, STALE_EPOCH,
                        f"stale epoch {epoch} for {map_id} "
                        f"(serving epoch {entry.epoch}"
                        f"{', draining' if entry.draining else ''})")
            return True
        if path not in entry.paths:
            self._error(conn, UNKNOWN_SEGMENT,
                        f"unregistered segment {path!r}")
            return True

        fault = select_fetch_fault(
            service.faults.get(f"{map_id}->{reduce_id}", ()),
            attempt, epoch)
        if fault is not None and fault.op == "delay":
            time.sleep(fault.seconds)
        if fault is not None and fault.op == "stall":
            # Hang, then die without a response: the client's fetch
            # deadline (or the eventual EOF) turns this transient.
            time.sleep(fault.seconds)
            return False

        try:
            length, mtime_ns, crc = service._segment_crc(path)
        except OSError as exc:
            self._error(conn, MISSING_FILE, f"segment missing: {exc}")
            return True

        codec_name = request["codec"]
        try:
            codec = get_codec(codec_name)
        except KeyError:
            # Negotiation: fall back to verbatim service and say so in
            # the header rather than failing the fetch.
            codec_name, codec = "null", None
        # Faults that damage content need the framed path even for the
        # null codec (verbatim has no frames to flip or under-count).
        framed = codec_name != "null" or (
            fault is not None and fault.op in ("truncate", "flip"))

        comp = b""
        rented = 0
        site = "compress"
        if framed:
            staged = service._take_staged(path, codec_name,
                                          (length, mtime_ns))
            if staged is not None:
                # Charged to the stage site since its back stage ended.
                comp, site = staged, "stage"
            else:
                # Compress the segment *whole*: the stride transform
                # needs the full key stream to detect its pattern.  The
                # raw copy is rented from the service ledger only for
                # the compress call; the compressed copy stays charged
                # until sent.
                try:
                    with open(path, "rb") as fh:
                        blob = fh.read()
                except OSError as exc:
                    self._error(conn, MISSING_FILE,
                                f"segment missing: {exc}")
                    return True
                service.memory.charge(len(blob), site=site, force=True)
                try:
                    comp = get_codec(codec_name).compress(blob)
                finally:
                    service.memory.release(len(blob), site=site)
                del blob
                service.memory.charge(len(comp), site=site, force=True)
            rented = len(comp)
        header = json.dumps({
            "codec": codec_name, "length": length, "crc": crc,
            "framed": framed, "wire_length": len(comp),
        }).encode("utf-8")
        head = bytes([OK]) + _U32.pack(len(header)) + header
        try:
            if framed:
                ok = self._send_framed(conn, head, comp,
                                       request["chunk"]
                                       or service.chunk_bytes, fault)
            else:
                ok = self._send_verbatim(conn, head, path, length, fault)
        except OSError:
            return False
        finally:
            if rented:
                service.memory.release(rented, site=site)
            if framed:
                service._pump()  # a window slot may have come free
        if ok:
            service._record(map_id, attempt, "wire_served",
                            f"{os.path.basename(path)} -> {reduce_id}"
                            f" ({'framed' if framed else 'verbatim'})")
        return ok

    def _send_verbatim(self, conn: socket.socket, head: bytes, path: str,
                       length: int, fault: Fault | None) -> bool:
        """Status and header, then the raw segment body zero-copy
        (``sendfile``), faults aside."""
        conn.sendall(head)
        with open(path, "rb") as fh:
            if fault is not None and fault.op == "drop":
                # Die after a prefix: explicit mid-transfer loss.
                keep = int(length * fault.offset_frac)
                conn.sendall(fh.read(keep))
                return False
            conn.sendfile(fh)
        return True

    def _send_framed(self, conn: socket.socket, head: bytes, comp: bytes,
                     chunk_bytes: int, fault: Fault | None) -> bool:
        """Status, header and the compressed segment as CRC-framed
        transport chunks, in one write.

        One ``sendall`` per frame left each small trailing write to
        Nagle, which holds it until the client's delayed ACK arrives
        (see the module docstring).  Faults shape the one buffer
        instead: ``drop`` writes the frames it delivers and no
        terminator, then the connection dies.
        """
        chunk_bytes = max(256, chunk_bytes)
        view = memoryview(comp)
        frames = [view[i:i + chunk_bytes]
                  for i in range(0, len(comp), chunk_bytes)]
        deliver = len(frames)
        if fault is not None and fault.op in ("drop", "truncate"):
            deliver = max(0, min(len(frames) - 1,
                                 int(len(frames) * fault.offset_frac)))
        flip_at = (len(frames) // 2
                   if fault is not None and fault.op == "flip" else None)

        parts = [head]
        for i, chunk in enumerate(frames):
            if i >= deliver and fault is not None:
                if fault.op == "drop":
                    conn.sendall(b"".join(parts))
                    return False  # abrupt close mid-stream
                break  # truncate: short stream that claims completion
            fcrc = zlib.crc32(chunk)
            if flip_at == i and chunk:
                wire = bytearray(chunk)
                wire[len(wire) // 2] ^= 0xFF
                chunk = wire
            parts += (_FRAME_HEAD.pack(len(chunk), fcrc), chunk)
        parts.append(_FRAME_HEAD.pack(0, 0))
        conn.sendall(b"".join(parts))
        return True


# ----------------------------------------------------------------- client


class NetworkTransport:
    """Fetch segments from :class:`SegmentServer` sockets.

    One instance serves one reduce task's :class:`~repro.mapreduce.
    runtime.shuffle.ShuffleFetcher`, which fetches one segment at a
    time, so it keeps at most one idle connection per server address
    for the next fetch.  The pool is locked all the same: ``close``
    must never race a check-in.  All wire damage
    -- refused connections, timeouts, short reads, frame CRC or segment
    CRC mismatches, codec failures -- surfaces as
    :class:`TransientFetchError`; an explicit *unknown segment* or
    *missing file* answer raises :class:`FileNotFoundError`, the
    fetcher's immediate-escalation rung (no retry of this epoch can
    succeed).
    """

    def __init__(self, config: ShuffleConfig,
                 counter_sink: Callable[..., None] | None = None,
                 reduce_id: str = "",
                 memory: MemoryBudget | None = None) -> None:
        self.config = config
        self.reduce_id = reduce_id
        self._memory = memory
        self._sink = counter_sink or (lambda name, amount=1: None)
        #: address -> its one idle connection
        self._pool: dict[tuple[str, int], socket.socket] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- pooling

    def _checkout(self, address: tuple[str, int],
                  deadline: Deadline) -> socket.socket:
        with self._lock:
            idle = self._pool.pop(address, None)
        if idle is not None:
            return idle
        try:
            return socket.create_connection(
                address, timeout=_op_timeout(deadline))
        except OSError as exc:
            raise TransientFetchError(
                f"cannot connect to segment server {address}: {exc}"
            ) from exc

    def _checkin(self, address: tuple[str, int],
                 sock: socket.socket) -> None:
        """Return a healthy connection to the pool -- or close it.

        Two leak paths guarded here: a check-in *after* ``close()`` ran
        would park its socket in a pool nobody will ever close again,
        and repeated wire faults churn connections faster than reuse
        drains them.  A closed transport, or an address that already
        holds an idle connection, closes the socket instead of pooling
        it.
        """
        with self._lock:
            if not self._closed and address not in self._pool:
                self._pool[address] = sock
                return
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def pool_size(self) -> int:
        """Idle pooled connections across every address (test hook)."""
        with self._lock:
            return len(self._pool)

    def close(self) -> None:
        """Close every pooled connection (the fetcher calls this when
        its task stops fetching; idempotent).  Later check-ins close
        their socket instead of re-populating the pool."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, {}
        for sock in pool.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # -------------------------------------------------------------- fetch

    def fetch(self, ref: SegmentRef, attempt: int,
              deadline: Deadline) -> bytes:
        if ref.address is None:
            raise TransientFetchError(
                f"segment {ref.map_id} carries no server address "
                f"(network transport needs service-built refs)")
        address = (ref.address[0], int(ref.address[1]))
        sock = self._checkout(address, deadline)
        try:
            blob = self._request(sock, ref, attempt, deadline)
        except Exception:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            raise
        self._checkin(address, sock)
        return blob

    def _request(self, sock: socket.socket, ref: SegmentRef, attempt: int,
                 deadline: Deadline) -> bytes:
        payload = json.dumps({
            "map_id": ref.map_id,
            "path": ref.path,
            "epoch": ref.epoch,
            "reduce_id": self.reduce_id,
            "attempt": attempt,
            "codec": self.config.wire_codec,
            "chunk": self.config.chunk_bytes,
        }).encode("utf-8")
        try:
            _send_all(sock, REQUEST_MAGIC + _U32.pack(len(payload)) + payload,
                      deadline)
            status = _recv_exact(sock, 1, deadline, "status")[0]
            if status != OK:
                (mlen,) = _U32.unpack(_recv_exact(sock, _U32.size, deadline,
                                                  "error length"))
                message = _recv_exact(sock, min(mlen, _MAX_META), deadline,
                                      "error message").decode(
                                          "utf-8", "replace")
                if status in (UNKNOWN_SEGMENT, MISSING_FILE):
                    raise FileNotFoundError(
                        f"server reports segment gone: {message}")
                raise TransientFetchError(f"server rejected fetch: {message}")
            (hlen,) = _U32.unpack(_recv_exact(sock, _U32.size, deadline,
                                              "header length"))
            if hlen > _MAX_META:
                raise TransientFetchError(f"oversized response header "
                                          f"({hlen} bytes)")
            header = json.loads(_recv_exact(sock, hlen, deadline, "header"))
            if header["framed"]:
                blob = self._read_framed(sock, header, deadline)
            else:
                blob = self._read_verbatim(sock, header, deadline)
        except FileNotFoundError:
            raise  # server's explicit "segment gone": escalate, no retry
        except OSError as exc:
            raise TransientFetchError(f"socket error mid-fetch: {exc}"
                                      ) from exc
        except ValueError as exc:  # garbled JSON header on the wire
            raise TransientFetchError(f"undecodable response header: {exc}"
                                      ) from exc
        if (len(blob) != header["length"]
                or zlib.crc32(blob) != header["crc"]):
            raise TransientFetchError(
                f"transfer digest mismatch: got {len(blob)} bytes "
                f"(crc {zlib.crc32(blob):08x}), server digested "
                f"{header['length']} (crc {header['crc']:08x})",
                bytes_received=len(blob))
        return blob

    def _read_verbatim(self, sock: socket.socket, header: dict,
                       deadline: Deadline) -> bytes:
        length = int(header["length"])
        blob = _recv_exact(sock, length, deadline, "verbatim segment")
        self._sink(C.SHUFFLE_WIRE_BYTES, length)
        self._sink(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED, length)
        return blob

    def _read_framed(self, sock: socket.socket, header: dict,
                     deadline: Deadline) -> bytes:
        codec = get_codec(header["codec"])
        wire_length = int(header["wire_length"])
        parts: list[bytes] = []
        received = 0
        while True:
            chunk_len, fcrc = _FRAME_HEAD.unpack(
                _recv_exact(sock, _FRAME_HEAD.size, deadline, "frame head"))
            if chunk_len == 0:
                break
            if received + chunk_len > wire_length:
                # Refuse before buffering: a lying or garbled stream
                # must not grow the client's memory without bound.
                raise TransientFetchError(
                    f"frame {len(parts)} of {chunk_len} bytes overruns "
                    f"the header's wire_length ({received}/{wire_length} "
                    f"compressed bytes received)", bytes_received=received)
            chunk = _recv_exact(sock, chunk_len, deadline, "frame payload")
            self._sink(C.SHUFFLE_WIRE_BYTES, chunk_len)
            if zlib.crc32(chunk) != fcrc:
                raise TransientFetchError(
                    f"frame {len(parts)} checksum mismatch in flight",
                    bytes_received=received)
            received += chunk_len
            parts.append(chunk)
        comp = b"".join(parts)
        if len(comp) != wire_length:
            # Truncate faults end the stream early but claim completion;
            # only this count (and the digest check upstream) notices.
            raise TransientFetchError(
                f"framed stream ended at {len(comp)}/{wire_length} "
                f"compressed bytes", bytes_received=received)
        # The decompressed blob is already priced at the fetcher's
        # "fetch" site; the compressed copy alive across decompress is
        # the transport's own transient, rented under "wire" (forced:
        # accounting that must never refuse or raise).
        if self._memory is not None:
            self._memory.charge(wire_length, site="wire", force=True)
        try:
            raw = codec.decompress(comp)
        except CorruptRecordError as exc:
            raise TransientFetchError(
                f"wire codec failed to decode segment: {exc}",
                bytes_received=received) from exc
        finally:
            if self._memory is not None:
                self._memory.release(wire_length, site="wire")
        self._sink(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED, len(raw))
        return raw
