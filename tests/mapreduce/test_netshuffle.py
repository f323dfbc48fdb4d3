"""The network shuffle: segment servers, wire codecs, live-socket faults.

The netshuffle module puts the map->reduce hop on a real loopback
socket.  Pinned here:

* round trips through every registered wire codec are byte-identical
  to the on-disk segment, with ``SHUFFLE_WIRE_BYTES`` measuring the
  compressed bytes that actually crossed (verbatim null service counts
  wire == raw);
* the protocol's rejection surface: stale epochs and draining maps are
  *transient* (retryable -- the escalation ladder's first rung), while
  unknown maps, unregistered paths, and deleted files are
  ``FileNotFoundError`` (immediate escalation, no pointless retries);
* codec negotiation degrades an unknown codec to verbatim service
  instead of failing the fetch;
* connections pool and are reused across fetches; a killed server
  refuses connections (transient) until a re-registration revives it
  on a fresh port;
* server-side wire faults (flip / drop / truncate / delay / stall)
  surface as ``TransientFetchError`` through the real socket, and the
  full fetcher heals them within its retry budget;
* the engine end to end: a serial network run is byte-identical to the
  direct transport, and the trace carries ``wire_served`` events;
* malformed requests are answered ``BAD_REQUEST`` without an exception
  escaping the handler thread, and the client refuses a framed stream
  that runs past its header's ``wire_length``;
* a framed response leaves the server in one write, byte for byte the
  documented framing, faults included.
"""

import errno
import json
import os
import random
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.mapreduce.codecs import NullCodec, available_codecs, get_codec
from repro.mapreduce.ifile import IFileWriter
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime import FaultInjector
from repro.mapreduce.runtime.netshuffle import (
    BAD_REQUEST,
    OK,
    REQUEST_MAGIC,
    NetworkTransport,
    ShuffleService,
)
from repro.mapreduce.runtime.shuffle import (
    SegmentRef,
    ShuffleConfig,
    ShuffleFetcher,
    TransientFetchError,
)
from repro.mapreduce.runtime.trace import RuntimeTrace
from repro.util.timing import Deadline


def write_segment(tmp_path, name="m00000-out-p0", records=200):
    path = str(tmp_path / name)
    writer = IFileWriter(path, NullCodec())
    for i in range(records):
        writer.append(f"k{i:04d}".encode(), f"v{i:04d}".encode())
    stats = writer.close()
    return path, stats


def make_ref(service, path, stats, map_id="m00000", epoch=0):
    return SegmentRef(map_id=map_id, path=path, stats=stats, epoch=epoch,
                      address=service.address_for(map_id))


def net_config(**overrides):
    base = dict(transport="network", fetch_retries=1, fetch_timeout=5.0,
                backoff=0.005, backoff_max=0.02)
    base.update(overrides)
    return ShuffleConfig(**base)


@pytest.fixture
def segment(tmp_path):
    return write_segment(tmp_path)


@pytest.fixture
def thread_errors(monkeypatch):
    """Every exception that escapes a thread while the test runs."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    return errors


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError(f"closed after {len(buf)}/{n} bytes")
        buf += chunk
    return buf


def rsh1_request(body: bytes) -> bytes:
    return REQUEST_MAGIC + struct.pack(">I", len(body)) + body


def read_error(sock):
    """``(status, message)`` of a non-OK answer; status ``None`` if the
    server hung up instead of answering."""
    status = sock.recv(1)
    if not status:
        return None, ""
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    return status[0], recv_exact(sock, length).decode()


class TestWireRoundTrip:
    @pytest.mark.parametrize("codec", sorted(available_codecs()))
    def test_every_codec_round_trips(self, tmp_path, codec):
        path, stats = write_segment(tmp_path)
        with open(path, "rb") as fh:
            blob = fh.read()
        config = net_config(wire_codec=codec)
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            counters = Counters()
            fetcher = ShuffleFetcher(config, counters, "r00000")
            [got] = fetcher.fetch_all([make_ref(service, path, stats)])
        assert got == blob
        wire = counters.get(C.SHUFFLE_WIRE_BYTES)
        raw = counters.get(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED)
        assert raw == len(blob)
        if codec == "null":
            assert wire == raw  # verbatim sendfile: no framing overhead
        else:
            assert 0 < wire < raw  # this stream compresses

    def test_small_chunk_framing(self, tmp_path):
        """Many frames per segment exercise reassembly ordering."""
        path, stats = write_segment(tmp_path, records=500)
        with open(path, "rb") as fh:
            blob = fh.read()
        config = net_config(wire_codec="zlib", chunk_bytes=256)
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            got = transport.fetch(make_ref(service, path, stats), 0,
                                  Deadline(None))
            transport.close()
        assert got == blob

    def test_zero_length_segment(self, tmp_path):
        """A zero-byte file round-trips (framed and verbatim)."""
        path = str(tmp_path / "m00000-out-p0")
        with open(path, "wb"):
            pass
        for codec in ("null", "zlib"):
            config = net_config(wire_codec=codec)
            with ShuffleService.from_config(config) as service:
                service.register_map_output("m00000", [path])
                transport = NetworkTransport(config)
                ref = SegmentRef(map_id="m00000", path=path, stats=None,
                                 address=service.address_for("m00000"))
                assert transport.fetch(ref, 0, Deadline(None)) == b""
                transport.close()


class TestProtocolRejections:
    def test_stale_epoch_is_transient(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path], epoch=1)
            transport = NetworkTransport(config)
            with pytest.raises(TransientFetchError, match="stale epoch"):
                transport.fetch(make_ref(service, path, stats, epoch=0),
                                0, Deadline(None))
            transport.close()

    def test_draining_map_is_transient(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            service.invalidate("m00000")
            transport = NetworkTransport(config)
            with pytest.raises(TransientFetchError, match="draining"):
                transport.fetch(make_ref(service, path, stats), 0,
                                Deadline(None))
            transport.close()

    def test_unknown_map_escalates(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            ref = SegmentRef(map_id="m99999", path=path, stats=stats,
                             address=service.address_for("m99999"))
            with pytest.raises(FileNotFoundError, match="unknown map"):
                transport.fetch(ref, 0, Deadline(None))
            transport.close()

    def test_unregistered_path_escalates(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            ref = SegmentRef(map_id="m00000", path=path + ".elsewhere",
                             stats=stats,
                             address=service.address_for("m00000"))
            with pytest.raises(FileNotFoundError, match="unregistered"):
                transport.fetch(ref, 0, Deadline(None))
            transport.close()

    def test_deleted_file_escalates(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            ref = make_ref(service, path, stats)
            os.unlink(path)
            transport = NetworkTransport(config)
            with pytest.raises(FileNotFoundError, match="missing"):
                transport.fetch(ref, 0, Deadline(None))
            transport.close()

    def test_addressless_ref_is_transient(self, segment):
        path, stats = segment
        transport = NetworkTransport(net_config())
        with pytest.raises(TransientFetchError, match="no server address"):
            transport.fetch(SegmentRef(map_id="m00000", path=path,
                                       stats=stats), 0, Deadline(None))

    def test_fresh_epoch_registration_ends_drain(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            service.invalidate("m00000")
            service.register_map_output("m00000", [path], epoch=1)
            transport = NetworkTransport(config)
            got = transport.fetch(make_ref(service, path, stats, epoch=1),
                                  0, Deadline(None))
            transport.close()
        with open(path, "rb") as fh:
            assert got == fh.read()

    @pytest.mark.parametrize("body", [
        b"[]", b'"x"', b"7", b"null", b"", b"not json", b"\xff\xfe",
        b"[" * 20000 + b"]" * 20000,
        b'{"epoch": "0"}', b'{"attempt": 1.5}', b'{"chunk": null}',
        b'{"epoch": true}', b'{"map_id": []}', b'{"codec": 3}',
    ], ids=lambda body: body[:16].decode("latin-1"))
    def test_malformed_request_is_answered_bad_request(
            self, segment, thread_errors, body):
        path, _ = segment
        with ShuffleService.from_config(net_config()) as service:
            service.register_map_output("m00000", [path])
            before = set(threading.enumerate())
            with socket.create_connection(service.address_for("m00000"),
                                          timeout=5.0) as sock:
                sock.sendall(rsh1_request(body))
                status, message = read_error(sock)
                handlers = set(threading.enumerate()) - before
            for thread in handlers:  # the handler sees EOF and returns
                thread.join(5.0)
                assert not thread.is_alive()
        assert status == BAD_REQUEST
        assert message.startswith("malformed request")
        assert [e.exc_type for e in thread_errors] == []

    def test_connection_survives_a_malformed_request(self, segment):
        """The length prefix keeps the stream in step: a good request on
        the same connection is served."""
        path, _ = segment
        with ShuffleService.from_config(net_config()) as service:
            service.register_map_output("m00000", [path])
            with socket.create_connection(service.address_for("m00000"),
                                          timeout=5.0) as sock:
                sock.sendall(rsh1_request(b"[]"))
                assert read_error(sock)[0] == BAD_REQUEST
                sock.sendall(rsh1_request(json.dumps(
                    {"map_id": "m00000", "path": path}).encode()))
                assert sock.recv(1) == bytes([OK])


class TestFramedStreamBound:
    """The client stops a framed stream at the header's ``wire_length``
    before buffering the frame that would overrun it."""

    @staticmethod
    def fake_server(response: bytes):
        """A one-shot server: reads one request, writes ``response``,
        then holds the connection open until the client hangs up."""
        listener = socket.create_server(("127.0.0.1", 0))

        def run():
            with listener:
                conn, _ = listener.accept()
                with conn:
                    (length,) = struct.unpack(">I", recv_exact(conn, 8)[4:])
                    recv_exact(conn, length)
                    conn.sendall(response)
                    while conn.recv(1 << 16):
                        pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return listener.getsockname()[:2], thread

    @staticmethod
    def framed_response(wire_length, frames, claimed_len):
        """An OK framed response: ``frames`` in full, then the head of
        one more frame claiming ``claimed_len`` bytes and no payload."""
        header = json.dumps({"codec": "zlib", "length": 1, "crc": 0,
                             "framed": True,
                             "wire_length": wire_length}).encode()
        stream = bytes([OK]) + struct.pack(">I", len(header)) + header
        for frame in frames:
            stream += struct.pack(">II", len(frame), zlib.crc32(frame))
            stream += frame
        return stream + struct.pack(">II", claimed_len, 0)

    @pytest.mark.parametrize("frames, claimed_len", [
        ([], 1 << 30),            # the first frame alone overruns
        ([b"12345678"], 8),       # the second one would
    ])
    def test_overrunning_frame_is_refused_before_its_payload(
            self, frames, claimed_len):
        address, thread = self.fake_server(
            self.framed_response(10, frames, claimed_len))
        wire = []
        transport = NetworkTransport(
            net_config(wire_codec="zlib"),
            counter_sink=lambda name, amount=1: wire.append(amount))
        ref = SegmentRef(map_id="m00000", path="p", stats=None,
                         address=address)
        start = time.monotonic()
        # The payload never comes: reading it would sit out the deadline.
        with pytest.raises(TransientFetchError, match="overruns") as info:
            transport.fetch(ref, 0, Deadline(5.0))
        assert time.monotonic() - start < 2.0
        received = sum(len(frame) for frame in frames)
        assert info.value.bytes_received == received
        assert sum(wire) == received
        transport.close()
        thread.join(5.0)
        assert not thread.is_alive()  # the client hung up


class TestCodecNegotiation:
    def test_unknown_codec_degrades_to_verbatim(self, tmp_path, segment):
        path, stats = segment
        config = net_config(wire_codec="martian-arithmetic")
        counters = Counters()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            fetcher = ShuffleFetcher(config, counters, "r00000")
            [got] = fetcher.fetch_all([make_ref(service, path, stats)])
        with open(path, "rb") as fh:
            assert got == fh.read()
        # Negotiated down to null: served verbatim, wire == raw.
        assert (counters.get(C.SHUFFLE_WIRE_BYTES)
                == counters.get(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED)
                == len(got))


class TestPoolingAndServers:
    def test_connections_are_pooled_and_reused(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            ref = make_ref(service, path, stats)
            transport.fetch(ref, 0, Deadline(None))
            [sock] = transport._pool.values()
            transport.fetch(ref, 0, Deadline(None))
            # Same socket object came back to the pool: it was reused.
            assert list(transport._pool.values()) == [sock]
            transport.close()
            assert transport._pool == {}

    def test_verbatim_fetches_on_a_pooled_connection_do_not_wait(
            self, tmp_path):
        # A verbatim body smaller than one TCP segment, written after
        # its header, must not sit in Nagle's buffer until the client's
        # delayed ACK of the header (≈40 ms per fetch on Linux).
        path, stats = write_segment(tmp_path, records=340)
        assert 3000 < os.path.getsize(path) < 6000
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            ref = make_ref(service, path, stats)
            started = time.perf_counter()
            for _ in range(6):
                transport.fetch(ref, 0, Deadline(None))
            elapsed = time.perf_counter() - started
            assert len(transport._pool) == 1  # one connection throughout
            transport.close()
        assert elapsed < 0.1

    def test_port_base_pins_server_ports(self, tmp_path, segment):
        path, stats = segment
        config = net_config(port_base=29750, num_servers=2)
        with ShuffleService.from_config(config) as service:
            ports = {server.address[1] for server in service.servers}
            assert ports == {29750, 29751}

    def test_killed_server_refuses_then_revives(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            ref = make_ref(service, path, stats)
            service.kill_server(service.server_index("m00000"))
            transport = NetworkTransport(config)
            with pytest.raises(TransientFetchError, match="cannot connect"):
                transport.fetch(ref, 0, Deadline(0.5))
            # Re-registration (what map re-execution does) revives the
            # server on a fresh port; a re-built ref fetches cleanly.
            service.register_map_output("m00000", [path], epoch=1)
            assert service.servers[service.server_index("m00000")].alive
            fresh = make_ref(service, path, stats, epoch=1)
            got = transport.fetch(fresh, 0, Deadline(None))
            transport.close()
        with open(path, "rb") as fh:
            assert got == fh.read()

    def test_server_side_concurrency_is_bounded(self, tmp_path, segment):
        path, stats = segment
        config = net_config(server_concurrency=1)
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            # Two sequential fetches through a concurrency-1 server must
            # both succeed (the accept loop blocks, not errors).
            transport = NetworkTransport(config)
            ref = make_ref(service, path, stats)
            a = transport.fetch(ref, 0, Deadline(None))
            b = transport.fetch(ref, 0, Deadline(None))
            transport.close()
        assert a == b


class TestBindRetry:
    def test_bind_retries_through_transient_eaddrinuse(self, monkeypatch):
        """A revived server racing its predecessor's close must not fail
        the shuffle service over a transient EADDRINUSE."""
        from repro.mapreduce.runtime import netshuffle

        monkeypatch.setattr(netshuffle.time, "sleep", lambda s: None)
        calls = {"n": 0}
        real_create_server = netshuffle.socket.create_server

        def flaky_create_server(address, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 3:
                raise OSError(errno.EADDRINUSE, "address in use")
            return real_create_server(address, **kwargs)

        monkeypatch.setattr(netshuffle.socket, "create_server",
                            flaky_create_server)
        sock = netshuffle.SegmentServer._bind("127.0.0.1", 0)
        sock.close()
        assert calls["n"] == 4  # three refusals, then the clean bind

    def test_bind_gives_up_after_budget(self, monkeypatch):
        from repro.mapreduce.runtime import netshuffle

        monkeypatch.setattr(netshuffle.time, "sleep", lambda s: None)

        def always_in_use(address, **kwargs):
            raise OSError(errno.EADDRINUSE, "address in use")

        monkeypatch.setattr(netshuffle.socket, "create_server",
                            always_in_use)
        with pytest.raises(OSError, match="bind"):
            netshuffle.SegmentServer._bind("127.0.0.1", 29799)

    def test_non_addrinuse_errors_raise_immediately(self, monkeypatch):
        from repro.mapreduce.runtime import netshuffle

        calls = {"n": 0}

        def denied(address, **kwargs):
            calls["n"] += 1
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr(netshuffle.socket, "create_server", denied)
        with pytest.raises(OSError, match="permission"):
            netshuffle.SegmentServer._bind("127.0.0.1", 80)
        assert calls["n"] == 1  # no retry budget burned on a real error


class TestPartitionHook:
    def test_partitioned_server_refuses_then_heals(self, tmp_path,
                                                   segment):
        path, stats = segment
        config = net_config(fetch_retries=0)
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            index = service.server_index("m00000")
            service.partition_server(index, 0.3)
            assert service.servers[index].alive  # alive, just unreachable
            transport = NetworkTransport(config)
            ref = make_ref(service, path, stats)
            with pytest.raises(TransientFetchError):
                transport.fetch(ref, 0, Deadline(1.0))
            time.sleep(0.35)  # the partition window closes on its own
            got = transport.fetch(ref, 0, Deadline(None))
            transport.close()
        with open(path, "rb") as fh:
            assert got == fh.read()


class TestPoolBounded:
    def test_pool_stays_bounded_across_a_faulty_run(self, tmp_path):
        """Repeated wire faults churn connections; the pool must keep
        at most one idle connection per server address, and close()
        must leave nothing behind even with check-ins racing it."""
        paths = []
        for i in range(3):
            p, stats = write_segment(tmp_path, name=f"m{i:05d}-out-p0")
            paths.append((f"m{i:05d}", p, stats))
        inj = FaultInjector()
        for map_id, _, _ in paths:
            inj.fetch(map_id, "r00000", op="flip", attempt=0)
        config = net_config(wire_codec="zlib", concurrency=2,
                            fetch_retries=2)
        with ShuffleService.from_config(
                config, faults=inj.fetch_plan()) as service:
            for map_id, p, _ in paths:
                service.register_map_output(map_id, [p])
            for round_ in range(4):
                counters = Counters()
                fetcher = ShuffleFetcher(config, counters, "r00000")
                refs = [make_ref(service, p, stats, map_id=m)
                        for m, p, stats in paths]
                blobs = fetcher.fetch_all(refs)
                assert len(blobs) == len(paths)
                addresses = {ref.address for ref in refs}
                assert fetcher.transport.pool_size() <= len(addresses)
                fetcher.close()
            transport = NetworkTransport(config)
            ref = make_ref(service, paths[0][1], paths[0][2],
                           map_id=paths[0][0])
            for _ in range(6):
                transport.fetch(ref, 1, Deadline(None))  # attempt 1: clean
            assert transport.pool_size() == 1
            transport.close()
            assert transport.pool_size() == 0
            # A check-in after close() must not repopulate the pool --
            # its socket is closed instead.
            transport._checkin(("127.0.0.1", 1), socket.socket())
            assert transport.pool_size() == 0


class TestServerSideFaults:
    @pytest.mark.parametrize("op", ["flip", "drop", "truncate", "stall"])
    def test_fault_is_transient_then_heals(self, tmp_path, segment, op):
        path, stats = segment
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", op=op, attempt=0, seconds=0.05)
        config = net_config(wire_codec="zlib", fetch_timeout=2.0)
        with ShuffleService.from_config(
                config, faults=inj.fetch_plan()) as service:
            service.register_map_output("m00000", [path])
            counters = Counters()
            fetcher = ShuffleFetcher(config, counters, "r00000")
            [got] = fetcher.fetch_all([make_ref(service, path, stats)])
        with open(path, "rb") as fh:
            assert got == fh.read()
        assert counters.get(C.SHUFFLE_RETRIES) == 1

    def test_delay_past_the_deadline_is_transient_then_heals(
            self, tmp_path, segment):
        """A response held back past the fetch deadline times out the
        attempt; the retry (no planned fault) is clean."""
        path, stats = segment
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", op="delay", attempt=0, seconds=0.5)
        config = net_config(wire_codec="zlib", fetch_timeout=0.1)
        with ShuffleService.from_config(
                config, faults=inj.fetch_plan()) as service:
            service.register_map_output("m00000", [path])
            counters = Counters()
            fetcher = ShuffleFetcher(config, counters, "r00000")
            [got] = fetcher.fetch_all([make_ref(service, path, stats)])
        with open(path, "rb") as fh:
            assert got == fh.read()
        assert counters.get(C.SHUFFLE_RETRIES) == 1
        assert counters.get(C.SHUFFLE_FAILED_FETCHES) == 1

    def test_delay_within_the_deadline_is_late_but_intact(self, tmp_path,
                                                          segment):
        path, stats = segment
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", op="delay", attempt=0, seconds=0.05)
        config = net_config(wire_codec="zlib", fetch_timeout=2.0)
        with ShuffleService.from_config(
                config, faults=inj.fetch_plan()) as service:
            service.register_map_output("m00000", [path])
            counters = Counters()
            fetcher = ShuffleFetcher(config, counters, "r00000")
            [got] = fetcher.fetch_all([make_ref(service, path, stats)])
        with open(path, "rb") as fh:
            assert got == fh.read()
        assert counters.get(C.SHUFFLE_RETRIES) == 0

    def test_faults_target_only_their_link(self, tmp_path, segment):
        path, stats = segment
        inj = FaultInjector()
        inj.fetch("m00000", "r00001", op="flip", attempt=0)
        config = net_config(wire_codec="zlib")
        with ShuffleService.from_config(
                config, faults=inj.fetch_plan()) as service:
            service.register_map_output("m00000", [path])
            counters = Counters()
            fetcher = ShuffleFetcher(config, counters, "r00000")
            fetcher.fetch_all([make_ref(service, path, stats)])
        assert counters.get(C.SHUFFLE_RETRIES) == 0


class TestTraceEvents:
    def test_served_and_stale_events_recorded(self, tmp_path, segment):
        path, stats = segment
        config = net_config()
        trace = RuntimeTrace()
        with ShuffleService.from_config(config, trace=trace) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            transport.fetch(make_ref(service, path, stats), 0,
                            Deadline(None))
            with pytest.raises(TransientFetchError):
                transport.fetch(make_ref(service, path, stats, epoch=7),
                                0, Deadline(None))
            transport.close()
        assert trace.count("wire_served") == 1
        assert trace.count("wire_stale") == 1


class TestDamageAtRest:
    def test_rewritten_segment_served_with_fresh_crc(self, tmp_path):
        """The CRC cache revalidates by stat: damage at rest is served
        as-is (matching its own CRC), so the *decode* catches it -- the
        repair rung, not the transfer-retry rung."""
        path, stats = write_segment(tmp_path)
        config = net_config()
        with ShuffleService.from_config(config) as service:
            service.register_map_output("m00000", [path])
            transport = NetworkTransport(config)
            ref = make_ref(service, path, stats)
            first = transport.fetch(ref, 0, Deadline(None))
            # Rewrite the file on disk (what segment repair does).
            with open(path, "rb") as fh:
                blob = fh.read()
            damaged = blob[: len(blob) // 2] + bytes(
                [blob[len(blob) // 2] ^ 0xFF]) + blob[len(blob) // 2 + 1:]
            with open(path, "wb") as fh:
                fh.write(damaged)
            os.utime(path, ns=(1, 1))  # force a distinct mtime_ns
            second = transport.fetch(ref, 0, Deadline(None))
            transport.close()
        assert first == blob
        assert second == damaged  # served faithfully; decode will object
        assert zlib.crc32(second) != zlib.crc32(first)


class RecordingConn:
    """A socket stand-in that records every write a server makes."""

    def __init__(self):
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))

    def send(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def sendmsg(self, buffers, *args):
        self.writes.append(b"".join(buffers))
        return len(self.writes[-1])

    def sendfile(self, fh):
        self.writes.append(fh.read())

    @property
    def stream(self):
        return b"".join(self.writes)


def reference_response(blob, codec, chunk, op, offset_frac=0.5):
    """The OK response for ``blob``, built from the documented rule:
    status, ``u32 len | JSON header``, then the raw body (verbatim) or
    ``u32 len | u32 crc32 | chunk`` frames and an all-zero terminator.
    ``drop`` cuts the body and omits the terminator, ``truncate`` cuts
    the frames and keeps it, ``flip`` damages the middle frame after
    its CRC was taken."""
    framed = codec != "null" or op in ("truncate", "flip")
    comp = get_codec(codec).compress(blob) if framed else b""
    header = json.dumps({
        "codec": codec, "length": len(blob), "crc": zlib.crc32(blob),
        "framed": framed, "wire_length": len(comp),
    }).encode()
    stream = bytes([OK]) + struct.pack(">I", len(header)) + header
    if not framed:
        keep = int(len(blob) * offset_frac) if op == "drop" else len(blob)
        return stream + blob[:keep]
    size = max(256, chunk)
    frames = [comp[i:i + size] for i in range(0, len(comp), size)]
    n = len(frames)
    if op in ("drop", "truncate"):
        frames = frames[:max(0, min(n - 1, int(n * offset_frac)))]
    for i, frame in enumerate(frames):
        crc = zlib.crc32(frame)
        if op == "flip" and i == n // 2:
            mid = len(frame) // 2
            frame = frame[:mid] + bytes([frame[mid] ^ 0xFF]) + frame[mid + 1:]
        stream += struct.pack(">II", len(frame), crc) + frame
    if op != "drop":
        stream += struct.pack(">II", 0, 0)
    return stream


class TestResponseWrites:
    """How a response leaves the server: one write when framed (the
    piecewise writes stalled on Nagle x delayed ACK), header then
    ``sendfile`` when verbatim, and byte for byte the framing rule."""

    @pytest.fixture(scope="class")
    def big_segment(self, tmp_path_factory):
        """~160 KiB of incompressible values: several 64 KiB frames."""
        rng = random.Random(30)
        path = str(tmp_path_factory.mktemp("writes") / "m00000-out-p0")
        writer = IFileWriter(path, NullCodec())
        for i in range(1200):
            writer.append(f"k{i:05d}".encode(), rng.randbytes(128))
        writer.close()
        with open(path, "rb") as fh:
            return path, fh.read()

    @staticmethod
    def serve(path, codec, chunk, op=None):
        inj = FaultInjector()
        if op is not None:
            inj.fetch("m00000", "r00000", op=op, attempt=0)
        config = net_config(wire_codec=codec, chunk_bytes=chunk)
        with ShuffleService.from_config(
                config, faults=inj.fetch_plan()) as service:
            service.register_map_output("m00000", [path])
            server = service.servers[service.server_index("m00000")]
            conn = RecordingConn()
            ok = server._serve(conn, {
                "map_id": "m00000", "path": path, "epoch": 0,
                "reduce_id": "r00000", "attempt": 0, "codec": codec,
                "chunk": chunk})
        return ok, conn

    @pytest.mark.parametrize("chunk", [256, 64 * 1024])
    def test_clean_framed_response_is_one_write(self, big_segment, chunk):
        path, blob = big_segment
        ok, conn = self.serve(path, "fastpred+zlib", chunk)
        assert ok
        assert len(conn.writes) == 1
        assert conn.stream == reference_response(blob, "fastpred+zlib",
                                                 chunk, None)

    @pytest.mark.parametrize("chunk", [256, 64 * 1024])
    @pytest.mark.parametrize("codec", ["null", "fastpred+zlib"])
    @pytest.mark.parametrize("op", [None, "drop", "truncate", "flip"])
    def test_stream_follows_the_framing_rule(self, big_segment, codec,
                                             chunk, op):
        path, blob = big_segment
        ok, conn = self.serve(path, codec, chunk, op)
        assert ok == (op != "drop")  # drop kills the connection
        assert conn.stream == reference_response(blob, codec, chunk, op)
        framed = codec != "null" or op in ("truncate", "flip")
        # framed: one write, faults included; verbatim: header, body
        assert len(conn.writes) == (1 if framed else 2)
