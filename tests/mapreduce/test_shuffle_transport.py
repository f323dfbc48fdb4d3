"""The shuffle transport service: fetch, verify, retry, re-execute.

The map->reduce hop used to be an ``open()`` call; now it is a
first-class transfer through a pluggable transport.  Pinned here:

* the direct and network transports are byte-identical on clean
  segments, and the cheap :func:`~repro.mapreduce.ifile.segment_digest`
  actually discriminates (length + trailing CRC);
* every planned wire fault (flip / drop / truncate / delay / stall)
  surfaces from the network transport as a :class:`TransientFetchError`
  *before* any byte reaches the merge, and the next attempt is clean;
* only ``network``/``direct`` exist: the retired in-process channel
  transport is rejected by every surface that names a transport;
* the fetcher's failure accounting: retries counted, missing files
  escalate immediately (no pointless retries of a deleted segment),
  an exhausted budget raises :class:`FetchFailedError` naming the
  producing map -- and that error is deliberately not skip-eligible;
* fetch-fault selection respects attempt anchors, stickiness, and
  epochs (a re-executed map's segments escape their predecessor's
  faults);
* end to end, a sticky epoch-0 fault drives both runners through map
  re-execution to byte-identical output, and the serial/parallel
  runners agree on the SHUFFLE_* counters.
"""

import dataclasses
import os
from contextlib import contextmanager

import pytest

from repro.mapreduce.ifile import (
    IFileCorruptError,
    IFileWriter,
    segment_digest,
)
from repro.mapreduce.codecs import NullCodec
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime import (
    FaultInjector,
    LocalJobRunner,
    ParallelJobRunner,
    TaskFailedError,
    is_skip_eligible,
)
from repro.mapreduce.runtime.ledger import MapOutputLedger
from repro.mapreduce.runtime.netshuffle import NetworkTransport, ShuffleService
from repro.mapreduce.runtime.shuffle import (
    TRANSPORTS,
    ConfigError,
    DirectTransport,
    FetchFailedError,
    SegmentRef,
    ShuffleConfig,
    ShuffleFetcher,
    TransientFetchError,
    select_fetch_fault,
    shuffle_config_from_env,
)
from repro.mapreduce.runtime.trace import EVENT_KINDS, RuntimeTrace
from repro.scidata import integer_grid
from repro.util.timing import Deadline
from tests.mapreduce.test_engine import make_job


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


@pytest.fixture
def segment(tmp_path):
    """One real IFile segment on disk, as a SegmentRef."""
    path = str(tmp_path / "m00000-out-p0")
    writer = IFileWriter(path, NullCodec())
    for i in range(200):
        writer.append(f"k{i:04d}".encode(), f"v{i:04d}".encode())
    stats = writer.close()
    return SegmentRef(map_id="m00000", path=path, stats=stats)


def fetch_plan(*faults):
    """Group planned faults by producing map id, like the injector."""
    inj = FaultInjector()
    reduce_id = faults[0]["reduce_id"]
    for inj_args in faults:
        inj.fetch(**inj_args)
    return inj.fetch_plan_for(reduce_id)


class TestSegmentDigest:
    def test_path_and_bytes_sources_agree(self, segment):
        with open(segment.path, "rb") as fh:
            blob = fh.read()
        assert segment_digest(segment.path) == segment_digest(blob)
        assert segment_digest(blob).length == len(blob)

    def test_matches_discriminates(self, segment):
        with open(segment.path, "rb") as fh:
            blob = fh.read()
        digest = segment_digest(blob)
        assert digest.matches(blob)
        assert not digest.matches(blob[:-1])          # short
        assert not digest.matches(blob + b"x")        # long
        flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        assert not digest.matches(flipped)            # tail CRC damaged

    def test_too_short_raises_corrupt_not_struct_error(self, tmp_path):
        stub = tmp_path / "stub"
        stub.write_bytes(b"ab")
        with pytest.raises(IFileCorruptError) as err:
            segment_digest(str(stub))
        assert err.value.path == str(stub)
        with pytest.raises(IFileCorruptError):
            segment_digest(b"ab")

    def test_zero_length_sources_raise_corrupt(self, tmp_path):
        """Empty file and empty bytes both fail structurally: a real
        segment always carries at least its trailer."""
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(IFileCorruptError):
            segment_digest(str(empty))
        with pytest.raises(IFileCorruptError):
            segment_digest(b"")

    def test_blocked_layout_digest(self, tmp_path):
        """The chunked \\x93IFB layout digests by its trailing footer
        CRC, and path/bytes sources agree like the plain layout."""
        path = str(tmp_path / "blocked")
        writer = IFileWriter(path, NullCodec(), block_bytes=256)
        for i in range(200):
            writer.append(f"k{i:04d}".encode(), f"v{i:04d}".encode())
        writer.close()
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(b"\x93IFB")
        digest = segment_digest(path)
        assert digest == segment_digest(blob)
        assert digest.length == len(blob)
        # The digest CRC is the footer checksum stored in the last 4
        # bytes -- O(1) to read, no decode required.
        assert digest.crc == int.from_bytes(blob[-4:], "big")
        assert digest.matches(blob)
        assert not digest.matches(blob[:-1])

    def test_truncated_footer_still_digests_but_mismatches(self, tmp_path):
        """Truncating a segment mid-footer yields a digest that cannot
        match the original bytes (transfer verification catches it)."""
        path = str(tmp_path / "blocked")
        writer = IFileWriter(path, NullCodec(), block_bytes=256)
        for i in range(64):
            writer.append(f"k{i:04d}".encode(), f"v{i:04d}".encode())
        writer.close()
        with open(path, "rb") as fh:
            blob = fh.read()
        original = segment_digest(blob)
        truncated = blob[:-3]  # mid-CRC cut
        assert not original.matches(truncated)
        assert segment_digest(truncated) != original
        # Cut below the trailer altogether: structural failure.
        with pytest.raises(IFileCorruptError):
            segment_digest(blob[:3])


class TestSegmentRef:
    def test_from_pair_adopts_legacy_tuple(self, segment):
        ref = SegmentRef.from_pair((segment.path, segment.stats))
        assert ref.map_id == "m00000"
        assert ref.path == segment.path
        assert ref.epoch == 0

    def test_from_pair_passthrough(self, segment):
        assert SegmentRef.from_pair(segment) is segment


#: every variable shuffle_config_from_env reads (cleared before each
#: from_env test so CLI-flag tests elsewhere cannot leak into these)
_CONFIG_ENV_VARS = ("REPRO_TRANSPORT", "REPRO_FETCH_RETRIES",
                    "REPRO_FETCH_TIMEOUT", "REPRO_WIRE_CODEC",
                    "REPRO_SHUFFLE_PORT_BASE", "REPRO_PIPELINE",
                    "REPRO_STARVATION_THRESHOLD", "REPRO_MEMORY_BUDGET",
                    "REPRO_MAX_MEMORY_RETRIES")


class TestShuffleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShuffleConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ShuffleConfig(fetch_retries=-1)
        with pytest.raises(ValueError):
            ShuffleConfig(fetch_timeout=0.0)
        with pytest.raises(ValueError):
            ShuffleConfig(concurrency=0)
        with pytest.raises(ValueError):
            ShuffleConfig(chunk_bytes=16)

    def test_from_env(self, monkeypatch):
        for name in _CONFIG_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        assert shuffle_config_from_env() is None
        monkeypatch.setenv("REPRO_TRANSPORT", "direct")
        monkeypatch.setenv("REPRO_FETCH_RETRIES", "5")
        monkeypatch.setenv("REPRO_FETCH_TIMEOUT", "1.5")
        config = shuffle_config_from_env()
        assert config.transport == "direct"
        assert config.fetch_retries == 5
        assert config.fetch_timeout == 1.5

    def test_from_env_network_round_trip(self, monkeypatch):
        for name in _CONFIG_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_TRANSPORT", "network")
        monkeypatch.setenv("REPRO_WIRE_CODEC", "fastpred+zlib")
        monkeypatch.setenv("REPRO_SHUFFLE_PORT_BASE", "28000")
        config = shuffle_config_from_env()
        assert config.transport == "network"
        assert config.wire_codec == "fastpred+zlib"
        assert config.port_base == 28000

    def test_from_env_memory_round_trip(self, monkeypatch):
        for name in _CONFIG_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1048576")
        monkeypatch.setenv("REPRO_MAX_MEMORY_RETRIES", "3")
        config = shuffle_config_from_env()
        assert config.memory_budget == 1048576
        assert config.max_memory_retries == 3

    @pytest.mark.parametrize("var,value,needle", [
        ("REPRO_FETCH_RETRIES", "three", "REPRO_FETCH_RETRIES='three'"),
        ("REPRO_FETCH_RETRIES", "1.5", "REPRO_FETCH_RETRIES='1.5'"),
        ("REPRO_FETCH_TIMEOUT", "soon", "REPRO_FETCH_TIMEOUT='soon'"),
        ("REPRO_SHUFFLE_PORT_BASE", "http", "REPRO_SHUFFLE_PORT_BASE"),
        ("REPRO_WIRE_CODEC", "martian", "available codecs"),
    ])
    def test_from_env_malformed_value_names_variable(self, monkeypatch,
                                                     var, value, needle):
        """A typo'd env var reads as one sentence naming the setting,
        never a raw int()/float() traceback."""
        for name in _CONFIG_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError) as err:
            shuffle_config_from_env()
        assert needle in str(err.value)

    @pytest.mark.parametrize("var,value", [
        ("REPRO_TRANSPORT", "carrier-pigeon"),
        ("REPRO_FETCH_RETRIES", "-2"),
        ("REPRO_FETCH_TIMEOUT", "0"),
        ("REPRO_SHUFFLE_PORT_BASE", "80"),   # below the unprivileged range
        ("REPRO_MEMORY_BUDGET", "255"),      # below one IFile block
        ("REPRO_MAX_MEMORY_RETRIES", "0"),   # ladder needs one rung
        ("REPRO_MAX_MEMORY_RETRIES", "2.5"),
    ])
    def test_from_env_out_of_range_value(self, monkeypatch, var, value):
        """Well-formed but invalid values also surface as ConfigError."""
        for name in _CONFIG_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError):
            shuffle_config_from_env()

    @pytest.mark.parametrize("surface", ["config", "env", "cli"])
    def test_channel_transport_is_rejected(self, monkeypatch, capsys,
                                           surface):
        """The in-process channel transport is gone: the config, the
        REPRO_TRANSPORT variable and the CLI flag each reject it and
        list the transports that exist."""
        for name in _CONFIG_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        if surface == "config":
            with pytest.raises(ValueError) as err:
                ShuffleConfig(transport="channel")
            message = str(err.value)
        elif surface == "env":
            monkeypatch.setenv("REPRO_TRANSPORT", "channel")
            with pytest.raises(ConfigError) as err:
                shuffle_config_from_env()
            message = str(err.value)
            assert "REPRO_TRANSPORT='channel'" in message
        else:
            from repro.cli import main

            with pytest.raises(SystemExit) as err:
                main(["run", "F7", "--transport", "channel"])
            assert err.value.code == 2
            message = capsys.readouterr().err
        assert TRANSPORTS == ("direct", "network")
        assert all(name in message for name in TRANSPORTS)

    def test_config_error_is_a_value_error(self):
        # Callers that already catch ValueError keep working.
        assert issubclass(ConfigError, ValueError)


class TestFetchFaultSelection:
    def make(self, **kw):
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", **kw)
        return inj.fetch_plan_for("r00000")["m00000"][0]

    def test_exact_attempt_anchor(self):
        fault = self.make(op="flip", attempt=1)
        assert select_fetch_fault([fault], 1, 0) is fault
        assert select_fetch_fault([fault], 0, 0) is None
        assert select_fetch_fault([fault], 2, 0) is None

    def test_sticky_applies_from_anchor_onward(self):
        fault = self.make(op="drop", attempt=1, sticky=True)
        assert select_fetch_fault([fault], 0, 0) is None
        assert select_fetch_fault([fault], 1, 0) is fault
        assert select_fetch_fault([fault], 7, 0) is fault

    def test_epoch_scoping(self):
        pinned = self.make(op="flip", attempt=0, sticky=True, epoch=0)
        assert select_fetch_fault([pinned], 0, 0) is pinned
        assert select_fetch_fault([pinned], 0, 1) is None  # reexec escaped
        everywhere = self.make(op="flip", attempt=0, sticky=True, epoch=None)
        assert select_fetch_fault([everywhere], 3, 2) is everywhere


@contextmanager
def served(segment, faults=None):
    """``segment`` behind a live segment server: (transport, ref)."""
    config = ShuffleConfig(transport="network", wire_codec="zlib",
                           chunk_bytes=256)
    with ShuffleService.from_config(config, faults=faults) as service:
        service.register_map_output(segment.map_id, [segment.path])
        transport = NetworkTransport(config, reduce_id="r00000")
        try:
            yield transport, dataclasses.replace(
                segment, address=service.address_for(segment.map_id))
        finally:
            transport.close()


class TestTransports:
    def test_transports_byte_identical(self, segment):
        deadline = Deadline(None)
        direct = DirectTransport().fetch(segment, 0, deadline)
        with served(segment) as (transport, ref):
            network = transport.fetch(ref, 0, deadline)
        with open(segment.path, "rb") as fh:
            assert direct == network == fh.read()

    @pytest.mark.parametrize("op,needs_deadline", [
        ("flip", False), ("drop", False), ("truncate", False),
        ("delay", True), ("stall", True),
    ])
    def test_each_wire_fault_is_caught(self, segment, op, needs_deadline):
        plan = FaultInjector().fetch("m00000", "r00000", op=op, attempt=0,
                                     seconds=0.3).fetch_plan()
        with served(segment, plan) as (transport, ref):
            deadline = Deadline(0.05 if needs_deadline else None)
            with pytest.raises(TransientFetchError):
                transport.fetch(ref, 0, deadline)
            # the next attempt (no planned fault) is clean
            with open(segment.path, "rb") as fh:
                assert transport.fetch(ref, 1, Deadline(None)) == fh.read()

    def test_delay_without_deadline_is_late_but_intact(self, segment):
        plan = FaultInjector().fetch("m00000", "r00000", op="delay",
                                     attempt=0, seconds=0.01).fetch_plan()
        with served(segment, plan) as (transport, ref):
            with open(segment.path, "rb") as fh:
                assert transport.fetch(ref, 0, Deadline(None)) == fh.read()

    @pytest.mark.parametrize("op,raises", [
        ("drop", True), ("stall", True), ("delay", True),
        ("flip", False), ("truncate", False),
    ])
    def test_direct_applies_connection_faults_only(self, segment, op,
                                                   raises):
        """Without a wire, only refusals and lateness apply; payload
        damage ops leave the file read intact."""
        plan = fetch_plan(dict(map_id="m00000", reduce_id="r00000", op=op,
                               attempt=0, seconds=0.3))
        transport = DirectTransport(plan)
        with open(segment.path, "rb") as fh:
            blob = fh.read()
        if raises:
            with pytest.raises(TransientFetchError):
                transport.fetch(segment, 0, Deadline(0.05))
        else:
            assert transport.fetch(segment, 0, Deadline(0.05)) == blob
        assert transport.fetch(segment, 1, Deadline(None)) == blob


class TestShuffleFetcher:
    def make_fetcher(self, plan=None, **config):
        config.setdefault("transport", "direct")
        config.setdefault("backoff", 0.0)
        counters = Counters()
        fetcher = ShuffleFetcher(ShuffleConfig(**config), counters,
                                 "r00000", plan)
        return fetcher, counters

    def test_retry_heals_and_counts(self, segment):
        plan = fetch_plan(dict(map_id="m00000", reduce_id="r00000",
                               op="drop", attempt=0))
        fetcher, counters = self.make_fetcher(plan)
        blobs = fetcher.fetch_all([segment])
        with open(segment.path, "rb") as fh:
            assert blobs == [fh.read()]
        assert counters[C.SHUFFLE_FETCHES] == 2
        assert counters[C.SHUFFLE_RETRIES] == 1
        assert counters[C.SHUFFLE_FAILED_FETCHES] == 1
        assert counters[C.SHUFFLE_BYTES_TRANSFERRED] >= len(blobs[0])

    def test_exhausted_budget_names_the_map(self, segment):
        plan = fetch_plan(dict(map_id="m00000", reduce_id="r00000",
                               op="drop", attempt=0, sticky=True))
        fetcher, counters = self.make_fetcher(plan, fetch_retries=2)
        with pytest.raises(FetchFailedError) as err:
            fetcher.fetch_one(segment)
        assert err.value.map_id == "m00000"
        assert err.value.reduce_id == "r00000"
        assert err.value.attempts == 3
        assert counters[C.SHUFFLE_FAILED_FETCHES] == 3

    def test_missing_segment_fails_immediately(self, segment):
        os.unlink(segment.path)
        fetcher, counters = self.make_fetcher(fetch_retries=5)
        with pytest.raises(FetchFailedError) as err:
            fetcher.fetch_one(segment)
        assert err.value.attempts == 1      # no retries of a deleted file
        assert counters[C.SHUFFLE_FETCHES] == 1

    def test_concurrent_fetch_preserves_order(self, tmp_path):
        refs = []
        for i in range(8):
            path = str(tmp_path / f"m{i:05d}-out-p0")
            writer = IFileWriter(path, NullCodec())
            writer.append(f"key{i}".encode(), b"value")
            stats = writer.close()
            refs.append(SegmentRef(map_id=f"m{i:05d}", path=path,
                                   stats=stats))
        fetcher, counters = self.make_fetcher(concurrency=4)
        blobs = fetcher.fetch_all(refs)
        for ref, blob in zip(refs, blobs):
            with open(ref.path, "rb") as fh:
                assert blob == fh.read()
        assert counters[C.SHUFFLE_FETCHES] == 8

    def test_fetch_failure_is_not_skip_eligible(self):
        exc = FetchFailedError("m00000", "r00000", 4, "gone")
        assert not is_skip_eligible(exc)


class TestTruncatedValueDecode:
    def test_sum_count_pair_truncation_is_a_record_error(self):
        """A truncated sum/count pair must surface as the pipeline's
        corrupt-record vocabulary (skippable/salvageable), not a raw
        ``struct.error`` that aborts the task."""
        from repro.queries.sliding_mean import SumCountSerde
        from repro.util.errors import TruncatedRecordError

        serde = SumCountSerde()
        buf = bytearray()
        serde.write((2.5, 3), buf)
        assert serde.read(bytes(buf), 0) == ((2.5, 3), 12)
        with pytest.raises(TruncatedRecordError):
            serde.read(bytes(buf[:7]), 0)
        with pytest.raises(TruncatedRecordError):
            serde.read(bytes(buf), 5)   # tail shorter than one pair


class TestTraceRegistry:
    def test_shuffle_events_registered(self):
        assert "fetch_failure" in EVENT_KINDS
        assert "map_reexec" in EVENT_KINDS

    def test_registry_has_no_duplicates(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))

    def test_unregistered_event_rejected(self):
        trace = RuntimeTrace()
        with pytest.raises(ValueError):
            trace.record("t1", 0, "map", "totally-new-event")
        with pytest.raises(ValueError):
            trace.count("totally-new-event")

    def test_registry_is_stable(self):
        """The event vocabulary is an API: simulators, benches, and the
        experiments count on these exact names.  Additions are fine;
        renames/removals break consumers and must show up here."""
        expected = {"queued", "started", "finished", "failed", "retried",
                    "speculated", "killed", "discarded", "repaired",
                    "timeout", "adopted", "skipping", "quarantined",
                    "fetch_failure", "map_reexec"}
        assert expected <= set(EVENT_KINDS)


class TestEndToEnd:
    def run_serial(self, grid, job, injector=None, **runner_kw):
        runner_kw.setdefault(
            "shuffle", ShuffleConfig(fetch_retries=1, backoff=0.0))
        with LocalJobRunner(fault_injector=injector, **runner_kw) as runner:
            return runner.run(job, grid)

    def run_parallel(self, grid, job, injector=None, **runner_kw):
        runner_kw.setdefault(
            "shuffle", ShuffleConfig(fetch_retries=1, backoff=0.0))
        with ParallelJobRunner(max_workers=2, speculation=False,
                               retry_backoff=0.01,
                               fault_injector=injector,
                               **runner_kw) as runner:
            return runner.run(job, grid)

    def sticky_epoch0(self):
        inj = FaultInjector()
        inj.fetch("m00000", "r00000", op="drop", attempt=0, sticky=True,
                  epoch=0)
        return inj

    def test_reexec_restores_output_serial(self, grid):
        job = make_job(num_map_tasks=2, num_reducers=2)
        baseline = LocalJobRunner().run(job, grid)
        result = self.run_serial(grid, job, self.sticky_epoch0())
        assert result.output == baseline.output
        assert result.counters[C.MAPS_REEXECUTED] == 1
        # the winning attempt's fetches are clean post-reexec, so the
        # baseline's non-shuffle counters survive untouched
        assert result.counters[C.SHUFFLE_BYTES] == \
            baseline.counters[C.SHUFFLE_BYTES]

    def test_reexec_restores_output_parallel_and_agrees(self, grid):
        job = make_job(num_map_tasks=2, num_reducers=2)
        baseline = LocalJobRunner().run(job, grid)
        serial = self.run_serial(grid, job, self.sticky_epoch0())
        parallel = self.run_parallel(grid, job, self.sticky_epoch0())
        assert parallel.output == baseline.output
        assert parallel.counters == serial.counters
        assert parallel.counters[C.MAPS_REEXECUTED] == 1
        assert parallel.trace.count("map_reexec") == 1
        assert parallel.trace.count("fetch_failure") >= 1

    def test_all_epochs_sticky_fails_both_runners(self, grid):
        job = make_job(num_map_tasks=2, num_reducers=1)
        inj = FaultInjector()
        inj.fetch("m00001", "r00000", op="drop", attempt=0, sticky=True,
                  epoch=None)
        with pytest.raises(FetchFailedError):
            self.run_serial(grid, job, inj, max_map_reexecs=1)
        inj2 = FaultInjector()
        inj2.fetch("m00001", "r00000", op="drop", attempt=0, sticky=True,
                   epoch=None)
        with pytest.raises(TaskFailedError):
            self.run_parallel(grid, job, inj2, max_map_reexecs=1)

    def test_missing_segment_triggers_reexec_not_failure(self, grid,
                                                         tmp_path):
        """Deleting a finished map's segment mid-shuffle is survivable:
        the fetch fails permanently, the map is re-executed, the job
        completes with baseline output (the ISSUE's acceptance case)."""
        job = make_job(num_map_tasks=2, num_reducers=1)
        baseline = LocalJobRunner().run(job, grid)
        lost: list[str] = []

        class LosingLedger(MapOutputLedger):
            """Loses m00001's first-generation segment right after it
            is published -- i.e. after the map finished, before any
            reducer fetches."""

            def publish(self, map_id, mo, **kwargs):
                super().publish(map_id, mo, **kwargs)
                if map_id == "m00001" and self.epochs[map_id] == 0:
                    lost.append(mo.segments[0][0])
                    os.unlink(mo.segments[0][0])

        class LosingRunner(LocalJobRunner):
            def _make_ledger(self, *args, **kwargs):
                self.ledger = LosingLedger(*args, **kwargs)
                return self.ledger

        runner = LosingRunner(
            workdir=str(tmp_path / "serial"), keep_files=True,
            shuffle=ShuffleConfig(fetch_retries=1, backoff=0.0),
            fetch_failure_threshold=1)
        result = runner.run(job, grid)
        assert len(lost) == 1
        assert runner.ledger.map_reexecs == 1
        assert runner.ledger.epochs == {"m00000": 0, "m00001": 1}
        # the re-run wrote a fresh per-epoch directory the ledger points at
        current = runner.ledger.results["m00001"].segments[0][0]
        assert current != lost[0] and os.path.exists(current)
        assert result.counters[C.MAPS_REEXECUTED] == 1
        assert result.output == baseline.output

    def test_runner_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            LocalJobRunner(fetch_failure_threshold=0)
        with pytest.raises(ValueError):
            LocalJobRunner(max_map_reexecs=-1)
