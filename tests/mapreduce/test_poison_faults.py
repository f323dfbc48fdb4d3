"""Fault-plan surface: poison/corrupt faults, stickiness, damage ops.

Unit coverage for the :mod:`repro.mapreduce.runtime.fault` additions
behind the poison-safe pipeline: fault validation, sticky resolution in
:meth:`FaultInjector.fault_for` (a poison record does not vanish on
retry), the three ``corrupt_file`` damage ops, the poisoned
mapper/reducer wrappers skipping mode bisects against, and the serial
runner's refusal of process-level fault modes it cannot host.
"""

import numpy as np
import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime.fault import (
    Fault,
    PoisonedMapper,
    PoisonedReducer,
    PoisonRecordError,
    corrupt_file,
)
from repro.scidata import integer_grid
from tests.mapreduce.test_engine import make_job


class TestFaultValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            Fault("meteor")

    def test_corrupt_field_validation(self):
        with pytest.raises(ValueError):
            Fault("corrupt", where="shuffle-buffer")
        with pytest.raises(ValueError):
            Fault("corrupt", op="scramble")
        with pytest.raises(ValueError):
            Fault("corrupt", offset_frac=1.5)

    def test_negative_record(self):
        with pytest.raises(ValueError):
            Fault("poison", record=-1)

    def test_sticky_defaults(self):
        # poison must survive retries by default; process faults are
        # one-shot so the retry rung can succeed
        assert Fault("poison").sticky is True
        assert Fault("kill").sticky is False
        assert Fault("corrupt").sticky is False
        assert Fault("crash", sticky=True).sticky is True


class TestFaultResolution:
    def test_exact_attempt_match_wins(self):
        injector = FaultInjector().kill("m00000", attempt=1)
        assert injector.fault_for("m00000", 0) is None
        assert injector.fault_for("m00000", 1).mode == "kill"
        assert injector.fault_for("m00001", 1) is None

    def test_one_shot_faults_do_not_reapply(self):
        injector = FaultInjector().corrupt("m00000")
        assert injector.fault_for("m00000", 0).mode == "corrupt"
        assert injector.fault_for("m00000", 1) is None

    def test_sticky_poison_survives_retries(self):
        injector = FaultInjector().poison("m00000", record=5)
        for attempt in range(4):
            fault = injector.fault_for("m00000", attempt)
            assert fault is not None and fault.record == 5

    def test_sticky_does_not_apply_before_its_anchor(self):
        injector = FaultInjector().poison("m00000", record=5, attempt=2)
        assert injector.fault_for("m00000", 1) is None
        assert injector.fault_for("m00000", 3) is not None

    def test_most_recently_anchored_sticky_wins(self):
        injector = (FaultInjector()
                    .poison("m00000", record=1, attempt=0)
                    .poison("m00000", record=2, attempt=2))
        assert injector.fault_for("m00000", 1).record == 1
        assert injector.fault_for("m00000", 5).record == 2

    def test_duplicate_plan_entries_rejected(self):
        injector = FaultInjector().kill("m00000")
        with pytest.raises(ValueError):
            injector.stall("m00000")


class TestCorruptFile:
    def write(self, tmp_path, blob):
        path = tmp_path / "seg"
        path.write_bytes(blob)
        return path

    def test_flip_changes_exactly_one_byte(self, tmp_path):
        blob = bytes(range(256))
        path = self.write(tmp_path, blob)
        corrupt_file(str(path), offset_frac=0.5, op="flip")
        after = path.read_bytes()
        assert len(after) == len(blob)
        assert sum(a != b for a, b in zip(blob, after)) == 1
        assert after[128] == blob[128] ^ 0xFF

    def test_truncate_cuts_the_file(self, tmp_path):
        path = self.write(tmp_path, bytes(100))
        corrupt_file(str(path), offset_frac=0.25, op="truncate")
        assert path.stat().st_size == 25

    def test_splice_swaps_two_windows(self, tmp_path):
        blob = bytes(range(200))
        path = self.write(tmp_path, blob)
        corrupt_file(str(path), offset_frac=0.5, op="splice")
        after = path.read_bytes()
        assert len(after) == len(blob)
        assert after != blob
        assert sorted(after) == sorted(blob)  # content moved, not changed

    def test_splice_on_identical_windows_falls_back_to_flip(self, tmp_path):
        # all-equal bytes make every splice a no-op; injected corruption
        # must still corrupt
        path = self.write(tmp_path, b"\x42" * 64)
        corrupt_file(str(path), offset_frac=0.5, op="splice")
        assert path.read_bytes() != b"\x42" * 64

    def test_empty_file_is_left_alone(self, tmp_path):
        path = self.write(tmp_path, b"")
        corrupt_file(str(path), op="flip")
        assert path.read_bytes() == b""


class _Split:
    """Minimal split stand-in for the wrapper tests."""

    split_id = 0


class _RecordingMapper(Mapper):
    """Collects the calls the poison wrapper forwards."""

    def __init__(self):
        self.calls = []

    def map(self, split, values, ctx):
        self.calls.append(("map", None))

    def map_range(self, split, values, ctx, start, stop):
        self.calls.append(("map_range", (start, stop)))


class _RecordingReducer(Reducer):
    """Collects the key groups the poison wrapper forwards."""

    def __init__(self):
        self.keys = []

    def reduce(self, key, values, ctx):
        self.keys.append(key)


class TestPoisonWrappers:
    def test_mapper_raises_before_emitting(self):
        inner = _RecordingMapper()
        wrapper = PoisonedMapper(inner, record=4)
        values = np.arange(9).reshape(3, 3)
        with pytest.raises(PoisonRecordError):
            wrapper.map(_Split(), values, ctx=None)
        assert inner.calls == []

    def test_mapper_out_of_range_record_passes_through(self):
        inner = _RecordingMapper()
        wrapper = PoisonedMapper(inner, record=100)
        wrapper.map(_Split(), np.arange(9).reshape(3, 3), ctx=None)
        assert inner.calls == [("map", None)]

    def test_map_range_raises_only_when_covering(self):
        inner = _RecordingMapper()
        wrapper = PoisonedMapper(inner, record=4)
        values = np.arange(9).reshape(3, 3)
        wrapper.map_range(_Split(), values, None, 0, 4)
        wrapper.map_range(_Split(), values, None, 5, 9)
        with pytest.raises(PoisonRecordError):
            wrapper.map_range(_Split(), values, None, 4, 5)
        assert inner.calls == [("map_range", (0, 4)), ("map_range", (5, 9))]

    def test_reducer_poisons_one_group_ordinal(self):
        inner = _RecordingReducer()
        wrapper = PoisonedReducer(inner, record=1)
        wrapper.reduce("a", [1], ctx=None)
        with pytest.raises(PoisonRecordError):
            wrapper.reduce("b", [2], ctx=None)
        wrapper.reduce("c", [3], ctx=None)
        assert inner.keys == ["a", "c"]

    def test_poisoned_reduce_of_a_combining_job(self):
        """The wrapper declares the inner reducer's monoid, so a job that
        combines map-side can still have its reduce poisoned -- and its
        skipping retry loses exactly the poisoned group."""
        grid = integer_grid((8, 8), seed=11, low=0, high=100)
        job = make_job(combine=True, skipping=SkipPolicy())
        clean = LocalJobRunner().run(job, grid)
        injector = FaultInjector().poison("r00000", record=3)
        skipped = LocalJobRunner(fault_injector=injector).run(job, grid)
        assert skipped.counters[C.RECORDS_SKIPPED] == 1
        assert len(skipped.output) == len(clean.output) - 1
        assert PoisonedReducer(job.reducer(), 3).monoid is job.reducer().monoid


class TestSerialRunnerFaultSupport:
    @pytest.mark.parametrize("mode", ["kill", "crash", "hang", "stall"])
    def test_process_faults_are_rejected(self, mode):
        # the serial runner has no worker process to kill or stall;
        # silently ignoring the plan would fake robustness coverage
        grid = integer_grid((8, 8), seed=11, low=0, high=100)
        injector = FaultInjector().add(
            "m00000", Fault(mode, seconds=0.01))
        runner = LocalJobRunner(fault_injector=injector)
        with pytest.raises(ValueError, match="serial runner"):
            runner.run(make_job(num_map_tasks=2, num_reducers=1), grid)
