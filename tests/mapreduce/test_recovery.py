"""Durable job recovery: manifests, fingerprints, adoption, resume.

The contract under test: a job run with ``recovery_dir`` leaves a
manifest from which a later ``resume=True`` run adopts every completed
task it can *validate* (file exists, CRC matches, fingerprint matches)
and re-runs everything else -- producing counters and output
byte-identical to an uninterrupted serial run.  Validation is
pessimistic: any doubt demotes a checkpoint to "re-run it".
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.mapreduce import (
    CellKeySerde,
    Int64Serde,
    Job,
    LocalJobRunner,
    ParallelJobRunner,
)
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.partition import HashPartitioner
from repro.mapreduce.runtime.recovery import (
    MANIFEST_NAME,
    JobManifest,
    TaskRecord,
    file_crc32,
    job_fingerprint,
)
from repro.queries import BoxSubsetQuery
from repro.scidata import integer_grid
from repro.scidata.splits import ArraySplitter
from tests.mapreduce.test_engine import (
    EmitCellsMapper,
    EmitCellsScalarMapper,
    SumReducer,
    make_job,
)


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


def splits_for(job, grid):
    return ArraySplitter(job.num_map_tasks).split(grid, None)


# --------------------------------------------------------------- manifest


class TestManifest:
    def test_roundtrip(self, tmp_path):
        artifact = tmp_path / "seg"
        artifact.write_bytes(b"hello segment")
        path = str(tmp_path / MANIFEST_NAME)
        manifest = JobManifest(path, "abc123")
        manifest.record_wave("map", ["m00000", "m00001"])
        manifest.record_task(TaskRecord(
            task_id="m00000", kind="map", attempt=0,
            attempt_dir=str(tmp_path), result_path=str(artifact),
            files={str(artifact): file_crc32(str(artifact))}))

        loaded = JobManifest.load(path)
        assert loaded is not None
        assert loaded.job_hash == "abc123"
        assert loaded.waves == {"map": ["m00000", "m00001"]}
        assert loaded.tasks["m00000"].files == manifest.tasks["m00000"].files

    def test_load_rejects_missing_garbage_and_stale_schema(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        assert JobManifest.load(path) is None

        with open(path, "w") as fh:
            fh.write("{not json")
        assert JobManifest.load(path) is None

        with open(path, "w") as fh:
            json.dump({"version": 999, "job_hash": "x"}, fh)
        assert JobManifest.load(path) is None

    def test_adoptable_validates_files(self, tmp_path):
        good = tmp_path / "good"
        good.write_bytes(b"intact bytes")
        bad = tmp_path / "bad"
        bad.write_bytes(b"original bytes")

        manifest = JobManifest(str(tmp_path / MANIFEST_NAME), "h")
        manifest.record_wave("map", ["m00000", "m00001", "m00002"])
        for tid, artifact in [("m00000", good), ("m00001", bad)]:
            manifest.record_task(TaskRecord(
                task_id=tid, kind="map", attempt=0,
                attempt_dir=str(tmp_path), result_path=str(artifact),
                files={str(artifact): file_crc32(str(artifact))}))
        bad.write_bytes(b"silently flipped")  # CRC mismatch
        # m00002 has no record at all; m00000 stays intact.

        adopted = manifest.adoptable("map", ["m00000", "m00001", "m00002"])
        assert set(adopted) == {"m00000"}
        # A record outside the expected id set is ignored too.
        assert manifest.adoptable("map", ["m00001", "m00002"]) == {}

    def test_record_validate_reports_missing_file(self, tmp_path):
        record = TaskRecord(
            task_id="m00000", kind="map", attempt=0,
            attempt_dir=str(tmp_path),
            result_path=str(tmp_path / "gone"),
            files={str(tmp_path / "gone"): 1234})
        problems = record.validate()
        assert problems and "missing" in problems[0]


class TestManifestCorruption:
    """``load_verified`` must explain *why* a checkpoint is unusable,
    and never raise: resume falls back to a clean restart instead."""

    def saved(self, tmp_path) -> str:
        path = str(tmp_path / MANIFEST_NAME)
        manifest = JobManifest(path, "abc123")
        manifest.record_wave("map", ["m00000"])
        return path

    def test_missing_file_is_a_clean_first_run(self, tmp_path):
        loaded, problem = JobManifest.load_verified(
            str(tmp_path / MANIFEST_NAME))
        assert loaded is None and problem is None

    def test_roundtrip_reports_no_problem(self, tmp_path):
        path = self.saved(tmp_path)
        loaded, problem = JobManifest.load_verified(path)
        assert problem is None
        assert loaded is not None and loaded.job_hash == "abc123"

    def test_truncated_envelope(self, tmp_path):
        path = self.saved(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[:len(raw) // 2])  # torn write / partial flush
        loaded, problem = JobManifest.load_verified(path)
        assert loaded is None
        assert problem is not None and "parse" in problem

    def test_garbage_bytes(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        with open(path, "wb") as fh:
            fh.write(b"\x00\xffnot a manifest at all\x80")
        loaded, problem = JobManifest.load_verified(path)
        assert loaded is None and problem is not None

    def test_crc_mismatch_names_the_crc(self, tmp_path):
        path = self.saved(tmp_path)
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
        envelope["body"] = envelope["body"].replace("abc123", "evil99")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh)
        loaded, problem = JobManifest.load_verified(path)
        assert loaded is None
        assert problem is not None and "CRC" in problem

    def test_pre_envelope_manifest_still_loads(self, tmp_path):
        path = str(tmp_path / MANIFEST_NAME)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "job_hash": "old", "waves": {},
                       "tasks": {}}, fh)
        loaded, problem = JobManifest.load_verified(path)
        assert problem is None
        assert loaded is not None and loaded.job_hash == "old"


# ------------------------------------------------------------ fingerprint


class TestFingerprint:
    def test_stable_across_constructions(self, grid):
        job1 = make_job(num_map_tasks=4, num_reducers=2)
        job2 = make_job(num_map_tasks=4, num_reducers=2)
        assert (job_fingerprint(job1, splits_for(job1, grid))
                == job_fingerprint(job2, splits_for(job2, grid)))

    def test_stable_with_shuffle_plugin_instances(self, grid):
        """Aggregate-mode jobs carry plugin *instances*; their default
        repr embeds a memory address, which must never leak into the
        fingerprint (it would veto all cross-process adoption)."""
        def build():
            query = BoxSubsetQuery(grid, "values", grid["values"].extent)
            return query.build_job("aggregate", variable_mode="index",
                                   num_map_tasks=4, num_reducers=2)

        job1, job2 = build(), build()
        assert job1.shuffle_plugin is not job2.shuffle_plugin
        assert (job_fingerprint(job1, splits_for(job1, grid))
                == job_fingerprint(job2, splits_for(job2, grid)))

    def test_config_changes_change_the_hash(self, grid):
        base = make_job(num_map_tasks=4, num_reducers=2)
        splits = splits_for(base, grid)
        fp = job_fingerprint(base, splits)
        assert fp != job_fingerprint(
            make_job(num_map_tasks=4, num_reducers=3), splits)
        assert fp != job_fingerprint(base, splits[:-1])
        # another block size rewrites every segment; a skipping attempt
        # may have left quarantined records out
        assert fp != job_fingerprint(
            make_job(num_map_tasks=4, num_reducers=2, ifile_block_bytes=256),
            splits)
        assert fp != job_fingerprint(
            make_job(num_map_tasks=4, num_reducers=2, skipping=SkipPolicy()),
            splits)

    def test_every_job_field_is_hashed_or_exempt(self, grid):
        """A field the hash misses lets a resume adopt attempts run
        under another value of it; a new field must land in one of the
        two tables below."""
        fields = {f.name for f in dataclasses.fields(Job)}
        variants = field_variants(grid)
        assert fields == variants.keys() | UNHASHED_FIELDS.keys()
        assert not variants.keys() & UNHASHED_FIELDS.keys()
        base = make_job(num_map_tasks=4, num_reducers=2)
        splits = splits_for(base, grid)
        fp = job_fingerprint(base, splits)
        for name, value in variants.items():
            changed = dataclasses.replace(base, **{name: value})
            assert job_fingerprint(changed, splits) != fp, name


class OtherSumReducer(SumReducer):
    pass


class OtherPartitioner(HashPartitioner):
    pass


#: ``Job`` fields the fingerprint deliberately leaves out, each with the
#: reason a completed attempt stays valid across its values (none: every
#: field changes what some task writes)
UNHASHED_FIELDS: dict[str, str] = {}


def field_variants(grid):
    """One value per hashed ``Job`` field that differs from
    ``make_job``'s -- for the serdes, in state only."""
    query = BoxSubsetQuery(grid, "values", grid["values"].extent)
    return {
        "name": "other",
        "mapper": EmitCellsScalarMapper,
        "reducer": OtherSumReducer,
        "key_serde": CellKeySerde(ndim=2, variable_mode="index"),
        "value_serde": Int64Serde(),
        "num_reducers": 3,
        "num_map_tasks": 2,
        "combine": True,
        "codec": "zlib",
        "codec_options": {"level": 1},
        "partitioner": OtherPartitioner,
        "sort_buffer_bytes": 1 << 20,
        "merge_factor": 4,
        "shuffle_plugin": query.build_job("aggregate").shuffle_plugin,
        "input_variables": ("values",),
        "skipping": SkipPolicy(),
        "ifile_block_bytes": 256,
    }


# ----------------------------------------------------------------- resume


def run_recovered(grid, recovery_dir, **kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("retry_backoff", 0.01)
    runner = ParallelJobRunner(recovery_dir=str(recovery_dir), **kwargs)
    result = runner.run(make_job(num_map_tasks=4, num_reducers=2), grid)
    return runner, result


@pytest.fixture
def serial(grid):
    return LocalJobRunner().run(make_job(num_map_tasks=4, num_reducers=2), grid)


class TestResume:
    def test_full_adoption_runs_nothing(self, grid, serial, tmp_path):
        """Resuming a fully completed run adopts every task: zero
        attempts start, yet counters and output are byte-identical."""
        run_recovered(grid, tmp_path, keep_files=True)
        assert os.path.exists(tmp_path / MANIFEST_NAME)

        runner, result = run_recovered(grid, tmp_path, resume=True)
        assert runner.last_adopted == 6  # 4 maps + 2 reduces
        assert runner.last_trace.count("started") == 0
        assert runner.last_trace.count("adopted") == 6
        assert result.counters == serial.counters
        assert result.output == serial.output

    def test_completed_run_clears_its_checkpoints(self, grid, tmp_path):
        run_recovered(grid, tmp_path)
        assert not os.path.exists(tmp_path / MANIFEST_NAME)
        assert os.path.isdir(tmp_path)  # caller's directory survives

    def test_invalid_checkpoint_is_rerun(self, grid, serial, tmp_path):
        run_recovered(grid, tmp_path, keep_files=True)
        manifest = JobManifest.load(str(tmp_path / MANIFEST_NAME))
        record = manifest.tasks["m00001"]
        os.unlink(record.result_path)  # torn away between runs

        runner, result = run_recovered(grid, tmp_path, resume=True)
        assert runner.last_adopted == 5
        assert runner.last_trace.count("started") == 1
        assert result.counters == serial.counters
        assert result.output == serial.output

    def test_crc_mismatch_is_rerun(self, grid, serial, tmp_path):
        run_recovered(grid, tmp_path, keep_files=True)
        manifest = JobManifest.load(str(tmp_path / MANIFEST_NAME))
        record = manifest.tasks["m00002"]
        segment = next(p for p in record.files if p != record.result_path)
        with open(segment, "r+b") as fh:  # silent bit rot
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0xFF]))

        runner, result = run_recovered(grid, tmp_path, resume=True)
        assert runner.last_adopted == 5
        assert result.counters == serial.counters
        assert result.output == serial.output

    def test_fingerprint_mismatch_adopts_nothing(self, grid, tmp_path):
        run_recovered(grid, tmp_path, keep_files=True)

        runner = ParallelJobRunner(recovery_dir=str(tmp_path), resume=True,
                                   max_workers=2, retry_backoff=0.01)
        result = runner.run(make_job(num_map_tasks=4, num_reducers=3), grid)
        assert runner.last_adopted == 0
        assert runner.last_trace.count("started") == 7
        assert result.num_reduce_tasks == 3

    def test_fresh_run_discards_stale_checkpoints(self, grid, tmp_path):
        run_recovered(grid, tmp_path, keep_files=True)
        runner, _ = run_recovered(grid, tmp_path)  # resume NOT requested
        assert runner.last_adopted == 0

    def test_resume_requires_recovery_dir(self):
        with pytest.raises(ValueError, match="recovery_dir"):
            ParallelJobRunner(resume=True)

    def test_corrupt_manifest_falls_back_to_clean_restart(
            self, grid, serial, tmp_path):
        """A garbage checkpoint must not crash resume: the runner logs
        ``manifest_corrupt``, clears the stale attempt dirs, adopts
        nothing, and finishes byte-identically to serial."""
        run_recovered(grid, tmp_path, keep_files=True)
        stale = [d for d in os.listdir(tmp_path)
                 if os.path.isdir(tmp_path / d)]
        assert stale  # checkpointed attempt dirs exist to be cleared
        with open(tmp_path / MANIFEST_NAME, "wb") as fh:
            fh.write(b"\x00garbage, not a manifest\xff")

        runner, result = run_recovered(grid, tmp_path, resume=True)
        assert runner.last_trace.count("manifest_corrupt") == 1
        assert runner.last_adopted == 0
        assert runner.last_trace.count("adopted") == 0
        assert result.counters == serial.counters
        assert result.output == serial.output

    def test_truncated_manifest_falls_back_to_clean_restart(
            self, grid, serial, tmp_path):
        run_recovered(grid, tmp_path, keep_files=True)
        path = tmp_path / MANIFEST_NAME
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])  # torn mid-write

        runner, result = run_recovered(grid, tmp_path, resume=True)
        assert runner.last_trace.count("manifest_corrupt") == 1
        assert runner.last_adopted == 0
        assert result.counters == serial.counters
        assert result.output == serial.output


# ------------------------------------------------- mid-job scheduler kill


class SlowEmitCellsMapper(EmitCellsMapper):
    """EmitCellsMapper behind a simulated slow input fetch, so the
    parent can provably SIGKILL the scheduler with the job in flight."""

    def map(self, split, values, ctx):
        time.sleep(0.15)
        super().map(split, values, ctx)


def _run_job_child(recovery_dir: str) -> None:
    grid = integer_grid((8, 8), seed=11, low=0, high=100)
    job = make_job(mapper=SlowEmitCellsMapper, num_map_tasks=6,
                   num_reducers=2)
    ParallelJobRunner(max_workers=2, recovery_dir=recovery_dir,
                      retry_backoff=0.01).run(job, grid)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="scheduler-kill scenario needs fork")
def test_scheduler_sigkill_then_resume(grid, tmp_path):
    """SIGKILL the entire scheduler process mid-job; a fresh runner must
    adopt the checkpointed tasks and finish byte-identically."""
    job = make_job(mapper=SlowEmitCellsMapper, num_map_tasks=6,
                   num_reducers=2)
    serial = LocalJobRunner().run(job, grid)

    manifest_path = str(tmp_path / MANIFEST_NAME)
    child = multiprocessing.get_context("fork").Process(
        target=_run_job_child, args=(str(tmp_path),))
    child.start()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and child.is_alive():
        manifest = JobManifest.load(manifest_path)
        if manifest is not None and len(manifest) >= 1:
            break
        time.sleep(0.02)
    os.kill(child.pid, signal.SIGKILL)
    child.join()
    time.sleep(0.5)  # let orphaned workers drain their current attempt

    manifest = JobManifest.load(manifest_path)
    assert manifest is not None and len(manifest) >= 1

    runner = ParallelJobRunner(max_workers=2, recovery_dir=str(tmp_path),
                               resume=True, retry_backoff=0.01,
                               task_timeout=5.0)
    result = runner.run(job, grid)
    assert runner.last_adopted >= 1
    assert runner.last_trace.count("started") < 8  # some work was saved
    assert result.counters == serial.counters
    assert result.output == serial.output
