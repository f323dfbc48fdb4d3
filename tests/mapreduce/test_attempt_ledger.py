"""The shared runner parts: attempt body, classifier, map-output ledger.

Serial/parallel identity is structural when both runners pass through
one attempt body (:func:`run_attempt`), dispatch on one error record
(:func:`classify`) and mutate one map-output ledger.  These tests pin
the structure itself: both runners call the same body once per attempt
with equal arguments, the classifier's four recovery fields are mutually
exclusive, and every ledger transition does all of its steps.
"""

import dataclasses
import json
import os

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.engine import run_map_task
from repro.mapreduce.ifile import IFileBlockCorruptError, IFileCorruptError
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime import attempt as attempt_mod
from repro.mapreduce.runtime.attempt import classify
from repro.mapreduce.runtime.fault import Fault
from repro.mapreduce.runtime.hosts import (
    HostHealthMonitor,
    HostLostError,
    HostRegistry,
    host_for,
)
from repro.mapreduce.runtime.ledger import MapOutputLedger
from repro.mapreduce.runtime.pipeline import CommitLog
from repro.mapreduce.runtime.pool import WorkerPool
from repro.mapreduce.runtime.shuffle import (
    FetchFailedError,
    ShuffleConfig,
    ShuffleFetcher,
)
from repro.queries.subset import BoxSubsetQuery
from repro.scidata import integer_grid
from repro.scidata.slab import Slab
from repro.scidata.splits import ArraySplitter
from repro.util.errors import CorruptRecordError
from tests.mapreduce.test_engine import make_job

SIDE = 12


@pytest.fixture
def grid():
    return integer_grid((SIDE, SIDE), seed=7, low=0, high=500)


def subset_job(grid, **overrides):
    query = BoxSubsetQuery(grid, "values", Slab((1, 1), (SIDE - 2, SIDE - 2)))
    job = query.build_job("plain", num_map_tasks=4, num_reducers=2)
    return dataclasses.replace(job, **overrides)


def parallel_runner(**kwargs):
    return ParallelJobRunner(max_workers=2, speculation=False,
                             retry_backoff=0.01, **kwargs)


def record_calls(monkeypatch, log_path, module, name, fields):
    """Wrap ``module.name`` so every call appends one JSON line to
    ``log_path`` -- a file, because parallel attempts run in forked
    workers that only share the filesystem with the test."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(fields(args, kwargs)) + "\n")
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def read_calls(log_path):
    """Logged calls grouped per task, each task's in call order."""
    per_task: dict[str, list] = {}
    if os.path.exists(log_path):
        with open(log_path, encoding="utf-8") as fh:
            for line in fh:
                task_id, *rest = json.loads(line)
                per_task.setdefault(task_id, []).append(rest)
    return per_task


# ------------------------------------------------------------- one attempt body


class TestOneAttemptBody:
    def plan(self):
        return (FaultInjector()
                .poison("m00000", record=SIDE + 1)
                .oom("m00002", site="sort", op="raise")
                .oom("r00001", site="merge", op="raise"))

    def test_both_runners_pass_through_run_attempt_once_per_attempt(
            self, grid, tmp_path, monkeypatch):
        def fields(args, kwargs):
            return [kwargs["task_id"], kwargs["attempt"],
                    kwargs["skip_mode"], kwargs["degrade"]]

        logs = {}
        results = {}
        for name in ("serial", "parallel"):
            logs[name] = str(tmp_path / f"{name}.log")
            with monkeypatch.context() as patch:
                # Both executors reach the body through
                # ``execute_attempt``, which resolves the name from the
                # attempt module at call time (a worker forked after the
                # patch inherits it).
                record_calls(patch, logs[name], attempt_mod, "run_attempt",
                             fields)
                job = subset_job(grid, skipping=SkipPolicy(
                    quarantine_dir=str(tmp_path / f"q-{name}")))
                runner = (LocalJobRunner(fault_injector=self.plan())
                          if name == "serial"
                          else parallel_runner(fault_injector=self.plan()))
                with runner:
                    results[name] = runner.run(job, grid)

        serial, parallel = read_calls(logs["serial"]), read_calls(
            logs["parallel"])
        assert serial == parallel
        # strict attempt, then the rung its error record named
        assert serial["m00000"] == [[0, False, 0], [1, True, 0]]
        assert serial["m00002"] == [[0, False, 0], [1, False, 1]]
        assert serial["r00001"] == [[0, False, 0], [1, False, 1]]
        assert serial["m00001"] == serial["r00000"] == [[0, False, 0]]
        # once per attempt: the scheduler launched exactly these
        trace = results["parallel"].trace
        assert {t: len(calls) for t, calls in parallel.items()} == {
            t: trace.attempts(t) for t in parallel}
        assert results["serial"].output == results["parallel"].output
        assert results["serial"].counters == results["parallel"].counters
        assert results["serial"].counters[C.MEMORY_OOM_EVENTS] == 2

    def test_pipelined_corrupt_reduce_input_takes_same_body(
            self, grid, tmp_path, monkeypatch):
        """Regression: under ``pipeline=True`` a ``corrupt(where=
        "reduce-input")`` attempt used to run the pipelined body
        serially but the drain-then-barrier body in a worker."""
        baseline = LocalJobRunner().run(subset_job(grid), grid)
        bodies = ("run_reduce_task", "run_reduce_task_skipping")
        shuffle = ShuffleConfig(pipeline=True)
        logs = {}
        results = {}
        for name in ("serial", "parallel"):
            logs[name] = str(tmp_path / f"{name}.log")
            injector = FaultInjector().corrupt(
                "r00001", where="reduce-input", segment=2)
            with monkeypatch.context() as patch:
                for body in bodies:
                    record_calls(
                        patch, logs[name], attempt_mod, body,
                        lambda args, kwargs, body=body:
                            [f"r{args[1]:05d}", body])
                runner = (LocalJobRunner(shuffle=shuffle,
                                         fault_injector=injector)
                          if name == "serial"
                          else parallel_runner(shuffle=shuffle,
                                               fault_injector=injector))
                with runner:
                    results[name] = runner.run(subset_job(grid), grid)

        serial, parallel = read_calls(logs["serial"]), read_calls(
            logs["parallel"])
        assert serial == parallel
        # the corrupting attempt needs the full ref list up front, the
        # post-repair retry takes the plan: one body either way
        assert serial["r00001"] == [["run_reduce_task"],
                                    ["run_reduce_task"]]
        assert serial["r00000"] == [["run_reduce_task"]]
        for result in results.values():
            assert result.output == baseline.output
            assert result.counters == baseline.counters

    def test_unsupported_serial_fault_rejected_before_any_work(
            self, grid, tmp_path):
        calls = str(tmp_path / "map-calls")
        base = make_job(num_map_tasks=2, num_reducers=2)

        class RecordingMapper(base.mapper):
            def map(self, split, values, ctx):
                with open(calls, "a", encoding="utf-8") as fh:
                    fh.write(f"{split.split_id}\n")
                super().map(split, values, ctx)

        job = dataclasses.replace(base, mapper=RecordingMapper)
        workdir = tmp_path / "work"
        # a process fault on the *last* reducer: lazily discovered, it
        # would surface only after every other task had run
        runner = LocalJobRunner(
            workdir=str(workdir),
            fault_injector=FaultInjector().kill("r00001"))
        with pytest.raises(ValueError, match="r00001.*serial runner"):
            runner.run(job, grid)
        assert not os.path.exists(calls)
        assert not workdir.exists() or os.listdir(workdir) == []
        # sanity: the recording mapper does record on a clean run
        LocalJobRunner().run(job, grid)
        assert os.path.exists(calls)

    def test_pipelined_skip_mode_takes_the_plan(self, grid, tmp_path,
                                                monkeypatch):
        """Under ``pipeline=True`` a skip-mode reduce retry is fed the
        commit-log plan itself, not refs drained from it, and lands on
        the barrier run's output and counters in both runners."""
        def job(name):
            return subset_job(grid, skipping=SkipPolicy(
                quarantine_dir=str(tmp_path / f"q-{name}")))

        def poison():
            return FaultInjector().poison("r00001", record=3)

        barrier = LocalJobRunner(fault_injector=poison()).run(
            job("barrier"), grid)
        assert barrier.counters[C.RECORDS_SKIPPED] > 0
        shuffle = ShuffleConfig(pipeline=True)
        for name in ("serial", "parallel"):
            log = str(tmp_path / f"{name}.log")
            with monkeypatch.context() as patch:
                record_calls(
                    patch, log, attempt_mod, "run_reduce_task_skipping",
                    lambda args, kwargs: [f"r{args[1]:05d}",
                                          type(args[2]).__name__])
                runner = (LocalJobRunner(shuffle=shuffle,
                                         fault_injector=poison())
                          if name == "serial"
                          else parallel_runner(shuffle=shuffle,
                                               fault_injector=poison()))
                with runner:
                    result = runner.run(job(name), grid)
            assert read_calls(log) == {"r00001": [["PipelinePlan"]]}
            assert result.output == barrier.output
            assert result.counters == barrier.counters

    @pytest.mark.parametrize("skip_mode", [False, True])
    def test_every_body_charges_the_attempts_memory_ledger(
            self, grid, tmp_path, skip_mode):
        """Regression: skip-mode map and reduce attempts ran without the
        attempt's memory ledger, so a configured budget read a peak of
        0 there while the strict bodies charged theirs."""
        job = subset_job(grid, skipping=SkipPolicy())
        shuffle = ShuffleConfig(memory_budget=1 << 30)
        splits = ArraySplitter(job.num_map_tasks).split(grid)
        outputs = []
        for split in splits:
            workdir = tmp_path / f"m{split.split_id}"
            workdir.mkdir()
            record = attempt_mod.run_attempt(
                "map", job, split, grid, str(workdir),
                task_id=f"m{split.split_id:05d}", skip_mode=skip_mode,
                shuffle=shuffle)
            assert record["memory"]["peak"] > 0
            outputs.append(record["value"])
        workdir = tmp_path / "r0"
        workdir.mkdir()
        record = attempt_mod.run_attempt(
            "reduce", job, (0, [out.segments[0] for out in outputs]), grid,
            str(workdir), task_id="r00000", skip_mode=skip_mode,
            shuffle=shuffle)
        assert record["memory"]["peak"] > 0


# -------------------------------------------------------------- one classifier


FIELDS = ("failed_map", "oom", "skip_eligible", "corrupt_path")


class TestClassify:
    plain = make_job()
    skipping = dataclasses.replace(plain, skipping=SkipPolicy())

    @pytest.mark.parametrize("exc, job, expected", [
        (MemoryError("boom"), plain, {"oom": True}),
        (MemoryError("boom"), skipping, {"oom": True}),
        (FetchFailedError("m00003", "r00000", 4, "refused"), plain,
         {"failed_map": "m00003"}),
        (FetchFailedError("m00003", "r00000", 4, "refused"), skipping,
         {"failed_map": "m00003"}),
        (IFileCorruptError("bad crc", path="/w/m00001-out-p0"), plain,
         {"corrupt_path": "/w/m00001-out-p0"}),
        # whole-segment corruption is repair's even under a skip policy
        (IFileCorruptError("bad crc", path="/w/m00001-out-p0"), skipping,
         {"corrupt_path": "/w/m00001-out-p0"}),
        # block-local damage: repair's without a policy, skipping's with
        (IFileBlockCorruptError("bad block", path="/w/m00001-out-p0",
                                block_index=1, records_lost=3), plain,
         {"corrupt_path": "/w/m00001-out-p0"}),
        (IFileBlockCorruptError("bad block", path="/w/m00001-out-p0",
                                block_index=1, records_lost=3), skipping,
         {"skip_eligible": True}),
        (CorruptRecordError("undecodable"), plain, {}),
        (CorruptRecordError("undecodable"), skipping,
         {"skip_eligible": True}),
        (RuntimeError("user bug"), plain, {}),
        (RuntimeError("user bug"), skipping, {"skip_eligible": True}),
        (KeyboardInterrupt(), skipping, {}),
    ])
    def test_table(self, exc, job, expected):
        record = classify(exc, job)
        assert record["status"] == "error"
        assert record["error_type"] == type(exc).__name__
        assert record["message"] == str(exc)
        assert type(exc).__name__ in record["traceback"]
        want = {"failed_map": None, "oom": False, "skip_eligible": False,
                "corrupt_path": None, **expected}
        assert {f: record[f] for f in FIELDS} == want
        # mutually exclusive: a record names at most one rung
        assert sum(bool(record[f]) for f in FIELDS) <= 1

    def test_unserializable_result_record_is_complete(self, grid, tmp_path):
        """The worker's last-resort record comes from ``classify`` too,
        so the scheduler can index every field."""
        base = make_job()

        class LeakyReducer(base.reducer):
            def reduce(self, key, values, ctx):
                ctx.emit(key, lambda: None)  # output that cannot pickle

        splits = ArraySplitter(1).split(grid)
        mo = run_map_task(base, splits[0], grid, str(tmp_path))
        job = dataclasses.replace(base, reducer=LeakyReducer)
        # a real (forked) worker, which inherits the job: in-process the
        # heartbeat thread would outlive the test
        lease = WorkerPool(max_workers=1, start_method="fork").lease()
        try:
            handle = lease.launch(attempt_mod.AttemptSpec(
                "r00000", "reduce", 0, str(tmp_path / "r00000.0"), job,
                None, (0, [mo.segments[0]])), inherit=(job,))
            handle.join(timeout=60)
            assert not handle.is_alive()
            assert handle.exitcode == 0
            record = handle.record()
        finally:
            lease.shutdown()
        assert record["status"] == "error"
        assert record["message"].startswith(
            "failed to serialize task result")
        assert {f: record[f] for f in FIELDS} == {
            "failed_map": None, "oom": False, "skip_eligible": False,
            "corrupt_path": None}


# ------------------------------------------------------- one map-output ledger


class TestLedger:
    NUM_HOSTS = 2

    def make(self, grid, tmp_path, *, num_maps=3, max_host_reexecs=2,
             shuffle=None, commit_dir=None, injector=None, fresh=True):
        job = make_job(num_map_tasks=num_maps, num_reducers=2)
        splits = ArraySplitter(num_maps).split(grid)
        workdir = str(tmp_path / "work")
        os.makedirs(workdir, exist_ok=True)

        def rerun_dir(map_id, epoch):
            if not fresh:
                return workdir
            path = os.path.join(workdir, f"{map_id}.reexec{epoch}")
            os.makedirs(path, exist_ok=True)
            return path

        ledger = MapOutputLedger(
            job, grid, splits,
            hosts=HostHealthMonitor(HostRegistry(self.NUM_HOSTS),
                                    max_host_reexecs=max_host_reexecs),
            rerun_dir=rerun_dir, shuffle=shuffle, injector=injector,
            commit_dir=commit_dir)
        outputs = [run_map_task(job, s, grid, workdir) for s in splits]
        return ledger, outputs

    def fetch(self, ledger, part):
        fetcher = ShuffleFetcher(ShuffleConfig(transport="network"),
                                 Counters(), f"r{part:05d}", None)
        try:
            return fetcher.fetch_all(ledger.refs(part))
        finally:
            fetcher.close()

    def test_refs_are_in_map_task_order(self, grid, tmp_path):
        ledger, outputs = self.make(grid, tmp_path)
        for mo in reversed(outputs):  # publish out of order
            ledger.publish(mo.task_id, mo)
        for part in range(2):
            refs = ledger.refs(part)
            assert [r.map_id for r in refs] == ["m00000", "m00001", "m00002"]
            assert [r.path for r in refs] == [
                mo.segments[part][0] for mo in outputs]
            assert all(r.epoch == 0 and r.address is None for r in refs)
        assert ledger.payload(1) == (1, ledger.refs(1))

    def test_rerun_does_every_step(self, grid, tmp_path):
        commit_dir = str(tmp_path / "commits")
        ledger, outputs = self.make(
            grid, tmp_path, commit_dir=commit_dir,
            shuffle=ShuffleConfig(transport="network"))
        with ledger:
            for mo in outputs:
                ledger.publish(mo.task_id, mo)
            before = self.fetch(ledger, 0)
            old_paths = [p for p, _ in outputs[1].segments.values()]
            assert CommitLog(commit_dir).poll()["m00001"].epoch == 0

            fresh = ledger.rerun("m00001")

            assert ledger.epochs == {"m00000": 0, "m00001": 1, "m00002": 0}
            assert ledger.map_reexecs == 1
            assert ledger.results["m00001"] is fresh
            new_paths = [p for p, _ in fresh.segments.values()]
            assert not any(os.path.exists(p) for p in old_paths)
            assert all(os.path.exists(p) for p in new_paths)
            record = CommitLog(commit_dir).poll()["m00001"]
            assert record.epoch == 1
            assert [p for p, _ in record.segments.values()] == new_paths
            assert record.address == ledger.service.address_for("m00001")
            ref = ledger.refs(0)[1]
            assert (ref.epoch, ref.path) == (1, new_paths[0])
            # the live service serves the new epoch: identical bytes
            assert self.fetch(ledger, 0) == before
            # ...and under a PipelinePlan, payloads never change
            part, plan = ledger.payload(0)
            assert plan.commit_dir == commit_dir
            assert plan.map_ids == ("m00000", "m00001", "m00002")

    def test_rerun_in_place_keeps_the_overwritten_paths(self, grid,
                                                        tmp_path):
        ledger, outputs = self.make(grid, tmp_path, fresh=False)
        for mo in outputs:
            ledger.publish(mo.task_id, mo)
        os.unlink(outputs[0].segments[1][0])  # the loss that started it
        fresh = ledger.rerun("m00000", charge=False)
        assert ledger.epochs["m00000"] == 1 and ledger.map_reexecs == 0
        assert fresh.segments.keys() == outputs[0].segments.keys()
        for part, (path, stats) in fresh.segments.items():
            assert path == outputs[0].segments[part][0]
            assert os.path.exists(path)
            assert stats == outputs[0].segments[part][1]

    def test_repair_regenerates_in_place_at_the_same_epoch(self, grid,
                                                           tmp_path):
        ledger, outputs = self.make(grid, tmp_path)
        for mo in outputs:
            ledger.publish(mo.task_id, mo)
        path = outputs[2].segments[0][0]
        with open(path, "rb") as fh:
            good = fh.read()
        with open(path, "wb") as fh:
            fh.write(good[: len(good) // 2])
        assert ledger.repair(path) == "m00002"
        with open(path, "rb") as fh:
            assert fh.read() == good
        assert ledger.epochs["m00002"] == 0 and ledger.map_reexecs == 0
        with pytest.raises(RuntimeError, match="matches no map task"):
            ledger.repair(str(tmp_path / "m00009-out-p0"))
        with pytest.raises(RuntimeError, match="matches no map task"):
            ledger.rerun("m00009")

    def test_lose_host_reruns_its_maps_within_budget(self, grid, tmp_path):
        ledger, outputs = self.make(
            grid, tmp_path, num_maps=4, max_host_reexecs=4,
            shuffle=ShuffleConfig(transport="network",
                                  num_servers=self.NUM_HOSTS))
        homed = {h: [mo.task_id for mo in outputs
                     if host_for(mo.task_id, self.NUM_HOSTS) == h]
                 for h in ("host0", "host1")}
        victim = max(homed, key=lambda h: len(homed[h]))
        survivor = next(h for h in homed if h != victim)
        with ledger:
            for mo in outputs:
                ledger.publish(mo.task_id, mo)
            before = self.fetch(ledger, 1)
            assert ledger.lose_host(victim, "test") == homed[victim]
            assert all(ledger.epochs[m] == 1 for m in homed[victim])
            assert all(ledger.epochs[m] == 0 for m in homed[survivor])
            # host loss is charged to the host, not to MAPS_REEXECUTED
            assert ledger.map_reexecs == 0
            assert ledger.hosts.hosts_lost == 1
            assert ledger.hosts.maps_reexecuted_host == len(homed[victim])
            assert ledger.hosts.is_dead(victim)
            assert ledger.hosts.take_newly_dead() == []
            # the killed server was revived by the re-registrations
            assert self.fetch(ledger, 1) == before

    def test_lose_host_respects_max_host_reexecs(self, grid, tmp_path):
        ledger, outputs = self.make(grid, tmp_path, num_maps=4,
                                    max_host_reexecs=0)
        for mo in outputs:
            ledger.publish(mo.task_id, mo)
        victim = host_for("m00000", self.NUM_HOSTS)
        with pytest.raises(HostLostError, match="max_host_reexecs"):
            ledger.lose_host(victim, "test")
        assert ledger.epochs["m00000"] == 0  # nothing was re-run

    def test_partitions_expand_before_the_service_snapshots_the_plan(
            self, grid, tmp_path):
        victim = host_for("m00000", self.NUM_HOSTS)
        injector = FaultInjector().host_partition(victim, drops=5)
        ledger, _ = self.make(
            grid, tmp_path, injector=injector,
            shuffle=ShuffleConfig(transport="network", fetch_retries=2))
        drops = [f for tid, f in injector.planned()
                 if tid == "m00000->r00001"]
        # clamped to the retry budget so the link heals in-attempt
        assert [(f.mode, f.op, f.attempt) for f in drops] == [
            ("fetch", "drop", 0), ("fetch", "drop", 1)]
        assert ledger.service.faults["m00000->r00001"] == tuple(drops)
        assert ledger.hosts_with("host_partition") == [victim]


class TestPlannedView:
    def test_planned_lists_every_entry_in_plan_order(self):
        injector = (FaultInjector().kill("m00001", attempt=1)
                    .poison("m00001", record=3).host_crash("host1")
                    .fetch("m00000", "r00000", op="drop"))
        assert [(tid, f.mode, f.attempt) for tid, f in injector.planned()] \
            == [("@host1", "host_crash", 0), ("m00000->r00000", "fetch", 0),
                ("m00001", "poison", 0), ("m00001", "kill", 1)]
        assert all(isinstance(f, Fault) for _, f in injector.planned())
