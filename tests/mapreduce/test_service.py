"""Service building blocks: specs, registry, admission, fair sharing.

Each layer's contract in isolation; the daemon integration (including
crash recovery and the REST round-trip) lives in
``test_service_daemon.py``, and the full kill -9 soak in the R6
harness.
"""

import json
import os
import zlib

import pytest

from repro.mapreduce.runtime import LocalJobRunner
from repro.mapreduce.runtime.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
)
from repro.mapreduce.runtime.service.fairshare import DeficitScheduler
from repro.mapreduce.runtime.service.registry import JobRegistry
from repro.mapreduce.runtime.service.workloads import (
    JobSpec,
    build_injector,
    build_workload,
    estimate_workload,
)


def _spec(**overrides) -> JobSpec:
    base = dict(tenant="alice", query="histogram", shape=(8, 8),
                seed=3, num_maps=2, num_reducers=1)
    base.update(overrides)
    return JobSpec(**base)


# --------------------------------------------------------------- workloads


class TestJobSpec:
    def test_roundtrip(self):
        spec = _spec(skip_budget=4, poison=(("m00001", 3),),
                     fetch_faults=(("m00000", "r00000", "flip"),),
                     query="subset")
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_query(self):
        with pytest.raises(ValueError):
            _spec(query="word_count")

    def test_rejects_bad_tenant(self):
        for tenant in ("", "a/b", "a.b"):
            with pytest.raises(ValueError):
                _spec(tenant=tenant)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            _spec(shape=())
        with pytest.raises(ValueError):
            _spec(shape=(4, 0))

    def test_skipping_requires_range_mappable_query(self):
        # Only the subset mappers implement map_range, so a poison plan
        # with a skip budget on any other query can never engage.
        with pytest.raises(ValueError):
            _spec(query="histogram", skip_budget=4, poison=(("m00000", 1),))
        _spec(query="subset", skip_budget=4,
              poison=(("m00000", 1),))  # accepted

    def test_from_json_bad_payload(self):
        with pytest.raises(ValueError):
            JobSpec.from_json({"tenant": "a"})  # no query

    def test_build_workload_is_deterministic(self):
        for query in ("histogram", "sliding_mean", "subset"):
            spec = _spec(query=query)
            job_a, ds_a = build_workload(spec)
            job_b, ds_b = build_workload(spec)
            ra = LocalJobRunner().run(job_a, ds_a)
            rb = LocalJobRunner().run(job_b, ds_b)
            assert ra.output == rb.output
            assert ra.counters == rb.counters

    def test_injector_none_without_faults(self):
        assert build_injector(_spec()) is None

    def test_injector_carries_fault_plan(self):
        spec = _spec(query="subset", skip_budget=4,
                     poison=(("m00001", 3),),
                     fetch_faults=(("m00000", "r00000", "flip"),))
        assert build_injector(spec) is not None

    def test_estimate_positive_and_monotonic(self):
        for query in ("histogram", "sliding_mean", "subset"):
            small = estimate_workload(_spec(query=query, shape=(6, 6)))
            large = estimate_workload(_spec(query=query, shape=(24, 24)))
            assert small.input_bytes > 0 and small.shuffle_bytes > 0
            assert large.input_bytes > small.input_bytes
            assert large.shuffle_bytes >= small.shuffle_bytes


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_create_assigns_sequential_ids(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        a = reg.create(_spec())
        b = reg.create(_spec(tenant="bob"))
        assert (a.job_id, b.job_id) == ("j000000", "j000001")

    def test_spec_survives_roundtrip(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        spec = _spec(query="subset", skip_budget=4,
                     poison=(("m00001", 3),))
        record = reg.create(spec)
        assert reg.get(record.job_id).load_spec() == spec

    def test_accepted_job_defaults_to_queued(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        record = reg.create(_spec())
        os.remove(os.path.join(record.dir, "state.json"))
        assert record.state()[0] == "QUEUED"

    def test_damaged_state_reads_as_queued(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        record = reg.create(_spec())
        record.set_state("RUNNING")
        with open(os.path.join(record.dir, "state.json"), "wb") as fh:
            fh.write(b'{"crc": 1, "body": "{\\"state\\": \\"DONE\\"}"}')
        assert record.state()[0] == "QUEUED"

    def test_events_stop_at_torn_tail(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        record = reg.create(_spec())
        record.append_event("a", "one")
        record.append_event("b", "two")
        events_path = os.path.join(record.dir, "events.jsonl")
        with open(events_path, "a", encoding="utf-8") as fh:
            fh.write('{"crc": 123, "body": "{\\"kind\\": \\"forged')
        kinds = [e["kind"] for e in record.events()]
        # state event from create() + the two appended; the torn tail
        # and anything "after" it are gone.
        assert kinds[-2:] == ["a", "b"]

    def test_result_crc_rejects_damage(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        record = reg.create(_spec())
        record.save_result([("k", 1)], {"C": 2})
        loaded = record.load_result()
        assert loaded == {"output": [("k", 1)], "counters": {"C": 2}}
        with open(record.result_path, "r+b") as fh:
            fh.seek(20)
            byte = fh.read(1)
            fh.seek(20)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert record.load_result() is None

    def test_truncated_result_rejected(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        record = reg.create(_spec())
        record.save_result([("k", 1)], {})
        size = os.path.getsize(record.result_path)
        with open(record.result_path, "r+b") as fh:
            fh.truncate(size - 3)
        assert record.load_result() is None

    def test_resumable_filters_terminal_states(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        queued = reg.create(_spec())
        running = reg.create(_spec())
        done = reg.create(_spec())
        running.set_state("RUNNING")
        done.set_state("DONE")
        ids = {r.job_id for r in reg.resumable()}
        assert ids == {queued.job_id, running.job_id}

    def test_corrupt_spec_excluded_from_load_all(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        good = reg.create(_spec())
        bad = reg.create(_spec())
        spec_path = os.path.join(bad.dir, "spec.json")
        with open(spec_path, "r+b") as fh:
            fh.seek(5)
            fh.write(b"XXXX")
        assert {r.job_id for r in reg.load_all()} == {good.job_id}

    def test_ids_resume_after_restart(self, tmp_path):
        JobRegistry(str(tmp_path)).create(_spec())
        again = JobRegistry(str(tmp_path))
        assert again.create(_spec()).job_id == "j000001"

    def test_spec_envelope_is_crc_checked(self, tmp_path):
        reg = JobRegistry(str(tmp_path))
        record = reg.create(_spec())
        with open(os.path.join(record.dir, "spec.json")) as fh:
            envelope = json.load(fh)
        assert envelope["crc"] == zlib.crc32(
            envelope["body"].encode("utf-8"))


# ---------------------------------------------------------------- admission


class TestAdmission:
    def _ctl(self, **overrides) -> AdmissionController:
        base = dict(max_queued=4, max_queued_per_tenant=2,
                    max_job_seconds=10.0, max_outstanding_seconds=20.0)
        base.update(overrides)
        return AdmissionController(AdmissionConfig(**base))

    def test_admits_inside_budgets(self):
        self._ctl().admit("a", 1.0, queued_total=0, queued_tenant=0)

    def test_job_too_large_is_terminal(self):
        with pytest.raises(AdmissionRejected) as exc:
            self._ctl().admit("a", 11.0, queued_total=0, queued_tenant=0)
        assert exc.value.payload["error"] == "JOB_TOO_LARGE"
        assert exc.value.http_status == 413
        assert exc.value.payload["retry_after"] is None

    def test_global_queue_bound(self):
        with pytest.raises(AdmissionRejected) as exc:
            self._ctl().admit("a", 1.0, queued_total=4, queued_tenant=1)
        assert exc.value.payload["error"] == "OVERLOADED"
        assert exc.value.http_status == 429
        assert exc.value.payload["retry_after"] >= 1.0

    def test_tenant_queue_bound(self):
        with pytest.raises(AdmissionRejected) as exc:
            self._ctl().admit("a", 1.0, queued_total=2, queued_tenant=2)
        assert exc.value.payload["error"] == "TENANT_OVERLOADED"

    def test_outstanding_ledger(self):
        ctl = self._ctl()
        ctl.charge("j0", 15.0)
        with pytest.raises(AdmissionRejected) as exc:
            ctl.admit("a", 6.0, queued_total=0, queued_tenant=0)
        assert exc.value.payload["error"] == "OVERCOMMITTED"
        ctl.credit("j0")
        ctl.admit("a", 6.0, queued_total=0, queued_tenant=0)

    def test_credit_unknown_job_is_noop(self):
        ctl = self._ctl()
        ctl.credit("never-charged")
        assert ctl.outstanding_seconds() == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queued=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_job_seconds=0)


# ---------------------------------------------------------------- fairshare


class TestDeficitScheduler:
    def test_fifo_within_tenant(self):
        drr = DeficitScheduler(quantum_seconds=5.0)
        for i in range(4):
            drr.push("a", f"j{i}", 1.0)
        assert [drr.pop() for _ in range(4)] == ["j0", "j1", "j2", "j3"]

    def test_idle_returns_none(self):
        assert DeficitScheduler().pop() is None

    def test_work_conserving(self):
        drr = DeficitScheduler(quantum_seconds=0.001)
        # One expensive job: pop must still return it (deficit grows
        # round by round), never None while work is queued.
        drr.push("a", "big", 100.0)
        assert drr.pop() == "big"

    def test_weighted_shares_converge(self):
        drr = DeficitScheduler(quantum_seconds=1.0)
        drr.set_weight("heavy", 3.0)
        drr.set_weight("light", 1.0)
        for i in range(200):
            drr.push("heavy", f"h{i}", 1.0)
            drr.push("light", f"l{i}", 1.0)
        first = [drr.pop() for _ in range(100)]
        heavy = sum(1 for j in first if j.startswith("h"))
        light = len(first) - heavy
        # 3:1 weights -> ~75/25 split over the window.
        assert heavy / max(light, 1) == pytest.approx(3.0, rel=0.35)

    def test_idle_tenant_cannot_hoard_credit(self):
        drr = DeficitScheduler(quantum_seconds=1.0)
        drr.push("a", "a0", 1.0)
        drr.push("b", "b0", 1.0)
        for _ in range(2):
            drr.pop()
        # 'a' sat idle through many rounds; its deficit must reset, so
        # a burst later still pays full price round by round.
        drr.push("b", "b-filler", 1.0)
        drr.pop()
        drr.push("a", "a-burst-0", 3.0)
        drr.push("b", "b1", 1.0)
        order = [drr.pop() for _ in range(2)]
        assert "b1" in order  # 'a' could not jump the whole queue

    def test_remove_cancels_queued_job(self):
        drr = DeficitScheduler()
        drr.push("a", "j0", 1.0)
        drr.push("a", "j1", 1.0)
        assert drr.remove("j0") is True
        assert drr.remove("j0") is False
        assert drr.pop() == "j1"
        assert drr.queued_total() == 0

    def test_queue_depth_queries(self):
        drr = DeficitScheduler()
        drr.push("a", "j0", 1.0)
        drr.push("b", "j1", 1.0)
        drr.push("b", "j2", 1.0)
        assert drr.queued_total() == 3
        assert drr.queued_for("b") == 2
        assert drr.queued_for("nobody") == 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DeficitScheduler().set_weight("a", 0)
        with pytest.raises(ValueError):
            DeficitScheduler(quantum_seconds=0)
