"""JobService integration: execute, cancel, recover, REST round-trip.

In-process versions of the daemon's contract (the subprocess SIGKILL
soak lives in the R6 harness): a submitted spec executes on the shared
pool byte-identical to a solo serial run, cancellation hits both
queued and running jobs, and a second service over the same root
rebuilds queue + ledger from the registry alone.
"""

import os
import threading
import time

import pytest

from repro.mapreduce.runtime import LocalJobRunner
from repro.mapreduce.runtime.service import (
    AdmissionConfig,
    AdmissionRejected,
    JobService,
    JobSpec,
    ServiceConfig,
    build_workload,
)
from repro.mapreduce.runtime.service.http import (
    ServiceClient,
    ServiceEndpoint,
    ServiceUnavailableError,
)
from repro.mapreduce.runtime.service.registry import (
    SPEC_NAME,
    JobRecord,
    _envelope,
)
from repro.util.fsio import atomic_write_bytes


def _spec(**overrides) -> JobSpec:
    base = dict(tenant="alice", query="histogram", shape=(6, 6),
                seed=3, num_maps=2, num_reducers=1)
    base.update(overrides)
    return JobSpec(**base)


def _config(root, **overrides) -> ServiceConfig:
    base = dict(root=str(root), max_workers=2, executors=1)
    base.update(overrides)
    return ServiceConfig(**base)


def _wait_state(service, job_id, states, timeout=60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = service.status(job_id)["state"]
        if state in states:
            return state
        time.sleep(0.05)
    return service.status(job_id)["state"]


class TestExecution:
    def test_submit_executes_byte_identical_to_serial(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        try:
            spec = _spec()
            reply = service.submit(spec)
            assert reply["state"] == "QUEUED"
            assert reply["predicted_seconds"] > 0
            assert _wait_state(service, reply["job_id"], ("DONE",)) == "DONE"
            stored = service.registry.get(reply["job_id"]).load_result()
            base = LocalJobRunner().run(*build_workload(spec))
            assert stored["output"] == base.output
            assert stored["counters"] == base.counters
        finally:
            service.shutdown()

    def test_failed_job_is_isolated(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        try:
            # Poison with no skip budget fails the job; the daemon (and
            # later jobs) must be unaffected.
            bad = service.submit(_spec(query="subset", shape=(8, 8),
                                       poison=(("m00000", 1),)))
            good = service.submit(_spec(seed=9))
            assert _wait_state(service, bad["job_id"],
                               ("FAILED", "DONE")) == "FAILED"
            assert _wait_state(service, good["job_id"],
                               ("DONE", "FAILED")) == "DONE"
            # The ledger was credited back for both.
            assert service.admission.outstanding_seconds() == 0.0
        finally:
            service.shutdown()

    def test_profiles_refit_after_completion(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        try:
            reply = service.submit(_spec())
            _wait_state(service, reply["job_id"], ("DONE",))
            assert service._fit_profiles  # next price() refits from these
            assert service.price(_spec(seed=11)) > 0
        finally:
            service.shutdown()


class TestTerminalStateOrdering:
    """A terminal state is published only after the job is credited back
    (and, for DONE, after its profiles are kept for the next refit): the
    check runs inside ``JobRecord.set_state`` itself, so it does not
    depend on when a poller happens to look."""

    TERMINAL = ("DONE", "FAILED", "CANCELLED")

    @pytest.fixture()
    def published(self, monkeypatch):
        """``(service, seen)``: set ``service`` before any job ends; each
        terminal write appends ``(state, outstanding seconds, outstanding
        memory, fitted profile count)`` as of that moment."""
        holder: dict = {}
        seen: list = []
        real = JobRecord.set_state

        def checked(record, state, detail=""):
            if state in self.TERMINAL:
                service = holder["service"]
                seen.append((state,
                             service.admission.outstanding_seconds(),
                             service.admission.outstanding_memory_bytes(),
                             len(service._fit_profiles)))
            return real(record, state, detail)
        monkeypatch.setattr(JobRecord, "set_state", checked)
        return holder, seen

    def test_failed_and_done_are_published_after_the_credit(
            self, tmp_path, published):
        holder, seen = published
        service = holder["service"] = JobService(_config(tmp_path))
        service.start()
        try:
            # One job at a time, so the job being finished is the only
            # one the ledger can hold at the moment its state is written.
            bad = service.submit(_spec(query="subset", shape=(8, 8),
                                       poison=(("m00000", 1),)))
            assert _wait_state(service, bad["job_id"],
                               ("FAILED", "DONE")) == "FAILED"
            good = service.submit(_spec(seed=9))
            assert _wait_state(service, good["job_id"],
                               ("DONE", "FAILED")) == "DONE"
        finally:
            service.shutdown()
        assert [s[0] for s in seen] == ["FAILED", "DONE"]
        assert all(s[1] == 0.0 and s[2] == 0 for s in seen), seen
        assert seen[1][3] > 0  # profiles kept before DONE

    def test_queued_cancel_is_published_after_the_credit(
            self, tmp_path, published):
        holder, seen = published
        service = holder["service"] = JobService(_config(tmp_path))
        reply = service.submit(_spec())  # no executors: stays queued
        assert service.cancel(reply["job_id"])["state"] == "CANCELLED"
        assert seen == [("CANCELLED", 0.0, 0, 0)]


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        service = JobService(_config(tmp_path))  # no executors started
        reply = service.submit(_spec())
        summary = service.cancel(reply["job_id"])
        assert summary["state"] == "CANCELLED"
        assert service.admission.outstanding_seconds() == 0.0
        assert service.scheduler.queued_total() == 0

    def test_cancel_running_job(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        try:
            # Big enough to still be running when cancel lands.
            reply = service.submit(_spec(query="sliding_mean",
                                         shape=(40, 40), num_maps=4,
                                         num_reducers=2))
            job_id = reply["job_id"]
            assert _wait_state(service, job_id,
                               ("RUNNING", "DONE")) in ("RUNNING", "DONE")
            service.cancel(job_id)
            state = _wait_state(service, job_id, ("CANCELLED", "DONE"))
            # A cancel that loses the race to completion is DONE; both
            # end states must credit the ledger back.
            assert state in ("CANCELLED", "DONE")
            deadline = time.monotonic() + 10
            while (service.admission.outstanding_seconds()
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert service.admission.outstanding_seconds() == 0.0
        finally:
            service.shutdown()

    def test_cancel_unknown_job(self, tmp_path):
        service = JobService(_config(tmp_path))
        assert service.cancel("j999999") is None


class TestRecovery:
    def test_queued_jobs_survive_daemon_loss(self, tmp_path):
        first = JobService(_config(tmp_path))  # executors never started
        specs = [_spec(seed=s) for s in (3, 5)]
        ids = [first.submit(s)["job_id"] for s in specs]
        del first  # simulated crash: nothing flushed, no shutdown

        second = JobService(_config(tmp_path))
        assert second.recover() == 2
        # The ledger was rebuilt by re-pricing the specs.
        assert second.admission.outstanding_seconds() > 0
        second.start()  # re-scan is harmless: queue was already drained
        try:
            for job_id, spec in zip(ids, specs):
                assert _wait_state(second, job_id, ("DONE",)) == "DONE"
                stored = second.registry.get(job_id).load_result()
                base = LocalJobRunner().run(*build_workload(spec))
                assert stored["output"] == base.output
                assert stored["counters"] == base.counters
        finally:
            second.shutdown()

    def test_running_job_requeued_with_recovered_event(self, tmp_path):
        first = JobService(_config(tmp_path))
        job_id = first.submit(_spec())["job_id"]
        # Simulate dying mid-execution: state committed as RUNNING.
        first.registry.get(job_id).set_state("RUNNING", "executing")
        del first

        second = JobService(_config(tmp_path))
        assert second.recover() == 1
        record = second.registry.get(job_id)
        assert record.state()[0] == "QUEUED"
        assert any(e["kind"] == "recovered" for e in record.events())

    def test_terminal_jobs_not_recovered(self, tmp_path):
        first = JobService(_config(tmp_path))
        done = first.submit(_spec())["job_id"]
        cancelled = first.submit(_spec(seed=5))["job_id"]
        first.registry.get(done).set_state("DONE")
        first.cancel(cancelled)
        del first
        assert JobService(_config(tmp_path)).recover() == 0


class TestShutdownSemantics:
    def test_submit_after_shutdown_is_503(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        service.shutdown()
        with pytest.raises(AdmissionRejected) as exc:
            service.submit(_spec())
        assert exc.value.payload["error"] == "SHUTTING_DOWN"
        assert exc.value.http_status == 503


class TestRest:
    @pytest.fixture()
    def served(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        endpoint = ServiceEndpoint(service)
        endpoint.publish()
        thread = threading.Thread(target=endpoint.serve_forever,
                                  daemon=True)
        thread.start()
        yield service, ServiceClient(str(tmp_path))
        if not service.stopping:
            service.shutdown()
        endpoint.server.shutdown()
        thread.join(timeout=10)

    def test_full_round_trip(self, served):
        service, client = served
        assert client.health()["pool"]["max_workers"] == 2
        reply = client.submit(_spec())
        job_id = reply["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job_id)["state"] == "DONE":
                break
            time.sleep(0.05)
        status = client.status(job_id)
        assert status["state"] == "DONE"
        assert status["has_result"] is True
        assert any(j["job_id"] == job_id
                   for j in client.jobs()["jobs"])

    def test_bad_spec_is_400(self, served):
        _, client = served
        reply = client.request("POST", "/jobs", {"tenant": "a"})
        assert reply["error"] == "BAD_REQUEST"
        assert reply["http_status"] == 400

    def test_unknown_job_is_404(self, served):
        _, client = served
        assert client.status("j424242")["error"] == "NOT_FOUND"

    def test_unknown_route_is_404(self, served):
        _, client = served
        assert client.request("GET", "/nope")["error"] == "NOT_FOUND"

    def test_rejection_surfaces_through_rest(self, tmp_path):
        config = _config(
            tmp_path,
            admission=AdmissionConfig(max_queued=4,
                                      max_queued_per_tenant=1))
        service = JobService(config)  # executors off: queue can't drain
        endpoint = ServiceEndpoint(service)
        endpoint.publish()
        thread = threading.Thread(target=endpoint.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(str(tmp_path))
            assert "job_id" in client.submit(_spec())
            reply = client.submit(_spec(seed=9))
            assert reply["error"] == "TENANT_OVERLOADED"
            assert reply["http_status"] == 429
            assert reply["retry_after"] is not None
        finally:
            endpoint.server.shutdown()
            thread.join(timeout=10)

    def test_client_without_daemon(self, tmp_path):
        with pytest.raises(ServiceUnavailableError):
            ServiceClient(str(tmp_path)).health()


class TestMemoryAdmission:
    def test_submit_prices_memory(self, tmp_path):
        service = JobService(_config(tmp_path))  # executors off
        reply = service.submit(_spec())
        assert reply["predicted_memory_bytes"] > 0
        assert reply["predicted_memory_bytes"] \
            == service.price_memory(_spec())
        stats = service.stats()
        assert stats["outstanding_memory_bytes"] \
            == reply["predicted_memory_bytes"]

    def test_global_memory_cap_sheds_with_429(self, tmp_path):
        cap = JobService(_config(tmp_path)).price_memory(_spec())
        config = _config(
            tmp_path / "capped",
            admission=AdmissionConfig(max_outstanding_memory_bytes=cap))
        service = JobService(config)  # executors off: nothing credits
        assert "job_id" in service.submit(_spec())
        with pytest.raises(AdmissionRejected) as err:
            service.submit(_spec(seed=9))
        assert err.value.payload["error"] == "OVERCOMMITTED_MEMORY"
        assert err.value.http_status == 429
        assert err.value.payload["retry_after"] is not None
        # shedding leaves no durable record of the rejected job
        assert len(service.registry.load_all()) == 1

    def test_tenant_memory_quota(self, tmp_path):
        # Quota below one job's price: the tenant's *first* job is
        # still admitted (grant-when-alone -- a lone overdraft is
        # recorded, not refused), the second is shed, and another
        # tenant is unaffected.
        config = _config(tmp_path,
                         tenants={"alice": (1.0, 8, 1024),
                                  "bob": (1.0, 8, None)})
        service = JobService(config)  # executors off
        assert "job_id" in service.submit(_spec())
        with pytest.raises(AdmissionRejected) as err:
            service.submit(_spec(seed=9))
        assert err.value.payload["error"] == "OVERCOMMITTED_MEMORY"
        assert "job_id" in service.submit(_spec(tenant="bob"))

    def test_memory_credited_on_completion(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        try:
            reply = service.submit(_spec())
            assert _wait_state(service, reply["job_id"], ("DONE",)) == "DONE"
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if service.stats()["outstanding_memory_bytes"] == 0:
                    break
                time.sleep(0.02)
            stats = service.stats()
            assert stats["outstanding_memory_bytes"] == 0
            assert stats["pool"]["memory"]["used"] == 0
        finally:
            service.shutdown()

    def test_cancel_queued_credits_memory(self, tmp_path):
        service = JobService(_config(tmp_path))  # executors off
        reply = service.submit(_spec())
        assert service.stats()["outstanding_memory_bytes"] > 0
        service.cancel(reply["job_id"])
        assert service.stats()["outstanding_memory_bytes"] == 0
        assert service.pool.memory.used == 0

    def test_recover_restores_memory_ledger(self, tmp_path):
        first = JobService(_config(tmp_path))  # executors never started
        reply = first.submit(_spec())
        second = JobService(_config(tmp_path))
        assert second.recover() == 1
        assert second.stats()["outstanding_memory_bytes"] \
            == reply["predicted_memory_bytes"]

    def test_spec_memory_knobs_round_trip(self):
        spec = _spec(memory_budget=1 << 20)
        again = JobSpec.from_json(spec.to_json())
        assert again.memory_budget == 1 << 20
        with pytest.raises(ValueError):
            _spec(memory_budget=255)

    def test_spec_with_a_fetch_window_still_recovers(self, tmp_path):
        """A spec written when jobs could carry a fetch byte window
        (``max_inflight_bytes``, now gone: a reducer has one fetch in
        flight) still loads, and a daemon restarted over it recovers
        the job."""
        spec = _spec(memory_budget=1 << 20)
        first = JobService(_config(tmp_path))  # executors never started
        reply = first.submit(spec)
        record = first.registry.get(reply["job_id"])
        old = {**spec.to_json(), "max_inflight_bytes": 4096}
        atomic_write_bytes(os.path.join(record.dir, SPEC_NAME),
                           _envelope(old))
        assert JobSpec.from_json(old) == spec
        assert record.load_spec() == spec
        second = JobService(_config(tmp_path))
        assert second.recover() == 1
        assert second.stats()["outstanding_memory_bytes"] \
            == reply["predicted_memory_bytes"]


class TestEventsSince:
    def test_incremental_read_and_torn_tail(self, tmp_path):
        import os
        service = JobService(_config(tmp_path))  # executors off
        job_id = service.submit(_spec())["job_id"]
        record = service.registry.get(job_id)
        events, offset = record.events_since(0)
        assert events  # acceptance already logged at least one event
        assert offset > 0
        # nothing new: same offset back, no events
        again, offset2 = record.events_since(offset)
        assert again == [] and offset2 == offset
        # a torn tail (a line mid-append) is not consumed...
        events_path = os.path.join(record.dir, "events.jsonl")
        with open(events_path, "a", encoding="utf-8") as fh:
            fh.write('{"crc": 1, "body": "tor')
        torn, offset3 = record.events_since(offset)
        assert torn == [] and offset3 == offset
        # ...and a later intact append past it stays pinned behind the
        # damaged line: everything before was already delivered.
        record.append_event("late", "after the tear")
        after, offset4 = record.events_since(offset)
        assert after == [] and offset4 == offset

    def test_follow_sees_terminal_state(self, tmp_path):
        service = JobService(_config(tmp_path))
        service.start()
        try:
            job_id = service.submit(_spec())["job_id"]
            assert _wait_state(service, job_id, ("DONE",)) == "DONE"
            record = service.registry.get(job_id)
            events, _ = record.events_since(0)
            kinds = [e["kind"] for e in events]
            assert "state" in kinds
            assert any("DONE" in e.get("detail", "") for e in events)
        finally:
            service.shutdown()

    def test_events_route_with_since(self, tmp_path):
        service = JobService(_config(tmp_path))
        endpoint = ServiceEndpoint(service)
        endpoint.publish()
        thread = threading.Thread(target=endpoint.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(str(tmp_path))
            job_id = service.submit(_spec())["job_id"]
            reply = client.events(job_id)
            assert reply["events"]
            assert reply["state"] == "QUEUED"
            resumed = client.events(job_id, since=reply["offset"])
            assert resumed["events"] == []
            assert resumed["offset"] == reply["offset"]
            assert client.events("j424242")["error"] == "NOT_FOUND"
        finally:
            endpoint.server.shutdown()
            thread.join(timeout=10)


class TestTenantConfig:
    def test_wrong_arity_tenant_entry_is_rejected_at_construction(
            self, tmp_path):
        # the pre-memory-ledger (weight, quota) shape used to survive
        # until JobService unpacked it
        with pytest.raises(ValueError, match="'bob'"):
            _config(tmp_path, tenants={"alice": (2.0, 2, None),
                                       "bob": (1.0, 2)})
        with pytest.raises(ValueError, match="'carol'"):
            _config(tmp_path, tenants={"carol": (1.0, 2, None, 7)})

    def test_r6_shed_service_config_builds(self, tmp_path):
        """R6's shed phase stands up a real JobService; the matrices are
        not tier-1, so build the same config here."""
        from repro.experiments.r6_service import _shed_service

        service, endpoint, thread = _shed_service(str(tmp_path))
        try:
            assert set(service.config.tenants) == {"alice", "bob"}
            assert service.stats()["queued"] == 0
        finally:
            endpoint.server.shutdown()
            thread.join(timeout=10)
