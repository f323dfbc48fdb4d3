"""R6 -- multi-tenant job service: daemon chaos, shedding, fairness.

Not a paper figure: this is the robustness ladder's service-level
rung.  The scenarios pin the contract of
:mod:`repro.mapreduce.runtime.service`:

* **zero accepted jobs lost** -- a real ``repro serve`` daemon
  subprocess accepts jobs from three tenants (one tenant's jobs carry
  poison records + a skip budget and an injected fetch fault), is
  ``SIGKILL``-ed mid-flight, and is restarted; every accepted job must
  reach DONE, with output *and* counters byte-identical to a solo
  serial run of the same spec (``LocalJobRunner`` + the same fault
  plan) -- the service adds scheduling, never semantics;
* **explicit overload shedding** -- with bounded queues, the
  per-tenant bound, the global bound, and the per-job cost cap each
  reject with their own structured payload (429/413 + retry hint),
  never a silent drop;
* **cancel smoke** -- a queued job cancels to CANCELLED through the
  REST round-trip, and an unknown id answers NOT_FOUND.

``REPRO_R6_SECONDS`` bounds the recovery wait (default 240s).  The
bench (``benchmarks/bench_r6_service.py``) asserts no row reads DRIFT.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.experiments.common import ExperimentResult
from repro.mapreduce.runtime import LocalJobRunner
from repro.mapreduce.runtime.service import (
    AdmissionConfig,
    AdmissionRejected,
    JobRegistry,
    JobService,
    JobSpec,
    ServiceConfig,
    build_injector,
    build_workload,
)
from repro.mapreduce.runtime.service.http import (
    ServiceClient,
    ServiceEndpoint,
    ServiceUnavailableError,
)
from repro.settings import read

__all__ = ["run"]

#: tenants the chaos phase submits under (weight/quota set via --tenants)
_TENANTS = "alice:2:2,bob:1:2,carol:1:2"


def _chaos_specs() -> list[JobSpec]:
    """The accepted-job mix: three tenants, two queries, real faults.

    carol is the faulted tenant: one job carries a poison record under
    a skip budget, the other an injected transient fetch corruption --
    both data-shaped faults the serial runner replays identically, so
    the solo baseline stays byte-comparable.
    """
    return [
        JobSpec(tenant="alice", query="histogram", shape=(14, 14, 14),
                seed=3, bins=16, num_maps=4, num_reducers=2),
        JobSpec(tenant="alice", query="sliding_mean", shape=(9, 9),
                seed=5, window=3, num_maps=3, num_reducers=2),
        JobSpec(tenant="bob", query="histogram", shape=(12, 12, 12),
                seed=11, bins=8, num_maps=4, num_reducers=2),
        JobSpec(tenant="bob", query="sliding_mean", shape=(8, 8),
                seed=13, window=3, num_maps=3, num_reducers=2),
        JobSpec(tenant="carol", query="subset", shape=(10, 10, 10),
                seed=17, num_maps=4, num_reducers=2,
                skip_budget=8, poison=(("m00001", 3),)),
        JobSpec(tenant="carol", query="histogram", shape=(11, 11, 11),
                seed=19, bins=16, num_maps=3, num_reducers=2,
                fetch_faults=(("m00001", "r00000", "flip"),)),
    ]


def _spec_label(spec: JobSpec) -> str:
    faults = []
    if spec.poison:
        faults.append(f"poison x{len(spec.poison)}")
    if spec.fetch_faults:
        faults.append(f"fetch x{len(spec.fetch_faults)}")
    shape = "x".join(str(s) for s in spec.shape)
    tail = f" [{', '.join(faults)}]" if faults else ""
    return f"{spec.query} {shape}{tail}"


def _spawn_daemon(root: str) -> subprocess.Popen:
    """Start ``repro serve`` as a real subprocess (so SIGKILL is real)."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    log = open(os.path.join(root, "daemon.log"), "ab")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", root,
             "--workers", "2", "--executors", "2",
             "--tenants", _TENANTS],
            env=env, stdout=log, stderr=log)
    finally:
        log.close()  # the child holds its own fd


def _wait_healthy(client: ServiceClient, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.health()
            return True
        except ServiceUnavailableError:
            time.sleep(0.1)
    return False


def _wait_any_running(client: ServiceClient, timeout: float) -> bool:
    """True once some accepted job has actually started executing."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            listing = client.jobs().get("jobs", [])
        except ServiceUnavailableError:
            return False
        if any(j["state"] in ("RUNNING", "DONE") for j in listing):
            return True
        time.sleep(0.05)
    return False


def _wait_all_done(client: ServiceClient, job_ids: list[str],
                   timeout: float) -> dict[str, str]:
    """Poll until every job leaves QUEUED/RUNNING; id -> final state."""
    deadline = time.monotonic() + timeout
    states = {j: "?" for j in job_ids}
    while time.monotonic() < deadline:
        try:
            listing = client.jobs().get("jobs", [])
        except ServiceUnavailableError:
            time.sleep(0.2)
            continue
        for row in listing:
            if row["job_id"] in states:
                states[row["job_id"]] = row["state"]
        if all(s in ("DONE", "FAILED", "CANCELLED")
               for s in states.values()):
            break
        time.sleep(0.2)
    return states


def _solo_baseline(spec: JobSpec):
    """The same spec run serially, alone, with the same fault plan."""
    job, dataset = build_workload(spec)
    return LocalJobRunner(fault_injector=build_injector(spec)).run(
        job, dataset)


def _shed_service(root: str) -> tuple[JobService, ServiceEndpoint,
                                      threading.Thread]:
    """A deliberately tiny service with *no executors*: submissions
    queue durably but never drain, so queue-bound rejections are
    deterministic instead of racing the executors."""
    config = ServiceConfig(
        root=root, max_workers=2, executors=1,
        tenants={"alice": (2.0, 2, None), "bob": (1.0, 2, None)},
        admission=AdmissionConfig(max_queued=3, max_queued_per_tenant=2,
                                  max_job_seconds=600.0,
                                  max_outstanding_seconds=3600.0))
    service = JobService(config)  # start() never called: nothing executes
    endpoint = ServiceEndpoint(service)
    endpoint.publish()
    thread = threading.Thread(target=endpoint.serve_forever, daemon=True)
    thread.start()
    return service, endpoint, thread


def run(seconds: float | None = None) -> ExperimentResult:
    """Execute the R6 service-chaos matrix; returns the scenario table."""
    if seconds is None:
        seconds = read("REPRO_R6_SECONDS")
    t0 = time.monotonic()

    result = ExperimentResult(
        experiment="R6",
        title="Multi-tenant job service: daemon kill+restart, admission "
              "shedding, cancellation",
        columns=["scenario", "tenant", "detail", "state", "outcome"],
    )

    # -- chaos: accept from three tenants, SIGKILL the daemon, restart ----
    root = tempfile.mkdtemp(prefix="r6-service-")
    client = ServiceClient(root)
    specs = _chaos_specs()
    accepted: list[tuple[str, JobSpec]] = []
    daemon = _spawn_daemon(root)
    kill_note = "daemon never became healthy"
    try:
        if _wait_healthy(client, timeout=60):
            for spec in specs:
                reply = client.submit(spec)
                if reply.get("error"):
                    result.add(scenario="chaos-submit", tenant=spec.tenant,
                               detail=_spec_label(spec),
                               state=reply["error"], outcome="DRIFT")
                else:
                    accepted.append((reply["job_id"], spec))
            # Let execution begin so the SIGKILL lands mid-flight.
            mid_flight = _wait_any_running(client, timeout=60)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait()
            kill_note = (f"SIGKILL pid {daemon.pid} "
                         f"{'mid-flight' if mid_flight else 'while queued'}, "
                         f"{len(accepted)} accepted job(s)")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    # The registry alone must reconstruct everything: restart and drain.
    states: dict[str, str] = {}
    if accepted:
        daemon = _spawn_daemon(root)
        try:
            if _wait_healthy(client, timeout=60):
                budget = max(30.0, seconds - (time.monotonic() - t0))
                states = _wait_all_done(
                    client, [j for j, _ in accepted], timeout=budget)
                try:
                    client.shutdown()
                    daemon.wait(timeout=30)
                except (ServiceUnavailableError,
                        subprocess.TimeoutExpired):
                    pass
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    registry = JobRegistry(root)
    done = 0
    for job_id, spec in accepted:
        state = states.get(job_id, "?")
        record = registry.get(job_id)
        stored = record.load_result() if record is not None else None
        if state == "DONE" and stored is not None:
            base = _solo_baseline(spec)
            output_ok = stored["output"] == base.output
            counters_ok = stored["counters"] == base.counters
            if output_ok and counters_ok:
                outcome = "identical"
                done += 1
            else:
                outcome = "DRIFT"
        else:
            outcome = "DRIFT"  # an accepted job was lost or damaged
        result.add(scenario="chaos", tenant=spec.tenant,
                   detail=f"{job_id}: {_spec_label(spec)}",
                   state=state, outcome=outcome)
    result.add(scenario="daemon-kill", tenant="-", detail=kill_note,
               state="-",
               outcome=("recovered" if accepted and done == len(accepted)
                        else "DRIFT"))

    # -- shedding: every budget rejects with its own structured error -----
    shed_root = tempfile.mkdtemp(prefix="r6-shed-")
    service, endpoint, thread = _shed_service(shed_root)
    shed_client = ServiceClient(shed_root)
    try:
        def tiny(tenant: str, seed: int) -> JobSpec:
            return JobSpec(tenant=tenant, query="histogram",
                           shape=(6, 6), seed=seed, num_maps=2,
                           num_reducers=1)

        def shed_row(scenario: str, tenant: str, reply: dict,
                     want_error: str, want_status: int,
                     want_retry: bool) -> None:
            got_retry = reply.get("retry_after") is not None
            ok = (reply.get("error") == want_error
                  and reply.get("http_status") == want_status
                  and got_retry == want_retry)
            result.add(scenario=scenario, tenant=tenant,
                       detail=f"{reply.get('error')} "
                              f"http={reply.get('http_status')} "
                              f"retry_after="
                              f"{'set' if got_retry else 'null'}",
                       state="rejected", outcome="shed" if ok else "DRIFT")

        first = shed_client.submit(tiny("alice", 1))
        shed_client.submit(tiny("alice", 2))
        # alice is at her per-tenant bound of 2:
        shed_row("shed-tenant", "alice", shed_client.submit(tiny("alice", 3)),
                 "TENANT_OVERLOADED", 429, True)
        shed_client.submit(tiny("bob", 4))
        # the global queue is at its bound of 3:
        shed_row("shed-global", "bob", shed_client.submit(tiny("bob", 5)),
                 "OVERLOADED", 429, True)

        # cancel smoke: queued -> CANCELLED through the REST round-trip
        cancelled = shed_client.cancel(first["job_id"])
        result.add(scenario="cancel", tenant="alice",
                   detail=f"{first['job_id']} cancelled while queued",
                   state=cancelled.get("state", "?"),
                   outcome=("cancelled"
                            if cancelled.get("state") == "CANCELLED"
                            else "DRIFT"))
        missing = shed_client.status("j999999")
        result.add(scenario="cancel", tenant="-",
                   detail="status of unknown job id", state="rejected",
                   outcome=("shed"
                            if missing.get("error") == "NOT_FOUND"
                            else "DRIFT"))
    finally:
        try:
            shed_client.shutdown()
        except ServiceUnavailableError:
            endpoint.server.shutdown()
        thread.join(timeout=10)

    # Per-job cost cap: a property of the job, so retrying cannot help
    # (413, retry_after null).  Checked in-process against a service
    # whose cap is unreachably small.
    cap_root = tempfile.mkdtemp(prefix="r6-cap-")
    cap_service = JobService(ServiceConfig(
        root=cap_root, max_workers=2, executors=1,
        admission=AdmissionConfig(max_job_seconds=1e-9)))
    try:
        cap_service.submit(JobSpec(tenant="alice", query="sliding_mean",
                                   shape=(32, 32, 32), num_maps=4,
                                   num_reducers=2))
        payload = {"error": "ACCEPTED"}
    except AdmissionRejected as exc:
        payload = exc.payload
    ok = (payload.get("error") == "JOB_TOO_LARGE"
          and payload.get("http_status") == 413
          and payload.get("retry_after") is None)
    result.add(scenario="shed-job-cap", tenant="alice",
               detail=f"{payload.get('error')} "
                      f"http={payload.get('http_status')} "
                      f"retry_after="
                      f"{'null' if payload.get('retry_after') is None else 'set'}",
               state="rejected", outcome="shed" if ok else "DRIFT")

    result.note(f"chaos phase: {len(accepted)} job(s) accepted across 3 "
                f"tenants ({_TENANTS}); {done} DONE and byte-identical "
                f"to their solo serial baselines after kill+restart; "
                f"total {time.monotonic() - t0:.1f}s")
    result.note("outcome=identical: the service-executed job's committed "
                "result (output AND counters) equals a LocalJobRunner run "
                "of the same spec with the same fault plan, alone")
    result.note("outcome=shed: the submission was refused with the "
                "expected structured error code, HTTP status, and "
                "retry_after convention (429 retryable, 413 not)")
    return result
