"""WorkerPool/PoolLease: the slot accounting the job service trusts.

The pool-ownership inversion only works if the accounting is airtight:
slots charged on spawn, returned exactly once on release, per-tenant
quotas enforced under the global bound, and error paths unable to leak
or mint capacity.  These tests pin that ledger, plus the scheduler's
standalone fallback (no pool given -> private pool, old behavior), and
the lease's workers: an idle one runs the next attempt, a killed
attempt takes its worker, ``shutdown`` reaps them all, and SIGTERM
kills a worker forked under a runner's signal handlers.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.mapreduce.runtime.pool import (
    PoolLease,
    PoolSaturatedError,
    WorkerPool,
)


def _sleep_forever():
    time.sleep(60)


def _noop():
    pass


def _mark_then_sleep(path):
    open(path, "w").close()
    time.sleep(60)


def test_available_respects_global_bound():
    pool = WorkerPool(max_workers=2)
    lease = pool.lease("a")
    assert lease.available() == 2
    p1 = lease.spawn(_sleep_forever, ())
    p2 = lease.spawn(_sleep_forever, ())
    try:
        assert lease.available() == 0
        assert pool.running() == 2
        with pytest.raises(PoolSaturatedError):
            lease.spawn(_sleep_forever, ())
        # The failed spawn must not have charged anything.
        assert pool.running() == 2
    finally:
        for p in (p1, p2):
            p.terminate()
            p.join()
        lease.shutdown()
    assert pool.running() == 0


def test_tenant_quota_caps_below_global():
    pool = WorkerPool(max_workers=4)
    pool.set_quota("small", 1)
    small = pool.lease("small")
    big = pool.lease("big")
    p1 = small.spawn(_sleep_forever, ())
    try:
        assert small.available() == 0  # quota exhausted
        assert big.available() == 3    # global capacity remains
        with pytest.raises(PoolSaturatedError):
            small.spawn(_sleep_forever, ())
        assert pool.running_for("small") == 1
    finally:
        p1.terminate()
        p1.join()
        small.shutdown()
    assert pool.running_for("small") == 0


def test_release_is_idempotent_per_spawn():
    pool = WorkerPool(max_workers=2)
    lease = pool.lease("t")
    p = lease.spawn(_noop, ())
    p.join()
    assert p.exitcode == 0
    lease.release()
    # Extra releases must not mint phantom capacity.
    lease.release()
    lease.release()
    assert pool.running() == 0
    assert lease.available() == 2
    lease.shutdown()


def test_close_sweeps_leaked_slots():
    pool = WorkerPool(max_workers=3)
    lease = pool.lease("t")
    procs = [lease.spawn(_noop, ()) for _ in range(3)]
    for p in procs:
        p.join()
    assert pool.running() == 3  # never released: simulated error path
    lease.close()
    assert pool.running() == 0
    lease.close()  # second sweep is a no-op
    assert pool.running() == 0
    pids = {p.pid for p in procs}
    lease.shutdown()
    assert not pids & {c.pid for c in multiprocessing.active_children()}


def test_idle_worker_runs_the_next_attempt():
    """A finished attempt hands its worker back: the next spawn runs
    there instead of forking, and an idle worker holds no slot."""
    pool = WorkerPool(max_workers=2)
    lease = pool.lease("t")
    first = lease.spawn(os.getpid, ())
    first.join()
    lease.release()
    assert pool.running() == 0
    second = lease.spawn(_sleep_forever, ())
    try:
        assert second.pid == first.pid
        assert second.is_alive()
        assert pool.running() == 1
    finally:
        lease.shutdown()
    assert not second.is_alive()
    assert pool.running() == 0


def test_killed_attempt_takes_its_worker():
    pool = WorkerPool(max_workers=1)
    lease = pool.lease("t")
    doomed = lease.spawn(_sleep_forever, ())
    doomed.kill()
    doomed.join()
    assert doomed.exitcode == -signal.SIGKILL
    lease.release()
    fresh = lease.spawn(_noop, ())
    fresh.join()
    assert fresh.pid != doomed.pid and fresh.exitcode == 0
    lease.shutdown()
    assert fresh.pid not in {c.pid for c in multiprocessing.active_children()}


def test_sigterm_kills_a_worker_forked_under_runner_handlers(tmp_path):
    """A runner routes SIGTERM to its cancel event on the main thread;
    a worker forked from it must still die on ``terminate`` at once,
    not wait out the scheduler's grace for SIGKILL."""
    from repro.mapreduce.runtime.scheduler import _kill_process

    marker = tmp_path / "running"
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    pool = WorkerPool(max_workers=1)
    lease = pool.lease("t")
    try:
        attempt = lease.spawn(_mark_then_sleep, (str(marker),))
        deadline = time.monotonic() + 10
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert marker.exists()
        started = time.perf_counter()
        _kill_process(attempt)
        elapsed = time.perf_counter() - started
    finally:
        signal.signal(signal.SIGTERM, previous)
        lease.shutdown()
    assert attempt.exitcode == -signal.SIGTERM
    assert elapsed < 0.1


def test_two_leases_share_the_global_budget():
    pool = WorkerPool(max_workers=2)
    a, b = pool.lease("a"), pool.lease("b")
    pa = a.spawn(_sleep_forever, ())
    pb = b.spawn(_sleep_forever, ())
    try:
        assert a.available() == 0 and b.available() == 0
        with pytest.raises(PoolSaturatedError):
            a.spawn(_sleep_forever, ())
    finally:
        for p in (pa, pb):
            p.terminate()
            p.join()
        a.shutdown()
        b.shutdown()
    assert pool.running() == 0


def test_quota_validation():
    pool = WorkerPool(max_workers=2)
    with pytest.raises(ValueError):
        pool.set_quota("t", 0)


def test_stats_snapshot():
    pool = WorkerPool(max_workers=2)
    pool.set_quota("t", 1)
    lease = pool.lease("t")
    p = lease.spawn(_sleep_forever, ())
    try:
        stats = pool.stats()
        assert stats["max_workers"] == 2
        assert stats["running"] == 1
        assert stats["per_tenant"] == {"t": 1}
        assert stats["quotas"] == {"t": 1}
    finally:
        p.terminate()
        p.join()
        lease.shutdown()


def test_scheduler_without_pool_builds_private_one():
    """Standalone construction keeps the pre-service behavior."""
    from repro.mapreduce.runtime.runner import ParallelJobRunner

    runner = ParallelJobRunner(max_workers=2)
    assert runner.pool is None  # private pool is created per scheduler


def test_scheduler_with_pool_inherits_width():
    from repro.mapreduce.runtime.runner import ParallelJobRunner

    pool = WorkerPool(max_workers=3)
    runner = ParallelJobRunner(pool=pool, tenant="t")
    assert runner.pool is pool


def test_lease_is_cheap_and_unbounded_to_create():
    pool = WorkerPool(max_workers=1)
    leases = [pool.lease(f"t{i}") for i in range(50)]
    assert all(isinstance(x, PoolLease) for x in leases)
    assert pool.running() == 0
