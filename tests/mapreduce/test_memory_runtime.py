"""Memory-safe runtime: ledger semantics, spill boundaries, OOM ladder.

Four layers of the memory model are pinned here:

* :class:`MemoryBudget` itself -- charge modes (try / enforce / force),
  grant-when-alone, per-owner quotas, the fault hooks the
  ``oom`` injector arms, and the no-leak guarantee of ``rent()``;
* the spill boundary -- the scalar (``record_path``) and columnar map
  paths must flush at exactly the same record when the running byte
  count crosses ``sort_buffer_bytes``, including one byte under,
  exactly on, and one byte over a record-aligned threshold, and the
  ledger ends every error path (a ``MemoryError`` mid-spill) at zero
  bytes held;
* the degrade-on-retry ladder -- an injected OOM at any ledger site
  produces byte-identical output and *fully* counter-identical results
  between the serial and parallel runners;
* one fetch in flight -- a reducer whose segments sum past a sticky
  ``fetch`` kill threshold, each one below it, completes on the
  baseline bytes whatever the helper pool's size;
* a real ``RLIMIT_AS`` on forked workers (the ``rlimit`` marker,
  Linux-only) turning an otherwise-satisfiable allocation into a
  genuine kernel refusal the ladder must absorb.
"""

import sys

import pytest

from repro.experiments.matrix import build_query_job
from repro.mapreduce.columnar import PartitionBuffer
from repro.mapreduce.engine import run_map_task
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import (
    FaultInjector,
    LocalJobRunner,
    ParallelJobRunner,
    ShuffleConfig,
)
from repro.mapreduce.runtime.memory import MemoryBudget, MemoryBudgetExceeded
from repro.queries import BoxSubsetQuery
from repro.scidata import Slab, integer_grid
from repro.scidata.splits import ArraySplitter
from tests.mapreduce.record_path import record_path


@pytest.fixture(scope="module")
def grid():
    return integer_grid((8, 8, 8), seed=41, low=0, high=900)


def make_job(grid, **overrides):
    overrides.setdefault("num_map_tasks", 2)
    overrides.setdefault("num_reducers", 2)
    query = BoxSubsetQuery(grid, "values", Slab((1, 1, 1), (6, 6, 6)))
    return query.build_job("plain", **overrides)


# ---------------------------------------------------------------- the ledger


class TestMemoryBudget:
    def test_charge_release_peak(self):
        budget = MemoryBudget(100)
        assert budget.try_charge(60, site="sort")
        assert budget.used == 60
        assert not budget.try_charge(50, site="sort")
        budget.release(60, site="sort")
        assert budget.used == 0
        assert budget.peak == 60
        assert budget.stats()["site_peaks"]["sort"] == 60

    def test_grant_when_alone_oversize(self):
        # An oversize charge with nothing else held must be admitted
        # (recorded as overdraft in the peak): any budget completes a
        # clean run, it just reports how over it went.
        budget = MemoryBudget(100)
        assert budget.try_charge(500, site="merge")
        assert budget.used == 500
        assert budget.peak == 500

    def test_enforce_raises_only_with_company(self):
        budget = MemoryBudget(100)
        with budget.rent(900, site="merge"):  # grant-when-alone
            with pytest.raises(MemoryBudgetExceeded):
                budget.charge(10, site="sort", enforce=True)
        # MemoryBudgetExceeded must be catchable as MemoryError: the
        # degrade ladder has exactly one except clause for both the
        # simulated and the genuine article.
        assert issubclass(MemoryBudgetExceeded, MemoryError)

    def test_rent_releases_on_error(self):
        budget = MemoryBudget(1000)
        with pytest.raises(RuntimeError):
            with budget.rent(400, site="sort"):
                raise RuntimeError("spill blew up")
        assert budget.used == 0

    def test_owner_quota(self):
        budget = MemoryBudget(None)
        budget.set_quota("tenant-a", 100)
        assert budget.try_charge(80, site="jobs", owner="tenant-a")
        assert not budget.try_charge(30, site="jobs", owner="tenant-a")
        assert budget.try_charge(30, site="jobs", owner="tenant-b")
        budget.release(80, site="jobs", owner="tenant-a")
        assert budget.owner_used("tenant-a") == 0

    def test_fail_next_hook(self):
        budget = MemoryBudget(1 << 20)
        budget.fail_next("sort")
        with pytest.raises(MemoryError):
            budget.charge(10, site="sort", force=True)
        # one-shot: the next charge at the site succeeds
        budget.charge(10, site="sort", force=True)
        assert budget.used == 10

    def test_kill_above_hook(self):
        budget = MemoryBudget(1 << 20)
        fired = []
        budget.kill_above(100, lambda watched: fired.append(watched),
                          site="fetch")
        budget.charge(90, site="fetch", force=True)
        assert not fired
        budget.charge(20, site="fetch", force=True)
        assert fired


# ------------------------------------------------------- the spill boundary


class TestSpillBoundary:
    def _probe_record_bytes(self, grid):
        """The uniform per-record spill-threshold cost (k + v + 8)."""
        result = LocalJobRunner().run(make_job(grid), grid)
        records = result.counters["MAP_OUTPUT_RECORDS"]
        payload = result.counters["MAP_OUTPUT_BYTES"]
        assert records > 0 and payload % records == 0
        return payload // records + 8

    @pytest.mark.parametrize("offset", [-1, 0, +1])
    def test_scalar_columnar_agree_at_threshold(self, tmp_path, grid,
                                                offset):
        """One byte under, exactly on, and one byte over a record-aligned
        threshold: both paths must flush at the same record and write
        byte-identical spills (counts, records, and final segments)."""
        rec = self._probe_record_bytes(grid)
        threshold = max(1024, (1024 // rec + 1) * rec) + offset
        results = {}
        for label in ("scalar", "columnar"):
            job = make_job(grid, sort_buffer_bytes=threshold)
            with pytest.MonkeyPatch.context() as patch:
                if label == "scalar":
                    record_path(patch)
                with LocalJobRunner(
                        workdir=str(tmp_path / f"{label}{offset}")) as runner:
                    results[label] = runner.run(job, grid)
        col, sca = results["columnar"], results["scalar"]
        assert col.counters["SPILL_COUNT"] == sca.counters["SPILL_COUNT"]
        assert col.counters["SPILL_COUNT"] > 0
        assert col.counters.as_dict() == sca.counters.as_dict()
        assert col.output == sca.output

    def test_partition_buffer_nbytes(self):
        import numpy as np
        scalar, columnar = PartitionBuffer(), PartitionBuffer()
        keys = np.frombuffer(b"abcdefgh", dtype=np.uint8).reshape(2, 4)
        values = np.frombuffer(b"123456", dtype=np.uint8).reshape(2, 3)
        for k, v in zip(keys, values):
            scalar.append(k.tobytes(), v.tobytes())
        columnar.append_chunk(keys, values)
        assert scalar.nbytes == columnar.nbytes == 14
        assert scalar.records == columnar.records == 2
        assert scalar.to_records() == columnar.to_records()
        scalar.clear()
        assert scalar.nbytes == 0 and scalar.records == 0

    def test_ledger_never_leaks_on_memory_error_mid_spill(self, tmp_path,
                                                          grid):
        """A MemoryError raised *inside* a spill (the fail-next hook at
        the sort site) must not leave a byte charged on the ledger."""
        job = make_job(grid, num_map_tasks=1, sort_buffer_bytes=1024)
        split = ArraySplitter(1).split(grid)[0]
        (tmp_path / "oom").mkdir()
        (tmp_path / "clean").mkdir()
        budget = MemoryBudget(1 << 20)
        budget.fail_next("sort")
        with pytest.raises(MemoryError):
            run_map_task(job, split, grid, str(tmp_path / "oom"),
                         memory=budget)
        assert budget.used == 0
        # Same task without the hook: the sort site really does charge
        # (the faulted run died *at* the charge, so its peak stayed 0).
        clean = MemoryBudget(1 << 20)
        run_map_task(job, split, grid, str(tmp_path / "clean"),
                     memory=clean)
        assert clean.used == 0
        assert clean.peak > 0
        assert clean.stats()["site_peaks"]["sort"] > 0


# --------------------------------------------------- the degrade-on-retry


def run_pair(grid, shuffle, plan, **overrides):
    job_kwargs = dict(sort_buffer_bytes=2048)
    job_kwargs.update(overrides)
    serial = LocalJobRunner(shuffle=shuffle, fault_injector=plan()).run(
        make_job(grid, **job_kwargs), grid)
    with ParallelJobRunner(max_workers=2, speculation=False,
                           retry_backoff=0.01, shuffle=shuffle,
                           fault_injector=plan()) as runner:
        parallel = runner.run(make_job(grid, **job_kwargs), grid)
    return serial, parallel


class TestDegradeLadder:
    SHUFFLE = ShuffleConfig(memory_budget=1 << 20, max_memory_retries=2)

    @pytest.mark.parametrize("site,task", [
        ("sort", "m00001"), ("fetch", "r00000"), ("merge", "r00001"),
    ])
    def test_oom_raise_runner_identity(self, grid, site, task):
        baseline = LocalJobRunner().run(
            make_job(grid, sort_buffer_bytes=2048), grid)
        serial, parallel = run_pair(
            grid, self.SHUFFLE,
            lambda: FaultInjector().oom(task, site=site, op="raise"))
        assert serial.output == parallel.output == baseline.output
        assert serial.counters.as_dict() == parallel.counters.as_dict()
        assert serial.counters[C.MEMORY_OOM_EVENTS] == 1
        assert serial.counters[C.MEMORY_DEGRADED_ATTEMPTS] == 1

    def test_oom_kill_is_sigkill_shaped_in_parallel(self, grid):
        """A threshold kill dies ``os._exit(137)``-style in a worker and
        as an in-process MemoryError serially -- same ladder, same
        bytes, same counters."""
        baseline = LocalJobRunner().run(
            make_job(grid, sort_buffer_bytes=2048), grid)
        serial, parallel = run_pair(
            grid, self.SHUFFLE,
            lambda: FaultInjector().oom("m00001", site="sort", op="kill",
                                        nbytes=1600, sticky=True))
        assert serial.output == parallel.output == baseline.output
        assert serial.counters.as_dict() == parallel.counters.as_dict()
        assert serial.counters[C.MEMORY_OOM_EVENTS] == 1

    def test_ladder_exhaustion_fails_both_runners(self, grid):
        shuffle = ShuffleConfig(memory_budget=1 << 20,
                                max_memory_retries=1)
        plan = lambda: FaultInjector().oom("m00000", site="sort",
                                           op="raise", sticky=True)
        with pytest.raises(MemoryError):
            LocalJobRunner(shuffle=shuffle, fault_injector=plan()).run(
                make_job(grid, sort_buffer_bytes=2048), grid)
        with pytest.raises(Exception):
            with ParallelJobRunner(max_workers=2, speculation=False,
                                   retry_backoff=0.01, shuffle=shuffle,
                                   fault_injector=plan()) as runner:
                runner.run(make_job(grid, sort_buffer_bytes=2048), grid)

    def test_memory_stats_reported(self, grid):
        result = LocalJobRunner(shuffle=self.SHUFFLE).run(
            make_job(grid, sort_buffer_bytes=2048), grid)
        stats = result.memory_stats
        assert stats["budget"] == 1 << 20
        assert 0 < stats["peak_bytes"] <= 1 << 20
        assert stats["oom_events"] == 0
        assert result.counters[C.MEMORY_OOM_EVENTS] == 0


# ------------------------------------------------------ one fetch in flight


#: counters a faulted, budgeted run may move against the plain baseline
#: (they measure the fetches, not the data)
_FETCH_VOLATILE = frozenset({
    C.SHUFFLE_FETCHES, C.SHUFFLE_RETRIES, C.SHUFFLE_FAILED_FETCHES,
    C.SHUFFLE_BYTES_TRANSFERRED, C.MEMORY_OOM_EVENTS,
    C.MEMORY_DEGRADED_ATTEMPTS,
})


def _stable(counters):
    return {k: v for k, v in counters.as_dict().items()
            if k not in _FETCH_VOLATILE}


@pytest.mark.parametrize("threads", [0, 2])
def test_one_fetch_in_flight_stays_under_a_fetch_kill(helper_threads,
                                                      threads):
    """R7's ``fetch-one-in-flight`` job: ``r00000``'s four segments
    sum past the sticky 4200-byte ``fetch`` kill, each one is below it.
    A reducer holds one segment in transfer at a time, so the kill never
    fires, with no helper pool (one CPU) or with two helper threads."""
    grid = integer_grid((32, 32), seed=13)
    job = build_query_job(grid, "subset-plain", 32, 4, 2,
                          sort_buffer_bytes=2048)
    baseline = LocalJobRunner().run(job, grid)
    helper_threads(threads)
    shuffle = ShuffleConfig(memory_budget=1 << 20, fetch_retries=2,
                            fetch_timeout=2.0, backoff=0.005,
                            backoff_max=0.02)
    result = LocalJobRunner(
        shuffle=shuffle,
        fault_injector=FaultInjector().oom("r00000", site="fetch",
                                           op="kill", nbytes=4200,
                                           sticky=True),
    ).run(job, grid)
    assert result.output == baseline.output
    assert _stable(result.counters) == _stable(baseline.counters)
    assert result.counters[C.MEMORY_OOM_EVENTS] == 0


# ----------------------------------------------------------- real RLIMIT_AS


@pytest.mark.rlimit
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS enforcement is Linux-only")
class TestWorkerRlimit:
    def test_rlimit_turns_alloc_into_genuine_oom(self, grid):
        """Under a 4 GiB address-space cap, a 6 GiB allocation is refused
        by the kernel (not our simulation) and the ladder still lands on
        baseline bytes."""
        baseline = LocalJobRunner().run(
            make_job(grid, sort_buffer_bytes=2048), grid)
        shuffle = ShuffleConfig(memory_budget=1 << 20,
                                max_memory_retries=2)
        with ParallelJobRunner(
                max_workers=2, speculation=False, retry_backoff=0.01,
                shuffle=shuffle, worker_rlimit_bytes=4 << 30,
                fault_injector=FaultInjector().oom(
                    "m00000", site="sort", op="alloc", nbytes=6 << 30),
        ) as runner:
            result = runner.run(
                make_job(grid, sort_buffer_bytes=2048), grid)
        assert result.output == baseline.output
        assert result.counters[C.MEMORY_OOM_EVENTS] >= 1

    def test_generous_rlimit_changes_nothing(self, grid):
        baseline = LocalJobRunner().run(make_job(grid), grid)
        with ParallelJobRunner(max_workers=2, speculation=False,
                               retry_backoff=0.01,
                               worker_rlimit_bytes=8 << 30) as runner:
            result = runner.run(make_job(grid), grid)
        assert result.output == baseline.output
        assert result.counters.as_dict() == baseline.counters.as_dict()
