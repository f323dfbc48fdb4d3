"""R1 -- chaos soak: randomized fault schedules vs the serial runner.

Not a paper figure: this is the robustness analogue of P1.  Each seed
derives a random :class:`~repro.mapreduce.runtime.fault.FaultInjector`
plan -- worker kills, mid-task crashes, hangs (with speculation
randomly disabled, so completion rides on the ``task_timeout`` deadline
path), silent segment corruption, and SIGSTOP stalls (caught only by
heartbeat staleness) -- and runs the same aggregation job through the
parallel runtime under that schedule.  Every run must produce reduce
output and merged counters **byte-identical** to the serial
:class:`~repro.mapreduce.runtime.LocalJobRunner` baseline.

On top of the per-seed schedules, ``resume_seeds`` scenarios exercise
the durable-recovery path end to end: the whole scheduler process
SIGKILLs itself right after its N-th durable checkpoint (the
cluster-master loss case; N comes from the seed, between 1 and the map
count minus one), then a fresh runner resumes from the on-disk job
manifest, adopting the N tasks it can validate and re-running the rest
-- again to byte-identical output.

The table reports, per scenario, the fault plan, how many attempts ran,
how many retries / deadline kills / adoptions the trace recorded, and
whether counters and output matched.  The chaos bench
(``benchmarks/bench_r1_chaos.py``) asserts the "identical" column is
unanimous.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time

from repro.experiments.common import ExperimentResult, scaled
from repro.mapreduce.runtime import (
    FaultInjector,
    LocalJobRunner,
    ParallelJobRunner,
)
from repro.queries.subset import BoxSubsetQuery
from repro.scidata.generator import integer_grid
from repro.settings import read
from repro.util.rng import make_rng

__all__ = ["run", "random_fault_plan"]

#: fault modes a random schedule may draw (corrupt is maps-only)
_CHAOS_MODES = ("kill", "crash", "hang", "corrupt", "stall")

#: per-attempt deadline for chaos runs; hangs outlive it on purpose
_TASK_TIMEOUT = 2.0
#: staleness bound that catches SIGSTOPped (stalled) workers
_HEARTBEAT_TIMEOUT = 1.0


def _make_job(side: int, num_map_tasks: int, num_reducers: int):
    grid = integer_grid((side, side), seed=7, low=0, high=500)
    query = BoxSubsetQuery(grid, "values", grid["values"].extent)
    job = query.build_job("aggregate", variable_mode="index",
                          num_map_tasks=num_map_tasks,
                          num_reducers=num_reducers)
    return grid, job


class _SlowMapperFactory:
    """Module-level mapper factory wrapping maps in a fetch delay.

    A named class (not a local lambda) so the job *fingerprint* is
    identical whether the job is built in the to-be-killed child or in
    the resuming parent -- locals' qualnames would differ and veto
    adoption.
    """

    def __init__(self, inner_factory, delay: float) -> None:
        self.inner_factory = inner_factory
        self.delay = delay

    def __call__(self):
        from repro.experiments.parallel_speedup import SlowFetchMapper

        return SlowFetchMapper(self.inner_factory(), self.delay)


def _make_slow_job(side: int, num_map_tasks: int, num_reducers: int,
                   map_delay: float):
    import dataclasses

    grid, job = _make_job(side, num_map_tasks, num_reducers)
    if map_delay > 0:
        job = dataclasses.replace(
            job, mapper=_SlowMapperFactory(job.mapper, map_delay))
    return grid, job


def random_fault_plan(rng, map_ids: list[str], reduce_ids: list[str],
                      max_faults: int = 4) -> FaultInjector:
    """Derive one deterministic, seed-reproducible fault schedule.

    Draws 1..``max_faults`` faults over distinct (task, attempt) slots.
    First attempts are the usual victims; occasionally the *retry* is
    hit too (attempt 1), which a ``max_retries`` budget of 3 survives.
    Hangs sleep far longer than ``task_timeout`` so they only complete
    via the deadline-kill path; stalls freeze the worker so only
    heartbeat staleness can reclaim the slot.
    """
    injector = FaultInjector()
    all_ids = list(map_ids) + list(reduce_ids)
    n_faults = int(rng.integers(1, max_faults + 1))
    victims = rng.choice(len(all_ids), size=min(n_faults, len(all_ids)),
                         replace=False)
    for idx in victims:
        task_id = all_ids[int(idx)]
        mode = _CHAOS_MODES[int(rng.integers(0, len(_CHAOS_MODES)))]
        if mode == "corrupt" and task_id not in map_ids:
            mode = "crash"  # corruption is a map-output fault
        attempt = 0
        if mode == "hang":
            injector.hang(task_id, seconds=30.0, attempt=attempt)
        elif mode == "kill":
            injector.kill(task_id, attempt=attempt)
        elif mode == "crash":
            injector.crash(task_id, attempt=attempt)
        elif mode == "corrupt":
            injector.corrupt(task_id, attempt=attempt)
        else:
            injector.stall(task_id, attempt=attempt)
        # Sometimes break the retry as well (different mode, attempt 1).
        if rng.random() < 0.2:
            retry_mode = ("kill", "crash")[int(rng.integers(0, 2))]
            getattr(injector, retry_mode)(task_id, attempt=1)
    return injector


def _format_plan(injector: FaultInjector) -> str:
    return " ".join(f"{tid}.{f.attempt}:{f.mode}"
                    for tid, f in injector.planned())


class _KilledAfterCheckpoints(ParallelJobRunner):
    """A runner whose process SIGKILLs itself right after its
    ``kill_after``-th checkpoint is durable: the scheduler dies with
    exactly that many tasks in the manifest."""

    def __init__(self, kill_after: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.kill_after = kill_after
        self.checkpoints = 0

    def _checkpoint(self, *args) -> None:
        super()._checkpoint(*args)
        self.checkpoints += 1
        if self.checkpoints == self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)


def _run_job_child(recovery_dir: str, side: int, num_map_tasks: int,
                   num_reducers: int, map_delay: float,
                   kill_after: int) -> None:
    """Child-process body for the mid-job scheduler-kill scenario.

    Re-derives the job from first principles (nothing is shared with
    the parent but the recovery directory -- exactly the real resume
    situation) and dies after ``kill_after`` checkpoints.
    """
    grid, job = _make_slow_job(side, num_map_tasks, num_reducers, map_delay)
    _KilledAfterCheckpoints(kill_after, max_workers=2,
                            recovery_dir=recovery_dir,
                            retry_backoff=0.01).run(job, grid)


def _kill_resume_scenario(seed: int, side: int, num_map_tasks: int,
                          num_reducers: int, baseline) -> dict:
    """SIGKILL the scheduler mid-job, then resume from the manifest."""
    recovery_dir = tempfile.mkdtemp(prefix="repro-chaos-rec-")
    map_delay = 0.15
    # Mid-job by construction: at least one map is durable, at least
    # one is not.
    kill_after = int(make_rng(seed).integers(1, num_map_tasks))
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    child = ctx.Process(
        target=_run_job_child,
        args=(recovery_dir, side, num_map_tasks, num_reducers, map_delay,
              kill_after))
    child.start()
    child.join(timeout=60.0)
    if child.exitcode != -signal.SIGKILL:
        child.kill()
        child.join()
        shutil.rmtree(recovery_dir, ignore_errors=True)
        raise RuntimeError(f"the scheduler did not die at checkpoint "
                           f"{kill_after} (exit code {child.exitcode})")
    time.sleep(0.5)  # let orphaned workers drain their current attempt

    grid, job = _make_slow_job(side, num_map_tasks, num_reducers, map_delay)
    try:
        # Without speculation every task not adopted runs exactly once.
        runner = ParallelJobRunner(
            max_workers=2, recovery_dir=recovery_dir, resume=True,
            retry_backoff=0.01, task_timeout=_TASK_TIMEOUT,
            speculation=False)
        result = runner.run(job, grid)
        trace = runner.last_trace
        identical = (result.counters == baseline.counters
                     and result.output == baseline.output)
        return {
            "scenario": "kill+resume",
            "seed": seed,
            "plan": f"SIGKILL scheduler @ {kill_after} checkpointed",
            "attempts": trace.count("started"),
            "retried": trace.count("retried"),
            "timeouts": trace.count("timeout"),
            "adopted": runner.last_adopted,
            "identical": "identical" if identical else "DRIFT",
        }
    finally:
        shutil.rmtree(recovery_dir, ignore_errors=True)


def run(num_seeds: int | None = None, resume_seeds: int = 3,
        side: int | None = None, num_map_tasks: int = 6,
        num_reducers: int = 2) -> ExperimentResult:
    """Soak the parallel runtime under randomized fault schedules.

    ``num_seeds`` random schedules (default 20, or ``REPRO_CHAOS_SEEDS``)
    plus ``resume_seeds`` mid-job scheduler-kill + resume scenarios.
    """
    if num_seeds is None:
        num_seeds = read("REPRO_CHAOS_SEEDS")
    if side is None:
        side = scaled(12, default_scale=1.0)

    grid, job = _make_job(side, num_map_tasks, num_reducers)
    with LocalJobRunner() as serial:
        baseline = serial.run(job, grid)

    map_ids = [f"m{i:05d}" for i in range(num_map_tasks)]
    reduce_ids = [f"r{i:05d}" for i in range(num_reducers)]

    result = ExperimentResult(
        experiment="R1",
        title=f"chaos soak, {side}^2 aggregate subset "
              f"({num_map_tasks} maps, {num_reducers} reducers), "
              f"{num_seeds} fault schedules + {resume_seeds} kill+resume",
        columns=["scenario", "seed", "plan", "attempts", "retried",
                 "timeouts", "adopted", "identical"],
    )

    for seed in range(num_seeds):
        rng = make_rng(seed)
        injector = random_fault_plan(rng, map_ids, reduce_ids)
        speculation = bool(rng.random() < 0.5)
        runner = ParallelJobRunner(
            max_workers=2, max_retries=3, retry_backoff=0.01,
            fault_injector=injector, speculation=speculation,
            task_timeout=_TASK_TIMEOUT,
            heartbeat_timeout=_HEARTBEAT_TIMEOUT)
        with runner:
            job_result = runner.run(job, grid)
        trace = runner.last_trace
        identical = (job_result.counters == baseline.counters
                     and job_result.output == baseline.output)
        result.add(
            scenario="faults" if speculation else "faults/no-spec",
            seed=seed,
            plan=_format_plan(injector),
            attempts=trace.count("started"),
            retried=trace.count("retried"),
            timeouts=trace.count("timeout"),
            adopted=0,
            identical="identical" if identical else "DRIFT",
        )

    for seed in range(resume_seeds):
        result.add(**_kill_resume_scenario(
            seed, side, num_map_tasks, num_reducers, baseline))

    n_drift = sum(1 for v in result.column("identical") if v != "identical")
    result.note(f"{num_seeds} randomized schedules + {resume_seeds} "
                f"scheduler kill+resume scenarios; {n_drift} drifted "
                f"from the serial baseline (must be 0)")
    result.note(f"task_timeout={_TASK_TIMEOUT}s reclaims hung workers "
                f"(speculation is disabled on ~half the seeds, so "
                f"completion there rides on the deadline path alone); "
                f"heartbeat_timeout={_HEARTBEAT_TIMEOUT}s reclaims "
                f"SIGSTOPped ones")
    result.note("kill+resume: the scheduler process SIGKILLs itself "
                "right after its N-th durable checkpoint (N from the "
                "seed, 1..maps-1); a fresh runner without speculation "
                "adopts the N validated manifest records and runs each "
                "other task once")
    return result
