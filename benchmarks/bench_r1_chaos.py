"""R1 -- chaos soak: the parallel runtime under randomized faults.

Three properties pinned here.  First, **correctness under chaos**:
every randomized fault schedule (worker kills, crashes, hangs, silent
segment corruption, SIGSTOP stalls -- with speculation disabled on
roughly half the seeds) must still produce counters and reduce output
byte-identical to the serial baseline.  Second, **liveness**: hangs and
stalls are reclaimed by the ``task_timeout`` / heartbeat-staleness
deadline path, so seeds that draw them record timeout kills instead of
wedging the suite.  Third, **durable recovery**: in the kill+resume
scenarios the whole scheduler process SIGKILLs itself right after its
N-th durable checkpoint (N from the seed), then a fresh runner resumes
from the on-disk manifest -- it must adopt exactly those N tasks, run
every other task once, and still be byte-identical.  These rows are
deterministic, so CI compares them with the committed table.

Seed count is bounded by ``REPRO_CHAOS_SEEDS`` (CI pins a small value;
the default soak is 20 schedules).
"""

from repro.experiments.chaos import run


def test_r1_chaos_soak(tabulate):
    result = tabulate(run, resume_seeds=2, filename="r1")

    # Every scenario -- faulty, speculation-off, and kill+resume alike --
    # must match the serial baseline byte for byte.
    assert all(v == "identical" for v in result.column("identical"))

    # The schedules draw hangs/stalls often enough that at least one
    # seed must have exercised the deadline-kill path, and injected
    # faults must have forced retries somewhere.
    assert sum(result.column("timeouts")) >= 1
    assert sum(result.column("retried")) >= 1

    # The resume adopts exactly the N checkpoints the killed scheduler
    # made, and runs each of the other tasks once.
    resumes = [r for r in result.rows if r["scenario"] == "kill+resume"]
    assert resumes
    tasks = 6 + 2  # run()'s maps and reducers
    for row in resumes:
        n = int(row["plan"].split("@ ")[1].split()[0])
        assert 1 <= n < 6
        assert row["adopted"] == n, row
        assert row["attempts"] == tasks - n, row
