"""R7 -- memory chaos: OOM kills, rlimit pressure, one fetch in flight.

Pins the memory rung of the robustness ladder.  Every byte-holding
stage rents from a per-task memory ledger, and the ledger is attacked:
simulated ``MemoryError`` raises, threshold OOM kills (a parallel
worker dies ``os._exit(137)``-style mid-task), genuine refused
allocations, and a real ``RLIMIT_AS`` on forked workers.  The
assertions are the PR's acceptance criteria:

* no scenario row reads DRIFT -- serial and parallel runners agree
  byte-for-byte on output and the *full* counter set (including the
  ``MEMORY_*`` tallies) and every completed run matches the unbudgeted
  serial baseline's bytes exactly;
* with a budget configured but no faults, the run is byte-identical
  to the baseline on output AND counters over every transport x
  pipeline combination, and the ledger's recorded peak never exceeds
  the budget;
* an OOM at any ledger site (sort / fetch / merge) on either reduce
  path kills the attempt and the degraded retry, on a halved sort
  buffer, lands on the baseline bytes;
* a reducer whose segments sum past a sticky ``fetch`` kill threshold,
  each one below it, completes byte-identically: it holds one segment
  in transfer at a time, whatever the host's CPU count;
* a sticky fault outlasting ``max_memory_retries`` fails cleanly.

The matrix summary is written to ``benchmarks/results/r7.json`` every
run and to the repo-root ``BENCH_R7.json`` robustness baseline when
the grid is at least the default smoke scale.

``REPRO_R7_FUZZ`` / ``REPRO_R7_SECONDS`` bound the seeded fuzz tail
(CI's chaos job runs a small slice through both runners).
"""

import json
import os
import sys

from repro.experiments.r7_memchaos import run

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
CLEAN_BUDGET = 1 << 20


def _as_json(result) -> dict:
    outcomes: dict[str, int] = {}
    for outcome in result.column("outcome"):
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    clean = [r for r in result.rows if r["scenario"] == "clean-budgeted"]
    degraded = [r for r in result.rows if r["outcome"] == "degraded"]
    return {
        "experiment": "R7",
        "metric": "memory-chaos matrix: OOM raise/kill/alloc at "
                  "sort/fetch/merge, RLIMIT_AS workers, and one fetch "
                  "in flight, serial vs parallel",
        "rows": len(result.rows),
        "outcomes": outcomes,
        "drift_rows": outcomes.get("DRIFT", 0),
        "clean": {
            "budget_bytes": CLEAN_BUDGET,
            "max_peak_bytes": max(r["peak_bytes"] for r in clean),
            "within_budget": all(
                0 < r["peak_bytes"] <= CLEAN_BUDGET for r in clean),
        },
        "oom_recoveries": sum(r["oom_events"] for r in degraded),
        "degraded_attempts": sum(r["degraded"] for r in degraded),
        "fetch_one_in_flight": result.row_by(
            "scenario", "fetch-one-in-flight")["outcome"],
        "rlimit_rows": len([r for r in result.rows
                            if r["scenario"].startswith("rlimit-")]),
    }


def test_r7_memory_chaos(tabulate):
    result = tabulate(run, filename="r7")

    outcomes = result.column("outcome")
    assert all(v != "DRIFT" for v in outcomes)

    # Accounting on, faults off: byte-identical output AND counters on
    # every transport x pipeline path, ledger peak within the budget.
    clean = [r for r in result.rows if r["scenario"] == "clean-budgeted"]
    assert len(clean) == 4
    assert all(r["outcome"] == "identical" for r in clean)
    assert all(r["oom_events"] == 0 and r["degraded"] == 0 for r in clean)
    assert all(0 < r["peak_bytes"] <= CLEAN_BUDGET for r in clean)

    # A simulated MemoryError at each ledger site, on both reduce
    # paths, degrades exactly one attempt and lands on baseline bytes.
    raises = [r for r in result.rows
              if r["scenario"].startswith("oom-raise-")]
    assert len(raises) == 5
    for row in raises:
        assert row["outcome"] == "degraded"
        assert row["oom_events"] == 1
        assert row["degraded"] == 1

    # The threshold killer fires on attempt 0 and stays armed; the
    # halved sort buffer ducks under the wire on the retry.
    kill = result.row_by("scenario", "oom-kill-sort")
    assert kill["outcome"] == "degraded"
    assert kill["oom_events"] == 1

    # A genuinely refused allocation (1 PiB) is survived the same way.
    alloc = result.row_by("scenario", "oom-alloc-sort")
    assert alloc["outcome"] == "degraded"

    # Real RLIMIT_AS on forked workers (Linux only): a generous cap
    # changes nothing; a kernel-refused allocation still degrades.
    if sys.platform.startswith("linux"):
        assert result.row_by("scenario", "rlimit-soak")["outcome"] \
            == "identical"
        assert result.row_by("scenario", "rlimit-alloc")["outcome"] \
            == "degraded"

    # One segment in transfer at a time: segments that sum past the
    # sticky fetch kill, each one below it, never trip it.
    assert result.row_by("scenario", "fetch-one-in-flight")["outcome"] \
        == "identical"

    # A sticky fault outlasting the retry budget fails cleanly.
    assert result.row_by("scenario", "bounded")["outcome"] == "failed"

    payload = _as_json(result)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "r7.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if payload["rlimit_rows"] == 2:
        # Full matrix (rlimit rows present): refresh the committed
        # robustness baseline.
        with open(os.path.join(REPO_ROOT, "BENCH_R7.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
