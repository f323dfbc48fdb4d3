"""R2 -- poison-safe pipeline: skipping mode, quarantine, salvage.

Not a paper figure: this is the record-level robustness analogue of R1.
Where R1 kills *processes*, R2 damages *data* -- poison user records
(Hadoop's SkipBadRecords scenario) and hostile bytes (bit flips,
truncations, splices) injected into map outputs and reduce inputs --
and checks the failure ladder lands every scenario on the right rung:

* clean runs with a :class:`~repro.mapreduce.job.SkipPolicy` attached
  stay **byte-identical** to the no-policy baseline (skipping engages
  only after a strict attempt fails: zero clean-path overhead);
* poison records are bisected out in skipping mode and **quarantined**
  -- the job completes and its output is exactly the baseline minus
  the poison records' contributions, with the loss surfaced in the
  ``records_skipped`` / ``quarantine_records`` counters;
* a flipped or spliced byte inside a *chunked* (per-block CRC) segment
  is **salvaged** around: only the damaged block's records are lost,
  and every lost record is accounted for in the quarantine side-file
  (none silently dropped, none duplicated);
* damage that destroys a whole segment (truncation past the footer) is
  **repaired** by re-running the producing map task -- output identical
  to baseline, nothing skipped;
* a skip budget too small for the damage **fails the job** -- skipping
  must never silently eat unbounded data loss;
* every scenario runs through both the serial
  :class:`~repro.mapreduce.runtime.LocalJobRunner` and the parallel
  :class:`~repro.mapreduce.runtime.ParallelJobRunner`, and the two must
  agree byte-for-byte on output, counters, and quarantine contents.

A seeded fuzz tail draws random (query, fault, position) combinations
on top of the deterministic matrix; ``REPRO_R2_FUZZ`` bounds the seed
count and ``REPRO_R2_SECONDS`` the wall-clock (CI's chaos job pins a
60-second slice).  The bench (``benchmarks/bench_r2_poison.py``)
asserts the outcome column never reads DRIFT.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.common import ExperimentResult, scaled
from repro.experiments.matrix import (
    Matrix,
    Scenario,
    build_query_job,
    fuzz_budget,
)
from repro.mapreduce.codecs import NullCodec
from repro.mapreduce.ifile import IFileReader
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import FaultInjector
from repro.scidata.generator import integer_grid
from repro.settings import read

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: block size for chunked-segment scenarios: small enough that the tiny
#: harness grids still produce multiple blocks per segment
_BLOCK_BYTES = 512
_CHUNKED = {"ifile_block_bytes": _BLOCK_BYTES}


def _quarantined(outcome) -> int:
    """Records in the run's ``<task>-quarantine`` IFile side-files."""
    return sum(len(IFileReader(blob, NullCodec()).read_all())
               for name, blob in outcome.quarantine.items()
               if name.endswith("-quarantine"))


def _accounted(serial, parallel) -> bool:
    """Quarantine file contents match the counters exactly -- nothing
    silently dropped, nothing duplicated."""
    return all(_quarantined(o) == o.counter(C.QUARANTINE_RECORDS)
               for o in (serial, parallel))


def _ladder(baseline, *, lost: int | None = None,
            skipped_lost: bool = False, repaired: bool = False):
    """The invariant a scenario's rung must hold, on top of accounting.

    ``repaired``: the baseline's output with nothing skipped.  Else the
    run skipped something, and its output shrinks by exactly ``lost``
    records (``skipped_lost``: by the records it skipped) when given.
    """
    def check(serial, parallel) -> bool:
        skipped = serial.counter(C.RECORDS_SKIPPED)
        if not _accounted(serial, parallel):
            return False
        if repaired:
            return (serial.result.output == baseline.output
                    and skipped == 0)
        loss = skipped if skipped_lost else lost
        return skipped >= 1 and (
            loss is None
            or len(serial.result.output) == len(baseline.output) - loss)
    return check


def _row(sc: Scenario, runs) -> dict:
    serial = runs[0]
    return {"skipped": serial.counter(C.RECORDS_SKIPPED),
            "quarantined": _quarantined(serial),
            "q_bytes": serial.counter(C.QUARANTINE_BYTES)}


def run(num_fuzz: int | None = None, seconds: float | None = None,
        side: int | None = None, num_map_tasks: int = 4,
        num_reducers: int = 2) -> ExperimentResult:
    """Poison/corruption matrix plus a seeded fuzz tail, both runners.

    ``num_fuzz`` random scenarios (default 6, or ``REPRO_R2_FUZZ``)
    after the deterministic matrix; ``seconds`` (or
    ``REPRO_R2_SECONDS``) caps the run's wall clock.  Quarantine
    side-files are written under ``REPRO_QUARANTINE_DIR`` when set
    (and left there for inspection), else throwaway temp dirs.
    """
    fuzz = fuzz_budget("R2", num_fuzz, seconds)
    if side is None:
        side = max(8, scaled(12, default_scale=1.0))
    budget = read("REPRO_SKIP_BUDGET")
    grid = integer_grid((side, side), seed=7, low=0, high=500)

    def build(query, qdir, skip_budget=budget, **fields):
        """A query job; scenario runs (``qdir`` set) attach the policy."""
        job = build_query_job(grid, query, side, num_map_tasks,
                              num_reducers, **fields)
        if qdir is None:
            return job
        return dataclasses.replace(job, skipping=SkipPolicy(
            skip_budget=skip_budget, quarantine_dir=qdir))

    m = Matrix(
        ExperimentResult(
            experiment="R2",
            title=f"poison-safe pipeline, {side}^2 grid "
                  f"({num_map_tasks} maps, {num_reducers} reducers), "
                  f"skip_budget={budget}, both runners per scenario",
            columns=["scenario", "query", "fault", "skipped", "quarantined",
                     "q_bytes", "outcome"]),
        grid, build, _row)

    def rung(name, query, fault, plan, label, *, job=None,
             **ladder) -> Scenario:
        """A scenario that must land on ``label`` (failed: fail)."""
        if label == "failed":
            return Scenario(name, query, fault, plan, expect="failed",
                            job=job or {})
        return Scenario(name, query, fault, plan, expect=label, label=label,
                        job=job or {}, baseline=False,
                        check=_ladder(m.baseline(query), **ladder))

    #: a map-input record inside the query box, owned by map task m00000
    poison_cell = side + 1
    for query in _QUERIES:
        m.add(Scenario("clean", query, expect="identical",
                       check=_accounted))
    for query in ("subset-plain", "subset-agg"):
        m.add(rung("poison-map", query, f"poison m00000#{poison_cell}",
                   lambda: FaultInjector().poison("m00000",
                                                  record=poison_cell),
                   "skipped", lost=1))
    for query, lost in (("subset-plain", 1), ("histogram", None)):
        m.add(rung("poison-reduce", query, "poison r00000#1",
                   lambda: FaultInjector().poison("r00000", record=1),
                   "skipped", lost=lost))
    for op, query in (("flip", "subset-plain"), ("splice", "subset-plain"),
                      ("flip", "subset-agg")):
        m.add(rung(f"corrupt-{op}", query, f"{op} m00001 out @0.4",
                   lambda op=op: FaultInjector().corrupt(
                       "m00001", op=op, offset_frac=0.4),
                   "salvaged", job=_CHUNKED,
                   skipped_lost=query == "subset-plain"))
    m.add(rung("corrupt-reduce-in", "subset-plain", "flip r00000 in @0.4",
               lambda: FaultInjector().corrupt(
                   "r00000", where="reduce-input", op="flip",
                   offset_frac=0.4),
               "salvaged", job=_CHUNKED, skipped_lost=True))
    m.add(rung("corrupt-truncate", "subset-plain", "truncate m00001 out @0.5",
               lambda: FaultInjector().corrupt("m00001", op="truncate",
                                               offset_frac=0.5),
               "repaired", job=_CHUNKED, repaired=True))
    m.add(rung("budget", "subset-plain", "flip, skip_budget=1",
               lambda: FaultInjector().corrupt("m00001", op="flip",
                                               offset_frac=0.4),
               "failed", job={**_CHUNKED, "skip_budget": 1}))
    m.add(rung("poison-map-unsupported", "histogram",
               f"poison m00000#{poison_cell} (no map_range)",
               lambda: FaultInjector().poison("m00000", record=poison_cell),
               "failed"))

    cells_per_split = (side * side) // num_map_tasks

    def draw(rng, i: int) -> Scenario:
        query = _QUERIES[int(rng.integers(0, len(_QUERIES)))]
        kinds = ["poison-reduce", "corrupt"]
        if query != "histogram":
            kinds.append("poison-map")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        job = {}
        if kind == "poison-map":
            task = f"m{int(rng.integers(0, num_map_tasks)):05d}"
            record = int(rng.integers(0, cells_per_split))
            desc = f"poison {task}#{record}"
            plan = lambda: FaultInjector().poison(task, record=record)
        elif kind == "poison-reduce":
            task = f"r{int(rng.integers(0, num_reducers)):05d}"
            record = int(rng.integers(0, 8))
            desc = f"poison {task}#{record}"
            plan = lambda: FaultInjector().poison(task, record=record)
        else:
            job = _CHUNKED
            op = ("flip", "splice", "truncate")[int(rng.integers(0, 3))]
            where = ("map-output", "reduce-input")[int(rng.integers(0, 2))]
            if where == "map-output":
                task = f"m{int(rng.integers(0, num_map_tasks)):05d}"
            else:
                task = f"r{int(rng.integers(0, num_reducers)):05d}"
            frac = 0.15 + 0.7 * float(rng.random())
            desc = f"{op} {task} {where} @{frac:.2f}"
            plan = lambda: FaultInjector().corrupt(
                task, where=where, op=op, offset_frac=frac)
        # The fuzz tail cannot know each draw's rung: it holds the
        # runners to agreement and the quarantine to its counters.
        return Scenario(f"fuzz{i}", query, desc, plan, label="agree",
                        baseline=False, check=_accounted, job=job)

    m.fuzz(draw, 1000, fuzz)
    return m.finish(
        "every scenario ran through both runners and must agree on "
        "output, counters, and quarantine bytes",
        "ladder: strict attempt -> repair whole-segment damage -> "
        "record-level skipping (bisect poison, salvage corrupt blocks) "
        "-> quarantine side-file, bounded by the skip budget; clean runs "
        "with a SkipPolicy attached are byte-identical to the no-policy "
        "baseline")
