"""One chaos-matrix harness: a scenario table in, a drift report out.

Every robustness matrix (R2, R4, R5, R7, P3) defends the same contract:
output and counters stay byte-identical across runners, transports and
every injected fault.  Each runs a list of :class:`Scenario` rows
through the serial :class:`~repro.mapreduce.runtime.LocalJobRunner`
and/or the parallel :class:`~repro.mapreduce.runtime.ParallelJobRunner`
and compares the outcomes with each other and with a clean serial
baseline.  This module owns everything those tables share:

* **runs** -- one runner construction per side, with table- and
  scenario-level keyword overrides (:meth:`Matrix.run`);
* **quarantine** -- each side gets a fresh side-file directory, exported
  as ``REPRO_QUARANTINE_DIR`` for the run and handed to the job factory
  (for a :class:`~repro.mapreduce.job.SkipPolicy`); when the caller set
  that variable the directories are kept under it as
  ``<scenario>-<query>/<side>``, else they are throwaway.  The side-file
  bytes are read back into :attr:`Outcome.quarantine`;
* **classification** -- :func:`classify`, the one rule set every row is
  judged by (a broken invariant reads ``DRIFT``);
* **the fuzz tail** -- :func:`fuzz_budget` reads ``REPRO_<ID>_FUZZ`` /
  ``REPRO_<ID>_SECONDS`` once, before anything runs, and
  :meth:`Matrix.fuzz` enforces the wall-clock cap while drawing
  scenarios from the table's own function.

A table module is then its constants, its volatile-counter set, its
scenario list and its row columns.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.common import ExperimentResult
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import (
    LocalJobRunner,
    ParallelJobRunner,
    ShuffleConfig,
)
from repro.settings import DEFAULT, read
from repro.util.rng import make_rng

__all__ = ["Matrix", "Outcome", "Scenario", "build_query_job", "classify",
           "fuzz_budget", "stable_counters"]

DRIFT = "DRIFT"
#: what every parallel side runs with unless a table or scenario says
#: otherwise: two workers, no speculation (no timing-dependent second
#: attempts), and a short retry backoff
_PARALLEL_DEFAULTS = {"max_workers": 2, "speculation": False,
                      "retry_backoff": 0.01}
_QUARANTINE_VAR = "REPRO_QUARANTINE_DIR"


def build_query_job(grid, query: str, side: int, num_map_tasks: int,
                    num_reducers: int, **fields):
    """One of the matrices' query jobs over a ``side`` x ``side`` grid;
    ``fields`` override :class:`~repro.mapreduce.job.Job` fields."""
    from repro.queries.histogram import HistogramQuery
    from repro.queries.subset import BoxSubsetQuery
    from repro.scidata.slab import Slab

    var = grid.names[0]
    shape = dict(num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    box = Slab((1, 1), (side - 2, side - 2))
    if query == "subset-plain":
        job = BoxSubsetQuery(grid, var, box).build_job("plain", **shape)
    elif query == "subset-agg":
        job = BoxSubsetQuery(grid, var, box).build_job(
            "aggregate", variable_mode="index", **shape)
    elif query == "histogram":
        job = HistogramQuery(grid, var, bins=16).build_job("plain", **shape)
    else:
        raise ValueError(f"unknown query {query!r}")
    return dataclasses.replace(job, **fields) if fields else job


def fuzz_budget(experiment: str, num_fuzz: int | None,
                seconds: float | None, *, default_fuzz=DEFAULT,
                default_seconds=DEFAULT) -> tuple[int, float | None]:
    """A fuzz tail's seed count and wall-clock cap (``None`` = no cap).

    Arguments win; else ``REPRO_<ID>_FUZZ`` / ``REPRO_<ID>_SECONDS``;
    else the table's defaults, which the registry holds
    (:mod:`repro.settings`; ``default_fuzz`` / ``default_seconds``
    override them).  Tables read this before running anything, so a
    malformed value fails fast, naming its variable.
    """
    if num_fuzz is None:
        num_fuzz = read(f"REPRO_{experiment}_FUZZ", default_fuzz)
    if seconds is None:
        seconds = read(f"REPRO_{experiment}_SECONDS", default_seconds)
    return num_fuzz, seconds


def stable_counters(result, volatile) -> dict[str, int]:
    """Counters minus the ``volatile`` ones -- those that *measure* a
    matrix's faults, wire or transport and so legitimately differ from
    the clean baseline -- and minus zero entries."""
    return {k: v for k, v in result.counters.as_dict().items()
            if k not in volatile and v}


@dataclass
class Outcome:
    """One runner's result-or-error for a scenario, plus the quarantine
    side-files it left behind (name -> bytes)."""

    result: Any = None
    error: BaseException | None = None
    quarantine: dict[str, bytes] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        return self.result.counters.get(name) if self.result else 0

    def overlap(self) -> int:
        """Fetches a pipelined run overlapped with the map tail."""
        stats = self.result.pipeline_stats if self.result else None
        return stats.get(C.PIPELINE_OVERLAP, 0) if stats else 0

    @property
    def memory(self) -> dict:
        return (self.result.memory_stats or {}) if self.result else {}


@dataclass(frozen=True)
class Scenario:
    """One row of a matrix: what to run, where, and what it must read."""

    name: str
    query: str
    fault: str = "none"
    #: builds a fresh fault injector for each side (None = no faults)
    plan: Callable[[], Any] | None = None
    shuffle: ShuffleConfig | None = None
    #: "both", or "serial" / "parallel" for a one-sided row
    sides: str = "both"
    #: the label the row must read (anything else is DRIFT)
    expect: str | None = None
    #: runners agree on every counter (False: on stable counters only);
    #: a one-sided row then holds its counters to the baseline's instead
    strict: bool = True
    #: what a success that no counter promotes reads as
    label: str = "identical"
    #: extra invariant ``check(serial, parallel) -> bool`` on a success
    check: Callable[[Outcome | None, Outcome | None], bool] | None = None
    #: compare against the table's clean serial baseline (False: no
    #: baseline; a ShuffleConfig: the baseline run under that config)
    baseline: bool | ShuffleConfig = True
    #: Job-field overrides handed to the table's job factory
    job: Mapping[str, Any] = field(default_factory=dict)
    #: runner keyword overrides for both sides / the parallel side only
    runner: Mapping[str, Any] = field(default_factory=dict)
    parallel: Mapping[str, Any] = field(default_factory=dict)
    #: serial runner class (a LocalJobRunner subclass with a fault hook)
    serial_runner: type = LocalJobRunner


def classify(serial: Outcome | None, parallel: Outcome | None, baseline,
             *, volatile=frozenset(), strict: bool = True,
             promote: Sequence[tuple[str, str]] = (),
             expect: str | None = None, check=None,
             label: str = "identical") -> str:
    """Where one scenario landed, or ``DRIFT`` if any invariant broke.

    Two sides must fail together and leave byte-identical quarantine
    side-files; both failing reads ``failed``.  Successful sides must
    agree on output and on every counter (``strict``) or on the counters
    outside ``volatile``.  A lone side under ``strict`` is held to the
    baseline's full counters instead.  Against ``baseline`` (None skips
    it) the output must match, and so must the stable counters -- unless
    the run was promoted to ``degraded``, whose halved-memory retry
    legitimately reshapes work counters.  The first ``(counter, label)``
    pair in ``promote`` whose counter is nonzero names the success;
    otherwise it reads ``label``.  ``check(serial, parallel)`` is a
    table's own extra invariant, and a result other than ``expect``
    (when given) is DRIFT too.
    """
    outcome = _land(serial, parallel, baseline, volatile, strict, promote,
                    check, label)
    if expect is not None and outcome != expect:
        return DRIFT
    return outcome


def _land(serial, parallel, baseline, volatile, strict, promote, check,
          label) -> str:
    runs = [o for o in (serial, parallel) if o is not None]
    first = runs[0]
    if len(runs) == 2:
        if (serial.error is None) != (parallel.error is None):
            return DRIFT
        if serial.quarantine != parallel.quarantine:
            return DRIFT
    if first.error is not None:
        return "failed"
    if len(runs) == 2:
        if serial.result.output != parallel.result.output:
            return DRIFT
        if strict:
            if serial.result.counters != parallel.result.counters:
                return DRIFT
        elif (stable_counters(serial.result, volatile)
              != stable_counters(parallel.result, volatile)):
            return DRIFT
    promoted = next((name for counter, name in promote
                     if first.counter(counter) > 0), None)
    if baseline is not None:
        if first.result.output != baseline.output:
            return DRIFT
        if (len(runs) == 1 and strict
                and first.result.counters != baseline.counters):
            return DRIFT
        if promoted != "degraded" and (
                stable_counters(first.result, volatile)
                != stable_counters(baseline, volatile)):
            return DRIFT
    if check is not None and not check(serial, parallel):
        return DRIFT
    return promoted or label


def _read_side_files(path: str) -> dict[str, bytes]:
    files: dict[str, bytes] = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


class Matrix:
    """A chaos matrix under construction: runs scenarios into ``table``.

    ``build(query, qdir, **job_fields)`` makes a scenario's job; the
    clean serial baselines call it with ``qdir=None``.  ``runner`` /
    ``parallel`` are keyword overrides for both sides / the parallel
    side, ``promote`` and ``volatile`` parameterize :func:`classify`,
    and ``row(scenario, runs)`` supplies the table's own cells from the
    sides that ran (serial first).
    """

    def __init__(self, table: ExperimentResult, grid,
                 build: Callable[..., Any], row: Callable, *,
                 volatile=frozenset(),
                 promote: Sequence[tuple[str, str]] = (),
                 runner: Mapping[str, Any] | None = None,
                 parallel: Mapping[str, Any] | None = None) -> None:
        self.table = table
        self.grid = grid
        self.build = build
        self.row = row
        self.volatile = frozenset(volatile)
        self.promote = tuple(promote)
        self.runner = dict(runner or {})
        self.parallel = {**_PARALLEL_DEFAULTS, **(parallel or {})}
        self.quarantine_root = read(_QUARANTINE_VAR)
        self.started = time.monotonic()
        self.fuzz_ran = self.fuzz_asked = 0
        #: the wall-clock cap that cut the fuzz tail short, if one did
        self.fuzz_capped: float | None = None
        self._baselines: dict = {}

    def baseline(self, query: str, shuffle: ShuffleConfig | None = None):
        """The clean serial run of ``query`` (cached per shuffle config)."""
        key = (query, shuffle)
        if key not in self._baselines:
            with LocalJobRunner(shuffle=shuffle) as runner:
                self._baselines[key] = runner.run(
                    self.build(query, None), self.grid)
        return self._baselines[key]

    def run(self, sc: Scenario) -> tuple[Outcome | None, Outcome | None]:
        """Run ``sc`` on the sides it names: ``(serial, parallel)``."""
        sides = ("serial", "parallel") if sc.sides == "both" else (sc.sides,)
        if not set(sides) <= {"serial", "parallel"}:
            raise ValueError(f"unknown sides {sc.sides!r}")
        runs = {side: self._run_side(side, sc) for side in sides}
        return runs.get("serial"), runs.get("parallel")

    def _run_side(self, side: str, sc: Scenario) -> Outcome:
        if self.quarantine_root is not None:
            qdir = os.path.join(self.quarantine_root,
                                f"{sc.name}-{sc.query}", side)
            os.makedirs(qdir, exist_ok=True)
        else:
            qdir = tempfile.mkdtemp(prefix=f"repro-{side}-quarantine-")
        saved = os.environ.get(_QUARANTINE_VAR)
        os.environ[_QUARANTINE_VAR] = qdir
        try:
            kwargs = {"shuffle": sc.shuffle,
                      "fault_injector": sc.plan() if sc.plan else None,
                      **self.runner, **sc.runner}
            if side == "serial":
                runner = sc.serial_runner(**kwargs)
            else:
                runner = ParallelJobRunner(
                    **{**self.parallel, **kwargs, **sc.parallel})
            outcome = Outcome()
            try:
                with runner:
                    outcome.result = runner.run(
                        self.build(sc.query, qdir, **sc.job), self.grid)
            except Exception as exc:
                outcome.error = exc
            outcome.quarantine = _read_side_files(qdir)
            return outcome
        finally:
            if saved is None:
                os.environ.pop(_QUARANTINE_VAR, None)
            else:
                os.environ[_QUARANTINE_VAR] = saved
            if self.quarantine_root is None:
                shutil.rmtree(qdir, ignore_errors=True)

    def add(self, sc: Scenario) -> str:
        """Run, classify and tabulate one scenario; returns its outcome."""
        serial, parallel = self.run(sc)
        if sc.baseline is False:
            base = None
        elif sc.baseline is True:
            base = self.baseline(sc.query)
        else:
            base = self.baseline(sc.query, sc.baseline)
        outcome = classify(serial, parallel, base, volatile=self.volatile,
                           strict=sc.strict, promote=self.promote,
                           expect=sc.expect, check=sc.check, label=sc.label)
        cells = {"scenario": sc.name, "query": sc.query,
                 **self.row(sc, [o for o in (serial, parallel)
                             if o is not None]),
                 "outcome": outcome}
        if "fault" in self.table.columns:
            cells["fault"] = sc.fault
        self.table.add(**cells)
        return outcome

    def fuzz(self, draw: Callable[[Any, int], Scenario], seed: int,
             budget: tuple[int, float | None]) -> None:
        """The seeded fuzz tail: ``draw(rng, i)`` -> scenario ``i``.

        ``budget`` is :func:`fuzz_budget`'s ``(seeds, seconds)``; the
        cap is wall-clock since the matrix started (``None``: no cap),
        and scenarios draw from one rng stream seeded ``seed``.
        """
        num_fuzz, seconds = budget
        self.fuzz_asked = num_fuzz
        rng = make_rng(seed)
        for i in range(num_fuzz):
            if (seconds is not None
                    and time.monotonic() - self.started > seconds):
                self.fuzz_capped = seconds
                break
            self.add(draw(rng, i))
            self.fuzz_ran += 1

    def finish(self, *notes: str) -> ExperimentResult:
        """The table, with the drift tally and the table's own notes."""
        outcomes = self.table.column("outcome")
        capped = (f", capped at {self.fuzz_capped:g}s"
                  if self.fuzz_capped is not None else "")
        self.table.note(
            f"{len(outcomes) - self.fuzz_ran} deterministic scenarios + "
            f"{self.fuzz_ran}/{self.fuzz_asked} fuzz seeds in "
            f"{time.monotonic() - self.started:.1f}s{capped}; "
            f"{outcomes.count(DRIFT)} DRIFT rows (must be 0)")
        for note in notes:
            self.table.note(note)
        return self.table
