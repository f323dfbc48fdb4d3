"""Shared experiment plumbing: scaling, result tables, formatting."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["get_scale", "scaled", "make_runner", "ExperimentResult",
           "fmt_bytes", "pct", "build_query_job", "RunOutcome",
           "read_quarantine", "stable_counters"]


def get_scale(default: float = 1.0) -> float:
    """The ``REPRO_SCALE`` factor (1.0 = paper scale).

    Invalid or non-positive values raise rather than silently running the
    wrong experiment size.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


def scaled(paper_value: int, default_scale: float, minimum: int = 1) -> int:
    """A linear dimension scaled from its paper value by REPRO_SCALE."""
    return max(minimum, round(paper_value * get_scale(default_scale)))


def make_runner(**runner_kwargs):
    """The execution backend every harness runs its jobs through.

    Selected by ``REPRO_RUNNER`` (``serial``/``local`` -> in-process
    loop, ``parallel`` -> multiprocess runtime; the CLI's ``--runner``
    flag sets it) with worker count from ``REPRO_WORKERS``.  The
    parallel runtime additionally honours ``REPRO_TASK_TIMEOUT`` (hard
    per-attempt deadline, seconds), ``REPRO_RECOVERY_DIR`` (durable
    checkpoint manifests there), and ``REPRO_RESUME`` (adopt a prior
    interrupted run's completed tasks) -- the CLI's ``--task-timeout``,
    ``--recovery-dir``, and ``--resume`` flags.  Both backends honour
    the shuffle-transport knobs ``REPRO_TRANSPORT`` /
    ``REPRO_FETCH_RETRIES`` / ``REPRO_FETCH_TIMEOUT`` (the CLI's
    ``--transport`` / ``--fetch-retries`` / ``--fetch-timeout``), plus
    the host-failure-domain knobs ``REPRO_NUM_HOSTS`` /
    ``REPRO_MAX_HOST_REEXECS`` (the CLI's ``--num-hosts`` /
    ``--max-host-reexecs``), and the memory knobs
    ``REPRO_MEMORY_BUDGET`` / ``REPRO_MAX_INFLIGHT_BYTES`` /
    ``REPRO_MAX_MEMORY_RETRIES`` (which travel inside the shuffle
    config); the parallel runtime additionally honours
    ``REPRO_WORKER_RLIMIT_BYTES`` (a real ``RLIMIT_AS`` cap applied to
    forked workers).  Both backends produce byte-identical counters,
    so paper measurements are runner-independent -- only wall-clock
    changes.
    """
    from repro.mapreduce.runtime.shuffle import shuffle_config_from_env

    shuffle = shuffle_config_from_env()
    if shuffle is not None:
        runner_kwargs.setdefault("shuffle", shuffle)
    raw_hosts = os.environ.get("REPRO_NUM_HOSTS")
    if raw_hosts is not None:
        num_hosts = int(raw_hosts)
        if num_hosts < 1:
            raise ValueError(f"REPRO_NUM_HOSTS must be >= 1, got {num_hosts}")
        runner_kwargs.setdefault("num_hosts", num_hosts)
    raw_reexecs = os.environ.get("REPRO_MAX_HOST_REEXECS")
    if raw_reexecs is not None:
        max_host_reexecs = int(raw_reexecs)
        if max_host_reexecs < 0:
            raise ValueError(f"REPRO_MAX_HOST_REEXECS must be >= 0, "
                             f"got {max_host_reexecs}")
        runner_kwargs.setdefault("max_host_reexecs", max_host_reexecs)
    name = os.environ.get("REPRO_RUNNER", "serial").lower()
    if name in ("serial", "local"):
        from repro.mapreduce.engine import LocalJobRunner

        return LocalJobRunner(**runner_kwargs)
    if name == "parallel":
        from repro.mapreduce.runtime import ParallelJobRunner

        raw_workers = os.environ.get("REPRO_WORKERS")
        if raw_workers is not None:
            workers = int(raw_workers)
            if workers < 1:
                raise ValueError(
                    f"REPRO_WORKERS must be >= 1, got {workers}")
            runner_kwargs.setdefault("max_workers", workers)
        raw_timeout = os.environ.get("REPRO_TASK_TIMEOUT")
        if raw_timeout is not None:
            timeout = float(raw_timeout)
            if timeout <= 0:
                raise ValueError(
                    f"REPRO_TASK_TIMEOUT must be > 0, got {timeout}")
            runner_kwargs.setdefault("task_timeout", timeout)
        raw_rlimit = os.environ.get("REPRO_WORKER_RLIMIT_BYTES")
        if raw_rlimit is not None:
            rlimit_bytes = int(raw_rlimit)
            if rlimit_bytes < 1:
                raise ValueError(
                    f"REPRO_WORKER_RLIMIT_BYTES must be >= 1, "
                    f"got {rlimit_bytes}")
            runner_kwargs.setdefault("worker_rlimit_bytes", rlimit_bytes)
        recovery_dir = os.environ.get("REPRO_RECOVERY_DIR")
        if recovery_dir:
            runner_kwargs.setdefault("recovery_dir", recovery_dir)
            resume = os.environ.get("REPRO_RESUME", "").lower()
            runner_kwargs.setdefault(
                "resume", resume in ("1", "true", "yes", "on"))
        elif os.environ.get("REPRO_RESUME"):
            raise ValueError(
                "REPRO_RESUME requires REPRO_RECOVERY_DIR (the directory "
                "holding the job manifest to resume from)")
        return ParallelJobRunner(**runner_kwargs)
    raise ValueError(
        f"REPRO_RUNNER must be 'serial' or 'parallel', got {name!r}")


# ------------------------------------------------------- chaos-matrix harness
#
# Shared by the R3/R4/R5/R7/P3 matrices: each runs the same scenario
# through both runners and compares the two outcomes with each other and
# with a clean baseline.


def build_query_job(grid, query: str, side: int, num_map_tasks: int,
                    num_reducers: int):
    """One of the matrices' query jobs over the harness grid."""
    from repro.queries.histogram import HistogramQuery
    from repro.queries.subset import BoxSubsetQuery
    from repro.scidata.slab import Slab

    var = grid.names[0]
    if query == "subset-plain":
        box = Slab((1, 1), (side - 2, side - 2))
        return BoxSubsetQuery(grid, var, box).build_job(
            "plain", num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    if query == "subset-agg":
        box = Slab((1, 1), (side - 2, side - 2))
        return BoxSubsetQuery(grid, var, box).build_job(
            "aggregate", variable_mode="index",
            num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    if query == "histogram":
        return HistogramQuery(grid, var, bins=16).build_job(
            "plain", num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    raise ValueError(f"unknown query {query!r}")


class RunOutcome:
    """One runner's result-or-error for a scenario, plus (for matrices
    that collect them) the quarantine side-files the run left behind."""

    def __init__(self, result, error: BaseException | None,
                 quarantine: dict[str, str] | None = None) -> None:
        self.result = result
        self.error = error
        self.quarantine = quarantine

    def counter(self, name: str) -> int:
        return self.result.counters.get(name) if self.result else 0

    def overlap(self) -> int:
        """Fetches a pipelined run overlapped with the map tail."""
        from repro.mapreduce.metrics import C

        stats = self.result.pipeline_stats if self.result else None
        return stats.get(C.PIPELINE_OVERLAP, 0) if stats else 0

    @property
    def memory(self) -> dict:
        return (self.result.memory_stats or {}) if self.result else {}


def read_quarantine(path: str) -> dict[str, str]:
    """Side-file name -> contents (deterministic bytes by design)."""
    files: dict[str, str] = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                files[name] = fh.read()
    return files


def stable_counters(result, volatile) -> dict[str, int]:
    """Counters minus the ``volatile`` ones -- those that *measure* a
    matrix's faults, wire or transport and so legitimately differ from
    the clean baseline -- and minus zero entries."""
    return {k: v for k, v in result.counters.as_dict().items()
            if k not in volatile and v}


def fmt_bytes(n: int | float) -> str:
    """Human-readable byte count (binary units above 1 KiB)."""
    n = float(n)
    for unit in ["B", "KiB", "MiB", "GiB", "TiB"]:
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:,.0f} {unit}" if unit == "B" else f"{n:,.2f} {unit}"
        n /= 1024


def pct(new: float, old: float) -> float:
    """Percentage change from ``old`` to ``new`` (negative = reduction)."""
    if old == 0:
        raise ValueError("cannot compute percentage change from zero")
    return 100.0 * (new - old) / old


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus provenance notes."""

    experiment: str
    title: str
    columns: Sequence[str]
    rows: list[Mapping[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        missing = set(self.columns) - set(row)
        if missing:
            raise ValueError(f"row missing columns {sorted(missing)}")
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {list(self.columns)}")
        return [row[name] for row in self.rows]

    def row_by(self, column: str, value: Any) -> Mapping[str, Any]:
        """The first row whose ``column`` equals ``value``."""
        for row in self.rows:
            if row.get(column) == value:
                return row
        raise KeyError(f"no row with {column}={value!r}")

    def format_table(self) -> str:
        """Render as an aligned ASCII table (what the benches print)."""
        cols = list(self.columns)
        cells = [[str(row[c]) for c in cols] for row in self.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(cols)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
