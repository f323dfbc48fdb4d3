"""Shared experiment plumbing: scaling, result tables, formatting."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["get_scale", "scaled", "make_runner", "env_number",
           "ExperimentResult", "fmt_bytes", "pct"]


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


def env_number(var: str, default=None, *, parse=int, minimum=None,
               above=None):
    """``var`` parsed with ``parse`` (``default`` when unset).

    Read through the same parser the shuffle knobs use, so malformed or
    out-of-range text (below ``minimum``, or not above ``above``) raises
    :class:`~repro.mapreduce.runtime.shuffle.ConfigError` naming the
    variable instead of leaking ``int()``'s traceback.
    """
    from repro.mapreduce.runtime.shuffle import _env_value

    def checked(raw: str):
        value = parse(raw)
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}")
        if above is not None and not value > above:
            raise ValueError(f"must be > {above}")
        return value

    checked.__name__ = parse.__name__
    found: dict = {}
    _env_value(found, "value", var, checked)
    return found.get("value", default)


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
    knobs = {"num_hosts": env_number("REPRO_NUM_HOSTS", minimum=1),
             "max_host_reexecs": env_number("REPRO_MAX_HOST_REEXECS",
                                            minimum=0)}
    name = os.environ.get("REPRO_RUNNER", "serial").lower()
    if name == "parallel":
        knobs.update(
            max_workers=env_number("REPRO_WORKERS", minimum=1),
            task_timeout=env_number("REPRO_TASK_TIMEOUT", parse=float,
                                    above=0),
            worker_rlimit_bytes=env_number("REPRO_WORKER_RLIMIT_BYTES",
                                           minimum=1))
    for key, value in knobs.items():
        if value is not None:
            runner_kwargs.setdefault(key, value)
    if name in ("serial", "local"):
        from repro.mapreduce.engine import LocalJobRunner

        return LocalJobRunner(**runner_kwargs)
    if name == "parallel":
        from repro.mapreduce.runtime import ParallelJobRunner

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
