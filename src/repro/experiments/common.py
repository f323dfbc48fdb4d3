"""Shared experiment plumbing: scaling, result tables, formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.settings import ConfigError, read

__all__ = ["get_scale", "scaled", "make_runner", "ExperimentResult",
           "fmt_bytes", "pct"]


def get_scale(default: float = 1.0) -> float:
    """The ``REPRO_SCALE`` factor (1.0 = paper scale; ``default`` when
    unset).  Invalid or non-positive values raise
    :class:`~repro.settings.ConfigError` rather than silently running the
    wrong experiment size.
    """
    return read("REPRO_SCALE", default)


def scaled(paper_value: int, default_scale: float, minimum: int = 1) -> int:
    """A linear dimension scaled from its paper value by REPRO_SCALE."""
    return max(minimum, round(paper_value * get_scale(default_scale)))


def make_runner(**runner_kwargs):
    """The execution backend every harness runs its jobs through.

    ``REPRO_RUNNER`` picks it (``serial`` -> one inline slot,
    ``parallel`` -> worker processes), and the runner and shuffle
    knobs come from the environment as :mod:`repro.settings` declares
    them (the CLI's ``repro run`` flags write them there).  Explicit
    ``runner_kwargs`` win.  Both backends produce byte-identical
    counters, so paper measurements are runner-independent -- only
    wall-clock changes.
    """
    from repro.mapreduce.runtime.shuffle import shuffle_config_from_env

    shuffle = shuffle_config_from_env()
    if shuffle is not None:
        runner_kwargs.setdefault("shuffle", shuffle)
    knobs = {"num_hosts": read("REPRO_NUM_HOSTS"),
             "max_host_reexecs": read("REPRO_MAX_HOST_REEXECS")}
    if read("REPRO_RUNNER") != "parallel":  # serial, or its alias local
        from repro.mapreduce.runtime import LocalJobRunner

        return LocalJobRunner(**{**knobs, **runner_kwargs})
    from repro.mapreduce.runtime import ParallelJobRunner

    knobs.update(max_workers=read("REPRO_WORKERS"),
                 task_timeout=read("REPRO_TASK_TIMEOUT"),
                 worker_rlimit_bytes=read("REPRO_WORKER_RLIMIT_BYTES"),
                 recovery_dir=read("REPRO_RECOVERY_DIR"),
                 resume=read("REPRO_RESUME"))
    if knobs["resume"] and knobs["recovery_dir"] is None:
        raise ConfigError(
            "REPRO_RESUME requires REPRO_RECOVERY_DIR (the directory "
            "holding the job manifest to resume from)")
    return ParallelJobRunner(**{**knobs, **runner_kwargs})


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
