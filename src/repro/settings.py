"""Every ``REPRO_*`` knob, declared once.

Like a Hadoop ``Configuration``'s defaults file, :data:`SETTINGS` holds
each knob's parse kind, bound, default and one-line doc, plus the CLI
flag that sets it and that flag's ``requires`` rules.  Every reader
calls :func:`read`; the CLI generates its knob flags from the entries;
``ShuffleConfig``, ``AdmissionConfig`` and ``ServiceConfig`` take each
env-backed field's default from :func:`default` and its bound from
:func:`check_fields`; ``tests/test_env_docs.py`` renders the README
tables from the entries.  The environment stays the transport: the CLI
writes it; harnesses, forked workers and the daemon read it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ConfigError", "Setting", "SETTINGS", "DEFAULT", "get",
           "default", "flagged", "read", "read_fields", "check",
           "check_fields"]


class ConfigError(ValueError):
    """A configuration value is malformed or out of range.

    Raised instead of a bare ``ValueError`` so a typo in an environment
    variable or CLI flag surfaces as one readable sentence naming the
    offending setting, not a traceback from ``int()``.
    """


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("is not a boolean (1/0/true/false/yes/no/on/off)")


def _codec_names() -> tuple[str, ...]:
    # Lazy: only the wire-codec check needs the codec registry.
    from repro.mapreduce.codecs import available_codecs
    return tuple(available_codecs())


def _parse_tenants(raw: str) -> dict[str, tuple[float, int, int | None]]:
    """``name:weight:quota[:membytes],...`` -> {name: (weight, quota, mem)},
    each entry held to the fair-share scheduler's and the worker pool's
    rules (weight > 0, quota >= 1, memory quota >= 1)."""
    out: dict[str, tuple[float, int, int | None]] = {}
    for part in filter(None, (p.strip() for p in raw.split(","))):
        fields = part.split(":")
        if len(fields) not in (3, 4):
            raise ValueError(
                f"entry {part!r} is not name:weight:quota[:membytes]")
        try:
            weight, quota = float(fields[1]), int(fields[2])
            mem = int(fields[3]) if len(fields) == 4 else None
        except ValueError:
            raise ValueError(f"entry {part!r} has a non-numeric field") \
                from None
        if not weight > 0 or quota < 1 or (mem is not None and mem < 1):
            raise ValueError(f"entry {part!r}: weight must be > 0, quota "
                             f">= 1 and memory quota >= 1")
        out[fields[0]] = (weight, quota, mem)
    return out


_PARSE_NUMBER = {"int": (int, "is not an integer"),
                 "float": (float, "is not a number")}
_METAVAR = {"int": "N", "float": "X", "path": "DIR", "text": "SPEC"}


@dataclass(frozen=True)
class Setting:
    """One ``REPRO_*`` knob."""

    name: str
    #: ``int`` | ``float`` | ``bool`` | ``choice`` | ``path`` | ``text``
    kind: str
    #: one line: what the knob does (the README's "effect" cell)
    doc: str
    #: the value of an unset (or empty) variable
    default: Any = None
    #: what an unset knob means when ``default`` is ``None``
    unset: str = "none"
    #: numeric bound: value >= ``low``, > ``above``, <= ``high``
    low: float | None = None
    above: float | None = None
    high: float | None = None
    #: ``choice`` values, or a zero-argument callable listing them
    choices: tuple[str, ...] | Callable[[], tuple[str, ...]] = ()
    #: ``text`` parser: raw text -> value (``ValueError`` on bad text)
    parser: Callable[[str], Any] | None = None
    #: README range-cell suffix: a unit, the ``text`` syntax, or the
    #: description of a lazily listed ``choice``
    note: str = ""
    #: ``"Owner.field"``: the config-object field this knob fills
    field: str | None = None
    #: the CLI flag that sets it, and the subcommands that have the flag
    flag: str | None = None
    commands: tuple[str, ...] = ("run",)
    #: ``bool`` flags only: also generate ``--no-<flag>``
    negatable: bool = False
    #: flag rules: ``(name, value)`` pairs that must hold when this flag
    #: is given (``value`` ``None``: the other knob must be set at all)
    requires: tuple[tuple[str, Any], ...] = ()

    @property
    def subject(self) -> str:
        """What an error message calls the value."""
        return self.field.split(".")[1] if self.field else "value"

    @property
    def metavar(self) -> str | None:
        """The flag's argument placeholder (``None`` for bool flags)."""
        if self.kind == "choice":
            return ("{" + ",".join(self.choices) + "}"
                    if isinstance(self.choices, tuple) else "NAME")
        return _METAVAR.get(self.kind)

    def names(self) -> tuple[str, ...]:
        """The ``choice`` values."""
        return self.choices() if callable(self.choices) else self.choices

    def violation(self, value: Any) -> str | None:
        """Why ``value`` breaks this knob's bound, or ``None``."""
        if self.kind == "choice":
            names = self.names()
            if value not in names:
                noun = self.name.rsplit("_", 1)[1].lower()
                return (f"is not one of the available {noun}s: "
                        f"{', '.join(names)}")
        elif self.kind in _PARSE_NUMBER:
            if self.high is not None and not (
                    self.low <= value <= self.high):
                return f"must be in {self.low:g}..{self.high:g}"
            if self.above is not None and not value > self.above:
                return f"must be > {self.above:g}"
            if self.low is not None and value < self.low:
                return f"must be >= {self.low:g}"
        return None

    def parse(self, raw: str) -> Any:
        """Text -> typed value; ``ValueError(phrase)`` when the text is
        malformed or the value out of bound."""
        if self.kind in _PARSE_NUMBER:
            convert, phrase = _PARSE_NUMBER[self.kind]
            try:
                value = convert(raw)
            except ValueError:
                raise ValueError(phrase) from None
        elif self.kind == "bool":
            value = _parse_bool(raw)
        elif self.kind == "choice":
            value = raw.strip().lower()
        elif self.parser is not None:
            value = self.parser(raw)
        else:
            value = raw
        problem = self.violation(value)
        if problem is not None:
            raise ValueError(problem)
        return value

    def flag_for(self, value: Any) -> str:
        """The flag text that sets this knob to ``value`` (``None``:
        any value)."""
        if value is None or value is True:
            return self.flag
        return f"{self.flag} {value}"


_PARALLEL = (("REPRO_RUNNER", "parallel"),)
_NETWORK = (("REPRO_TRANSPORT", "network"),)

SETTINGS: tuple[Setting, ...] = (
    # -- ``repro run`` and the harness runner (``make_runner``) ------------
    Setting("REPRO_SCALE", "float", "workload scale (1.0 = paper scale)",
            unset="harness-specific", above=0, flag="--scale",
            commands=("run", "tune")),
    Setting("REPRO_RUNNER", "choice", "execution backend the harnesses "
            "run jobs on (`local` = `serial`; counters are byte-identical "
            "either way)", default="serial",
            choices=("serial", "parallel", "local"), flag="--runner"),
    Setting("REPRO_WORKERS", "int", "worker processes for the parallel "
            "runner", unset="CPU count", low=1, flag="--workers"),
    Setting("REPRO_TASK_TIMEOUT", "float", "per-attempt deadline; a "
            "breaching attempt is killed and retried", above=0,
            note="seconds", flag="--task-timeout", requires=_PARALLEL),
    Setting("REPRO_RECOVERY_DIR", "path", "durable job-manifest directory "
            "(checkpoint/resume)", flag="--recovery-dir", requires=_PARALLEL),
    Setting("REPRO_RESUME", "bool", "adopt completed tasks from the "
            "manifest in the recovery directory instead of re-running them",
            default=False, flag="--resume",
            requires=(("REPRO_RECOVERY_DIR", None), *_PARALLEL)),
    Setting("REPRO_SKIP_BUDGET", "int", "max records a task may quarantine "
            "in skipping scenarios (R2)", default=4096, low=1,
            flag="--skip-budget"),
    Setting("REPRO_QUARANTINE_DIR", "path", "where quarantine side-files "
            "land", unset="temp dirs", flag="--quarantine-dir"),
    # -- the shuffle (``ShuffleConfig``) -----------------------------------
    Setting("REPRO_TRANSPORT", "choice", "shuffle transport reducers fetch "
            "map segments through (byte-identical output)",
            default="direct", choices=("direct", "network"),
            field="ShuffleConfig.transport", flag="--transport"),
    Setting("REPRO_WIRE_CODEC", "choice", "on-the-wire segment "
            "compression (`null` serves segments verbatim)",
            default="null", choices=_codec_names, note="`repro codecs` "
            "names", field="ShuffleConfig.wire_codec", flag="--wire-codec",
            requires=_NETWORK),
    Setting("REPRO_SHUFFLE_PORT_BASE", "int", "first TCP port for the "
            "network shuffle servers", unset="ephemeral", low=1024,
            high=65535, field="ShuffleConfig.port_base",
            flag="--shuffle-port-base", requires=_NETWORK),
    Setting("REPRO_FETCH_RETRIES", "int", "extra fetch attempts per "
            "segment after the first failure", default=3, low=0,
            field="ShuffleConfig.fetch_retries", flag="--fetch-retries"),
    Setting("REPRO_FETCH_TIMEOUT", "float", "per-fetch-attempt deadline",
            above=0, note="seconds", field="ShuffleConfig.fetch_timeout",
            flag="--fetch-timeout"),
    Setting("REPRO_PIPELINE", "bool", "pipelined shuffle: reducers overlap "
            "late maps (off = the map/reduce barrier)", default=False,
            field="ShuffleConfig.pipeline", flag="--pipeline",
            negatable=True),
    Setting("REPRO_STARVATION_THRESHOLD", "int", "missing-producer count "
            "at which a starved pipelined reducer speculates the late maps",
            default=2, low=1, field="ShuffleConfig.starvation_threshold",
            flag="--starvation-threshold",
            requires=(("REPRO_PIPELINE", True),)),
    # the floor is one IFile block (ifile.py floors block_bytes at 256),
    # the smallest allocation the data path makes
    Setting("REPRO_MEMORY_BUDGET", "int", "per-task memory-ledger "
            "capacity; OOM-killed attempts retry with halved buffers",
            low=256, note="bytes", field="ShuffleConfig.memory_budget",
            flag="--memory-budget"),
    Setting("REPRO_MAX_MEMORY_RETRIES", "int", "OOM deaths a task may "
            "degrade through before the job fails", default=2, low=1,
            field="ShuffleConfig.max_memory_retries",
            flag="--max-memory-retries"),
    # -- the harness runner again ------------------------------------------
    Setting("REPRO_NUM_HOSTS", "int", "simulated hosts tasks and segment "
            "servers spread over", default=2, low=1, flag="--num-hosts"),
    Setting("REPRO_MAX_HOST_REEXECS", "int", "completed maps re-executed "
            "per lost host before the job fails", default=2, low=0,
            flag="--max-host-reexecs"),
    Setting("REPRO_WORKER_RLIMIT_BYTES", "int", "real `RLIMIT_AS` cap "
            "applied to forked parallel workers (Linux)", low=1,
            note="bytes", flag="--worker-rlimit", requires=_PARALLEL),
    # -- the job daemon (``ServiceConfig``, ``AdmissionConfig``) -----------
    Setting("REPRO_SERVICE_ROOT", "path", "job daemon state directory "
            "(`repro serve` and its clients)", default="./.repro-service"),
    Setting("REPRO_SERVICE_WORKERS", "int", "worker slots in the daemon's "
            "shared pool", unset="CPU count", low=1,
            field="ServiceConfig.max_workers", flag="--workers",
            commands=("serve",)),
    Setting("REPRO_SERVICE_EXECUTORS", "int", "concurrently executing jobs "
            "in the daemon", default=2, low=1,
            field="ServiceConfig.executors", flag="--executors",
            commands=("serve",)),
    Setting("REPRO_SERVICE_MAX_QUEUE", "int", "global queued-job bound "
            "(beyond: `OVERLOADED` 429)", default=16, low=1,
            field="AdmissionConfig.max_queued"),
    Setting("REPRO_SERVICE_TENANT_QUEUE", "int", "per-tenant queued-job "
            "bound (beyond: `TENANT_OVERLOADED` 429)", default=8, low=1,
            field="AdmissionConfig.max_queued_per_tenant"),
    Setting("REPRO_SERVICE_MAX_JOB_SECONDS", "float", "per-job "
            "predicted-cost cap (beyond: `JOB_TOO_LARGE` 413)",
            default=600.0, above=0, note="seconds",
            field="AdmissionConfig.max_job_seconds"),
    Setting("REPRO_SERVICE_MAX_OUTSTANDING_SECONDS", "float", "cap on "
            "predicted seconds of admitted-but-unfinished work",
            default=3600.0, above=0, note="seconds",
            field="AdmissionConfig.max_outstanding_seconds"),
    Setting("REPRO_SERVICE_MAX_MEMORY", "int", "cap on predicted peak "
            "memory of admitted-but-unfinished jobs (beyond: "
            "`OVERCOMMITTED_MEMORY` 429)", low=1, note="bytes",
            field="AdmissionConfig.max_outstanding_memory_bytes",
            flag="--max-memory", commands=("serve",)),
    Setting("REPRO_SERVICE_TENANTS", "text", "per-tenant DRR weights, "
            "concurrent-task quotas, and peak-memory quotas",
            unset="weight 1, no quota", parser=_parse_tenants,
            note="`name:weight:quota[:membytes],...`",
            field="ServiceConfig.tenants", flag="--tenants",
            commands=("serve",)),
    Setting("REPRO_SERVICE_QUANTUM", "float", "DRR quantum in predicted "
            "seconds per round", default=5.0, above=0,
            field="ServiceConfig.quantum_seconds"),
    # -- harness tables and the test suite ---------------------------------
    Setting("REPRO_CHAOS_SEEDS", "int", "R1 chaos-soak fault schedules",
            default=20, low=1),
    Setting("REPRO_R2_FUZZ", "int", "R2 poison-fuzz seeds", default=6, low=0),
    Setting("REPRO_R2_SECONDS", "float", "R2 fuzz wall-clock cap", above=0,
            note="seconds"),
    Setting("REPRO_R4_FUZZ", "int", "R4 transport-fuzz seeds", default=3,
            low=0),
    Setting("REPRO_R4_SECONDS", "float", "R4 fuzz wall-clock cap",
            default=120, above=0, note="seconds"),
    Setting("REPRO_R5_FUZZ", "int", "R5 host-fuzz seeds", default=3, low=0),
    Setting("REPRO_R5_SECONDS", "float", "R5 fuzz wall-clock cap",
            default=120, above=0, note="seconds"),
    Setting("REPRO_R7_FUZZ", "int", "R7 memory-fuzz seeds", default=3, low=0),
    Setting("REPRO_R7_SECONDS", "float", "R7 fuzz wall-clock cap",
            default=120, above=0, note="seconds"),
    Setting("REPRO_P3_FUZZ", "int", "P3 straggler-fuzz seeds", default=3,
            low=0),
    Setting("REPRO_P3_SECONDS", "float", "P3 fuzz wall-clock cap",
            default=120, above=0, note="seconds"),
    Setting("REPRO_R6_SECONDS", "float", "R6 service-chaos recovery-wait "
            "budget", default=240.0, above=0, note="seconds"),
    Setting("REPRO_TEST_TIMEOUT", "float", "per-test wall-clock kill "
            "switch (root conftest.py)", default=300.0, low=0,
            note="seconds (0 = off)"),
)

_BY_NAME = {s.name: s for s in SETTINGS}

#: ``read``'s fallback meaning "the registry's default"
DEFAULT = object()


def get(name: str) -> Setting:
    """The entry for ``name`` (``KeyError`` for a name not declared)."""
    return _BY_NAME[name]


def default(name: str) -> Any:
    """``name``'s default, for the config field it fills."""
    return _BY_NAME[name].default


def flagged(command: str) -> list[Setting]:
    """The entries with a flag on ``command``, in declaration order."""
    return [s for s in SETTINGS if s.flag and command in s.commands]


def read(name: str, fallback: Any = DEFAULT) -> Any:
    """The typed value of ``$name``; its default (or ``fallback``, when
    given) if the variable is unset or empty.

    Malformed or out-of-range text raises :class:`ConfigError`
    ``invalid NAME='text': ...``.
    """
    setting = _BY_NAME[name]
    raw = os.environ.get(name)
    if not raw:
        return setting.default if fallback is DEFAULT else fallback
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ConfigError(
            f"invalid {name}={raw!r}: {setting.subject} {exc}") from None


def _owned(owner: type) -> list[Setting]:
    prefix = owner.__name__ + "."
    return [s for s in SETTINGS if s.field and s.field.startswith(prefix)]


def read_fields(owner: type) -> dict[str, Any]:
    """``{field: value}`` for each of ``owner``'s env-backed fields whose
    variable is set (an empty dict when none is)."""
    return {s.subject: read(s.name) for s in _owned(owner)
            if os.environ.get(s.name)}


def check(name: str, value: Any, subject: str) -> None:
    """Reject ``value`` if it breaks knob ``name``'s bound
    (``ValueError`` naming ``subject``).  ``None`` (unset) passes, and
    so does a name from a lazily listed ``choice``: a wire codec this
    process lacks is negotiated down to ``null`` at serve time, so only
    the text that enters through the environment or a flag is checked
    against the codec registry."""
    setting = _BY_NAME[name]
    if value is None or callable(setting.choices):
        return
    problem = setting.violation(value)
    if problem is not None:
        raise ValueError(f"{subject} {problem}, got {value!r}")


def check_fields(config: Any) -> None:
    """:func:`check` each of ``config``'s env-backed fields."""
    for s in _owned(type(config)):
        check(s.name, getattr(config, s.subject), s.subject)
