"""Durable job recovery: checkpoint manifests for resumable execution.

A parallel job writes a **job manifest** -- one JSON file inside its
recovery directory, re-committed atomically (tmp + fsync + rename) on
every state transition -- recording:

* a **job fingerprint**: a stable hash of the job configuration and the
  input split geometry, so a resume can only adopt work produced by the
  *same* job;
* **wave membership**: which task ids belong to the map and reduce
  waves (the reduce wave is only known once every map has finished --
  its presence in the manifest doubles as the shuffle-barrier marker);
* a **task record** per completed task: the winning attempt number, its
  attempt directory, and the CRC32 of every artifact the rest of the
  job depends on (the pickled result, plus each map output segment).

If the scheduler process dies mid-job,
:class:`~repro.mapreduce.runtime.runner.ParallelJobRunner` can re-run
with ``resume=True``: every manifest record whose fingerprint matches
and whose files still exist with matching checksums is **adopted** --
its result is loaded from disk instead of re-executing the task -- and
only the remainder of the wave is scheduled.  Validation is pessimistic
by design: a missing file, a CRC mismatch, or a fingerprint change
silently demotes the record to "re-run it", never to "trust it".

Counters, profiles, and reduce output travel inside the pickled task
results, so a resumed job's merged :class:`~repro.mapreduce.metrics.
Counters` are byte-identical to an uninterrupted run's -- the property
the chaos soak harness (`benchmarks/bench_r1_chaos.py`) pins down.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.util.fsio import atomic_write_bytes

__all__ = [
    "MANIFEST_NAME",
    "TaskRecord",
    "JobManifest",
    "job_fingerprint",
    "file_crc32",
]

#: manifest filename inside a recovery (run) directory
MANIFEST_NAME = "manifest.json"

#: bump when the manifest schema changes; older manifests are ignored
MANIFEST_VERSION = 1


def file_crc32(path: str) -> int:
    """CRC32 of a file's contents (streamed; files are segment-sized)."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _describe(obj: Any, depth: int = 0) -> str:
    """A stable, human-auditable description of one config component.

    Must be identical across *processes* for the same logical config:
    never fall back to a default ``repr`` (it embeds a memory address,
    which would make every job fingerprint unique and veto adoption).
    Arbitrary objects hash as their class plus recursively described
    attribute state, depth-bounded against cycles and bulk data.
    """
    if obj is None:
        return "none"
    if isinstance(obj, (str, int, float, bool, bytes)):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_describe(o, depth) for o in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((str(k), _describe(v, depth)) for k, v in obj.items())
        return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    if isinstance(obj, functools.partial):  # a factory and what it binds
        return (f"partial({_describe(obj.func, depth)},"
                f"{_describe(list(obj.args), depth + 1)},"
                f"{_describe(obj.keywords, depth + 1)})")
    qualname = getattr(obj, "__qualname__", None)
    if callable(obj) and qualname is not None:  # function / method / lambda
        return f"{getattr(obj, '__module__', '?')}.{qualname}"
    cls = f"{type(obj).__module__}.{type(obj).__qualname__}"
    try:
        state = vars(obj)
    except TypeError:
        state = None
    if not state or depth >= 3:
        return cls
    inner = ",".join(f"{k}={_describe(v, depth + 1)}"
                     for k, v in sorted(state.items()))
    return f"{cls}({inner})"


def job_fingerprint(job: Any, splits: Sequence[Any]) -> str:
    """Hash of everything that determines a job's task outputs.

    Two runs with the same fingerprint execute identical task functions
    over identical inputs, so any completed attempt of one is a valid
    completed attempt of the other -- the precondition for adoption.
    Every :class:`~repro.mapreduce.job.Job` field is hashed: each one
    changes what some task writes (the serdes by their state, not only
    their class; ``ifile_block_bytes`` the segment layout; ``skipping``
    which records a completed attempt kept).
    """
    parts = [
        f"name={job.name}",
        f"mapper={_describe(job.mapper)}",
        f"reducer={_describe(job.reducer)}",
        f"combine={job.combine}",
        f"key_serde={_describe(job.key_serde)}",
        f"value_serde={_describe(job.value_serde)}",
        f"num_reducers={job.num_reducers}",
        f"num_map_tasks={job.num_map_tasks}",
        f"codec={job.codec}",
        f"codec_options={_describe(job.codec_options)}",
        f"partitioner={_describe(job.partitioner)}",
        f"sort_buffer_bytes={job.sort_buffer_bytes}",
        f"merge_factor={job.merge_factor}",
        f"shuffle_plugin={_describe(job.shuffle_plugin)}",
        f"input_variables={_describe(job.input_variables)}",
        f"skipping={_describe(job.skipping)}",
        f"ifile_block_bytes={job.ifile_block_bytes}",
    ]
    for s in splits:
        parts.append(f"split={s.split_id}:{s.variable}:{s.slab!r}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class TaskRecord:
    """One completed task checkpoint: who won, where, and file CRCs."""

    task_id: str
    kind: str           # "map" or "reduce"
    attempt: int        # winning attempt number
    attempt_dir: str
    result_path: str    # pickled worker result (counters, profile, output)
    #: every artifact a resume must revalidate: result file + segments
    files: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "attempt": self.attempt,
            "attempt_dir": self.attempt_dir,
            "result_path": self.result_path,
            "files": self.files,
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "TaskRecord":
        return cls(
            task_id=obj["task_id"],
            kind=obj["kind"],
            attempt=int(obj["attempt"]),
            attempt_dir=obj["attempt_dir"],
            result_path=obj["result_path"],
            files={str(k): int(v) for k, v in obj["files"].items()},
        )

    def validate(self) -> list[str]:
        """Problems preventing adoption; an empty list means adoptable."""
        problems = []
        for path, expected in sorted(self.files.items()):
            if not os.path.exists(path):
                problems.append(f"missing file {path}")
            elif file_crc32(path) != expected:
                problems.append(f"CRC mismatch for {path}")
        return problems


class JobManifest:
    """The durable record of one job run, committed per state change.

    Every mutating method re-serializes the whole manifest and commits
    it atomically, so a reader (including a resuming runner) always
    observes a complete, internally consistent snapshot -- never a
    half-written one.
    """

    def __init__(self, path: str, job_hash: str) -> None:
        self.path = path
        self.job_hash = job_hash
        #: wave name ("map"/"reduce") -> ordered member task ids
        self.waves: dict[str, list[str]] = {}
        self.tasks: dict[str, TaskRecord] = {}

    # ----------------------------------------------------------- persistence

    def save(self) -> None:
        body = json.dumps({
            "version": MANIFEST_VERSION,
            "job_hash": self.job_hash,
            "waves": self.waves,
            "tasks": {tid: r.to_json() for tid, r in self.tasks.items()},
        }, indent=1, sort_keys=True).encode("utf-8")
        # Self-checksummed envelope: the body CRC distinguishes "no
        # checkpoint" from "checkpoint damaged after commit" (torn disk
        # write, bit rot), which resume reports as manifest corruption
        # instead of silently starting over.
        blob = json.dumps({
            "crc": zlib.crc32(body),
            "body": body.decode("utf-8"),
        }).encode("utf-8")
        atomic_write_bytes(self.path, blob)

    @classmethod
    def load(cls, path: str) -> "JobManifest | None":
        """Read a manifest; ``None`` if absent, unreadable, or stale-schema."""
        manifest, _ = cls.load_verified(path)
        return manifest

    @classmethod
    def load_verified(cls, path: str) -> "tuple[JobManifest | None, str | None]":
        """Read a manifest, reporting *why* it could not be used.

        Returns ``(manifest, None)`` on success, ``(None, None)`` when
        no checkpoint exists (a clean first run), and ``(None, problem)``
        when a checkpoint exists but is truncated, garbage, CRC-damaged,
        or schema-mismatched -- the caller logs ``manifest_corrupt`` and
        falls back to a clean restart instead of crashing resume.
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None, None
        except OSError as exc:
            return None, f"unreadable manifest: {exc}"
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return None, f"manifest parse error: {exc}"
        if (isinstance(envelope, dict) and "crc" in envelope
                and "body" in envelope):
            body = str(envelope["body"]).encode("utf-8")
            try:
                expected = int(envelope["crc"])
            except (TypeError, ValueError):
                return None, "manifest CRC field is not an integer"
            if zlib.crc32(body) != expected:
                return None, (f"manifest CRC mismatch: stored "
                              f"{expected:#010x}, computed "
                              f"{zlib.crc32(body):#010x}")
            try:
                obj = json.loads(body.decode("utf-8"))
            except ValueError as exc:
                return None, f"manifest body parse error: {exc}"
        else:
            # Pre-envelope manifest (no CRC): still readable.
            obj = envelope
        if not isinstance(obj, dict):
            return None, "manifest is not a JSON object"
        if obj.get("version") != MANIFEST_VERSION:
            return None, (f"manifest schema version "
                          f"{obj.get('version')!r} != {MANIFEST_VERSION}")
        try:
            manifest = cls(path, obj["job_hash"])
            manifest.waves = {
                str(w): [str(t) for t in ids]
                for w, ids in obj.get("waves", {}).items()
            }
            manifest.tasks = {
                str(tid): TaskRecord.from_json(rec)
                for tid, rec in obj.get("tasks", {}).items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            return None, f"manifest schema error: {exc!r}"
        return manifest, None

    # -------------------------------------------------------------- mutation

    def record_wave(self, wave: str, task_ids: Sequence[str]) -> None:
        self.waves[wave] = list(task_ids)
        self.save()

    def record_task(self, record: TaskRecord) -> None:
        self.tasks[record.task_id] = record
        self.save()

    # --------------------------------------------------------------- queries

    def adoptable(self, wave: str, expected_ids: Sequence[str]) -> dict[str, TaskRecord]:
        """Validated records for ``wave``, keyed by task id.

        Only ids the *current* job expects in this wave are considered
        (a changed split count invalidates stragglers by omission), and
        every surviving record has passed file existence + CRC checks.
        """
        expected = set(expected_ids)
        adopted: dict[str, TaskRecord] = {}
        for tid in self.waves.get(wave, []):
            record = self.tasks.get(tid)
            if record is None or tid not in expected:
                continue
            if record.validate():  # non-empty problem list: not adoptable
                continue
            adopted[tid] = record
        return adopted

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JobManifest(hash={self.job_hash[:12]}, "
                f"waves={list(self.waves)}, tasks={len(self.tasks)})")
