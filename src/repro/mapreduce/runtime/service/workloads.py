"""Declarative job specs: what a tenant submits, and how the daemon
rebuilds the exact same work after a crash.

A submission cannot carry live Python objects (mappers close over
state, datasets hold arrays) -- and must not, because the daemon may
die and restart between accept and execute.  So a submission is a
:class:`JobSpec`: the *name* of a workload from a small deterministic
catalog plus its shape parameters (grid shape, seed, task counts,
optional fault plan).  ``build_workload`` maps a spec to the same
``(job, dataset)`` pair on every call in every process -- which is
what makes daemon-crash recovery byte-exact, and what lets the R6
harness compare a service-executed job against a solo serial run of
the *same spec*.

``estimate_workload`` derives the byte-level
:class:`~repro.mapreduce.runtime.costmodel.WorkloadSummary` a spec
implies, analytically -- admission control must price a job *before*
running it, from nothing but the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro import settings
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.runtime.costmodel import WorkloadSummary
from repro.mapreduce.runtime.fault import FaultInjector

__all__ = ["JobSpec", "build_workload", "build_injector",
           "estimate_workload"]

#: workload names the catalog can rebuild deterministically
CATALOG = ("histogram", "sliding_mean", "subset")


@dataclass(frozen=True)
class JobSpec:
    """One tenant submission: everything needed to rebuild the job.

    ``poison`` entries are ``(task_id, record)`` pairs injected as
    record-poison faults (paired with ``skip_budget`` for record
    skipping); ``fetch_faults`` entries are ``(map_id, reduce_id, op)``
    triples corrupting shuffle fetches.  Both shapes match the serial
    runner's fault support, so a faulted service job still has a
    byte-comparable solo baseline.
    """

    tenant: str
    query: str                       # catalog name
    shape: tuple[int, ...] = (12, 12, 12)
    seed: int = 7
    bins: int = 16                   # histogram only
    window: int = 3                  # sliding_mean only
    num_maps: int = 4
    num_reducers: int = 2
    #: per-task memory ledger capacity (bytes); overruns take the
    #: degrade-on-retry ladder instead of killing the job
    memory_budget: int | None = None
    skip_budget: int | None = None
    poison: tuple[tuple[str, int], ...] = field(default_factory=tuple)
    fetch_faults: tuple[tuple[str, str, str], ...] = field(
        default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.tenant or "/" in self.tenant or "." in self.tenant:
            raise ValueError(f"bad tenant name {self.tenant!r}")
        if self.query not in CATALOG:
            raise ValueError(
                f"unknown workload {self.query!r}; catalog: {CATALOG}")
        if not self.shape or any(int(s) < 1 for s in self.shape):
            raise ValueError(f"shape must be positive, got {self.shape}")
        if self.num_maps < 1 or self.num_reducers < 1:
            raise ValueError("num_maps and num_reducers must be >= 1")
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        # the per-job form of a shuffle knob, bounded like it
        settings.check("REPRO_MEMORY_BUDGET", self.memory_budget,
                       "memory_budget")
        if self.query == "subset" and any(int(s) < 3 for s in self.shape):
            raise ValueError(
                f"subset selects the interior box, so every extent must "
                f"be >= 3; got {self.shape}")
        if self.poison and self.skip_budget is not None \
                and self.query != "subset":
            # Skipping bisects via Mapper.map_range, which only the
            # subset mappers implement; accepting a job whose skip
            # policy can never engage would be a lie.
            raise ValueError(
                f"record skipping requires a range-mappable query "
                f"('subset'), not {self.query!r}")

    # ------------------------------------------------------------- transport

    def to_json(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "query": self.query,
            "shape": list(self.shape),
            "seed": self.seed,
            "bins": self.bins,
            "window": self.window,
            "num_maps": self.num_maps,
            "num_reducers": self.num_reducers,
            "memory_budget": self.memory_budget,
            "skip_budget": self.skip_budget,
            "poison": [list(p) for p in self.poison],
            "fetch_faults": [list(f) for f in self.fetch_faults],
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "JobSpec":
        try:
            return cls(
                tenant=str(obj["tenant"]),
                query=str(obj["query"]),
                shape=tuple(int(s) for s in obj.get("shape", (12, 12, 12))),
                seed=int(obj.get("seed", 7)),
                bins=int(obj.get("bins", 16)),
                window=int(obj.get("window", 3)),
                num_maps=int(obj.get("num_maps", 4)),
                num_reducers=int(obj.get("num_reducers", 2)),
                memory_budget=(None if obj.get("memory_budget") is None
                               else int(obj["memory_budget"])),
                skip_budget=(None if obj.get("skip_budget") is None
                             else int(obj["skip_budget"])),
                poison=tuple((str(t), int(r))
                             for t, r in obj.get("poison", [])),
                fetch_faults=tuple(
                    (str(m), str(r), str(op))
                    for m, r, op in obj.get("fetch_faults", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad job spec: {exc!r}") from None

    @property
    def cells(self) -> int:
        return math.prod(int(s) for s in self.shape)


def build_workload(spec: JobSpec) -> tuple[Any, Any]:
    """``(job, dataset)`` for a spec -- deterministic across processes.

    Every field that shapes the data or the task functions comes from
    the spec, so rebuilding after a daemon crash reproduces the same
    job fingerprint and the same output bytes.
    """
    from repro.scidata.generator import integer_grid

    dataset = integer_grid(spec.shape, name="values", seed=spec.seed)
    overrides: dict[str, Any] = dict(num_map_tasks=spec.num_maps,
                                     num_reducers=spec.num_reducers)
    if spec.skip_budget is not None:
        overrides["skipping"] = SkipPolicy(skip_budget=spec.skip_budget)
    if spec.query == "histogram":
        from repro.queries.histogram import HistogramQuery

        query = HistogramQuery(dataset, "values", bins=spec.bins)
        job = query.build_job("plain", **overrides)
    elif spec.query == "subset":
        from repro.queries.subset import BoxSubsetQuery
        from repro.scidata.slab import Slab

        # The interior box: fully determined by the shape, so the spec
        # needs no extra geometry fields.
        box = Slab(tuple(1 for _ in spec.shape),
                   tuple(int(s) - 2 for s in spec.shape))
        query = BoxSubsetQuery(dataset, "values", box)
        job = query.build_job("plain", **overrides)
    else:  # sliding_mean (catalog-validated in __post_init__)
        from repro.queries.sliding_mean import SlidingMeanQuery

        query = SlidingMeanQuery(dataset, "values", window=spec.window)
        job = query.build_job("plain", **overrides)
    return job, dataset


def build_injector(spec: JobSpec) -> FaultInjector | None:
    """The spec's fault plan as a :class:`FaultInjector` (or ``None``).

    Only data-shaped faults (record poison, fetch corruption) are
    exposed: they are exactly the faults the serial runner also
    understands, keeping every service job solo-comparable.
    """
    if not spec.poison and not spec.fetch_faults:
        return None
    injector = FaultInjector()
    for task_id, record in spec.poison:
        injector.poison(task_id, record)
    for map_id, reduce_id, op in spec.fetch_faults:
        injector.fetch(map_id, reduce_id, op=op)
    return injector


def estimate_workload(spec: JobSpec) -> WorkloadSummary:
    """Analytic byte totals for admission pricing.

    Deliberately coarse -- admission compares predicted seconds against
    configured budgets, so only the scaling with spec size must be
    right, not the constant.  Formulas follow each query's emission
    pattern: a histogram map emits at most ``bins`` 12-byte pairs; a
    sliding mean emits ``window**ndim`` pairs per cell.
    """
    cells = spec.cells
    input_bytes = cells * 4  # int32 grid
    if spec.query == "histogram":
        pair = 4 + 8  # Int32 key + Int64 count
        raw = min(cells, spec.bins * spec.num_maps) * pair
        output = spec.bins * pair
    elif spec.query == "subset":
        pair = 8 + 4  # CellKey (~8B packed) + int32 value
        box = math.prod(int(s) - 2 for s in spec.shape)
        raw = max(box, 1) * pair
        output = raw
    else:
        ndim = len(spec.shape)
        pair = 8 + 12  # CellKey (~8B packed) + (sum, count) pair
        raw = cells * (spec.window ** ndim) * pair
        output = cells * pair
    raw = max(raw, 1)
    return WorkloadSummary(
        num_maps=spec.num_maps,
        num_reducers=spec.num_reducers,
        input_bytes=max(input_bytes, 1),
        raw_map_output_bytes=raw,
        shuffle_bytes=raw,  # combiner savings ignored: price the worst case
        output_bytes=max(output, 1),
        sort_buffer_bytes=1 << 20,
        merge_factor=10,
        ifile_block_bytes=None,
    )
