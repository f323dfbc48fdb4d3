"""The six spine workloads: what each one builds and how its output is checked.

Every workload is one whole MapReduce job over a seeded 3-D
``integer_grid`` (4 map tasks x 2 reducers, ``variable_mode="index"``).
The seed drives the grid and nothing else: the program under test only
ever receives the generated dataset.  Why each workload exists -- which
layer it loads and which it bypasses -- is recorded next to its name in
``BENCHMARK.json`` and argued in the README.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.mapreduce import LocalJobRunner, ParallelJobRunner
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import ShuffleConfig
from repro.queries import BoxSubsetQuery, SlidingMedianQuery, shifted_cells
from repro.scidata import integer_grid

MAP_TASKS = 4
REDUCERS = 2
#: the parallel workload's pool size == nproc on the reference box
PARALLEL_WORKERS = 2
VARIABLE = "values"
WINDOW = 3


@dataclass(frozen=True)
class Spec:
    """Static description of one workload (sizes fit the driver's run cap)."""

    name: str
    query: str  # "median" | "subset"
    side: int
    mode: str = "plain"
    codec: str = "null"
    transport: str = "direct"
    wire_codec: str = "null"
    parallel: bool = False


SPECS: dict[str, Spec] = {s.name: s for s in (
    Spec("median-plain-null", "median", 20),
    Spec("median-plain-fastpred", "median", 20, codec="fastpred+zlib"),
    Spec("median-agg-null", "median", 20, mode="aggregate"),
    Spec("median-net-wirepred", "median", 20, transport="network",
         wire_codec="fastpred+zlib"),
    Spec("median-par-pipelined", "median", 24, transport="network",
         parallel=True),
    Spec("subset-plain-null", "subset", 40),
)}


@dataclass
class Workload:
    """One built workload: the inputs the program receives plus the
    benchmark-side reference its output is checked against."""

    spec: Spec
    dataset: Any
    query: Any
    job: Any
    shuffle: ShuffleConfig | None
    cells: int
    reference_digest: str

    @property
    def network(self) -> bool:
        return self.spec.transport == "network"

    def make_runner(self):
        """The runner the workload is timed under: a context manager that
        owns (and on exit removes) a workdir under ``tempfile.tempdir``."""
        if self.spec.parallel:
            return ParallelJobRunner(max_workers=PARALLEL_WORKERS,
                                     shuffle=self.shuffle)
        return LocalJobRunner(shuffle=self.shuffle)

    def check(self, output: list) -> bool:
        """Record count and SHA-256 of the sorted output vs the reference."""
        if len(output) != self.query.expected_output_cells():
            return False
        return output_digest(output) == self.reference_digest

    def exact_counts(self, result) -> dict[str, int]:
        """The end-to-end byte counts, which must repeat from rep to rep."""
        # what the transport handed the reducers: the wire-codec'd payload
        # on the network transport, the materialized segments on the direct
        wire = (C.SHUFFLE_WIRE_BYTES if self.network
                else C.SHUFFLE_BYTES_TRANSFERRED)
        return {"shuffle_bytes": result.materialized_bytes,
                "wire_bytes": result.counters.get(wire)}

    def emissions(self, split, values, tracer) -> Iterator[tuple]:
        """The ``(coords, values)`` batches the job's mapper emits for one
        split, recomputed from the query's public geometry so the traced
        run can feed them to each downstream layer by hand."""
        if self.spec.query == "subset":
            with tracer.span("queries.emit"):
                batch = split.slab.coords(), values.ravel()
            yield batch
            return
        with tracer.span("queries.emit"):
            coords = split.slab.coords()
            flat = values.ravel()
        for offset in self.query.offsets:
            with tracer.span("queries.emit"):
                batch = shifted_cells(coords, flat, offset, self.query.extent)
            if batch[0].shape[0]:
                yield batch


def build(spec: Spec, seed: int, smoke: bool = False) -> Workload:
    """Generate the grid from ``seed`` and assemble the job around it."""
    side = max(4, spec.side // 2) if smoke else spec.side
    dataset = integer_grid((side,) * 3, name=VARIABLE, seed=seed)
    grid = dataset[VARIABLE].data
    if spec.query == "median":
        query = SlidingMedianQuery(dataset, VARIABLE, window=WINDOW)
        expected = _sliding_median(grid)
    else:
        query = BoxSubsetQuery(dataset, VARIABLE, dataset[VARIABLE].extent)
        expected = grid.astype(np.float64)
    job = query.build_job(spec.mode, variable_mode="index",
                          num_map_tasks=MAP_TASKS, num_reducers=REDUCERS,
                          codec=spec.codec)
    shuffle = None
    if spec.transport != "direct":
        # A wire codec is numpy + zlib work on the segment server's and
        # the fetcher's threads.  Four fetches at once make eight threads
        # trade one interpreter lock, and the job's wall time turns
        # bimodal (1.1 s or 1.5 s, rep to rep).  One fetch at a time keeps
        # the same layers on the path -- whole-segment compress at serve
        # time, RSH1 framing, decompress in the fetcher -- and repeats.
        concurrency = 1 if spec.wire_codec != "null" else 4
        shuffle = ShuffleConfig(transport=spec.transport,
                                wire_codec=spec.wire_codec,
                                pipeline=spec.parallel,
                                concurrency=concurrency)
    # C order is already lexicographic in the coordinates
    coords = np.indices(grid.shape).reshape(grid.ndim, -1).T
    return Workload(spec, dataset, query, job, shuffle, grid.size,
                    _digest(coords, expected.ravel()))


def _sliding_median(grid: np.ndarray) -> np.ndarray:
    """Per-cell median over the window clipped at the grid edge.

    The query drops emissions that fall outside the extent, so an edge
    cell's median is over fewer values: NaN padding + ``nanmedian``
    reproduces exactly that.
    """
    half = WINDOW // 2
    padded = np.pad(grid.astype(np.float64), half, constant_values=np.nan)
    windows = sliding_window_view(padded, (WINDOW,) * grid.ndim)
    return np.nanmedian(windows.reshape(*grid.shape, -1), axis=-1)


def _digest(coords: np.ndarray, values: np.ndarray) -> str:
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(coords, dtype=np.int64).tobytes())
    sha.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return sha.hexdigest()


def output_digest(output: list) -> str:
    """SHA-256 of a job's ``(CellKey, value)`` output, sorted by cell."""
    coords = np.array([key.coords for key, _ in output], dtype=np.int64)
    values = np.array([value for _, value in output], dtype=np.float64)
    order = np.lexsort(coords.T[::-1])
    return _digest(coords[order], values[order])
