"""The traced run: spans around every call into a layer, from outside.

Nothing in ``src/`` is instrumented.  A serial workload's job is replayed
by hand through the public task functions (``ArraySplitter.split`` ->
``run_map_task`` -> ``run_reduce_task``), each call under a span; then
the same data is walked through the leaf layers one public call at a
time (pack -> partition -> sort -> IFile -> codec on the map side, fetch
-> decode -> merge -> group -> reduce on the other), so every second of
the job lands on a named layer.  The hand-built segments must be
byte-identical to the ones ``run_map_task`` wrote and the hand-reduced
output must match the reference -- that is what makes the walk a
measurement of the job and not of a look-alike
(``trace.replay_faithful``).

Spans stay in memory and are written once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import struct
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.core.aggregation import Aggregator
from repro.core.stride.fast import (
    fast_forward_transform,
    fast_inverse_transform,
    select_stride,
)
from repro.mapreduce import Counters, MapContext, ReduceContext
from repro.mapreduce.codecs import Codec, get_codec
from repro.mapreduce.columnar import PartitionBuffer
from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.ifile import IFileReader, IFileStats, IFileWriter
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import SegmentRef, ShuffleConfig, ShuffleFetcher
from repro.mapreduce.runtime.netshuffle import REQUEST_MAGIC, ShuffleService
from repro.mapreduce.sort import (
    argsort_key_matrix,
    group_by_key,
    merge_runs,
    sort_records,
)
from repro.scidata import ArraySplitter

from workloads import PARALLEL_WORKERS, Workload

#: leaf span name -> the waterfall row it is billed to.  The rows are the
#: ones the README's expectations are written in: a workload's dominant
#: row must be the layer its ``why`` names.
WATERFALL = {
    "scidata.read": "queries",
    "queries.emit": "queries",
    "keys.pack": "records",
    "serde.value_pack": "records",
    "columnar.partition": "records",
    "sort.argsort": "records",
    "sort.merge": "records",
    "ifile.write": "records",
    "ifile.read_records": "records",
    "codec.compress.spill": "codec",
    "codec.decompress.spill": "codec",
    "aggregation.aggregate": "aggregation",
    "aggregation.route": "aggregation",
    "aggregation.prepare_reduce": "aggregation",
    "shuffle.fetch": "shuffle",
    "engine.reduce_loop": "reduce",
    "serde.read_column": "reduce",
    "queries.reduce": "reduce",
}


class Tracer:
    """In-memory span log: ``{id, name, start, end, parent, job, args}``."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **args):
        span = {"id": len(self.spans), "name": name, "job": self.job,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "args": args,
                "cursor": None}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def summary_child(self, parent: dict, name: str, seconds: float,
                      calls: int) -> None:
        """One span standing for ``calls`` short calls made inside
        ``parent`` whose durations were accumulated, not logged one by
        one.  Summary children are laid end to end from the parent's
        start, so self time (parent minus children) stays exact."""
        start = parent["cursor"] or parent["start"]
        parent["cursor"] = start + seconds
        self.spans.append({"id": len(self.spans), "name": name,
                           "job": self.job, "parent": parent["id"],
                           "start": start, "end": start + seconds,
                           "args": {"calls": calls, "summed": True},
                           "cursor": None})

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        t0 = min(s["start"] for s in self.spans)
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"id": s["id"], "parent": s["parent"], "job": s["job"],
                     **s["args"]},
        } for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class SpanCodec(Codec):
    """A codec that shows each call as a child span of whoever called it
    (``IFileWriter.close`` / ``IFileReader``)."""

    name = "span"

    def __init__(self, inner: Codec, tracer: Tracer, site: str) -> None:
        super().__init__()
        self.inner = inner
        self.tracer = tracer
        self.site = site

    def _compress(self, data: bytes) -> bytes:
        with self.tracer.span(f"codec.compress.{self.site}"):
            return self.inner.compress(data)

    def _decompress(self, data: bytes) -> bytes:
        with self.tracer.span(f"codec.decompress.{self.site}"):
            return self.inner.decompress(data)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------ serial replay


def trace_serial(w: Workload, workdir: str, job_wall_s: float,
                 trace_path: str) -> dict[str, float]:
    """Replay one serial workload under spans; returns per-layer metrics."""
    tracer = Tracer(w.spec.name)
    service = ShuffleService.from_config(w.shuffle) if w.network else None
    try:
        with tracer.span("job"):
            replay = _replay(w, tracer, workdir, service)
        with tracer.span("layers"):
            faithful = _map_leaves(w, tracer, replay, workdir)
            faithful &= _reduce_leaves(w, tracer, replay)
        with tracer.span("probes"):
            probes = _probes(w, tracer, replay)
    finally:
        if service is not None:
            service.stop()
    faithful &= w.check(replay["output"])
    tracer.write_chrome(trace_path)
    return _serial_metrics(w, tracer, replay, probes, faithful, job_wall_s)


def _replay(w: Workload, tracer: Tracer, workdir: str, service) -> dict:
    """The job, by hand: what ``LocalJobRunner.run`` does on a clean run."""
    job, dataset = w.job, w.dataset
    with tracer.span("scidata.split"):
        splits = ArraySplitter(job.num_map_tasks).split(
            dataset, list(job.input_variables))
    map_outs = []
    for split in splits:
        with tracer.span("engine.map_task", task=f"m{split.split_id:05d}"):
            map_outs.append(run_map_task(job, split, dataset, workdir))
    if service is not None:
        with tracer.span("netshuffle.register"):
            service.start()
            for mo in map_outs:
                service.register_map_output(
                    mo.task_id, [path for path, _ in mo.segments.values()])
    refs = {part: [SegmentRef(
        map_id=mo.task_id, path=mo.segments[part][0],
        stats=mo.segments[part][1],
        address=(service.address_for(mo.task_id) if service else None))
        for mo in map_outs] for part in range(job.num_reducers)}
    reduces = []
    for part in range(job.num_reducers):
        with tracer.span("engine.reduce_task", task=f"r{part:05d}"):
            reduces.append(run_reduce_task(job, part, refs[part], workdir,
                                           shuffle=w.shuffle))
    output = [pair for rr in reduces for pair in rr.output]
    stats = IFileStats()
    for mo in map_outs:
        for _, seg_stats in mo.segments.values():
            stats.merge(seg_stats)
    return {
        "splits": splits, "map_outs": map_outs, "refs": refs,
        "output": output, "segment_stats": stats,
        "counters": Counters.merged(
            [t.counters for t in map_outs] + [t.counters for t in reduces]),
        "profiles": [t.profile for t in map_outs + reduces],
    }


# ------------------------------------------------------------- leaf layers


def _map_leaves(w: Workload, tracer: Tracer, replay: dict,
                workdir: str) -> bool:
    """Map side, one layer per call.  True iff every hand-built segment
    equals the bytes ``run_map_task`` materialized for it."""
    job = w.job
    reducers = job.num_reducers
    var_ref = w.dataset.names.index(w.query.variable)
    partitioner = job.partitioner(reducers)
    plugin = job.shuffle_plugin
    faithful = True
    replay["emitted_cells"] = 0
    for split, mo in zip(replay["splits"], replay["map_outs"]):
        with tracer.span("scidata.read"):
            values = w.dataset[split.variable].read(split.slab)
        buffers = {p: PartitionBuffer() for p in range(reducers)}
        if plugin is None:
            width = job.value_serde.SIZE
            for coords, vals in w.emissions(split, values, tracer):
                with tracer.span("keys.pack"):
                    kmat, _ = job.key_serde.pack_batch_keys(var_ref, coords)
                with tracer.span("serde.value_pack"):
                    vmat = np.frombuffer(job.value_serde.pack_batch(vals),
                                         np.uint8).reshape(-1, width)
                with tracer.span("columnar.partition"):
                    parts = partitioner.partition_batch(kmat)
                    for part in np.unique(parts):
                        mask = parts == part
                        buffers[int(part)].append_chunk(kmat[mask],
                                                        vmat[mask])
        else:
            emitted: list[tuple[bytes, bytes]] = []
            ctx = MapContext(job.key_serde, job.value_serde,
                             lambda kb, vb: emitted.append((kb, vb)),
                             Counters())
            agg = Aggregator(plugin.config, var_ref, ctx)
            origin = np.asarray(w.query.extent.corner, dtype=np.int64)
            for coords, vals in w.emissions(split, values, tracer):
                replay["emitted_cells"] += len(vals)
                with tracer.span("aggregation.aggregate"):
                    agg.add(coords - origin, vals)
            with tracer.span("aggregation.aggregate"):
                agg.close()
            with tracer.span("aggregation.route"):
                for kb, vb in emitted:
                    for part, k2, v2 in plugin.route(kb, vb, reducers):
                        buffers[part].append(k2, v2)
        for part, pbuf in buffers.items():
            path = os.path.join(workdir, f"leaf-{mo.task_id}-p{part}")
            codec = SpanCodec(get_codec(job.codec, **job.codec_options),
                              tracer, "spill")
            if plugin is None:
                with tracer.span("columnar.partition"):
                    kmat, vmat = pbuf.columnar_view()
                with tracer.span("sort.argsort", records=pbuf.records):
                    order = argsort_key_matrix(kmat)
                    kmat = np.ascontiguousarray(kmat[order])
                    vmat = np.ascontiguousarray(vmat[order])
                with tracer.span("ifile.write"):
                    writer = IFileWriter(path, codec)
                    writer.append_batch(kmat, vmat)
                    writer.close()
            else:
                with tracer.span("columnar.partition"):
                    records = pbuf.to_records()
                with tracer.span("sort.argsort", records=pbuf.records):
                    records = sort_records(records)
                with tracer.span("ifile.write"):
                    writer = IFileWriter(path, codec)
                    for kb, vb in records:
                        writer.append(kb, vb)
                    writer.close()
            with open(path, "rb") as mine, \
                    open(mo.segments[part][0], "rb") as real:
                faithful &= mine.read() == real.read()
            os.unlink(path)
    return faithful


def _reduce_leaves(w: Workload, tracer: Tracer, replay: dict) -> bool:
    """Reduce side, one layer per call.  True iff the hand-reduced output
    matches the reference."""
    job = w.job
    output: list = []
    for part, refs in replay["refs"].items():
        fetcher = ShuffleFetcher(w.shuffle or ShuffleConfig(), Counters(),
                                 f"r{part:05d}")
        with tracer.span("shuffle.fetch",
                         bytes=sum(r.stats.materialized_bytes for r in refs)):
            blobs = fetcher.fetch_all(refs)
        runs = []
        codec = SpanCodec(get_codec(job.codec, **job.codec_options),
                          tracer, "spill")
        for ref, blob in zip(refs, blobs):
            with tracer.span("ifile.read_records"):
                records = IFileReader(blob, codec, path=ref.path).read_all()
            if records:
                runs.append(records)
        with tracer.span("sort.merge"):
            merged = list(merge_runs(runs))
        if job.shuffle_plugin is not None:
            with tracer.span("aggregation.prepare_reduce"):
                merged = job.shuffle_plugin.prepare_reduce(merged)
        reducer = job.reducer()
        ctx = ReduceContext(Counters())
        decode = reduce = 0.0
        groups = 0
        with tracer.span("engine.reduce_loop") as loop:
            for kb, value_blobs in group_by_key(merged):
                t0 = time.perf_counter()
                key = job.key_serde.from_bytes(kb)
                values = job.value_serde.read_batch(value_blobs)
                t1 = time.perf_counter()
                reducer.reduce(key, values, ctx)
                reduce += time.perf_counter() - t1
                decode += t1 - t0
                groups += 1
        tracer.summary_child(loop, "serde.read_column", decode, groups)
        tracer.summary_child(loop, "queries.reduce", reduce, groups)
        output.extend(ctx.output)
    return w.check(output)


# ------------------------------------------------------------------ probes


def _probes(w: Workload, tracer: Tracer, replay: dict) -> dict[str, float]:
    """Standalone timings of calls that sit *inside* a waterfall span (the
    stride transform inside the codec, the wire codec inside the fetch) or
    beside the hot path (``read_columnar``), on this run's real bytes."""
    out: dict[str, float] = {}
    job = w.job
    blobs = []
    for mo in replay["map_outs"]:
        for path, _ in mo.segments.values():
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    codec = get_codec(job.codec, **job.codec_options)
    if hasattr(codec, "chunk_size"):
        # a segment is the compressed record stream plus a 4-byte CRC
        _stride_probe(tracer, codec,
                      [codec.decompress(blob[:-4]) for blob in blobs],
                      "spill")
    if w.network and w.spec.wire_codec != "null":
        wire = get_codec(w.spec.wire_codec)
        with tracer.span("codec.compress.wire"):
            coded = [wire.compress(blob) for blob in blobs]
        with tracer.span("codec.decompress.wire"):
            for comp in coded:
                wire.decompress(comp)
        out["wire_raw_bytes"] = sum(map(len, blobs))
        out["wire_coded_bytes"] = sum(map(len, coded))
        if hasattr(wire, "chunk_size"):
            _stride_probe(tracer, wire, blobs, "wire")
        # the same segments fetched verbatim: what is left of the fetch
        # when the wire codec is taken out of it
        verbatim = dataclasses.replace(w.shuffle, wire_codec="null")
        with tracer.span("shuffle.fetch.verbatim"):
            for part, refs in replay["refs"].items():
                ShuffleFetcher(verbatim, Counters(),
                               f"r{part:05d}").fetch_all(refs)
    if job.shuffle_plugin is None:
        kw = job.key_serde.key_size(0)
        vw = job.value_serde.SIZE
        with tracer.span("ifile.read_columnar"):
            for mo in replay["map_outs"]:
                for path, _ in mo.segments.values():
                    IFileReader(path, codec).read_columnar(kw, vw)
    if w.network:
        out["first_byte_ms"] = _first_byte_ms(w, replay["refs"][0][0])
    return out


def _stride_probe(tracer: Tracer, codec, streams: list[bytes],
                  site: str) -> None:
    """The three pieces of the fastpred transform, each on its own."""
    max_stride, chunk = codec.max_stride, codec.chunk_size
    with tracer.span(f"stride.forward.{site}"):
        residuals = [fast_forward_transform(s, max_stride, chunk)
                     for s in streams]
    with tracer.span(f"stride.inverse.{site}"):
        for residual in residuals:
            fast_inverse_transform(residual, max_stride, chunk)
    with tracer.span(f"stride.select_stride.{site}"):
        # what one direction of the transform spends choosing strides:
        # one call per chunk, on the chunk before it
        for stream in streams:
            x = np.frombuffer(stream, dtype=np.uint8)
            for off in range(chunk, x.shape[0], chunk):
                select_stride(x[off - chunk:off], max_stride)


def _first_byte_ms(w: Workload, ref: SegmentRef) -> float:
    """Request one segment by hand and time the wait for the status byte:
    with a wire codec the server compresses the whole segment first."""
    request = json.dumps({
        "map_id": ref.map_id, "path": ref.path, "epoch": ref.epoch,
        "reduce_id": "r00000", "attempt": 0,
        "codec": w.shuffle.wire_codec, "chunk": w.shuffle.chunk_bytes,
    }).encode("utf-8")
    with socket.create_connection(ref.address, timeout=30.0) as sock:
        start = time.perf_counter()
        sock.sendall(REQUEST_MAGIC + struct.pack(">I", len(request))
                     + request)
        if not sock.recv(1):
            raise ConnectionError("segment server closed before replying")
        return (time.perf_counter() - start) * 1e3


# ----------------------------------------------------------------- metrics


def _engine_metrics(counters: Counters, profiles: list,
                    stats: IFileStats) -> dict[str, float]:
    """Counts and in-program clocks every runner reports the same way."""
    def cpu(category: str) -> float:
        return sum(p.cpu_seconds.get(category, 0.0) for p in profiles)
    return {
        "scidata.cells": counters.get(C.MAP_INPUT_RECORDS),
        "engine.map_records": counters.get(C.MAP_OUTPUT_RECORDS),
        "engine.spill_count": counters.get(C.SPILL_COUNT),
        "engine.reduce_groups": counters.get(C.REDUCE_INPUT_GROUPS),
        "engine.merge_pass_bytes": counters.get(C.MERGE_PASS_BYTES),
        "queries.map_s": cpu("map"),
        "queries.reduce_s": cpu("reduce"),
        "ifile.raw_bytes": stats.raw_bytes,
        "ifile.materialized_bytes": stats.materialized_bytes,
        "ifile.overhead_bytes": stats.overhead_bytes,
        "shuffle.fetches": counters.get(C.SHUFFLE_FETCHES),
        "shuffle.retries": counters.get(C.SHUFFLE_RETRIES),
        "shuffle.failed_fetches": counters.get(C.SHUFFLE_FAILED_FETCHES),
        "netshuffle.wire_ratio": _ratio(
            counters.get(C.SHUFFLE_WIRE_BYTES_UNCOMPRESSED),
            counters.get(C.SHUFFLE_WIRE_BYTES)),
    }


def _serial_metrics(w: Workload, tracer: Tracer, replay: dict,
                    probes: dict, faithful: bool,
                    job_wall_s: float) -> dict[str, float]:
    counters = replay["counters"]
    stats = replay["segment_stats"]
    total = tracer.total
    self_s = tracer.self_seconds()
    records = stats.records
    mb = 1e-6

    m = _engine_metrics(counters, replay["profiles"], stats)
    m.update({
        "scidata.split_s": total("scidata.split"),
        "engine.map_task_s": total("engine.map_task"),
        "engine.reduce_task_s": total("engine.reduce_task"),
        "keys.pack_s": total("keys.pack"),
        "keys.pack_records_per_s": _ratio(records, total("keys.pack")),
        "serde.value_pack_s": total("serde.value_pack"),
        "serde.read_column_s": total("serde.read_column"),
        "sort.argsort_s": total("sort.argsort"),
        "sort.records_per_s": _ratio(records, total("sort.argsort")),
        "sort.merge_s": total("sort.merge"),
        "columnar.partition_s": total("columnar.partition"),
        "ifile.write_s": self_s["ifile.write"],
        "ifile.read_records_s": self_s["ifile.read_records"],
        "ifile.read_columnar_s": total("ifile.read_columnar"),
        "aggregation.aggregate_s": total("aggregation.aggregate"),
        "aggregation.route_s": total("aggregation.route"),
        "aggregation.prepare_reduce_s": total("aggregation.prepare_reduce"),
        "shuffle.fetch_s": total("shuffle.fetch"),
        "shuffle.fetch_mb_per_s": _ratio(stats.materialized_bytes * mb,
                                         total("shuffle.fetch")),
        "netshuffle.first_byte_ms": probes.get("first_byte_ms", 0.0),
    })
    if w.job.shuffle_plugin is not None:
        keys_out = counters.get(C.MAP_OUTPUT_RECORDS)
        m["aggregation.keys_out"] = keys_out
        # routing splits (records materialized beyond those emitted) plus
        # reduce-side overlap splits
        m["aggregation.key_splits"] = (records - keys_out
                                       + counters.get(C.KEY_SPLITS))
        m["aggregation.cells_per_key"] = _ratio(replay["emitted_cells"],
                                                keys_out)

    sites = {
        "spill": (stats.raw_bytes, stats.materialized_bytes),
        "wire": (probes.get("wire_raw_bytes", 0),
                 probes.get("wire_coded_bytes", 0)),
    }
    for site, (raw, coded) in sites.items():
        compress = total(f"codec.compress.{site}")
        decompress = total(f"codec.decompress.{site}")
        m[f"codec.compress_s.{site}"] = compress
        m[f"codec.decompress_s.{site}"] = decompress
        m[f"codec.compress_mb_per_s.{site}"] = _ratio(raw * mb, compress)
        m[f"codec.decompress_mb_per_s.{site}"] = _ratio(raw * mb, decompress)
        m[f"codec.ratio.{site}"] = _ratio(raw, coded) if compress else 0.0
        for piece in ("forward", "inverse", "select_stride"):
            m[f"stride.{piece}_s.{site}"] = total(f"stride.{piece}.{site}")

    # Waterfall: every leaf's self time billed to one row.  The wire codec
    # runs inside the fetch (server thread compresses, fetcher
    # decompresses): what the fetch costs beyond a verbatim fetch of the
    # same segments moves from the shuffle row to the codec row.
    rows: dict[str, float] = defaultdict(float)
    for name, row in WATERFALL.items():
        rows[row] += self_s.get(name, 0.0)
    verbatim = total("shuffle.fetch.verbatim")
    if verbatim:
        wire = max(0.0, rows["shuffle"] - verbatim)
        rows["shuffle"] -= wire
        rows["codec"] += wire
    layers = total("layers")
    for row in ("queries", "records", "codec", "aggregation", "shuffle",
                "reduce"):
        m[f"waterfall.{row}_share"] = _ratio(rows[row], layers)

    job_s = total("job")
    m["trace.overhead_ratio"] = _ratio(job_s, job_wall_s)
    m["trace.attributed_share"] = 1.0 - _ratio(
        self_s["job"] + self_s["layers"], job_s + layers)
    m["trace.layer_coverage"] = _ratio(layers, job_s)
    m["trace.replay_faithful"] = float(faithful)
    return m


# ----------------------------------------------------------- parallel trace


def trace_parallel(w: Workload, runner) -> dict[str, float]:
    """The parallel workload is not replayed by hand: one more run, and
    the runner's own ``RuntimeTrace`` / ``pipeline_stats`` are read."""
    start = time.perf_counter()
    result = runner.run(w.job, w.dataset)
    wall = time.perf_counter() - start
    trace = result.trace
    m = _engine_metrics(result.counters, result.task_profiles,
                        result.map_output_stats)

    opened: dict[tuple[str, int], float] = {}
    intervals: list[tuple[float, float]] = []
    task_seconds = {"map": 0.0, "reduce": 0.0}
    attempts = 0
    for event in trace.events:
        key = (event.task_id, event.attempt)
        if event.event in ("started", "speculated"):
            opened[key] = event.timestamp
            attempts += 1
        elif event.event in ("finished", "failed", "killed", "timeout") \
                and key in opened:
            begin = opened.pop(key)
            intervals.append((begin, event.timestamp))
            task_seconds[event.kind] += event.timestamp - begin
    # time during which no task attempt was running: pool spawn, segment
    # servers, commit log, result assembly, teardown
    busy_union = 0.0
    edge = 0.0
    for begin, end in sorted(intervals):
        if end > edge:
            busy_union += end - max(begin, edge)
            edge = end
    stats = result.pipeline_stats or {}
    m.update({
        "engine.map_task_s": task_seconds["map"],
        "engine.reduce_task_s": task_seconds["reduce"],
        "scheduler.task_attempts": attempts,
        "scheduler.busy_share": _ratio(sum(task_seconds.values()),
                                       PARALLEL_WORKERS * wall),
        "scheduler.overhead_s": wall - busy_union,
        "pipeline.first_fetch_ms": stats.get(C.REDUCE_FIRST_FETCH_MS) or 0.0,
        "pipeline.overlapped_fetches": stats.get(C.PIPELINE_OVERLAP, 0),
        "trace.replay_faithful": float(w.check(result.output)),
    })
    return m
