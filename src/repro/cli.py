"""Command-line entry point: regenerate any paper artifact by id.

Usage::

    python -m repro list
    python -m repro run E7
    python -m repro run E3 --scale 1.0
    python -m repro run all

Each experiment prints the same paper-vs-measured table the benchmark
suite produces (see EXPERIMENTS.md for the mapping to the paper).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

__all__ = ["main", "experiment_ids"]


def _registry() -> dict[str, tuple[str, Callable]]:
    """Experiment id -> (description, runner).  Imported lazily so
    ``python -m repro list`` is instant."""
    from repro.experiments import ablations, chaos, cluster_runs, density, \
        e1_motivation, fig2_stream, fig3_table, fig4_scaling, \
        fig8_aggregation, figures_5_6_7, key_splitting, levers, locality, \
        multivar, p3_pipeline, parallel_speedup, r2_poison, r4_netshuffle, \
        r5_hostchaos, r6_service, r7_memchaos

    return {
        "E1": ("§I motivation: per-cell-key file sizes (paper-exact)",
               lambda: e1_motivation.run()),
        "E2": ("Fig 2: dominant sequences in the key stream",
               lambda: fig2_stream.run()),
        "E2S": ("Fig 2 exact: SequenceFile framing, stride 47",
                lambda: fig2_stream.run_seqfile()),
        "E3": ("Fig 3: byte-level compression table",
               lambda: fig3_table.run()),
        "E4": ("Fig 4: transform time vs file size",
               lambda: fig4_scaling.run()),
        "E5": ("§III: stride-detection regimes",
               lambda: fig3_table.run_stride_choice()),
        "E6": ("§III-E / §IV-D cluster comparison (also E8)",
               lambda: cluster_runs.run()),
        "E7": ("Fig 8: key aggregation vs per-cell keys",
               lambda: fig8_aggregation.run()),
        "F5": ("Fig 5: n-D grouping ambiguity",
               lambda: figures_5_6_7.run_fig5()),
        "F6": ("Fig 6: curve numbering and range collapse",
               lambda: figures_5_6_7.run_fig6()),
        "F7": ("Fig 7: overlap splitting",
               lambda: figures_5_6_7.run_fig7()),
        "A1": ("ablation: curve choice (Z-order/Hilbert/Peano/row-major)",
               lambda: ablations.run_curve_choice()),
        "A2": ("ablation: aggregation flush threshold",
               lambda: ablations.run_flush_threshold()),
        "A3": ("ablation: alignment padding",
               lambda: ablations.run_alignment()),
        "A4": ("ablation: detector knobs",
               lambda: ablations.run_detector_knobs()),
        "A5": ("ablation: exact vs vectorized transform",
               lambda: ablations.run_exact_vs_fast()),
        "A6": ("ablation: key splitting + re-aggregation (§IV-B open Q)",
               lambda: key_splitting.run()),
        "A7": ("ablation: input locality and replication",
               lambda: locality.run()),
        "A8": ("ablation: aggregation vs key density",
               lambda: density.run()),
        "A9": ("ablation: multi-variable stream stride regimes",
               lambda: multivar.run()),
        "A10": ("ablation: combiner vs key aggregation levers",
                lambda: levers.run()),
        "P1": ("perf: serial vs parallel runtime on the Fig 8 job",
               lambda: parallel_speedup.run()),
        "P3": ("perf: pipelined shuffle vs the barrier -- overlap map, "
               "fetch, and reduce-side merge, with straggler speculation "
               "and mid-pipeline host loss",
               lambda: p3_pipeline.run()),
        "R1": ("robustness: chaos soak -- randomized fault schedules and "
               "mid-job kill+resume vs the serial runner",
               lambda: chaos.run()),
        "R2": ("robustness: poison-safe pipeline -- record skipping, "
               "quarantine, and corrupt-block salvage, both runners",
               lambda: r2_poison.run()),
        "R4": ("robustness: shuffle transport -- socket segment servers, "
               "on-the-wire codec compression, wire faults, fetch retries, "
               "map re-execution, server loss, both runners",
               lambda: r4_netshuffle.run()),
        "R5": ("robustness: host failure domains -- whole-host crashes, "
               "network partitions, and disk-fault failover, both runners",
               lambda: r5_hostchaos.run()),
        "R6": ("robustness: multi-tenant job service -- daemon SIGKILL + "
               "restart under concurrent tenants, admission shedding, "
               "fair-share dispatch, zero accepted jobs lost",
               lambda: r6_service.run()),
        "R7": ("robustness: memory chaos -- OOM kills mid-map/mid-fetch/"
               "mid-merge, real rlimit MemoryErrors, and byte-based "
               "shuffle backpressure under a small budget, both runners",
               lambda: r7_memchaos.run()),
    }


def experiment_ids() -> list[str]:
    """All runnable experiment ids (for docs and tests)."""
    return list(_registry())


def _run_tune(args, parser) -> int:
    """``repro tune``: fit, validate, and recommend.

    Runs a small sample job serially, fits the cost model on its task
    profiles against the cluster simulator (the offline oracle), prints
    the model's per-phase error band, and recommends knob settings for
    the target cluster.  The recommendation keeps the defaults unless
    the model predicts a material improvement, so applying it is never
    worse than doing nothing.
    """
    if args.scale is not None:
        if args.scale <= 0:
            parser.error("--scale must be positive")
        os.environ["REPRO_SCALE"] = str(args.scale)
    if args.nodes is not None and args.nodes < 1:
        parser.error("--nodes must be >= 1")
    if args.num_maps is not None and args.num_maps < 1:
        parser.error("--num-maps must be >= 1")
    if args.num_reducers is not None and args.num_reducers < 1:
        parser.error("--num-reducers must be >= 1")

    from repro.experiments.common import ExperimentResult, scaled
    from repro.mapreduce.engine import LocalJobRunner
    from repro.mapreduce.runtime.costmodel import CostModel, WorkloadSummary
    from repro.mapreduce.simcluster.model import ClusterSpec
    from repro.queries.histogram import HistogramQuery
    from repro.scidata.generator import integer_grid

    side = scaled(48, 1.0, minimum=16)
    num_maps = args.num_maps or 8
    num_reducers = args.num_reducers or 2
    grid = integer_grid((side, side), seed=29)
    job = HistogramQuery(grid, grid.names[0], bins=16).build_job(
        "plain", num_map_tasks=num_maps, num_reducers=num_reducers)
    result = LocalJobRunner().run(job, grid)

    spec = ClusterSpec(nodes=args.nodes) if args.nodes else ClusterSpec()
    workload = WorkloadSummary.from_result(result, job)
    model = CostModel.fit(result.task_profiles, workload, spec)
    errors = model.validate(result.task_profiles)
    default = model.predict()
    knobs = model.autotune()

    table = ExperimentResult(
        experiment="TUNE",
        title="Fitted cost model: phase predictions and recommended knobs",
        columns=("knob", "default", "recommended"),
    )
    table.add(knob="num_reducers", default=job.num_reducers,
              recommended=knobs.num_reducers)
    table.add(knob="wave_size", default=spec.map_slots,
              recommended=knobs.wave_size)
    table.add(knob="sort_buffer_bytes", default=job.sort_buffer_bytes,
              recommended=knobs.sort_buffer_bytes)
    table.add(knob="ifile_block_bytes", default=job.ifile_block_bytes,
              recommended=knobs.ifile_block_bytes)
    table.note(f"sample job: histogram over a {side}x{side} grid, "
               f"{num_maps} maps x {num_reducers} reducers "
               f"({workload.shuffle_bytes} shuffle bytes); "
               f"target cluster: {spec.nodes} nodes")
    table.note(f"predicted wall-clock: defaults "
               f"{default.total_seconds * 1e3:.2f} ms "
               f"(map {default.map_seconds * 1e3:.2f} + reduce "
               f"{default.reduce_seconds * 1e3:.2f}), recommended "
               f"{knobs.predicted_seconds * 1e3:.2f} ms")
    table.note(f"model error vs simulator: "
               f"map {errors['map_pct_error']:+.1f}%, "
               f"reduce {errors['reduce_pct_error']:+.1f}%, "
               f"mean abs {errors['mean_abs_pct_error']:.1f}% "
               f"(per-task {errors['task_mean_abs_pct_error']:.1f}%)")
    if not knobs.tuned:
        table.note("defaults already within 5% of the best candidate; "
                   "keeping them")
    print(table.format_table())
    return 0


def _service_root(args) -> str:
    """The daemon's root directory (``--root`` > env > ./.repro-service)."""
    return (args.root or os.environ.get("REPRO_SERVICE_ROOT")
            or os.path.join(os.getcwd(), ".repro-service"))


def _run_serve(args, parser) -> int:
    """``repro serve``: run the job daemon in the foreground.

    Recovers every accepted-but-unfinished job from the registry (so a
    restart after a crash resumes them), binds the local REST endpoint,
    publishes its address to ``<root>/service.json``, and serves until
    ``repro shutdown`` (or Ctrl-C, which is the same graceful path:
    running jobs are interrupted but stay resumable).
    """
    from repro.mapreduce.runtime.service import JobService, ServiceConfig
    from repro.mapreduce.runtime.service.http import ServiceEndpoint

    root = _service_root(args)
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        os.environ["REPRO_SERVICE_WORKERS"] = str(args.workers)
    if args.executors is not None:
        if args.executors < 1:
            parser.error("--executors must be >= 1")
        os.environ["REPRO_SERVICE_EXECUTORS"] = str(args.executors)
    if args.tenants is not None:
        os.environ["REPRO_SERVICE_TENANTS"] = args.tenants
    if args.max_memory is not None:
        if args.max_memory < 1:
            parser.error("--max-memory must be >= 1")
        os.environ["REPRO_SERVICE_MAX_MEMORY"] = str(args.max_memory)
    try:
        config = ServiceConfig.from_env(root)
    except ValueError as exc:
        parser.error(str(exc))
    service = JobService(config)
    recovered = service.start()
    endpoint = ServiceEndpoint(service)
    path = endpoint.publish()
    print(f"repro job service on http://{endpoint.address[0]}:"
          f"{endpoint.address[1]} (root {root}, "
          f"{service.pool.max_workers} worker slots, "
          f"{recovered} job(s) recovered; advertised in {path})")
    endpoint.serve_forever()
    print("service stopped")
    return 0


#: registry states after which a followed event log can grow no further
_TERMINAL_STATES = ("DONE", "FAILED", "CANCELLED")


def _tail_events(client, args) -> int:
    """``repro events [--follow]``: print (and optionally tail) a job's
    durable event log.

    The daemon's appends are fsynced but not atomic, so the registry's
    ``events_since`` never consumes a torn tail line -- a poll that
    races a mid-flight append simply rereads that line complete on the
    next round.  With ``--follow``, polling stops once the job reports
    a terminal state *and* a final drain returns nothing new (events
    appended between the state check and the last poll still print).
    """
    import json as _json
    import time as _time

    offset = 0
    while True:
        reply = client.events(args.job_id, since=offset)
        if reply.get("error"):
            print(_json.dumps(reply, indent=2, sort_keys=True),
                  file=sys.stderr)
            return 1
        for event in reply.get("events", ()):
            print(f"{event.get('ts', 0):.3f}  {event.get('kind', '?'):<12}"
                  f"  {event.get('detail', '')}", flush=True)
        offset = int(reply.get("offset", offset))
        state = reply.get("state")
        if not args.follow:
            return 0
        if state in _TERMINAL_STATES and not reply.get("events"):
            print(f"-- {args.job_id} {state}", flush=True)
            return 0
        if not reply.get("events"):
            _time.sleep(max(0.05, args.interval))


def _run_client(args, parser) -> int:
    """``repro submit/status/jobs/cancel/shutdown``: talk to the daemon."""
    import json as _json

    from repro.mapreduce.runtime.service.http import (
        ServiceClient,
        ServiceUnavailableError,
    )
    from repro.mapreduce.runtime.service.workloads import JobSpec

    client = ServiceClient(_service_root(args))
    try:
        if args.command == "submit":
            try:
                shape = tuple(int(s) for s in args.shape.split(","))
                spec = JobSpec(
                    tenant=args.tenant,
                    query=args.query,
                    shape=shape,
                    seed=args.seed,
                    bins=args.bins,
                    num_maps=args.num_maps,
                    num_reducers=args.num_reducers,
                    memory_budget=args.memory_budget,
                    max_inflight_bytes=args.max_inflight_bytes,
                    skip_budget=args.skip_budget,
                    poison=tuple(
                        (t, int(r)) for t, r in
                        (p.split(":", 1) for p in args.poison or [])),
                    fetch_faults=tuple(
                        (m, r, op) for m, r, op in
                        (f.split(":", 2) for f in args.fetch_fault or [])),
                )
            except ValueError as exc:
                parser.error(str(exc))
            reply = client.submit(spec)
        elif args.command == "status":
            reply = client.status(args.job_id)
        elif args.command == "events":
            return _tail_events(client, args)
        elif args.command == "jobs":
            reply = client.jobs()
            if isinstance(reply, dict) and "jobs" in reply:
                # Occupancy alongside the listing: leased slots,
                # per-tenant usage, and memory-ledger headroom.
                health = client.health()
                reply["occupancy"] = {
                    "pool": health.get("pool"),
                    "queued": health.get("queued"),
                    "outstanding_seconds":
                        health.get("outstanding_seconds"),
                    "outstanding_memory_bytes":
                        health.get("outstanding_memory_bytes"),
                    "memory_cap_bytes": health.get("memory_cap_bytes"),
                }
        elif args.command == "cancel":
            reply = client.cancel(args.job_id)
        else:  # shutdown
            reply = client.shutdown()
    except ServiceUnavailableError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    print(_json.dumps(reply, indent=2, sort_keys=True))
    # Structured rejections (OVERLOADED etc.) are answers, but the exit
    # code still signals them for scripting.
    return 1 if isinstance(reply, dict) and reply.get("error") else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.mapreduce.runtime.shuffle import TRANSPORTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from 'Compressing "
                    "Intermediate Keys between Mappers and Reducers in "
                    "SciHadoop' (SC 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("codecs",
                   help="list registered segment codecs and their CPU "
                        "cost categories")
    tune_p = sub.add_parser(
        "tune",
        help="fit the per-phase cost model on a sample run, validate it "
             "against the cluster simulator, and recommend knob settings")
    tune_p.add_argument("--scale", type=float, default=None,
                        help="REPRO_SCALE override for the sample job "
                             "(1.0 = paper scale)")
    tune_p.add_argument("--nodes", type=int, default=None,
                        help="cluster size the prediction targets "
                             "(default 5, the paper's testbed)")
    tune_p.add_argument("--num-maps", type=int, default=None,
                        help="map tasks in the sample job (default 8)")
    tune_p.add_argument("--num-reducers", type=int, default=None,
                        help="reducers in the sample job (default 2)")
    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant job daemon in the foreground "
             "(crash-safe registry, admission control, fair-share "
             "dispatch; see also submit/status/jobs/cancel/shutdown)")
    serve_p.add_argument("--root", default=None,
                         help="service state directory (default: "
                              "REPRO_SERVICE_ROOT or ./.repro-service)")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="worker-process slots in the shared pool "
                              "(default: CPU count)")
    serve_p.add_argument("--executors", type=int, default=None,
                         help="concurrently executing jobs (default 2)")
    serve_p.add_argument("--tenants", default=None,
                         help="per-tenant weights and quotas as "
                              "'name:weight:quota[:membytes],...' (e.g. "
                              "'alice:2:4,bob:1:2:1048576'); the optional "
                              "fourth field caps the tenant's outstanding "
                              "priced job memory; unlisted tenants get "
                              "weight 1 and no quota")
    serve_p.add_argument("--max-memory", type=int, default=None,
                         help="global cap on outstanding priced job "
                              "memory in bytes; beyond it submissions "
                              "are shed with OVERCOMMITTED_MEMORY 429s "
                              "(default: uncapped)")
    submit_p = sub.add_parser(
        "submit", help="submit a job to the daemon and print its id")
    submit_p.add_argument("--root", default=None,
                          help="service state directory of the daemon")
    submit_p.add_argument("--tenant", default="default",
                          help="tenant the job is billed and scheduled "
                               "under (default 'default')")
    submit_p.add_argument("--query", default="histogram",
                          choices=["histogram", "sliding_mean", "subset"],
                          help="workload from the declarative catalog "
                               "(subset is the range-mappable one record "
                               "skipping needs)")
    submit_p.add_argument("--shape", default="12,12,12",
                          help="input grid shape, comma-separated "
                               "(default 12,12,12)")
    submit_p.add_argument("--seed", type=int, default=7,
                          help="deterministic input seed (default 7)")
    submit_p.add_argument("--bins", type=int, default=16,
                          help="histogram bins (default 16)")
    submit_p.add_argument("--num-maps", type=int, default=4,
                          help="map tasks (default 4)")
    submit_p.add_argument("--num-reducers", type=int, default=2,
                          help="reducers (default 2)")
    submit_p.add_argument("--memory-budget", type=int, default=None,
                          help="per-task memory ledger capacity in bytes "
                               "for this job (>= 256; overruns degrade "
                               "and retry with halved buffers)")
    submit_p.add_argument("--max-inflight-bytes", type=int, default=None,
                          help="reduce-side fetch byte window for this "
                               "job (bytes of in-flight shuffle data)")
    submit_p.add_argument("--skip-budget", type=int, default=None,
                          help="enable record skipping with this "
                               "quarantine budget")
    submit_p.add_argument("--poison", action="append", default=None,
                          metavar="TASK:RECORD",
                          help="inject a poison record, e.g. m00001:3 "
                               "(repeatable; requires --skip-budget to "
                               "survive)")
    submit_p.add_argument("--fetch-fault", action="append", default=None,
                          metavar="MAP:REDUCE:OP",
                          help="inject a transient fetch fault, e.g. "
                               "m00001:r00000:flip (repeatable)")
    status_p = sub.add_parser("status", help="print one job's status")
    status_p.add_argument("job_id")
    status_p.add_argument("--root", default=None,
                          help="service state directory of the daemon")
    events_p = sub.add_parser(
        "events", help="print one job's event log (optionally tailing it "
                       "until the job reaches a terminal state)")
    events_p.add_argument("job_id")
    events_p.add_argument("--root", default=None,
                          help="service state directory of the daemon")
    events_p.add_argument("--follow", action="store_true",
                          help="poll for new events until the job is "
                               "DONE/FAILED/CANCELLED (torn tail lines "
                               "are re-read once complete)")
    events_p.add_argument("--interval", type=float, default=0.5,
                          help="poll interval in seconds for --follow "
                               "(default 0.5)")
    jobs_p = sub.add_parser("jobs", help="list the daemon's jobs")
    jobs_p.add_argument("--root", default=None,
                        help="service state directory of the daemon")
    cancel_p = sub.add_parser("cancel", help="cancel a queued/running job")
    cancel_p.add_argument("job_id")
    cancel_p.add_argument("--root", default=None,
                          help="service state directory of the daemon")
    shutdown_p = sub.add_parser(
        "shutdown", help="stop the daemon gracefully (running jobs stay "
                         "resumable)")
    shutdown_p.add_argument("--root", default=None,
                            help="service state directory of the daemon")
    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run_p.add_argument("--scale", type=float, default=None,
                       help="REPRO_SCALE override (1.0 = paper scale)")
    run_p.add_argument("--runner", choices=["serial", "parallel"], default=None,
                       help="execution backend for the jobs the harnesses "
                            "run (parallel = multiprocess task runtime; "
                            "counters are byte-identical either way)")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes for --runner parallel "
                            "(default: CPU count)")
    run_p.add_argument("--task-timeout", type=float, default=None,
                       help="hard per-attempt deadline in seconds for "
                            "--runner parallel; a breaching attempt is "
                            "killed and retried")
    run_p.add_argument("--recovery-dir", default=None,
                       help="directory for durable job manifests "
                            "(checkpoint/resume state); --runner parallel")
    run_p.add_argument("--resume", action="store_true",
                       help="adopt completed tasks from the manifest in "
                            "--recovery-dir instead of re-running them")
    run_p.add_argument("--skip-budget", type=int, default=None,
                       help="max records a task may skip into quarantine "
                            "in record-skipping scenarios (R2; default "
                            "4096)")
    run_p.add_argument("--quarantine-dir", default=None,
                       help="keep quarantine side-files under this "
                            "directory instead of throwaway temp dirs "
                            "(R2)")
    run_p.add_argument("--transport", choices=TRANSPORTS, default=None,
                       help="shuffle transport reducers fetch map "
                            "segments through (either runner; direct "
                            "reads segment files, network serves them "
                            "over loopback TCP -- byte-identical "
                            "output)")
    run_p.add_argument("--wire-codec", default=None,
                       help="codec segment bytes are compressed with on "
                            "the wire (--transport network; 'null' "
                            "serves verbatim via sendfile; see 'repro "
                            "codecs' for choices)")
    run_p.add_argument("--shuffle-port-base", type=int, default=None,
                       help="first TCP port for the network shuffle "
                            "servers (--transport network; default: "
                            "ephemeral ports)")
    run_p.add_argument("--fetch-retries", type=int, default=None,
                       help="extra fetch attempts per segment after the "
                            "first failure (default 3)")
    run_p.add_argument("--fetch-timeout", type=float, default=None,
                       help="per-fetch-attempt deadline in seconds "
                            "(default: none)")
    run_p.add_argument("--pipeline", dest="pipeline", default=None,
                       action="store_true",
                       help="pipelined shuffle: reducers run alongside "
                            "late maps and fetch each map's segments as "
                            "it commits (either runner; output and "
                            "counters stay byte-identical to the "
                            "barrier)")
    run_p.add_argument("--no-pipeline", dest="pipeline",
                       action="store_false",
                       help="force the map/reduce barrier even when "
                            "REPRO_PIPELINE is set")
    run_p.add_argument("--starvation-threshold", type=int, default=None,
                       help="missing-segment count at which a starved "
                            "pipelined reducer triggers speculative "
                            "re-execution of the late maps (default 2; "
                            "requires --pipeline)")
    run_p.add_argument("--memory-budget", type=int, default=None,
                       help="per-task memory ledger capacity in bytes "
                            "(>= 256; an enforced overrun triggers the "
                            "degrade-on-retry ladder -- the attempt is "
                            "retried with halved sort buffer and fetch "
                            "window; output stays byte-identical)")
    run_p.add_argument("--max-inflight-bytes", type=int, default=None,
                       help="byte-based fetch backpressure: cap on the "
                            "summed priced size of in-flight shuffle "
                            "fetches per reduce task (default: "
                            "count-based concurrency only)")
    run_p.add_argument("--max-memory-retries", type=int, default=None,
                       help="OOM-dead attempts of one task the degrade "
                            "ladder absorbs before the job fails "
                            "(default 2)")
    run_p.add_argument("--worker-rlimit", type=int, default=None,
                       help="real RLIMIT_AS address-space cap in bytes "
                            "applied to forked workers (--runner "
                            "parallel, Linux; allocations beyond it "
                            "raise genuine MemoryErrors)")
    run_p.add_argument("--num-hosts", type=int, default=None,
                       help="simulated hosts tasks and segment servers are "
                            "spread over (either runner; default 2)")
    run_p.add_argument("--max-host-reexecs", type=int, default=None,
                       help="max completed maps re-executed per lost host "
                            "before the job fails (default 2)")
    args = parser.parse_args(argv)

    if args.command == "codecs":
        from repro.mapreduce.codecs import (
            available_codecs,
            cost_categories,
            get_codec,
        )
        names = available_codecs()
        width = max(len(n) for n in names)
        for name in names:
            cats = "+".join(cost_categories(get_codec(name)))
            print(f"{name:<{width}}  cost: {cats}")
        return 0

    if args.command == "tune":
        return _run_tune(args, parser)

    if args.command == "serve":
        return _run_serve(args, parser)

    if args.command in ("submit", "status", "events", "jobs", "cancel",
                        "shutdown"):
        return _run_client(args, parser)

    registry = _registry()
    if args.command == "list":
        width = max(len(k) for k in registry)
        for key, (desc, _) in registry.items():
            print(f"{key:<{width}}  {desc}")
        return 0

    if args.scale is not None:
        if args.scale <= 0:
            parser.error("--scale must be positive")
        os.environ["REPRO_SCALE"] = str(args.scale)
    if args.runner is not None:
        os.environ["REPRO_RUNNER"] = args.runner
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.resume and args.recovery_dir is None:
        parser.error("--resume requires --recovery-dir")
    parallel_only = [("--task-timeout", args.task_timeout is not None),
                     ("--recovery-dir", args.recovery_dir is not None),
                     ("--resume", args.resume)]
    if any(given for _, given in parallel_only):
        runner = args.runner or os.environ.get("REPRO_RUNNER", "serial")
        if runner.lower() != "parallel":
            flags = ", ".join(f for f, given in parallel_only if given)
            parser.error(f"{flags} require(s) --runner parallel")
    if args.task_timeout is not None:
        if args.task_timeout <= 0:
            parser.error("--task-timeout must be positive")
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)
    if args.recovery_dir is not None:
        os.environ["REPRO_RECOVERY_DIR"] = args.recovery_dir
    if args.resume:
        os.environ["REPRO_RESUME"] = "1"
    if args.skip_budget is not None:
        if args.skip_budget < 1:
            parser.error("--skip-budget must be >= 1")
        os.environ["REPRO_SKIP_BUDGET"] = str(args.skip_budget)
    if args.quarantine_dir is not None:
        os.environ["REPRO_QUARANTINE_DIR"] = args.quarantine_dir
    network_only = [("--wire-codec", args.wire_codec is not None),
                    ("--shuffle-port-base",
                     args.shuffle_port_base is not None)]
    if any(given for _, given in network_only):
        transport = args.transport or os.environ.get("REPRO_TRANSPORT", "")
        if transport != "network":
            flags = ", ".join(f for f, given in network_only if given)
            parser.error(f"{flags} require(s) --transport network")
    if args.transport is not None:
        os.environ["REPRO_TRANSPORT"] = args.transport
    if args.wire_codec is not None:
        from repro.mapreduce.codecs import available_codecs
        if args.wire_codec not in available_codecs():
            parser.error(f"unknown --wire-codec {args.wire_codec!r}; "
                         f"try 'repro codecs'")
        os.environ["REPRO_WIRE_CODEC"] = args.wire_codec
    if args.shuffle_port_base is not None:
        if not 1024 <= args.shuffle_port_base <= 65535:
            parser.error("--shuffle-port-base must be in 1024..65535")
        os.environ["REPRO_SHUFFLE_PORT_BASE"] = str(args.shuffle_port_base)
    if args.fetch_retries is not None:
        if args.fetch_retries < 0:
            parser.error("--fetch-retries must be >= 0")
        os.environ["REPRO_FETCH_RETRIES"] = str(args.fetch_retries)
    if args.fetch_timeout is not None:
        if args.fetch_timeout <= 0:
            parser.error("--fetch-timeout must be positive")
        os.environ["REPRO_FETCH_TIMEOUT"] = str(args.fetch_timeout)
    if args.pipeline is not None:
        os.environ["REPRO_PIPELINE"] = "1" if args.pipeline else "0"
    if args.starvation_threshold is not None:
        if args.starvation_threshold < 1:
            parser.error("--starvation-threshold must be >= 1")
        pipelined = (args.pipeline if args.pipeline is not None
                     else os.environ.get("REPRO_PIPELINE", "")
                     .strip().lower() in ("1", "true", "yes", "on"))
        if not pipelined:
            parser.error("--starvation-threshold requires --pipeline")
        os.environ["REPRO_STARVATION_THRESHOLD"] = str(
            args.starvation_threshold)
    if args.memory_budget is not None:
        if args.memory_budget < 256:
            parser.error("--memory-budget must be >= 256 (one IFile block)")
        os.environ["REPRO_MEMORY_BUDGET"] = str(args.memory_budget)
    if args.max_inflight_bytes is not None:
        if args.max_inflight_bytes < 1:
            parser.error("--max-inflight-bytes must be >= 1")
        os.environ["REPRO_MAX_INFLIGHT_BYTES"] = str(args.max_inflight_bytes)
    if args.max_memory_retries is not None:
        if args.max_memory_retries < 1:
            parser.error("--max-memory-retries must be >= 1")
        os.environ["REPRO_MAX_MEMORY_RETRIES"] = str(args.max_memory_retries)
    if args.worker_rlimit is not None:
        if args.worker_rlimit < 1:
            parser.error("--worker-rlimit must be >= 1")
        runner = args.runner or os.environ.get("REPRO_RUNNER", "serial")
        if runner.lower() != "parallel":
            parser.error("--worker-rlimit requires --runner parallel")
        os.environ["REPRO_WORKER_RLIMIT_BYTES"] = str(args.worker_rlimit)
    if args.num_hosts is not None:
        if args.num_hosts < 1:
            parser.error("--num-hosts must be >= 1")
        os.environ["REPRO_NUM_HOSTS"] = str(args.num_hosts)
    if args.max_host_reexecs is not None:
        if args.max_host_reexecs < 0:
            parser.error("--max-host-reexecs must be >= 0")
        os.environ["REPRO_MAX_HOST_REEXECS"] = str(args.max_host_reexecs)

    ids = list(registry) if args.experiment.lower() == "all" else [
        args.experiment.upper()
    ]
    unknown = [i for i in ids if i not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try 'python -m repro list'", file=sys.stderr)
        return 2
    for exp_id in ids:
        _, runner = registry[exp_id]
        print(runner().format_table())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
