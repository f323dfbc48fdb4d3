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

from repro import settings

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
    if args.nodes is not None and args.nodes < 1:
        parser.error("--nodes must be >= 1")
    if args.num_maps is not None and args.num_maps < 1:
        parser.error("--num-maps must be >= 1")
    if args.num_reducers is not None and args.num_reducers < 1:
        parser.error("--num-reducers must be >= 1")

    from repro.experiments.common import ExperimentResult, scaled
    from repro.mapreduce.runtime import LocalJobRunner
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
    """The daemon's root directory (``--root`` > ``REPRO_SERVICE_ROOT``)."""
    return args.root or settings.read("REPRO_SERVICE_ROOT")


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


def _flag_type(setting):
    """An argparse ``type`` that parses and bounds through ``setting``
    (a ``text`` knob is checked, then travels as its text)."""
    def parse(raw: str):
        try:
            value = setting.parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{raw!r} {exc}") from None
        return raw if setting.kind == "text" else value
    return parse


def _add_knob_flags(sub_parser, command: str) -> None:
    """``command``'s knob flags, generated from :mod:`repro.settings`:
    each is parsed by its own entry and lands in the ``args`` attribute
    named after its variable."""
    for setting in settings.flagged(command):
        shown = ("off" if setting.default is False else setting.unset
                 if setting.default is None else setting.default)
        rules = " and ".join(settings.get(name).flag_for(value)
                             for name, value in setting.requires)
        extras = [setting.name, setting.note, f"default {shown}",
                  rules and f"requires {rules}"]
        if setting.kind == "bool":
            how = {"action": argparse.BooleanOptionalAction
                   if setting.negatable else "store_true"}
        else:
            how = {"type": _flag_type(setting), "metavar": setting.metavar}
        sub_parser.add_argument(
            setting.flag, dest=setting.name, default=None,
            help=f"{setting.doc} ({'; '.join(filter(None, extras))})", **how)


def _apply_knob_flags(args, parser, command: str) -> None:
    """Check the given knob flags' ``requires`` rules, then write each
    to ``os.environ`` -- the transport to harnesses, forked workers and
    the daemon.  A rule the environment already satisfies holds."""
    given = {s.name: getattr(args, s.name) for s in settings.flagged(command)
             if getattr(args, s.name) is not None}
    unmet: dict[tuple, list[str]] = {}
    for name in given:
        for other, want in settings.get(name).requires:
            try:
                have = (given[other] if other in given
                        else settings.read(other))
            except settings.ConfigError as exc:
                parser.error(str(exc))
            if (have is None) if want is None else (have != want):
                unmet.setdefault((other, want), []).append(
                    settings.get(name).flag)
    for (other, want), flags in unmet.items():
        verb = "requires" if len(flags) == 1 else "require"
        parser.error(f"{', '.join(flags)} {verb} "
                     f"{settings.get(other).flag_for(want)}")
    for name, value in given.items():
        if isinstance(value, bool):
            value = int(value)
        os.environ[name] = str(value)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
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
    _add_knob_flags(tune_p, "tune")
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
    _add_knob_flags(serve_p, "serve")
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
    _add_knob_flags(run_p, "run")
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

    if args.command in ("run", "serve", "tune"):
        _apply_knob_flags(args, parser, args.command)

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
