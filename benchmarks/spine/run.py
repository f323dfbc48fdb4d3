"""The bench spine: whole-job wall-clock and shuffle bytes on six workloads.

    python3 benchmarks/spine/run.py                      # all six, + traced runs
    python3 benchmarks/spine/run.py --smoke              # side/2, 1 rep, < 60 s
    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/spine/run.py compare A.json B.json

This process only orchestrates.  Each workload is set up and measured in
child processes of its own (``_child``), so imports, allocator state and
peak memory are per workload, and set-up time is sampled from cold
processes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_T0 = time.perf_counter()  # a child's set-up clock starts before its imports

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SCHEMA = "spine/1"
DEFAULT_SEED = 20120624
#: cold-process set-up samples behind one ``setup_s`` (median reported)
SETUP_SAMPLES = 3
#: a run keeps timing whole jobs until ``--seconds`` is used up, but never
#: reports a median of fewer reps than this
MIN_REPS = 5
#: one driver-shaped run (all its children together) must end within 180 s
RUN_TIMEOUT_S = 170.0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a constant sample (one rep, or an exact count
    repeated per rep) is its own quartiles, type and all."""
    if min(values) == max(values):
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# ------------------------------------------------------------------- child


def child_main(argv: list[str]) -> int:
    """Set up one workload in this process and measure it.

    ``--phase setup`` stops after set-up (a cold-process ``setup_s``
    sample); ``measure`` adds the timed reps; ``trace`` times fewer reps
    and spends the rest of the budget on the traced run.
    """
    parser = argparse.ArgumentParser(prog="run.py _child")
    parser.add_argument("--phase", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-",
                           dir=os.path.join(OUT, "tmp"))
    tempfile.tempdir = tmp  # every workdir the runners create lands here
    try:
        report = _child_run(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _child_run(args) -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    w = workloads.build(workloads.SPECS[args.workload], args.seed, args.smoke)
    with w.make_runner() as runner:
        start = time.perf_counter()
        warm = runner.run(w.job, w.dataset)
        warmup_s = time.perf_counter() - start
        if not w.check(warm.output):
            raise SystemExit(f"{w.spec.name}: warm-up output != reference")
        report = {"setup_s": time.perf_counter() - _T0, "warmup_s": warmup_s}
        if args.phase == "setup":
            return report

        budget = args.seconds if args.phase == "measure" else args.seconds / 2
        min_reps = 1 if args.smoke else MIN_REPS
        exact = w.exact_counts(warm)
        walls: list[float] = []
        attempted = failed = 0
        deadline = time.perf_counter() + budget
        while attempted < min_reps or (not args.smoke
                                       and time.perf_counter() < deadline):
            attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                result = runner.run(w.job, w.dataset)
            except Exception:  # a failed rep is counted, not fatal
                traceback.print_exc()
                failed += 1
                continue
            wall = time.perf_counter() - start
            if w.check(result.output) and w.exact_counts(result) == exact:
                walls.append(wall)
            else:
                print(f"{w.spec.name}: rep {attempted} output or byte "
                      f"counts differ from the reference", file=sys.stderr)
                failed += 1
        report.update(exact, walls=walls, attempted=attempted, failed=failed,
                      cells=w.cells)

        if args.phase == "trace" and walls:
            # The traced run calls deeper into the program than the timed
            # reps do.  If a layer's signature moves under it, say so and
            # report no layer numbers (``trace.replay_faithful`` = 0): the
            # end-to-end verdict of this run does not depend on it.
            try:
                import tracing
                if w.spec.parallel:
                    report["layers"] = tracing.trace_parallel(w, runner)
                else:
                    report["layers"] = tracing.trace_serial(
                        w, tempfile.mkdtemp(prefix="replay-"),
                        statistics.median(walls),
                        os.path.join(OUT, f"trace-{w.spec.name}.json"))
            except Exception:
                traceback.print_exc()
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mb"] = usage / 1024.0  # Linux reports KiB
    return report


# ------------------------------------------------------------ orchestrator


def spawn_child(phase: str, name: str, seed: int, seconds: float,
                smoke: bool, deadline: float) -> dict:
    """Run one ``_child`` to completion; its last stdout line is its report.

    The child leads its own process group so that when ``deadline`` (on
    the monotonic clock) passes, the pool workers it forked die with it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "_child",
           "--phase", phase, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} child for {name} exited "
                           f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, contract: dict) -> dict:
    """One driver-shaped run: end-to-end metrics, or per-layer if ``trace``."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        report = spawn_child("trace", name, seed, seconds, smoke, deadline)
        measured = dict(report.get("layers", {}))
        measured["bench.warmup_s"] = report["warmup_s"]
        measured["bench.rep_spread"] = spread(report["walls"])
        measured["bench.failed_share"] = report["failed"] / report["attempted"]
        # a layer the workload never enters reports 0
        layers = {m["name"]: measured.get(m["name"], 0.0)
                  for m in contract["per_layer"]}
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in contract["per_layer"]}
        return {"metrics": metrics, "correct": report["failed"] == 0,
                "attempted": report["attempted"], "failed": report["failed"],
                "layers": layers}

    setups = [spawn_child("setup", name, seed, seconds, smoke,
                          deadline)["setup_s"]
              for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
    report = spawn_child("measure", name, seed, seconds, smoke, deadline)
    setups.append(report["setup_s"])
    walls = report["walls"]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    end_to_end = {}
    if walls:
        end_to_end = {
            "job_wall_s": summarize(walls, units["job_wall_s"]),
            "cells_per_s": summarize([report["cells"] / wall for wall in walls],
                                     units["cells_per_s"]),
            "shuffle_bytes": summarize([report["shuffle_bytes"]] * len(walls),
                                       units["shuffle_bytes"]),
            "wire_bytes": summarize([report["wire_bytes"]] * len(walls),
                                    units["wire_bytes"]),
            "peak_rss_mb": summarize([report["peak_rss_mb"]],
                                     units["peak_rss_mb"]),
            "setup_s": summarize(setups, units["setup_s"]),
        }
    metrics = {name_: {"value": row["median"], "unit": row["unit"]}
               for name_, row in end_to_end.items()}
    return {"metrics": metrics, "correct": report["failed"] == 0 and bool(walls),
            "attempted": report["attempted"], "failed": report["failed"],
            "end_to_end": end_to_end}


def print_metrics(name: str, metrics: dict) -> None:
    for metric, row in metrics.items():
        print(f"{name:<24} {metric:<34} {row['value']:>16.6g} {row['unit']}")


def git_commit() -> str:
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def run_all(seed: int, seconds: float, smoke: bool, contract: dict) -> int:
    """Every workload, end to end and traced; writes one result file."""
    import numpy
    result = {
        "schema": SCHEMA, "commit": git_commit(), "seed": seed,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "nproc": os.cpu_count(),
                "platform": platform.platform()},
        "workloads": {},
    }
    attempted = failed = 0
    correct = True
    for spec in contract["workloads"]:
        name = spec["name"]
        timed = run_workload(name, seed, seconds, False, smoke, contract)
        traced = run_workload(name, seed, seconds, True, smoke, contract)
        print_metrics(name, timed["metrics"])
        print_metrics(name, traced["metrics"])
        share = (timed["failed"] + traced["failed"]) / (
            timed["attempted"] + traced["attempted"])
        print(f"{name:<24} {'failed_share':<34} {share:>16.6g} ratio")
        rows = {k: v for k, v in traced["layers"].items()
                if k.startswith("waterfall.")}
        if any(rows.values()):
            top = max(rows, key=rows.get)
            print(f"{name:<24} dominant layer: "
                  f"{top.removeprefix('waterfall.').removesuffix('_share')} "
                  f"({rows[top]:.0%} of the layer walk)")
        result["workloads"][name] = {
            "end_to_end": dict(timed["end_to_end"], failed_share=summarize(
                [share], "ratio")),
            "layers": traced["layers"],
        }
        attempted += timed["attempted"] + traced["attempted"]
        failed += timed["failed"] + traced["failed"]
        correct &= timed["correct"] and traced["correct"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{result['commit'][:12]}-seed{seed}"
             f"{'-smoke' if smoke else ''}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if correct else 1


# ----------------------------------------------------------------- compare


def compare_main(argv: list[str]) -> int:
    """Apply each end-to-end metric's bound to two result files.

    A pair whose run-to-run spread is wider than the bound is reported
    "unresolved", never "ok": the data cannot tell a change that size
    from noise.
    """
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    contract = load_contract()
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    print(f"before: {before['commit'][:12]} seed {before['seed']}   "
          f"after: {after['commit'][:12]} seed {after['seed']}")
    print(f"{'workload':<24} {'metric':<14} {'before q1/med/q3':<34} "
          f"{'after q1/med/q3':<34} {'worse by':>9} {'bound':>6}  verdict")
    worse_count = 0
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            continue
        for metric in contract["end_to_end"]:
            a = old["end_to_end"][metric["name"]]
            b = new["end_to_end"][metric["name"]]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            noise = max((a["q3"] - a["q1"]) / a["median"],
                        (b["q3"] - b["q1"]) / b["median"])
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "WORSE"
                worse_count += 1
            else:
                verdict = "ok"
            cells = ["/".join(f"{row[k]:.6g}" for k in ("q1", "median", "q3"))
                     for row in (a, b)]
            print(f"{name:<24} {metric['name']:<14} {cells[0]:<34} "
                  f"{cells[1]:<34} {worse:>+9.2%} {metric['bound']:>6.0%}  "
                  f"{verdict}")
        if before["seed"] == after["seed"]:
            # same inputs: the program's own counts must repeat bit for bit
            pairs = [(old["end_to_end"][m]["median"],
                      new["end_to_end"][m]["median"])
                     for m in ("shuffle_bytes", "wire_bytes")]
            pairs += [(old["layers"][m], new["layers"][m])
                      for m in ("engine.map_records", "aggregation.keys_out")]
            same = all(x == y for x, y in pairs)
            print(f"{name:<24} exact counts "
                  f"{'identical' if same else 'DIFFER: ' + repr(pairs)}")
            worse_count += not same
    return 1 if worse_count else 0


# -------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # never fall back to some installed copy: the checkout is measured
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              f"is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds integer_grid and nothing else")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="side/2, one rep, one set-up sample")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.smoke, contract)
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke, contract)
    print_metrics(args.workload, run["metrics"])
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
