"""Smoke test for the bench spine: ``run.py --smoke`` end to end.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/spine/test_spine_smoke.py``.
"""

import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_prints_every_metric_and_writes_a_well_formed_trace():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    for stale in glob.glob(os.path.join(HERE, "out", "trace-*.json")):
        os.unlink(stale)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

    printed: dict[tuple[str, str], tuple[float, str]] = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and re.fullmatch(r"[A-Za-z0-9_.-]+", fields[1]):
            printed[fields[0], fields[1]] = (float(fields[2]), fields[3])
    workloads = [w["name"] for w in contract["workloads"]]
    for workload in workloads:
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
            value, unit = printed[workload, metric["name"]]
            assert unit == metric["unit"], (workload, metric["name"])
        assert printed[workload, "failed_share"] == (0.0, "ratio")
        assert printed[workload, "trace.replay_faithful"][0] == 1.0

    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0

    traces = glob.glob(os.path.join(HERE, "out", "trace-*.json"))
    # every serial workload is replayed by hand; the parallel one is not
    assert len(traces) == len(workloads) - 1
    for path in traces:
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        ids = {event["args"]["id"] for event in events}
        assert events and all(
            event["args"]["parent"] is None or event["args"]["parent"] in ids
            for event in events)
