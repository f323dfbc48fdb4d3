"""The chaos-matrix harness every robustness table runs on.

Pinned here:

* :func:`classify` over synthetic outcomes (no job runs): one case per
  way a row can read DRIFT, and one per label a success can read;
* a two-scenario table (clean, plus a sticky ``drop`` that forces map
  re-execution over the direct transport) through both runners at a
  tiny grid, with the quarantine directories kept under a caller's
  ``REPRO_QUARANTINE_DIR`` and the variable restored afterwards.
"""

import os
from types import SimpleNamespace

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.matrix import (
    Matrix,
    Outcome,
    Scenario,
    build_query_job,
    classify,
)
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime import FaultInjector, ShuffleConfig
from repro.scidata import integer_grid

VOLATILE = frozenset({C.SHUFFLE_RETRIES, C.MAPS_REEXECUTED, C.HOSTS_LOST,
                      C.MEMORY_OOM_EVENTS})
PROMOTE = ((C.MAPS_REEXECUTED, "reexecuted"), (C.HOSTS_LOST, "recovered"),
           (C.MEMORY_OOM_EVENTS, "degraded"))


def ok(output=(1, 2, 3), quarantine=None, **counters):
    """A successful synthetic outcome with the given counters."""
    values = Counters()
    values.incr(C.REDUCE_OUTPUT_RECORDS, len(output))
    for name, amount in counters.items():
        values.incr(name, amount)
    return Outcome(SimpleNamespace(output=list(output), counters=values),
                   None, quarantine or {})


def failed(quarantine=None):
    return Outcome(None, RuntimeError("boom"), quarantine or {})


BASE = ok().result

#: (case, serial, parallel, baseline, classify keywords, expected label)
CASES = [
    # -- every way a row reads DRIFT ---------------------------------
    ("one side fails", ok(), failed(), BASE, {}, "DRIFT"),
    ("quarantine bytes differ", ok(quarantine={"q": b"a"}),
     ok(quarantine={"q": b"b"}), BASE, {}, "DRIFT"),
    ("outputs differ", ok(), ok(output=(1, 2, 4)), BASE, {}, "DRIFT"),
    ("counters differ in full", ok(SPILL_COUNT=1), ok(), BASE,
     {"strict": True}, "DRIFT"),
    ("volatile-only difference, strict", ok(SHUFFLE_RETRIES=1), ok(), BASE,
     {"strict": True}, "DRIFT"),
    ("volatile-only difference, not strict", ok(SHUFFLE_RETRIES=1), ok(),
     BASE, {"strict": False}, "identical"),
    ("stable counters differ, not strict", ok(SPILL_COUNT=1), ok(), BASE,
     {"strict": False}, "DRIFT"),
    ("baseline output differs", ok(output=(9,)), ok(output=(9,)), BASE, {},
     "DRIFT"),
    ("stable counters vs baseline differ", ok(SPILL_COUNT=2),
     ok(SPILL_COUNT=2), BASE, {}, "DRIFT"),
    ("lone strict side vs baseline's full counters", None,
     ok(SHUFFLE_RETRIES=1), BASE, {"strict": True}, "DRIFT"),
    ("expect mismatch", ok(), ok(), BASE, {"expect": "reexecuted"}, "DRIFT"),
    ("check fails", ok(), ok(), BASE, {"check": lambda s, p: False},
     "DRIFT"),
    # -- every label a row can read ----------------------------------
    ("clean", ok(), ok(), BASE, {}, "identical"),
    ("both fail", failed(), failed(), BASE, {"expect": "failed"}, "failed"),
    ("promoted: reexecuted", ok(MAPS_REEXECUTED=1), ok(MAPS_REEXECUTED=1),
     BASE, {}, "reexecuted"),
    ("promoted: recovered", ok(HOSTS_LOST=1), ok(HOSTS_LOST=1), BASE, {},
     "recovered"),
    ("promoted: degraded skips the stable baseline check",
     ok(MEMORY_OOM_EVENTS=1, SPILL_COUNT=2),
     ok(MEMORY_OOM_EVENTS=1, SPILL_COUNT=2), BASE, {}, "degraded"),
    ("lone non-strict side", ok(MAPS_REEXECUTED=1), None, BASE,
     {"strict": False}, "reexecuted"),
    ("own label, no baseline", ok(output=(1,)), ok(output=(1,)), None,
     {"label": "salvaged", "expect": "salvaged"}, "salvaged"),
]


@pytest.mark.parametrize("case,serial,parallel,baseline,kw,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_classify(case, serial, parallel, baseline, kw, expected):
    assert classify(serial, parallel, baseline, volatile=VOLATILE,
                    promote=PROMOTE, **kw) == expected


def test_two_scenario_table_through_both_runners(monkeypatch, tmp_path):
    keep = tmp_path / "quarantine"
    monkeypatch.setenv("REPRO_QUARANTINE_DIR", str(keep))
    grid = integer_grid((8, 8), seed=11, low=0, high=100)
    shuffle = ShuffleConfig(fetch_retries=1, backoff=0.0)
    m = Matrix(
        ExperimentResult("T", "tiny", ["scenario", "query", "fault",
                                       "reexecs", "outcome"]),
        grid,
        lambda query, qdir, **fields: build_query_job(grid, query, 8, 2, 2,
                                                      **fields),
        lambda sc, runs: {"reexecs": runs[0].counter(C.MAPS_REEXECUTED)},
        volatile={C.SHUFFLE_FETCHES, C.SHUFFLE_RETRIES,
                  C.SHUFFLE_FAILED_FETCHES, C.SHUFFLE_BYTES_TRANSFERRED,
                  C.MAPS_REEXECUTED},
        promote=[(C.MAPS_REEXECUTED, "reexecuted")],
        runner={"fetch_failure_threshold": 1})
    assert m.add(Scenario("clean", "histogram", shuffle=shuffle)) \
        == "identical"
    assert m.add(Scenario(
        "reexec", "histogram", "sticky drop m00000->r00000 (epoch 0)",
        lambda: FaultInjector().fetch("m00000", "r00000", op="drop",
                                      sticky=True, epoch=0),
        shuffle, expect="reexecuted")) == "reexecuted"
    table = m.finish()
    assert table.row_by("scenario", "reexec")["reexecs"] == 1
    assert "0 DRIFT rows" in table.notes[0]
    assert os.environ["REPRO_QUARANTINE_DIR"] == str(keep)
    assert sorted(p.name for p in (keep / "reexec-histogram").iterdir()) \
        == ["parallel", "serial"]
