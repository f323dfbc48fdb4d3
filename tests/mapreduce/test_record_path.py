"""Guard on the ``record_path`` fixture the columnar A/B suites run under.

Every A/B leg that compares the column forms with the record path
(``test_columnar_equivalence.py``, ``test_engine.py``,
``test_memory_runtime.py``) is only an A/B while the fixture really
reaches the record path.  On a clean plain job and a clean aggregate
job -- data the engine runs columnar end to end -- the fixture must make
records flow through the map-side buffer, the spill sort and the
segment decode, and the job must still produce what the columnar run
does.  Without the fixture the same calls are never made.
"""

import pytest

import repro.mapreduce.engine as engine
from repro.mapreduce import LocalJobRunner
from repro.mapreduce.columnar import PartitionBuffer
from repro.mapreduce.ifile import IFileReader
from repro.queries import SlidingMedianQuery
from repro.scidata import integer_grid
from tests.mapreduce.record_path import record_path

#: the record-path calls, by the object and attribute that hold them
RECORD_CALLS = {
    "PartitionBuffer.append": (PartitionBuffer, "append"),
    "engine.sort_records": (engine, "sort_records"),
    "IFileReader.read_all": (IFileReader, "read_all"),
}


def run_counted(patch, mode):
    """One sliding-median job (6^3, 2 maps x 2 reducers, several spills
    per map) with every record-path call counted."""
    calls = dict.fromkeys(RECORD_CALLS, 0)
    for name, (owner, attr) in RECORD_CALLS.items():
        def counted(*args, _real=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        patch.setattr(owner, attr, counted)
    dataset = integer_grid((6, 6, 6), seed=3, low=0, high=900)
    job = SlidingMedianQuery(dataset, "values", window=3).build_job(
        mode, num_map_tasks=2, num_reducers=2, sort_buffer_bytes=4096)
    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    return calls, result


@pytest.mark.parametrize("mode", ["plain", "aggregate"])
def test_record_path_reaches_every_record_call(mode):
    with pytest.MonkeyPatch.context() as patch:
        columnar_calls, columnar = run_counted(patch, mode)
    with pytest.MonkeyPatch.context() as patch:
        record_path(patch)
        record_calls, records = run_counted(patch, mode)
    assert columnar_calls == dict.fromkeys(RECORD_CALLS, 0)
    assert all(count > 0 for count in record_calls.values()), record_calls
    assert records.counters.as_dict() == columnar.counters.as_dict()
    assert records.output == columnar.output
    assert records.counters["SPILL_COUNT"] > 2
