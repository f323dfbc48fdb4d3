"""The record path, forced: the reference leg of every columnar A/B.

The engine takes a column form wherever the data allows one and the
record path wherever it does not (keys of several widths, chunked
segments, masked blocks, mappers that call ``ctx.emit``, the skipping
hooks).  Two seams decide it for plain data: the batch sinks
``run_map_task`` hands its :class:`~repro.mapreduce.api.MapContext`,
and :meth:`~repro.mapreduce.ifile.IFileReader.read_columnar` behind
every segment decode.  :func:`record_path` closes both, so a job run
under it takes the code production runs on irregular data -- not a copy
of it -- end to end.  ``test_record_path.py`` pins that it does.
"""

import repro.mapreduce.engine as engine
from repro.mapreduce.api import MapContext
from repro.mapreduce.ifile import IFileReader

__all__ = ["record_path"]


def _sink_only_context(key_serde, value_serde, sink, counters, **_batch_sinks):
    return MapContext(key_serde, value_serde, sink, counters)


def record_path(patch):
    """Force the record path on both sides while ``patch`` (a
    :class:`pytest.MonkeyPatch`) holds: every map task's context is
    sink-only, so batched emits decay to one ``sink`` call per record
    and every spill sorts records, and no segment decodes columnar, so
    every read is ``read_all``.  Forked workers inherit the patch."""
    patch.setattr(engine, "MapContext", _sink_only_context)
    patch.setattr(IFileReader, "read_columnar",
                  lambda self, key_width, value_width=None: None)
