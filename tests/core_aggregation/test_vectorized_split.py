"""The array form of §IV-B key splitting against the object form.

``AggregateShufflePlugin`` cuts a *plain* batch (equal key widths, dense
well-formed blocks) as array arithmetic and everything else through the
object code in ``splitter.py``.  The object code is the definition, so
every property here is "the same records, in the same order, with the
same counters" -- or, for malformed input, "the same exception type".

The law that makes cutting harmless is stated and checked at the end:
blocks over adjacent ranges are a monoid under ``concat_blocks``.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    AggregateShufflePlugin,
    AggregationConfig,
    Aggregator,
    BlockSerde,
    ValueBlock,
    split_at_boundaries,
)
from repro.core.aggregation.reaggregate import concat_blocks
from repro.mapreduce.api import MapContext
from repro.mapreduce.columnar import column_records, records_column
from repro.mapreduce.keys import RangeKey
from repro.mapreduce.metrics import C, Counters

CURVE = dict(curve="zorder", ndim=2, bits=6)  # 4096 indices
CURVE_SIZE = 4096


class ObjectPathPlugin(AggregateShufflePlugin):
    """The oracle: no batch is ever plain, so the object code runs."""

    def _plain_batch(self, keys, values):
        return None


def plugins(variable_mode, dtype, **kwargs):
    config = AggregationConfig(variable_mode=variable_mode, dtype=dtype,
                               **CURVE)
    return (AggregateShufflePlugin(config, **kwargs),
            ObjectPathPlugin(config, **kwargs))


# index ids 9 and 10: "10" < "9" as strings, 9 < 10 as bytes
VARIABLE_SETS = {
    "index": [[0], [9, 10], [10, 2, 9]],
    "name": [["u"], ["ab", "aa"], ["zz", "b_", "ba"],
             # unequal widths: never plain, still identical
             ["u", "temperature"]],
}


@st.composite
def range_records(draw, max_records=14):
    """Serialized (range key, dense block) records of 1-3 variables, in
    drawn (unsorted) order; counts reach past 127 so the block header's
    vint is one, two or three bytes."""
    mode = draw(st.sampled_from(sorted(VARIABLE_SETS)))
    variables = draw(st.sampled_from(VARIABLE_SETS[mode]))
    dtype = draw(st.sampled_from(["int32", "float64"]))
    # few distinct endpoints, so ranges overlap, nest and coincide
    grid = draw(st.sampled_from([1, 7, 64]))
    n = draw(st.integers(1, max_records))
    spans = []
    for _ in range(n):
        start = draw(st.integers(0, (CURVE_SIZE - 1) // grid)) * grid
        count = draw(st.integers(1, max(1, min(400, CURVE_SIZE - start) // grid)))
        count = min(count * grid, CURVE_SIZE - start)
        spans.append((draw(st.sampled_from(variables)), start, count))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    config = AggregationConfig(variable_mode=mode, dtype=dtype, **CURVE)
    key_serde, block_serde = config.key_serde(), config.block_serde()
    records = []
    for variable, start, count in spans:
        values = rng.integers(-1000, 1000, count).astype(dtype)
        records.append((key_serde.to_bytes(RangeKey(variable, start, count)),
                        block_serde.to_bytes(ValueBlock(count, values))))
    widths = {len(kb) for kb, _ in records}
    return mode, dtype, records, len(widths) == 1


def trajectory(plugin):
    return (plugin.routing_splits, plugin.reduce_records_in,
            plugin.reduce_records_split, plugin.reduce_records_out)


def is_plain(plugin, records):
    """Whether the plugin would cut these records as arrays (keys of two
    widths are no key matrix at all)."""
    columns = records_column(records)
    return columns is not None and plugin._plain_batch(*columns) is not None


def route_batch(plugin, records, reducers):
    """``route_batch`` of the records' columns, as ``route``'s triples."""
    routed = plugin.route_batch(*records_column(records), reducers)
    if routed is None:
        return None
    parts, keys, values, ends = routed
    return ([(part, kb, vb) for part, (kb, vb)
             in zip(parts.tolist(), column_records(keys, values))], ends)


@settings(max_examples=80, deadline=None)
@given(range_records())
def test_prepare_reduce_equals_object_path(case):
    mode, dtype, records, equal_widths = case
    fast, oracle = plugins(mode, dtype)
    assert is_plain(fast, records) == equal_widths
    assert fast.prepare_reduce(records) == oracle.prepare_reduce(records)
    assert trajectory(fast) == trajectory(oracle)


@settings(max_examples=80, deadline=None)
@given(range_records(), st.integers(1, 6))
def test_route_batch_equals_per_record_route(case, reducers):
    mode, dtype, records, equal_widths = case
    fast, oracle = plugins(mode, dtype)
    expected = [oracle.route(kb, vb, reducers) for kb, vb in records]
    if not equal_widths:
        # keys of two widths are no key matrix: the engine never offers
        # them as a batch, and they route record by record
        assert records_column(records) is None
        return
    columns = records_column(records)
    parts, keys, values, ends = fast.route_batch(*columns, reducers)
    pieces = [(part, kb, vb) for part, (kb, vb)
              in zip(parts.tolist(), column_records(keys, values))]
    assert pieces == [piece for per_record in expected for piece in per_record]
    assert ends.tolist() == np.cumsum([len(p) for p in expected]).tolist()
    assert fast.routing_splits == oracle.routing_splits
    if fast.routing_splits == 0:
        # nothing straddles: the batch passes through as the same arrays
        assert keys is columns[0] and values is columns[1]


def test_route_batch_cuts_a_long_range_across_every_reducer():
    fast, oracle = plugins("index", "int32")
    config = fast.config
    key = config.key_serde().to_bytes(RangeKey(3, 5, 4000))
    value = config.block_serde().to_bytes(
        ValueBlock(4000, np.arange(4000, dtype="int32")))
    pieces, ends = route_batch(fast, [(key, value)], 5)
    assert pieces == oracle.route(key, value, 5)
    assert [part for part, _, _ in pieces] == [0, 1, 2, 3, 4]
    assert ends.tolist() == [5] and fast.routing_splits == 4


# ------------------------------------------------------------- fallbacks


def _record(config, variable, start, count, block=None):
    block = block or ValueBlock(count, np.arange(count, dtype=config.dtype))
    return (config.key_serde().to_bytes(RangeKey(variable, start, count)),
            config.block_serde().to_bytes(block))


def test_masked_block_sends_the_whole_run_through_the_object_path():
    fast, oracle = plugins("index", "int32")
    config = fast.config
    masked = ValueBlock(8, np.arange(5, dtype="int32"),
                        np.array([1, 1, 0, 1, 0, 1, 1, 0], bool))
    records = [_record(config, 0, 0, 12), _record(config, 0, 4, 8, masked),
               _record(config, 0, 6, 20)]
    assert not is_plain(fast, records)
    assert route_batch(fast, records, 3) is None
    assert fast.prepare_reduce(records) == oracle.prepare_reduce(records)
    assert trajectory(fast) == trajectory(oracle)


@pytest.mark.parametrize("kwargs, overrides", [
    (dict(reaggregate=True), {}),
    ({}, dict(alignment=4)),
])
def test_reaggregate_and_alignment_never_take_the_array_path(kwargs, overrides):
    config = AggregationConfig(variable_mode="index", dtype="int32",
                               **CURVE, **overrides)
    fast = AggregateShufflePlugin(config, **kwargs)
    oracle = ObjectPathPlugin(config, **kwargs)
    records = [_record(config, 0, 0, 12), _record(config, 0, 4, 8),
               _record(config, 0, 12, 4), _record(config, 0, 16, 4)]
    assert not is_plain(fast, records)
    assert route_batch(fast, records, 3) is None
    assert fast.prepare_reduce(records) == oracle.prepare_reduce(records)
    assert trajectory(fast) == trajectory(oracle)


def _malformed_records():
    """One good record followed by one bad one, per way of being bad."""
    config = AggregationConfig(variable_mode="index", dtype="int32", **CURVE)
    good = _record(config, 0, 0, 200)
    kb, vb = _record(config, 0, 100, 200)
    short_key = config.key_serde().to_bytes(RangeKey(0, 100, 150))
    # RangeKey(count=0) cannot be built: patch the count word of a real key
    zero_count = kb[:-4] + (1 << 31).to_bytes(4, "big")
    negative_start = kb[:4] + (0).to_bytes(8, "big") + kb[-4:]
    return config, good, {
        "truncated-blob": (kb, vb[:-3]),
        "trailing-bytes": (kb, vb + b"\0"),
        "unknown-flag": (kb, b"\x07" + vb[1:]),
        "count-mismatch": (short_key, vb),
        "count-zero": (zero_count, b"\x00\x00"),
        "negative-start": (negative_start, vb),
        "off-the-curve": _record(config, 0, CURVE_SIZE - 10, 200),
        "empty-value": (kb, b""),
    }


@pytest.mark.parametrize("name", sorted(_malformed_records()[2]))
def test_malformed_record_raises_what_the_object_path_raises(name):
    config, good, bad = _malformed_records()
    records = [good, bad[name]]
    fast = AggregateShufflePlugin(config)
    oracle = ObjectPathPlugin(config)
    assert not is_plain(fast, records)

    def outcome(call):
        try:
            return call()
        except Exception as exc:  # the type is the contract
            return type(exc)

    reduce_outcome = outcome(lambda: oracle.prepare_reduce(records))
    assert outcome(lambda: fast.prepare_reduce(records)) == reduce_outcome
    if name != "off-the-curve":  # the reducer never consults the curve
        assert isinstance(reduce_outcome, type)
    # map side: the batch is declined untouched, and the per-record route
    # the engine falls back to is the object path itself
    assert route_batch(fast, records, 3) is None
    assert fast.routing_splits == 0
    route_outcome = outcome(lambda: [oracle.route(kb, vb, 3)
                                     for kb, vb in records])
    assert isinstance(route_outcome, type)
    assert outcome(lambda: [fast.route(kb, vb, 3)
                            for kb, vb in records]) == route_outcome


# ------------------------------------------------------ the serde's batch


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["int32", "float64"]),
       st.lists(st.tuples(st.integers(1, 200), st.booleans()),
                min_size=0, max_size=6),
       st.integers(0, 2**16))
def test_block_read_batch_equals_blob_by_blob(dtype, shapes, seed):
    """Equal-length dense groups (the fast case), groups of mixed counts
    and groups with a masked block all decode to equal blocks."""
    serde = BlockSerde(dtype)
    rng = np.random.default_rng(seed)
    same = rng.integers(0, 2)
    blobs = []
    for count, masked in shapes:
        if same:
            count, masked = shapes[0][0], False
        mask = None
        if masked and count > 1:
            mask = np.ones(count, bool)
            mask[rng.integers(0, count)] = False
        valid = count if mask is None else int(mask.sum())
        values = rng.integers(-99, 99, valid).astype(dtype)
        blobs.append(serde.to_bytes(ValueBlock(count, values, mask)))
    assert serde.read_batch(blobs) == [serde.from_bytes(b) for b in blobs]


def test_block_read_batch_rejects_what_from_bytes_rejects():
    serde = BlockSerde("int32")
    good = serde.to_bytes(ValueBlock(3, np.arange(3, dtype="int32")))
    for bad in (good[:-1], good + b"\0", b"\x09" + good[1:]):
        for blobs in ([good, bad], [bad, good]):
            with pytest.raises(ValueError):
                serde.read_batch(blobs)


# --------------------------------------------------- the aggregator's batch


class _Capture:
    def __init__(self):
        self.records, self.batches = [], 0

    def sink(self, kb, vb):
        self.records.append((kb, vb))

    def batch_sink(self, keys, values):
        self.batches += 1
        self.records.extend(column_records(keys, values))


@pytest.mark.parametrize("alignment", [1, 4])
def test_aggregator_flush_is_one_batch_of_the_same_records(alignment):
    config = AggregationConfig(variable_mode="index", dtype="int32",
                               alignment=alignment, buffer_cells=700,
                               **CURVE)
    rng = np.random.default_rng(11)
    coords = rng.integers(0, 64, (2000, 2))
    values = rng.integers(0, 1000, 2000).astype("int32")
    captured = {}
    for batched in (False, True):
        cap, counters = _Capture(), Counters()
        ctx = MapContext(
            config.key_serde(), config.block_serde(), cap.sink, counters,
            serialized_batch_sink=cap.batch_sink if batched else None)
        agg = Aggregator(config, 7, ctx)
        for lo in range(0, 2000, 400):  # flushes at 800, at 1600, at close
            agg.add(coords[lo:lo + 400], values[lo:lo + 400])
        agg.close()
        assert counters[C.MAP_OUTPUT_RECORDS] == len(cap.records)
        assert agg.emitted_ranges == len(cap.records)
        assert agg.emitted_cells == 2000
        captured[batched] = cap
    assert captured[True].records == captured[False].records
    # padding (masked blocks) stays on the per-record path
    assert captured[True].batches == (0 if alignment > 1 else 3)


# --------------------------------------------------------- the monoid law


@st.composite
def blocks(draw, max_count=12):
    count = draw(st.integers(1, max_count))
    mask = np.array(draw(st.lists(st.booleans(), min_size=count,
                                  max_size=count)))
    values = np.array(draw(st.lists(st.integers(-50, 50),
                                    min_size=int(mask.sum()),
                                    max_size=int(mask.sum()))), dtype=np.int64)
    return ValueBlock(count, values, mask)


@settings(max_examples=80, deadline=None)
@given(blocks(), blocks(), blocks())
def test_concat_blocks_is_associative(a, b, c):
    """Masked and dense alike: how adjacent pieces are re-fused never
    depends on the order of fusing."""
    assert (concat_blocks(concat_blocks(a, b), c)
            == concat_blocks(a, concat_blocks(b, c)))


@settings(max_examples=80, deadline=None)
@given(blocks(max_count=40), st.sets(st.integers(-5, 60)), st.integers(0, 100))
def test_cutting_then_concatenating_is_the_identity(block, cuts, start):
    """Split at *any* cut set, concatenate the pieces in order: the block
    comes back, and the pieces tile the range with no gap or overlap."""
    key = RangeKey("v", start, block.count)
    pieces = split_at_boundaries(key, block, [start + c for c in cuts])
    assert reduce(concat_blocks, (b for _, b in pieces)) == block
    assert pieces[0][0].start == key.start and pieces[-1][0].end == key.end
    for (left, _), (right, _) in zip(pieces, pieces[1:]):
        assert left.end == right.start
