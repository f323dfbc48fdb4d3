"""``Reducer.reduce_batch`` is the per-group loop, bit for bit.

A reducer that defines ``reduce_batch`` is handed a whole columnar
merged run in one call (``engine._reduce_batch``).  That is admissible
only because nothing observable changes, so for every built-in reducer
that defines it these properties run the engine's reduce tail twice over
one random sorted run -- once as is, once behind a wrapper that defines
only ``reduce`` and therefore takes the per-group loop, the way
``PoisonedReducer`` does -- and require equal output keys, *bytewise*
equal output values (NaN payloads and the sign of zero included) and
equal counters.  The batch key decode is pinned to ``from_bytes`` the
same way, the declining cases (float folds, sums that would outgrow
int64) are stated as executable facts, and a mutation check proves the
comparison would catch the obvious "faster" median.
"""

import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.queries  # noqa: F401  (registers every built-in reducer)
from repro.core.aggregation import RangeGroupReducer
from repro.mapreduce import CellKeySerde, Job, Mapper, ReduceContext, Reducer
from repro.mapreduce.api import MAX, MIN, SUM, SUM_COUNT, FoldReducer
from repro.mapreduce.codecs import get_codec
from repro.mapreduce.engine import _merge_group_reduce
from repro.mapreduce.metrics import C, Counters, TaskProfile
from repro.mapreduce.serde import (
    Float32Serde,
    Float64Serde,
    Int32Serde,
    Int64Serde,
)
from repro.mapreduce.sort import argsort_key_matrix
from repro.queries.sliding_mean import CellMeanReducer
from repro.queries.sliding_median import PlainMedianReducer
from repro.queries.subset import IdentityReducer
from repro.util.errors import MalformedRecordError
from repro.util.timing import CostClock

NAN = float("nan")
#: a NaN with a payload and the sign bit set: ``==`` cannot tell it
#: from ``NAN``, the packed bytes can
ODD_NAN = struct.unpack(">d", bytes.fromhex("fff8000000000123"))[0]

FLOAT64_POOL = [NAN, ODD_NAN, 0.0, -0.0, float("inf"), float("-inf"),
                5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -2.25,
                1e308, 3.0, 3.0]
FLOAT32_POOL = [NAN, 0.0, -0.0, float("inf"), float("-inf"), 1e-45, -1e-45,
                1.5, -2.25, 3e38, 3.0, 3.0]
INT32_POOL = [-(1 << 31), (1 << 31) - 1, 0, -1, 1, 7, 900, 900]
INT64_POOL = [-(1 << 63), (1 << 63) - 1, 1 << 62, -(1 << 62), 0, -1, 1,
              12345, 12345]

#: value serde -> (numpy dtype the pool is packed from, pool)
COLUMNS = {
    "int32": (Int32Serde(), np.int64, INT32_POOL),
    "int64": (Int64Serde(), np.int64, INT64_POOL),
    "float32": (Float32Serde(), np.float32, FLOAT32_POOL),
    "float64": (Float64Serde(), np.float64, FLOAT64_POOL),
}

REDUCERS = {
    "median": PlainMedianReducer,
    "identity": IdentityReducer,
    "fold-min": lambda: FoldReducer(MIN),
    "fold-max": lambda: FoldReducer(MAX),
    "fold-sum": lambda: FoldReducer(SUM),   # also the histogram's reducer
}


class ReduceOnly(Reducer):
    """A wrapper that defines only ``reduce``: the engine cannot batch
    through it, so a run reduced behind it is the per-group oracle."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def reduce(self, key, values, ctx):
        self.calls += 1
        self.inner.reduce(key, values, ctx)


class Forwarding(ReduceOnly):
    """Forwards ``reduce_batch`` too; ``calls`` then counts the groups
    that still went through ``reduce`` (all of them after a decline)."""

    def reduce_batch(self, keys, values, bounds, ctx):
        return self.inner.reduce_batch(keys, values, bounds, ctx)


def reduce_run(reducer, key_serde, value_serde, kmat, vmat):
    """The engine's merge-group-reduce tail over one columnar run."""
    job = Job(name="reduce-batch", mapper=Mapper, reducer=lambda: reducer,
              key_serde=key_serde, value_serde=value_serde)
    with np.errstate(over="ignore", invalid="ignore"):
        return _merge_group_reduce(
            job, "r00000", [(kmat, vmat)], [kmat.nbytes + vmat.nbytes], "",
            get_codec("null"), Counters(), CostClock(),
            TaskProfile(task_id="r00000", kind="reduce"))


def pinned(output):
    """Output with every value reduced to what must not drift: its type
    and, for floats, its bytes (``nan != nan`` and ``-0.0 == 0.0``)."""
    return [(key, type(value).__name__,
             struct.pack(">d", value) if isinstance(value, float) else value)
            for key, value in output]


def assert_same_result(batch, oracle):
    assert pinned(batch.output) == pinned(oracle.output)
    assert batch.counters.as_dict() == oracle.counters.as_dict()


def both_ways(make_reducer, key_serde, value_serde, kmat, vmat):
    """``(batched result, per-group result, groups the batched leg still
    reduced one by one)``."""
    forwarding = Forwarding(make_reducer())
    batch = reduce_run(forwarding, key_serde, value_serde, kmat, vmat)
    oracle = reduce_run(ReduceOnly(make_reducer()), key_serde, value_serde,
                        kmat, vmat)
    return batch, oracle, forwarding.calls


# ------------------------------------------------------------- strategies

#: two variables of one serialized width per mode, so one run holds both
VARIABLES = {"name": ("temp", "wind"), "index": (0, 7)}


@st.composite
def key_matrices(draw):
    """``(serde, sorted distinct key rows)``: both variable modes, both
    coordinate widths, negative coordinates, non-zero slots, and (when
    the draw has it so) two variables in one matrix."""
    mode = draw(st.sampled_from(["name", "index"]))
    serde = CellKeySerde(ndim=draw(st.integers(1, 3)), variable_mode=mode,
                         coord_width=draw(st.sampled_from([4, 8])))
    cells = draw(st.sets(
        st.tuples(st.sampled_from(VARIABLES[mode]),
                  st.tuples(*[st.integers(-3, 3)] * serde.ndim),
                  st.integers(-2, 5)),
        min_size=1, max_size=10))
    blocks = []
    for variable in VARIABLES[mode]:
        mine = [(coords, slot) for var, coords, slot in cells
                if var == variable]
        if mine:
            blocks.append(serde.pack_batch_keys(
                variable, np.array([c for c, _ in mine]),
                np.array([s for _, s in mine]))[0])
    rows = np.concatenate(blocks)
    return serde, rows[argsort_key_matrix(rows)]


@st.composite
def runs(draw):
    """A key-sorted columnar run: groups of 1-40 records over a value
    column drawn from the hostile pool of one fixed-width serde."""
    key_serde, leaders = draw(key_matrices())
    sizes = draw(st.lists(st.integers(1, 40), min_size=len(leaders),
                          max_size=len(leaders)))
    value_serde, dtype, pool = COLUMNS[draw(st.sampled_from(sorted(COLUMNS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = rng.integers(0, len(pool), sum(sizes))
    column = np.array([pool[i] for i in picks], dtype=dtype)
    vmat = np.frombuffer(value_serde.pack_batch(column), dtype=np.uint8)
    return (key_serde, value_serde, np.repeat(leaders, sizes, axis=0),
            vmat.reshape(len(column), value_serde.SIZE), sizes)


# ------------------------------------------------------------- properties


def test_the_suite_covers_every_batched_reducer():
    """A reducer that gains ``reduce_batch`` must join ``REDUCERS``; the
    ones that do not batch say so here: the plain mean's fold reducer
    (its ``finish`` makes it decline, and its float64 (sum, count)
    carrier has no array decode anyway), the
    per-cell mean of an aggregate job (it loops), and the aggregate
    wrapper, which takes range groups (one ``reduce`` call, or a run's
    ``reduce_pieces``) and hands their cells to the ``reduce_batch`` of
    the plain reducer it wraps -- so aggregate jobs batch through this
    registry too."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    batched = {cls for cls in subclasses(Reducer)
               if cls.__module__.startswith("repro.")
               and hasattr(cls, "reduce_batch")}
    assert batched == {type(make()) for make in REDUCERS.values()}
    assert not hasattr(Reducer, "reduce_batch")
    ctx = ReduceContext(Counters())
    for monoid in (SUM, SUM_COUNT):
        finishing = FoldReducer(monoid, finish=float)
        assert finishing.reduce_batch([0], np.arange(3), np.array([0, 3]),
                                      ctx) is NotImplemented
    assert len(ctx.output) == 0
    assert not hasattr(CellMeanReducer, "reduce_batch")
    assert not hasattr(RangeGroupReducer, "reduce_batch")


@pytest.mark.parametrize("name", sorted(REDUCERS))
@settings(max_examples=80, deadline=None)
@given(run=runs())
def test_reduce_batch_equals_the_per_group_loop(name, run):
    key_serde, value_serde, kmat, vmat, sizes = run
    batch, oracle, looped = both_ways(REDUCERS[name], key_serde, value_serde,
                                      kmat, vmat)
    assert_same_result(batch, oracle)
    assert oracle.counters[C.REDUCE_INPUT_GROUPS] == len(sizes)
    assert oracle.counters[C.REDUCE_INPUT_RECORDS] == sum(sizes)
    # the batched leg really was one call -- or, for a fold, a decline
    # of the whole run: never a mix
    integer = isinstance(value_serde, (Int32Serde, Int64Serde))
    if name in ("median", "identity") or (
            integer and name in ("fold-min", "fold-max")) or (
            isinstance(value_serde, Int32Serde)):
        assert looped == 0
    elif not integer:
        assert looped == len(sizes)
    else:
        assert looped in (0, len(sizes))


@settings(max_examples=60, deadline=None)
@given(key_matrices())
def test_read_rows_equals_from_bytes(drawn):
    serde, rows = drawn
    expected = [serde.from_bytes(row.tobytes()) for row in rows]
    assert serde.read_rows(rows) == expected
    # ... for any row subset and memory layout the engine may hand over
    assert serde.read_rows(rows[::2]) == expected[::2]
    assert serde.read_rows(rows[:0]) == []
    # the base-class definition every override must equal
    assert super(CellKeySerde, serde).read_rows(rows) == expected


def test_read_rows_without_slot_and_base_default():
    serde = CellKeySerde(ndim=2, variable_mode="name", include_slot=False)
    rows, _ = serde.pack_batch_keys("u", np.array([[0, 1], [-4, 9]]))
    assert serde.read_rows(rows) == [serde.from_bytes(r.tobytes())
                                    for r in rows]
    ints = np.frombuffer(Int32Serde().pack_batch([3, -1, 7]), np.uint8)
    assert Int32Serde().read_rows(ints.reshape(3, 4)) == [3, -1, 7]


def short_prefix_rows():
    """Two groups; the second's Text prefix says 1 byte in a 2-byte
    prefix, so the variable does not fill the row up to the words."""
    serde = CellKeySerde(ndim=1, variable_mode="name")
    good, _ = serde.pack_batch_keys("u", np.array([[1], [2]]))
    rows = np.insert(good, 2, 0, axis=1)       # b"\x01u" -> b"\x01u\x00"
    rows[0, :3] = (2, ord("a"), ord("b"))       # a well-formed 2-char name
    return serde, rows


def test_read_rows_rejects_a_prefix_that_does_not_fill_its_bytes():
    serde, rows = short_prefix_rows()
    assert serde.from_bytes(rows[0].tobytes()).variable == "ab"
    with pytest.raises(MalformedRecordError) as scalar:
        serde.from_bytes(rows[1].tobytes())
    with pytest.raises(MalformedRecordError):
        serde.read_rows(rows)
    assert type(scalar.value) is MalformedRecordError


def test_failed_batch_key_decode_leaves_the_error_to_the_loop():
    """The whole run goes through the per-group loop, which reduces the
    groups before the bad key and raises what it always raised."""
    serde, rows = short_prefix_rows()
    vmat = np.frombuffer(Int32Serde().pack_batch([5, 6]),
                         np.uint8).reshape(2, 4)
    raised = {}
    for label, wrap in (("batch", Forwarding), ("oracle", ReduceOnly)):
        reducer = wrap(IdentityReducer())
        with pytest.raises(MalformedRecordError) as info:
            reduce_run(reducer, serde, Int32Serde(), rows, vmat)
        raised[label] = (str(info.value), reducer.calls)
    assert raised["batch"] == raised["oracle"]
    assert raised["batch"][1] == 1 and "trailing bytes" in raised["batch"][0]


def test_value_slab_of_the_wrong_width_takes_the_loop():
    """An 8-byte column under a 4-byte serde: ``read_column_array``
    refuses the slab, the loop raises at the first group as before."""
    serde = CellKeySerde(ndim=1, variable_mode="index")
    rows, _ = serde.pack_batch_keys(0, np.array([[1], [2]]))
    vmat = np.zeros((2, 8), dtype=np.uint8)
    for wrap in (Forwarding, ReduceOnly):
        with pytest.raises(MalformedRecordError, match="expected 1x4"):
            reduce_run(wrap(IdentityReducer()), serde, Int32Serde(), rows,
                       vmat)


# ------------------------------------------- exact monoids, and only those


def float_run(groups):
    """One float64 run, a group per list, under 1-D index-mode keys."""
    serde = CellKeySerde(ndim=1, variable_mode="index")
    leaders, _ = serde.pack_batch_keys(
        0, np.arange(len(groups)).reshape(-1, 1))
    sizes = [len(g) for g in groups]
    column = np.array([v for g in groups for v in g], dtype=np.float64)
    vmat = np.frombuffer(Float64Serde().pack_batch(column), np.uint8)
    return (serde, Float64Serde(), np.repeat(leaders, sizes, axis=0),
            vmat.reshape(-1, 8))


@pytest.mark.parametrize("fold, ufunc", [(min, np.minimum), (max, np.maximum),
                                         (sum, np.add)], ids=lambda f: f.__name__)
def test_float_folds_decline_because_they_are_not_monoids(fold, ufunc):
    """Why ``Monoid.fold_batch`` stops at integers.  Builtin ``min`` /
    ``max`` keep whichever operand a NaN comparison leaves standing, so
    they are order-dependent where the ufunc propagates NaN; float
    addition is not associative, and builtin ``sum`` changed algorithm
    in Python 3.12 (Neumaier compensation).  Regrouping any of them can
    change bits, so the float column is declined whole."""
    monoid = {min: MIN, max: MAX, sum: SUM}[fold]
    assert monoid.ufunc is ufunc and monoid.fold([3, 1, 2]) == fold([3, 1, 2])
    if fold is sum:
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        groups = [[1e16, 1.0, -1e16], [0.1, 0.2, 0.3]]
        compensated = sys.version_info >= (3, 12)
        assert sum(groups[0]) == (1.0 if compensated else 0.0)
        assert np.add.reduceat(np.array(groups[0]), [0])[0] == 0.0
    else:
        assert fold([NAN, 1.0]) != fold([1.0, NAN])      # nan vs 1.0
        assert fold([1.0, NAN]) == 1.0
        groups = [[NAN, 1.0], [1.0, NAN]]
        assert np.isnan(ufunc.reduceat(np.array(groups[0] + groups[1]),
                                       [0, 2])).all()
    run = float_run(groups)
    batch, oracle, looped = both_ways(lambda: FoldReducer(monoid), *run)
    assert looped == len(groups)
    assert_same_result(batch, oracle)
    assert [v for _, v in oracle.output] == pytest.approx(
        [fold(g) for g in groups], nan_ok=True)


def test_integer_sum_declines_where_python_would_grow_a_big_int():
    serde = CellKeySerde(ndim=1, variable_mode="index")
    leaders, _ = serde.pack_batch_keys(0, np.array([[0], [1]]))
    column = np.array([(1 << 63) - 1, (1 << 63) - 1, 5], dtype=np.int64)
    vmat = np.frombuffer(Int64Serde().pack_batch(column), np.uint8)
    run = (serde, Int64Serde(), np.repeat(leaders, [2, 1], axis=0),
           vmat.reshape(3, 8))
    batch, oracle, looped = both_ways(lambda: FoldReducer(SUM), *run)
    assert looped == 2
    assert_same_result(batch, oracle)
    assert batch.output[0][1] == (1 << 64) - 2
    # min / max cannot overflow: same column, one call
    batch, oracle, looped = both_ways(lambda: FoldReducer(MAX), *run)
    assert looped == 0
    assert_same_result(batch, oracle)


# ------------------------------------------------------- mutation check


class LexsortMedianReducer(PlainMedianReducer):
    """The tempting rewrite: sort the column once by (group, value) and
    gather the middle element(s) of every group."""

    def reduce_batch(self, keys, values, bounds, ctx):
        sizes = np.diff(bounds)
        group = np.repeat(np.arange(len(keys)), sizes)
        column = values[np.lexsort((values, group))].astype(np.float64)
        upper = bounds[:-1] + sizes // 2
        lower = bounds[:-1] + (sizes - 1) // 2
        ctx.emit_batch(keys, ((column[lower] + column[upper]) / 2).tolist())


@pytest.mark.parametrize("groups", [
    [[1.0, NAN, 2.0, 3.0, 4.0]],          # a sort puts NaN last: median 3.0
    [[-0.0], [-0.0, -0.0], [-0.0] * 3],   # np.median answers +0.0
], ids=["nan", "signed-zero"])
def test_a_sort_and_gather_median_is_caught(groups):
    run = float_run(groups)
    assert_same_result(*both_ways(PlainMedianReducer, *run)[:2])
    mutant, oracle, looped = both_ways(LexsortMedianReducer, *run)
    assert looped == 0
    assert mutant.counters.as_dict() == oracle.counters.as_dict()
    with pytest.raises(AssertionError):
        assert_same_result(mutant, oracle)
    # ... and on ordinary groups it is a correct median, so only the
    # bytewise comparison stands between it and the engine
    plain = float_run([[3.0, 1.0, 2.0], [4.0, 1.0]])
    assert_same_result(*both_ways(LexsortMedianReducer, *plain)[:2])
