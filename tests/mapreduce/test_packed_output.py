"""A reduce task's output stays packed until it is read.

``ReduceContext.output`` is a :class:`~repro.mapreduce.output.
PackedOutput`: ``emit_batch`` of packed keys and an array keeps the rows
and the array, ``emit`` keeps its pairs, and the pairs of a batched chunk
are built only when the output is iterated or indexed.  It must be the
list it replaces -- the one the old context built with ``append`` and
``extend(zip(read_rows(rows), values.tolist()))`` -- in every way a
reader can tell: length, iteration, indexing, slicing, and ``==`` / ``!=``
against lists and against other outputs, NaN, signed zeros and
int-vs-float included.  The properties below realize one random emission
sequence both ways and compare.

The keys themselves are built without ``CellKey``'s validating
constructor (``keys._cell_keys``); a property pins them to ``from_bytes``
row by row.  Structural guards count every ``CellKey`` built -- by either
constructor -- so a clean batched job, plain or aggregate, provably
builds none until its output is read, and a multi-stage plan none at
all.  A registry result pickled before outputs were packed (a pair list)
still loads and equals the packed form.
"""

import base64
import io
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mapreduce.keys as keys_module
from repro.mapreduce import CellKey, CellKeySerde, LocalJobRunner
from repro.mapreduce.api import ReduceContext
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.output import VALUE_BYTES, PackedOutput
from repro.mapreduce.runtime.service.registry import JobRegistry
from repro.mapreduce.runtime.service.workloads import JobSpec, build_workload
from repro.queries import BoxSubsetQuery, SlidingMeanQuery, SlidingMedianQuery
from repro.queries.plan import Source, Subset, Window, _cells, execute
from repro.scidata import Slab, integer_grid
from tests.mapreduce.test_reduce_batch import ODD_NAN, key_matrices

NAN = float("nan")
VAR = "temp"
SERDE = CellKeySerde(ndim=2, variable_mode="name")
VALUES = [NAN, ODD_NAN, 0.0, -0.0, 1.0, 2.5, float("inf"), 0, 1, -7,
          (1 << 63) - 1, -(1 << 63)]


def pinned(pairs):
    """Pairs reduced to what must not drift: the key, the value's type
    and, for floats, its bytes (``nan != nan`` and ``-0.0 == 0.0``)."""
    return [(key, type(value).__name__,
             struct.pack(">d", value) if isinstance(value, float) else value)
            for key, value in pairs]


def fresh(value):
    """An equal value that is a different object (a NaN stays a NaN with
    its payload, ``-0.0`` keeps its sign)."""
    return pickle.loads(pickle.dumps(value))


def twins(value):
    """Values a list could hold in ``value``'s place: equal ones of the
    other type or sign, or -- for a NaN -- other NaNs."""
    if value != value:
        return [value, NAN, ODD_NAN]
    out = [value, float(value)]
    if isinstance(value, float) and value.is_integer():
        out.append(int(value))
    return out + ([0.0, -0.0, 0] if value == 0 else [])


cell_pairs = st.lists(st.tuples(st.tuples(st.integers(-3, 3),
                                          st.integers(-3, 3)),
                                st.sampled_from(VALUES)), max_size=30)


@st.composite
def segmentations(draw, pairs):
    """Cut ``pairs`` into runs, each emitted pair by pair or -- when its
    values share one type -- as one batch."""
    n = len(pairs)
    cuts = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=5))
    bounds = [0] + sorted(c for c in cuts if c < n) + [n]
    return [(lo, hi, len({type(v) for _, v in pairs[lo:hi]}) == 1
             and draw(st.booleans()))
            for lo, hi in zip(bounds, bounds[1:])]


def realize(pairs, segments):
    """``(ctx, the list the old context built)`` for one emission
    sequence; the two share no key or value object."""
    ctx = ReduceContext(Counters())
    model = []
    for lo, hi, batch in segments:
        part = pairs[lo:hi]
        if batch:
            rows, _ = SERDE.pack_batch_keys(
                VAR, np.array([c for c, _ in part]).reshape(-1, 2))
            dtype = np.float64 if type(part[0][1]) is float else np.int64
            values = np.array([v for _, v in part], dtype=dtype)
            ctx.emit_batch(SERDE.lazy_rows(rows), values)
            model.extend(zip(SERDE.read_rows(rows), values.tolist()))
        else:
            for coords, value in part:
                ctx.emit(CellKey(VAR, coords), fresh(value))
                model.append((CellKey(VAR, coords), fresh(value)))
    return ctx, model


slices = st.builds(slice, st.none() | st.integers(-35, 35),
                   st.none() | st.integers(-35, 35),
                   st.sampled_from([None, 1, 2, 3, -1, -2]))


@settings(max_examples=200, deadline=None)
@given(cell_pairs, st.data())
def test_packed_output_reads_as_the_list_it_replaces(pairs, data):
    ctx, model = realize(pairs, data.draw(segmentations(pairs)))
    out, n = ctx.output, len(model)
    assert len(out) == n == ctx.counters[C.REDUCE_OUTPUT_RECORDS]
    assert bool(out) == bool(model)
    assert pinned(out) == pinned(model)
    assert pinned(out[i] for i in range(-n, n)) == pinned(model + model)
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            out[index]
    for cut in data.draw(st.lists(slices, max_size=4)):
        got = out[cut]
        assert type(got) is list and pinned(got) == pinned(model[cut])
    back = pickle.loads(pickle.dumps(out))
    assert pinned(back) == pinned(model)
    assert [type(c) for c in back.chunks] == [type(c) for c in out.chunks]


@settings(max_examples=200, deadline=None)
@given(cell_pairs, st.data())
def test_equality_is_the_lists_equality(pairs, data):
    """``==`` / ``!=`` against a list or another output answer what the
    two lists would -- element by element, a NaN unequal to any other
    NaN object, ``-0.0 == 0.0`` and ``1 == 1.0`` -- whatever the chunking
    on either side."""
    out, model = realize(pairs, data.draw(segmentations(pairs)))
    variant = [(c, data.draw(st.sampled_from(twins(v)))) for c, v in pairs]
    if data.draw(st.booleans()):
        variant = variant[:data.draw(st.integers(0, len(variant)))]
    other, other_model = realize(variant, data.draw(segmentations(variant)))
    out, other = out.output, other.output
    expected = model == other_model
    assert (out == other_model) is expected
    assert (other_model == out) is expected
    assert (out != other_model) is (not expected)
    assert (other_model != out) is (not expected)
    assert (out == other) is expected and (out != other) is (not expected)
    assert out == out and not (out != out)       # as a list equals itself
    assert (out == tuple(model)) is False         # a list never equals a tuple


def test_mixed_emits_keep_their_order_and_their_form():
    ctx = ReduceContext(Counters())
    rows, _ = SERDE.pack_batch_keys(VAR, np.array([[0, 1], [0, 2]]))
    ctx.emit(CellKey(VAR, (9, 9)), 1.5)
    ctx.emit_batch(SERDE.lazy_rows(rows), np.array([3, 4]))
    ctx.emit(CellKey(VAR, (8, 8)), "x")
    ctx.emit(CellKey(VAR, (7, 7)), None)
    ctx.emit_batch(SERDE.lazy_rows(rows), np.array([5.0, 6.0]).tolist())
    assert [type(c).__name__ for c in ctx.output.chunks] == [
        "list", "tuple", "list"]
    assert ctx.output == [
        (CellKey(VAR, (9, 9)), 1.5), (CellKey(VAR, (0, 1)), 3),
        (CellKey(VAR, (0, 2)), 4), (CellKey(VAR, (8, 8)), "x"),
        (CellKey(VAR, (7, 7)), None), (CellKey(VAR, (0, 1)), 5.0),
        (CellKey(VAR, (0, 2)), 6.0)]
    assert ctx.counters[C.REDUCE_OUTPUT_RECORDS] == 7
    with pytest.raises(ValueError, match="2 keys vs 1 values"):
        ctx.emit_batch(SERDE.lazy_rows(rows), np.array([1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(cell_pairs, min_size=1, max_size=4), st.data())
def test_outputs_concatenate_in_order_sharing_their_arrays(outputs, data):
    """What ``assemble_result`` does with the reducers' outputs."""
    parts = [realize(p, data.draw(segmentations(p))) for p in outputs]
    job = PackedOutput()
    for ctx, _ in parts:
        job.extend(ctx.output)
    assert pinned(job) == pinned(sum((model for _, model in parts), []))
    arrays = [c[1] for ctx, _ in parts for c in ctx.output.chunks
              if type(c) is tuple]
    shared = [c[1] for c in job.chunks if type(c) is tuple]
    assert len(shared) == len(arrays)
    assert all(a is b for a, b in zip(shared, arrays))


def test_a_packed_output_pickles_as_arrays():
    cells = np.ascontiguousarray(np.indices((40, 50)).reshape(2, -1).T)
    keys = SERDE.lazy_rows(SERDE.pack_batch_keys(VAR, cells)[0])
    ctx = ReduceContext(Counters())
    ctx.emit_batch(keys, np.arange(2000, dtype=np.float64) / 3)
    blob = pickle.dumps(ctx.output)
    assert len(blob) < keys.rows.nbytes + 2000 * 8 + 1024
    assert pinned(NoCellKeys(io.BytesIO(blob)).load()) == pinned(ctx.output)


class NoCellKeys(pickle.Unpickler):
    """Loads a pickle that must not hold a ``CellKey``."""

    def find_class(self, module, name):
        assert name != "CellKey", "a CellKey crossed the pickle"
        return super().find_class(module, name)


# ----------------------------------------------------- trusted CellKeys


@settings(max_examples=80, deadline=None)
@given(key_matrices(), st.randoms(use_true_random=False))
def test_decoded_keys_are_the_validated_keys(drawn, rng):
    """``read_rows`` builds keys without ``__post_init__``; nothing a
    reader can observe tells them from ``from_bytes``'s."""
    serde, rows = drawn
    order = list(range(rows.shape[0]))
    rng.shuffle(order)
    rows = rows[order]
    trusted = serde.read_rows(rows)
    built = [serde.from_bytes(row.tobytes()) for row in rows]
    assert trusted == built
    for a, b in zip(trusted, built):
        assert type(a) is CellKey
        assert repr(a) == repr(b) and hash(a) == hash(b)
        assert list(vars(a).items()) == list(vars(b).items())
        assert all(type(c) is int for c in a.coords)
        assert pickle.dumps(a) == pickle.dumps(b)
        with pytest.raises(AttributeError):
            a.slot = 1
    assert sorted(trusted) == sorted(built)
    lazy = serde.lazy_rows(rows)
    n = len(built)
    assert list(lazy) == built == lazy
    assert [lazy[i] for i in range(-n, n)] == built + built


# ---------------------------------------------- structure: counts, not clocks


@pytest.fixture
def built(monkeypatch):
    """A running count of ``CellKey``s built by either constructor: the
    validating one (``__post_init__``) and the decode's
    (``keys._cell_keys``)."""
    count = [0]
    real_post_init = CellKey.__post_init__

    def post_init(self):
        count[0] += 1
        real_post_init(self)
    monkeypatch.setattr(CellKey, "__post_init__", post_init)
    real_cell_keys = keys_module._cell_keys

    def cell_keys(*columns):
        out = real_cell_keys(*columns)
        count[0] += len(out)
        return out
    monkeypatch.setattr(keys_module, "_cell_keys", cell_keys)
    return count


@pytest.mark.parametrize("query", ["median", "subset"])
@pytest.mark.parametrize("mode", ["plain", "aggregate"])
def test_a_clean_batched_job_builds_no_cell_key_until_read(built, mode,
                                                           query):
    """10^3 cells, 4 maps x 2 reducers: a plain job through
    ``reduce_batch`` and an aggregate one through ``reduce_pieces`` run
    without building one ``CellKey`` -- map side, reduce tasks, job
    assembly -- and reading the output builds exactly one per pair."""
    dataset = integer_grid((10, 10, 10), seed=3, low=0, high=900)
    make = {"median": lambda: SlidingMedianQuery(dataset, "values"),
            "subset": lambda: BoxSubsetQuery(dataset, "values",
                                             dataset["values"].extent)}
    job = make[query]().build_job(mode, num_map_tasks=4, num_reducers=2)
    with LocalJobRunner() as runner:
        result = runner.run(job, dataset)
    assert built[0] == 0
    assert len(result.output) == 1000
    assert all(type(chunk) is tuple for chunk in result.output.chunks)
    assert len(list(result.output)) == built[0] == 1000


def test_a_multi_stage_plan_builds_no_cell_key(built):
    """Each stage's output becomes the next stage's variable by its
    arrays: the rows' coordinates and the value column."""
    dataset = integer_grid((8, 8), seed=5, low=0, high=100)
    plan = Window(Subset(Source("values"), Slab((1, 1), (6, 6))), "median")
    for mode in ("plain", "aggregate"):
        out = execute(plan, dataset, mode=mode)
        assert out.data.shape == (6, 6)
    assert built[0] == 0


def test_stage_arrays_equal_the_pairs_they_stand_for():
    dataset = integer_grid((6, 6), seed=5, low=0, high=100)
    job = SlidingMedianQuery(dataset, "values").build_job(
        "plain", num_reducers=3)
    output = LocalJobRunner().run(job, dataset).output
    coords, values = _cells(output)
    assert coords.tolist() == [list(k.coords) for k, _ in output]
    assert values.tolist() == [v for _, v in output]
    # an output holding pairs takes the pairs' path, same arrays
    listed = _cells(list(output))
    assert listed[0].tolist() == coords.tolist()
    assert listed[1].tolist() == values.tolist()


# ---------------------------------------------------------- output_bytes


@pytest.mark.parametrize("mode", ["plain", "aggregate"])
@pytest.mark.parametrize("query", ["subset", "mean"])
def test_output_bytes_is_the_packed_size(mode, query):
    """Per record the key's serialized width plus 8 bytes, whether the
    task's output is packed (subset) or pairs from ``emit`` (mean), in
    plain and aggregate jobs alike."""
    dataset = integer_grid((5, 5, 5), seed=3, low=0, high=900)
    make = {"subset": lambda: BoxSubsetQuery(dataset, "values",
                                             Slab((1, 1, 1), (3, 3, 3))),
            "mean": lambda: SlidingMeanQuery(dataset, "values")}
    result = LocalJobRunner().run(
        make[query]().build_job(mode, num_map_tasks=2, num_reducers=2),
        dataset)
    width = CellKeySerde(3).key_size("values") + VALUE_BYTES
    assert width == 31
    sizes = [p.output_bytes for p in result.task_profiles
             if p.kind == "reduce"]
    assert len(sizes) == 2
    assert sum(sizes) == width * len(result.output)
    packed = all(type(c) is tuple for c in result.output.chunks)
    assert packed is (query == "subset")


# ----------------------------------------------------- registry results

#: ``result.pkl`` of the 4 x 4 subset service job below, committed by a
#: registry from before outputs were packed: its output is a pair list
OLD_RESULT_PKL = base64.b64decode(
    "UkpSMU5w4GAAAALNgASVwgIAAAAAAAB9lCiMBm91dHB1dJRdlCiMFHJlcHJvLm1hcHJlZHVj"
    "ZS5rZXlzlIwHQ2VsbEtleZSTlCmBlH2UKIwIdmFyaWFibGWUjAZ2YWx1ZXOUjAZjb29yZHOU"
    "SwFLAoaUjARzbG90lEsAdWJKYOgNAIaUaAUpgZR9lChoCGgJaApLAksBhpRoDEsAdWJKjYEB"
    "AIaUaAUpgZR9lChoCIwGdmFsdWVzlGgKSwFLAYaUaAxLAHViSgXSDACGlGgFKYGUfZQoaAho"
    "FGgKSwJLAoaUaAxLAHViSrJQBQCGlGWMCGNvdW50ZXJzlIwXcmVwcm8ubWFwcmVkdWNlLm1l"
    "dHJpY3OUjAhDb3VudGVyc5STlCmBlH2UjAdfdmFsdWVzlIwLY29sbGVjdGlvbnOUjAtkZWZh"
    "dWx0ZGljdJSTlIwIYnVpbHRpbnOUjANpbnSUk5SFlFKUKIwRTUFQX0lOUFVUX1JFQ09SRFOU"
    "SxCMEk1BUF9PVVRQVVRfUkVDT1JEU5RLBIwPU1BJTExFRF9SRUNPUkRTlEsEjAtTUElMTF9D"
    "T1VOVJRLAowQTUFQX09VVFBVVF9CWVRFU5RLXIwUTUFQX09VVFBVVF9LRVlfQllURVOUS0yM"
    "Fk1BUF9PVVRQVVRfVkFMVUVfQllURVOUSxCMHk1BUF9PVVRQVVRfRklMRV9PVkVSSEVBRF9C"
    "WVRFU5RLIIwdTUFQX09VVFBVVF9NQVRFUklBTElaRURfQllURVOUS3yMD1NIVUZGTEVfRkVU"
    "Q0hFU5RLBIwZU0hVRkZMRV9CWVRFU19UUkFOU0ZFUlJFRJRLfIwNU0hVRkZMRV9CWVRFU5RL"
    "fIwVUkVEVUNFX09VVFBVVF9SRUNPUkRTlEsEjBNSRURVQ0VfSU5QVVRfR1JPVVBTlEsEjBRS"
    "RURVQ0VfSU5QVVRfUkVDT1JEU5RLBHVzYnUu")


def test_a_result_pickled_as_pairs_still_loads_and_equals_the_packed_one(
        tmp_path):
    spec = JobSpec(tenant="alice", query="subset", shape=(4, 4), seed=3,
                   num_maps=2, num_reducers=2)
    job, dataset = build_workload(spec)
    base = LocalJobRunner().run(job, dataset)
    assert isinstance(base.output, PackedOutput) and len(base.output) == 4

    record = JobRegistry(str(tmp_path)).create(spec)
    with open(record.result_path, "wb") as fh:
        fh.write(OLD_RESULT_PKL)
    stored = record.load_result()
    assert type(stored["output"]) is list
    assert stored["output"] == base.output and base.output == stored["output"]
    assert stored["counters"] == base.counters

    record.save_result(base.output, base.counters)
    again = record.load_result()
    assert type(again["output"]) is PackedOutput
    assert again["output"] == stored["output"]
