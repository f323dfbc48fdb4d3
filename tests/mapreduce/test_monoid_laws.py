"""Every declared :class:`~repro.mapreduce.api.Monoid` obeys its laws.

``Job.combine`` folds each spill group map-side with the reducer's
monoid and the reducer folds those partial folds again; a batched
reduce replaces the per-group folds with one ``reduceat``.  Both are
regroupings, sound only because of the laws ``Monoid`` states.  They
are checked here once, for every monoid the code declares, over integer
values (where they are exact): identity, associativity, commutativity
(every declared monoid claims it); ``fold_batch`` is the fold of every
group or declines the whole column; a sum declines where Python would
grow a big int.  A registry guard keeps the table complete.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.queries  # noqa: F401  (imports every module that declares one)
from repro.mapreduce.api import MAX, MIN, SUM, SUM_COUNT, FoldReducer, Monoid
from repro.queries import (
    HistogramQuery,
    SlidingAggregateQuery,
    SlidingMeanQuery,
)
from repro.scidata import integer_grid

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
INT64 = st.integers(INT64_MIN, INT64_MAX)

#: every declared monoid, by name -> (monoid, its identity over the
#: values the strategy draws, a strategy for one value it folds)
LAWS = {
    "max": (MAX, INT64_MIN, INT64),
    "min": (MIN, INT64_MAX, INT64),
    "sum": (SUM, 0, INT64),
    "sum_count": (SUM_COUNT, (0, 0),
                  st.tuples(INT64, st.integers(0, (1 << 32) - 1))),
}
NAMES = sorted(LAWS)


def same(a, b) -> bool:
    """Equal values of equal types (``repr``: ``3 != 3.0`` here)."""
    return repr(a) == repr(b)


def declared_monoids() -> set:
    """Every monoid a ``repro`` module holds: module-level, in a
    module-level table, or on a class as its ``monoid``."""
    found = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for value in vars(module).values():
            if isinstance(value, dict):
                found.update(v for v in value.values()
                             if isinstance(v, Monoid))
            elif isinstance(value, type):
                value = getattr(value, "monoid", None)
            if isinstance(value, Monoid):
                found.add(value)
    return found


def test_the_table_covers_every_declared_monoid():
    """A monoid that enters the code must enter ``LAWS``; and every
    algebraic query's reducer declares one of them."""
    declared = {monoid for monoid, _, _ in LAWS.values()}
    assert declared_monoids() == declared
    grid = integer_grid((4, 4), seed=1, low=0, high=50)
    jobs = [HistogramQuery(grid, "values").build_job(),
            SlidingMeanQuery(grid, "values").build_job("plain")]
    jobs += [SlidingAggregateQuery(grid, "values", op=op).build_job("plain")
             for op in ("min", "max", "sum")]
    reducers = [job.reducer() for job in jobs]
    assert all(type(r) is FoldReducer and job.combine
               for r, job in zip(reducers, jobs))
    assert {r.monoid for r in reducers} == declared


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identity(name, data):
    monoid, identity, values = LAWS[name]
    xs = data.draw(st.lists(values, min_size=1, max_size=8))
    folded = monoid.fold(xs)
    assert same(monoid.fold([identity] + xs), folded)
    assert same(monoid.fold(xs + [identity]), folded)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_associativity(name, data):
    """Any cut of a group into contiguous runs folds to the group's
    fold (a combine per spill), and so do the runs' folds regrouped
    again (a combine of combines, then the reduce)."""
    monoid, _, values = LAWS[name]
    xs = data.draw(st.lists(values, min_size=1, max_size=12))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(xs) - 1)))
                  if len(xs) > 1 else [])
    runs = [xs[a:b] for a, b in zip([0] + cuts, cuts + [len(xs)])]
    partial = [monoid.fold(run) for run in runs]
    whole = monoid.fold(xs)
    assert same(monoid.fold(partial), whole)
    if len(partial) > 2:
        left = [monoid.fold(partial[:2])] + partial[2:]
        right = partial[:1] + [monoid.fold(partial[1:])]
        assert same(monoid.fold(left), whole)
        assert same(monoid.fold(right), whole)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutativity(name, data):
    monoid, _, values = LAWS[name]
    xs = data.draw(st.lists(values, min_size=1, max_size=8))
    assert same(monoid.fold(data.draw(st.permutations(xs))), monoid.fold(xs))


#: hostile column pools: int64 extremes, float NaN / signed zeros / inf
POOLS = {
    np.int64: [-(1 << 63), (1 << 63) - 1, 1 << 62, -(1 << 62), 0, -1, 1, 7,
               12345],
    np.float64: [float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 1.5,
                 -2.25, 1e308, 0.1, 0.2],
}


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fold_batch_is_the_fold_or_declines(name, data):
    """Every group's fold, bit for bit and type for type, or
    ``NotImplemented`` for the whole column -- never a mix; integer
    min / max never decline, floats and carriers without a ufunc
    always do."""
    monoid = LAWS[name][0]
    dtype = data.draw(st.sampled_from(sorted(POOLS, key=str)))
    sizes = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    if dtype is np.int64 and data.draw(st.booleans()):
        pool = st.integers(-1000, 1000)   # sums that stay inside int64
    else:
        pool = st.sampled_from(POOLS[dtype])
    values = np.array(data.draw(st.lists(pool, min_size=sum(sizes),
                                         max_size=sum(sizes))), dtype=dtype)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    out = monoid.fold_batch(values, bounds)
    if monoid.ufunc is None or dtype is np.float64:
        assert out is NotImplemented
        return
    if monoid is not SUM:
        assert out is not NotImplemented
    if out is NotImplemented:
        return
    expected = [monoid.fold(values[lo:hi].tolist())
                for lo, hi in zip(bounds, bounds[1:])]
    assert out.shape == (len(sizes),)
    assert same(out.tolist(), expected)


def test_sum_declines_where_python_would_grow_a_big_int():
    big = np.array([1 << 62, 1 << 62, 5], dtype=np.int64)
    bounds = np.array([0, 2, 3])
    assert SUM.fold([1 << 62, 1 << 62]) == 1 << 63         # outside int64
    with np.errstate(over="ignore"):
        assert np.add.reduceat(big, bounds[:-1])[0] == -(1 << 63)  # wraps
    assert SUM.fold_batch(big, bounds) is NotImplemented
    # one group of one value cannot overflow: no decline at the int64 edge
    edge = np.array([(1 << 63) - 1], dtype=np.int64)
    assert SUM.fold_batch(edge, np.array([0, 1])).tolist() == [(1 << 63) - 1]
    # min / max never overflow: the same column folds in one call
    assert MAX.fold_batch(big, bounds).tolist() == [1 << 62, 5]
