"""Counted ordered set: examples, oracle equivalence, structural churn."""

import random
from array import array
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemaj.counted_set import MERGE_BELOW, SPLIT_AT, TARGET_BLOCK, CountedOrderedSet


# A single-parameter fixture, so that each test keeps its ``[pure-object]``
# id, and with it its history in earlier test reports.
@pytest.fixture(params=[CountedOrderedSet], ids=["pure-object"])
def make(request):
    return request.param


class SortedRef:
    """Mirror built on a plain sorted list, the obviously-correct baseline."""

    def __init__(self):
        self.a = []

    def insert(self, k):
        insort(self.a, k)

    def delete(self, k):
        i = bisect_left(self.a, k)
        assert i < len(self.a) and self.a[i] == k
        del self.a[i]

    def count_range(self, lo, hi):
        if lo > hi:
            return 0
        return bisect_right(self.a, hi) - bisect_left(self.a, lo)

    def predecessor(self, x):
        i = bisect_right(self.a, x)
        return self.a[i - 1] if i else None

    def successor(self, x):
        i = bisect_left(self.a, x)
        return self.a[i] if i < len(self.a) else None


def test_insert_examples(make):
    cs = make()
    cs.insert(5)
    assert cs.count_range(5, 5) == 1
    cs.insert(5)
    assert cs.count_range(5, 5) == 2

    cs2 = make()
    for k in (1, 3, 9):
        cs2.insert(k)
    assert cs2.count_range(2, 9) == 2


def test_delete_examples(make):
    cs = make()
    cs.insert(5)
    cs.insert(5)
    cs.delete(5)
    assert cs.count_range(5, 5) == 1

    with pytest.raises(KeyError):
        cs.delete(4)

    # delete then reinsert restores every count
    cs3 = make()
    for k in (2, 4, 4, 7):
        cs3.insert(k)
    before = [cs3.count_range(lo, hi) for lo in range(9) for hi in range(lo, 9)]
    cs3.delete(4)
    cs3.insert(4)
    after = [cs3.count_range(lo, hi) for lo in range(9) for hi in range(lo, 9)]
    assert before == after


def test_count_range_examples(make):
    cs = make()
    for k in (1, 2, 3):
        cs.insert(k)
    assert cs.count_range(1, 3) == 3
    assert cs.count_range(4, 9) == 0
    assert cs.count_range(3, 1) == 0

    cs2 = make()
    for k in (2, 4, 4, 7):
        cs2.insert(k)
    assert cs2.count_range(3, 6) == 2


def test_predecessor_successor_examples(make):
    cs = make()
    for k in (1, 5, 9):
        cs.insert(k)
    assert cs.successor(2) == 5
    assert cs.predecessor(0) is None
    assert cs.predecessor(5) == 5
    assert cs.successor(9) == 9
    assert cs.successor(10) is None
    assert cs.predecessor(100) == 9


def test_empty_set(make):
    cs = make()
    assert len(cs) == 0
    assert cs.count_range(0, 100) == 0
    assert cs.predecessor(5) is None
    assert cs.successor(5) is None
    assert 5 not in cs
    with pytest.raises(KeyError):
        cs.delete(5)


def test_mixed_oracle(make):
    n_ops = 100_000
    rng = random.Random(0xC0DE + n_ops)
    cs = make()
    ref = SortedRef()
    for step in range(n_ops):
        r = rng.random()
        if r < 0.45 or not ref.a:
            k = rng.randint(0, 10_000)
            cs.insert(k)
            ref.insert(k)
        elif r < 0.70:
            k = ref.a[rng.randrange(len(ref.a))]
            cs.delete(k)
            ref.delete(k)
        else:
            lo = rng.randint(0, 10_000)
            hi = rng.randint(0, 10_000)
            got = cs.count_range(lo, hi)
            assert got == ref.count_range(lo, hi)
            # the two internal formulations must agree on every query
            if lo <= hi:
                assert got == cs.rank_le(hi) - cs.rank_lt(lo)
            x = rng.randint(-5, 10_005)
            assert cs.predecessor(x) == ref.predecessor(x)
            assert cs.successor(x) == ref.successor(x)
        if step % 4000 == 0:
            cs.audit()
            assert len(cs) == len(ref.a)
    cs.audit()
    assert len(cs) == len(ref.a)


def test_structural_churn(make):
    rng = random.Random(7)
    keys = list(range(5000))
    rng.shuffle(keys)
    cs = make()
    for i, k in enumerate(keys):
        cs.insert(k)
        if i % 500 == 0:
            cs.audit()
    cs.audit()
    assert len(cs) == 5000
    assert cs.count_range(0, 4999) == 5000

    rng.shuffle(keys)
    for i, k in enumerate(keys):
        cs.delete(k)
        if i % 500 == 0:
            cs.audit()
    cs.audit()
    assert len(cs) == 0
    # the structure must stay usable after a full drain
    cs.insert(42)
    assert cs.count_range(0, 100) == 1


def test_duplicates_span_blocks(make):
    cs = make()
    ref = SortedRef()
    for _ in range(900):
        cs.insert(500)
        ref.insert(500)
    for k in (499, 501, 500):
        cs.insert(k)
        ref.insert(k)
    cs.audit()
    assert cs.count_range(500, 500) == 901
    assert cs.count_range(499, 501) == 903
    assert cs.rank_lt(500) == 1
    assert cs.rank_le(500) == 902
    for _ in range(901):
        cs.delete(500)
        ref.delete(500)
    cs.audit()
    assert cs.count_range(499, 501) == ref.count_range(499, 501) == 2


def test_load_sorted(make):
    rng = random.Random(13)
    keys = sorted(rng.randint(0, 2000) for _ in range(3000))
    cs = make()
    cs.load_sorted(keys)
    cs.audit()
    inc = make()
    for k in keys:
        inc.insert(k)
    for _ in range(400):
        lo = rng.randint(-10, 2010)
        hi = rng.randint(-10, 2010)
        assert cs.count_range(lo, hi) == inc.count_range(lo, hi)
        assert cs.predecessor(lo) == inc.predecessor(lo)
        assert cs.successor(hi) == inc.successor(hi)
    assert len(cs) == len(inc) == 3000

    empty = make()
    empty.load_sorted([])
    assert len(empty) == 0
    empty.insert(1)
    assert len(empty) == 1


def test_contains(make):
    cs = make()
    for k in (3, 8, 8, 15):
        cs.insert(k)
    assert 8 in cs
    assert 3 in cs
    assert 4 not in cs
    cs.delete(8)
    assert 8 in cs
    cs.delete(8)
    assert 8 not in cs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["i", "d", "q"]), st.integers(0, 50), st.integers(0, 50)),
        max_size=120,
    )
)
def test_property_vs_reference(ops):
    cs = CountedOrderedSet()
    ref = SortedRef()
    for op, a, b in ops:
        if op == "i":
            cs.insert(a)
            ref.insert(a)
        elif op == "d":
            if ref.a:
                k = ref.a[a % len(ref.a)]
                cs.delete(k)
                ref.delete(k)
        else:
            lo, hi = min(a, b), max(a, b)
            assert cs.count_range(lo, hi) == ref.count_range(lo, hi)
            assert cs.count_range(lo, hi) == cs.rank_le(hi) - cs.rank_lt(lo)
            assert cs.predecessor(a) == ref.predecessor(a)
            assert cs.successor(a) == ref.successor(a)
    cs.audit()
    assert len(cs) == len(ref.a)


def test_object_keys_pure():
    # tuple keys order lexicographically
    cs = CountedOrderedSet()
    for key in [(3.0, 1), (1.0, 2), (3.0, 0), (2.5, 7)]:
        cs.insert(key)
    assert cs.count_range((1.0, 0), (3.0, 0)) == 3
    assert cs.successor((2.6, 0)) == (3.0, 0)
    assert cs.predecessor((3.0, 99)) == (3.0, 1)


# ---- the column: one value per key, in step with the key blocks ----


def value_of(k):
    return -3 * k - 1


def column_set(keys):
    cs = CountedOrderedSet()
    cs.load_sorted([], [])
    for k in keys:
        assert cs.insert(k, lambda k=k: value_of(k)) == value_of(k)
    return cs


def assert_aligned(cs, keys):
    """Every key carries its own value, in key order, however the
    blocks were split or merged."""
    keys = sorted(keys)
    cs.audit()
    assert list(cs.items()) == [(k, value_of(k)) for k in keys]
    if keys:
        assert list(cs.values_from(keys[0], len(keys))) == [value_of(k) for k in keys]
        assert list(cs.values_from(keys[0] - 1, 0)) == []


def test_column_split_at_split_at():
    keys = list(range(SPLIT_AT - 1))
    cs = column_set(keys)
    assert len(cs._blocks) == 1
    cs.insert(SPLIT_AT - 1, lambda: value_of(SPLIT_AT - 1))
    keys.append(SPLIT_AT - 1)
    assert len(cs._blocks) == 2
    assert_aligned(cs, keys)
    # a range across the split point takes a slice of each block
    mid = cs._blocks[1][0]
    assert list(cs.values_from(mid - 3, 6)) == [value_of(k) for k in range(mid - 3, mid + 3)]


def test_column_merge_below_merge_below():
    keys = list(range(2 * TARGET_BLOCK))
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys])
    assert len(cs._blocks) == 2
    right = keys[TARGET_BLOCK:]
    while len(cs._blocks) == 2:
        k = right.pop()
        assert cs.delete(k) == value_of(k)
        keys.remove(k)
    assert len(cs._blocks[0]) == TARGET_BLOCK + MERGE_BELOW - 1
    assert_aligned(cs, keys)


def test_column_delete_first_key_of_a_block():
    keys = list(range(0, 4 * TARGET_BLOCK, 2))
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys])
    first = cs._blocks[1][0]
    assert cs.delete(first) == value_of(first)
    keys.remove(first)
    assert cs._mins[1] == first + 2
    assert_aligned(cs, keys)
    assert list(cs.values_from(first - 2, 2)) == [value_of(first - 2), value_of(first + 2)]


def test_column_load_sorted_and_slices():
    rng = random.Random(21)
    keys = sorted(rng.sample(range(10_000), 3000))
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys])
    assert_aligned(cs, keys)
    for _ in range(300):
        # a run of stored keys from the first at or above lo
        lo = rng.randint(-10, 10_010)
        after = [value_of(k) for k in keys if k >= lo]
        count = rng.randint(0, len(after))
        assert list(cs.values_from(lo, count)) == after[:count]
    with pytest.raises(ValueError):
        cs.load_sorted([1, 2], [5])


def test_column_insert_reports_present_key_without_making_a_value():
    cs = column_set([4, 9])
    made = []
    assert cs.insert(9, lambda: made.append(1)) is None
    assert made == []
    assert len(cs) == 2
    with pytest.raises(KeyError):
        cs.delete(5)
    assert_aligned(cs, [4, 9])
    # a value is given exactly when the set has a column
    with pytest.raises(ValueError):
        cs.insert(5)
    plain = CountedOrderedSet()
    plain.insert(1)
    with pytest.raises(ValueError):
        plain.insert(2, lambda: 0)


def test_column_map_values():
    keys = list(range(0, 900, 3))
    cs = column_set(keys)
    cs.map_values(lambda v: -v)
    assert list(cs.items()) == [(k, -value_of(k)) for k in keys]
    cs.audit()


def test_column_blocks_are_int64_arrays():
    # the column is numeric: every value block is an array('q'), which
    # values_from joins and numpy reads without a copy
    keys = list(range(3 * TARGET_BLOCK))
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys])
    run = cs.values_from(TARGET_BLOCK - 2, 5)
    assert type(run) is array and run.typecode == "q"
    assert np.frombuffer(run, np.int64).tolist() == list(run)
    cs.audit()
    cs._vals[1] = list(cs._vals[1])
    with pytest.raises(AssertionError, match="array"):
        cs.audit()
    cs._vals[1] = array("i", cs._vals[1])
    with pytest.raises(AssertionError, match="array"):
        cs.audit()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 700)), max_size=1500))
def test_column_property_vs_dict(ops):
    cs = CountedOrderedSet()
    cs.load_sorted([], [])
    ref: dict = {}
    for ins, k in ops:
        if ins:
            got = cs.insert(k, lambda k=k: value_of(k))
            assert got == (None if k in ref else value_of(k))
            ref[k] = value_of(k)
        elif k in ref:
            assert cs.delete(k) == ref.pop(k)
        else:
            with pytest.raises(KeyError):
                cs.delete(k)
    assert_aligned(cs, ref)


# ---- replace_run: keys renamed in place, order kept ----


def spaced_set(with_column):
    """Keys 0, 10, 20, ... over four full blocks."""
    keys = list(range(0, 40 * TARGET_BLOCK, 10))
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys] if with_column else None)
    assert len(cs._blocks) == 4
    return cs, keys


def check_replaced(cs, keys, with_column):
    cs.audit()
    assert list(cs) == keys
    assert len(cs) == len(keys)
    if with_column:
        # values stay with their positions, so a renamed key keeps its value
        assert [v for _, v in cs.items()] == [
            value_of(k) for k in range(0, 40 * TARGET_BLOCK, 10)
        ]
    for probe in keys[::37]:
        assert cs.rank_lt(probe) == keys.index(probe)
        assert probe in cs


@pytest.mark.parametrize("with_column", [False, True], ids=["plain", "column"])
def test_replace_run_across_a_block_boundary(with_column):
    cs, keys = spaced_set(with_column)
    start = TARGET_BLOCK - 5  # five keys in block 0, seven in block 1
    new = [k + 3 for k in keys[start : start + 12]]
    assert cs.replace_run(keys[start], new) == keys[start : start + 12]
    keys[start : start + 12] = new
    assert cs._mins[1] == keys[TARGET_BLOCK]
    check_replaced(cs, keys, with_column)


@pytest.mark.parametrize("with_column", [False, True], ids=["plain", "column"])
@pytest.mark.parametrize("shift", [-4, 4])
def test_replace_run_from_a_block_first_key(with_column, shift):
    cs, keys = spaced_set(with_column)
    for b in (0, 2):
        start = b * TARGET_BLOCK
        new = [k + shift for k in keys[start : start + 9]]
        cs.replace_run(keys[start], new)
        keys[start : start + 9] = new
        assert cs._mins[b] == keys[start]  # the block minimum moved with it
        check_replaced(cs, keys, with_column)


def test_replace_run_whole_set_and_below_every_key():
    cs, keys = spaced_set(True)
    new = [2 * k - 7 for k in keys]
    cs.replace_run(-100, new)
    check_replaced(cs, new, True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5000), min_size=1, max_size=1200, unique=True),
    st.data(),
)
def test_replace_run_property(keys, data):
    # any sorted run of new keys strictly between the run's neighbours
    keys.sort()
    column = data.draw(st.booleans())
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys] if column else None)
    start = data.draw(st.integers(0, len(keys) - 1))
    count = data.draw(st.integers(1, len(keys) - start))
    below = keys[start - 1] if start else -10_000
    above = keys[start + count] if start + count < len(keys) else 10_000
    new = sorted(data.draw(st.sets(
        st.integers(below + 1, above - 1), min_size=count, max_size=count
    )))
    assert cs.replace_run(keys[start], new) == keys[start : start + count]
    want = keys[:start] + new + keys[start + count :]
    cs.audit()
    assert list(cs) == want
    if column:
        assert [v for _, v in cs.items()] == [value_of(k) for k in keys]
    ref = SortedRef()
    ref.a = want
    for probe in data.draw(st.lists(st.integers(-10_001, 10_001), max_size=20)):
        assert cs.predecessor(probe) == ref.predecessor(probe)
        assert cs.successor(probe) == ref.successor(probe)
        assert cs.count_range(probe, probe + 500) == ref.count_range(probe, probe + 500)


# ---- select: the key of a given rank ----


def check_select(cs):
    ref = list(cs)
    assert [cs.select(k) for k in range(len(ref))] == ref
    for k in (-1, len(ref)):
        with pytest.raises(IndexError):
            cs.select(k)
    if cs._vals is not None:
        check_values_at(cs)


def check_values_at(cs):
    """values_at(k, count) is the run values_from gives from the key of
    rank k: for every k, runs of 0 and 1 values, runs that end just past
    the next block boundary, and runs to the end."""
    n = len(cs)
    starts = list(accumulate(len(b) for b in cs._blocks))
    for k in range(n):
        edge = starts[bisect_right(starts, k)]  # the end of k's block
        for count in {0, 1, min(edge - k + 1, n - k), n - k}:
            run = cs.values_at(k, count)
            assert type(run) is array and run.typecode == "q"
            assert run == cs.values_from(cs.select(k), count)
    assert cs.values_at(n, 0) == array("q")


@pytest.mark.parametrize("with_column", [False, True], ids=["plain", "column"])
@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(st.integers(0, 20_000), max_size=3 * TARGET_BLOCK, unique=True),
    band=st.integers(0, 20_000),
    grow=st.lists(st.integers(0, 999), max_size=2 * SPLIT_AT),
    keep=st.floats(0, 1),
    seed=st.integers(0, 2**32),
)
def test_select_through_splits_and_merges(with_column, initial, band, grow, keep, seed):
    cs = CountedOrderedSet()
    initial.sort()
    cs.load_sorted(initial, [value_of(k) for k in initial] if with_column else None)
    check_select(cs)
    # inserts crowd one band of keys, so the blocks there split
    for k in grow:
        k += band
        if with_column:
            cs.insert(k, lambda k=k: value_of(k))
        else:
            cs.insert(k)
    check_select(cs)
    # deletes thin every block out, so neighbours merge
    held = list(cs)
    for k in random.Random(seed).sample(held, len(held) - int(keep * len(held))):
        cs.delete(k)
    cs.audit()
    check_select(cs)


@pytest.mark.parametrize("with_column", [False, True], ids=["plain", "column"])
def test_select_after_forced_splits_and_merges(with_column):
    cs = column_set(range(3 * SPLIT_AT)) if with_column else CountedOrderedSet()
    if not with_column:
        for k in range(3 * SPLIT_AT):
            cs.insert(k)
    split = len(cs._blocks)
    assert split > 3
    check_select(cs)
    for k in range(3 * SPLIT_AT):
        if k % 8:
            cs.delete(k)
    assert len(cs._blocks) < split  # blocks under MERGE_BELOW merged
    cs.audit()
    check_select(cs)
    assert cs.select(len(cs) - 1) == 3 * SPLIT_AT - 8
    check_select(CountedOrderedSet())


def test_select_keeps_its_index_error():
    # the descent select shares with values_at is reached only in range
    keys = list(range(0, 6 * TARGET_BLOCK, 3))
    cs = CountedOrderedSet()
    cs.load_sorted(keys, [value_of(k) for k in keys])
    assert cs.select(0) == keys[0] and cs.select(len(keys) - 1) == keys[-1]
    for k in (-1, -len(keys), len(keys), len(keys) + TARGET_BLOCK):
        with pytest.raises(IndexError, match="out of range"):
            cs.select(k)
    empty = CountedOrderedSet()
    empty.load_sorted((), ())
    with pytest.raises(IndexError, match="out of range"):
        empty.select(0)
    assert empty.values_at(0, 0) == array("q")
