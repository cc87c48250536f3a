"""Stateful check of the positional colour array against a plain list.

Inserts (single ones, and runs at one position that exhaust label gaps),
deletes, modifies, appends and queries run in random interleavings; the
array's contents equal the list after every step, every query equals a
brute-force count, and a deep audit follows every step that re-spread a
label window. Across the run, respreads happen at several window levels.
A snapshot round trip saves the array, loads it, checks the copy and
carries on with it.
"""

import os
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from rangemaj import snapshot
from rangemaj.colour_array import DynamicColourArray

ALPHA = Fraction(1, 3)
COLOURS = st.sampled_from(["a", "a", "a", "b", "c", "d", "e"])
POS = st.integers(0, 10**6)


def majorities(window):
    m = len(window)
    p, q = ALPHA.numerator, ALPHA.denominator
    return {c: k for c, k in Counter(window).items() if q * k > p * m}


class ArrayMachine(RuleBasedStateMachine):
    levels: set = set()  # window level of every respread, over all runs

    @initialize(colours=st.lists(COLOURS, max_size=300), bulk=st.booleans())
    def start(self, colours, bulk):
        if bulk:
            self.arr = DynamicColourArray.from_colours(colours, ALPHA)
        else:
            self.arr = DynamicColourArray(ALPHA)
            for c in colours:
                self.arr.append(c)
        self.ref = list(colours)
        self.respread = False
        self._watch()

    def _watch(self):
        inner = self.arr._respread

        def spy(lo, level, *rest):
            ArrayMachine.levels.add(level)
            self.respread = True
            return inner(lo, level, *rest)

        self.arr._respread = spy

    @rule(pos=POS, colour=COLOURS)
    def insert(self, pos, colour):
        i = pos % (len(self.ref) + 1) + 1
        self.arr.insert(i, colour)
        self.ref.insert(i - 1, colour)

    @rule(pos=POS, count=st.integers(1, 200), colour=COLOURS)
    def insert_run(self, pos, count, colour):
        # repeated inserts at one position halve one gap until it is full,
        # then crowd ever wider windows
        i = pos % (len(self.ref) + 1) + 1
        for t in range(count):
            c = colour if t % 3 else "z"
            self.arr.insert(i, c)
            self.ref.insert(i - 1, c)

    @rule(colour=COLOURS)
    def append(self, colour):
        self.arr.append(colour)
        self.ref.append(colour)

    @precondition(lambda self: self.ref)
    @rule(pos=POS)
    def delete(self, pos):
        i = pos % len(self.ref) + 1
        self.arr.delete(i)
        del self.ref[i - 1]

    @precondition(lambda self: self.ref)
    @rule(pos=POS, colour=COLOURS)
    def modify(self, pos, colour):
        i = pos % len(self.ref) + 1
        self.arr.modify(i, colour)
        self.ref[i - 1] = colour

    @precondition(lambda self: self.ref)
    @rule(a=POS, b=POS)
    def query(self, a, b):
        n = len(self.ref)
        i, j = a % n + 1, b % n + 1
        # i > j is an empty range, not an error
        want = majorities(self.ref[i - 1 : j]) if i <= j else {}
        assert self.arr.query_counts(i, j) == want

    @rule(pos=POS)
    def out_of_range(self, pos):
        n = len(self.ref)
        with pytest.raises(IndexError):
            self.arr.query_counts(1, n + 1 + pos % 3)

    @rule(windows=st.lists(st.tuples(POS, POS), max_size=6))
    def snapshot_round_trip(self, windows):
        # the loaded copy answers like the live array, then replaces it
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.jsonl")
            snapshot.save(self.arr, path, "array")
            loaded, mode = snapshot.load(path)
        assert mode == "array" and loaded.alpha == ALPHA
        loaded.audit(deep=True)
        n = len(self.ref)
        assert [loaded.get(i) for i in range(1, n + 1)] == self.ref
        for a, b in windows + [(0, n - 1)] if n else []:
            i, j = a % n + 1, b % n + 1
            assert loaded.query_counts(i, j) == self.arr.query_counts(i, j)
        self.arr = loaded
        self._watch()

    @invariant()
    def matches_list(self):
        assert [self.arr.get(i) for i in range(1, len(self.ref) + 1)] == self.ref
        if self.respread:
            self.arr.audit(deep=True)
            self.respread = False
        else:
            self.arr.audit()


def test_array_state_machine_respreads_at_several_levels():
    ArrayMachine.levels = set()
    run_state_machine_as_test(
        ArrayMachine,
        settings=settings(
            max_examples=20, stateful_step_count=30, deadline=None, derandomize=True
        ),
    )
    assert len(ArrayMachine.levels) >= 3, sorted(ArrayMachine.levels)
