"""Stateful check of the planar index against a brute-force store.

Inserts, deletes, rectangle queries and the two counting layers run in
random interleavings against ``NaiveStore2D``, with ``audit2d`` after
every step, and after every step each live colour holds exactly one
registry reference per live point of that colour. Two bulk rules move the whole index across the light
cutoff L: ``grow`` doubles every x-span until more than 2L points are
stored, and ``drain`` halves them until at most L/2 are left. Both keep
the x-tree balanced, so the nodes convert in place (light to heavy, and
back) instead of being rebuilt by a scapegoat step; the random inserts
and deletes set off scapegoat rebuilds. A snapshot round
trip saves the index, loads it, checks the copy and carries on with it.
"""

import os
import random
import tempfile
from collections import Counter

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
from rangemaj.errors import DuplicateKeyError
from rangemaj.oracle import NaiveStore2D
from rangemaj.planar import MajorityIndex2D

SPACE = 1 << 16  # x spacing of built points: room for ten doublings
X_MAX = 200 * SPACE
Y_SPAN = 40
XS = st.integers(-1, X_MAX + 1)
YS = st.integers(-1, Y_SPAN)


def label_of(i):
    # about half the points share one colour, so rectangles have majorities
    return "c0" if i % 2 else "c%d" % (i % 13)


def point_at(x):
    return x, (x * 7919) % Y_SPAN, label_of(x // 3)


class PlanarMachine(RuleBasedStateMachine):
    moved = {"to_heavy": 0, "to_light": 0, "rebuilds": 0}

    @initialize(n=st.integers(0, 120), seed=st.integers(0, 2**16))
    def build(self, n, seed):
        rng = random.Random(seed)
        pts = [point_at(i * SPACE) for i in rng.sample(range(200), n)]
        self.idx = MajorityIndex2D.build(pts, "1/2")
        self.ref = NaiveStore2D()
        self.xs = {}  # x -> colour label
        for x, y, label in pts:
            self._mirror_insert(x, y, label)

    def _mirror_insert(self, x, y, label):
        self.ref.insert(x, y, label)
        self.xs[x] = label

    def _insert(self, x, y, label):
        self.idx.insert(x, y, label)
        self._mirror_insert(x, y, label)

    def _delete(self, x):
        self.idx.delete(x)
        self.ref.delete(x)
        del self.xs[x]

    @rule(x=XS, y=YS, i=st.integers(0, 25))
    def insert(self, x, y, i):
        if x in self.xs:
            with pytest.raises(DuplicateKeyError):
                self.idx.insert(x, y, label_of(i))
        else:
            self._insert(x, y, label_of(i))

    @rule(x=XS, pick=st.integers(0, 10**6), present=st.booleans())
    def delete(self, x, pick, present):
        if present and self.xs:
            x = sorted(self.xs)[pick % len(self.xs)]
        if x in self.xs:
            self._delete(x)
        else:
            with pytest.raises(KeyError):
                self.idx.delete(x)

    @precondition(lambda self: len(self.xs) <= 2 * self.idx.light_cutoff)
    @rule()
    def grow(self):
        # a point in every gap of the x order and one past the end
        while len(self.xs) <= 2 * self.idx.light_cutoff:
            xs = sorted(self.xs) or [0]
            new = [(a + b) // 2 for a, b in zip(xs, xs[1:]) if b - a >= 2]
            for x in new + [xs[-1] + SPACE]:
                self._insert(*point_at(x))

    @precondition(lambda self: 2 * len(self.xs) > self.idx.light_cutoff)
    @rule()
    def drain(self):
        # every other point in x order
        while 2 * len(self.xs) > self.idx.light_cutoff:
            for x in sorted(self.xs)[1::2]:
                self._delete(x)

    @rule(x1=XS, x2=XS, y1=YS, y2=YS)
    def query(self, x1, x2, y1, y2):
        box = min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)
        m, counts = self.ref.counts(*box)
        want = {lab: f for lab, f in counts.items() if 2 * f > m}
        assert self.idx.query_counts(*box) == want

    @rule(x1=XS, x2=XS, y1=YS, y2=YS, i=st.integers(0, 25))
    def count_layers(self, x1, x2, y1, y2, i):
        box = min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)
        m, counts = self.ref.counts(*box)
        assert self.idx.rect_count(*box) == m
        lab = label_of(i)
        assert self.idx.rect_colour_count(lab, *box) == counts.get(lab, 0)

    @rule(boxes=st.lists(st.tuples(XS, XS, YS, YS), max_size=6))
    def snapshot_round_trip(self, boxes):
        # the loaded copy answers like the live index, then replaces it
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.jsonl")
            snapshot.save(self.idx, path, "2d")
            loaded, mode = snapshot.load(path)
        assert mode == "2d" and loaded.alpha == self.idx.alpha
        loaded.audit2d()
        assert list(loaded.points()) == list(self.idx.points())
        for x1, x2, y1, y2 in boxes + [(-1, X_MAX + 1, -1, Y_SPAN)]:
            box = min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)
            assert loaded.query_counts(*box) == self.idx.query_counts(*box)
        self._count_moves()
        self.idx = loaded

    @invariant()
    def audited(self):
        self.idx.audit2d()
        assert len(self.idx) == len(self.xs)

    @invariant()
    def one_reference_per_point(self):
        reg = self.idx.registry
        held = {reg.label_of(c): reg.refcount(c) for c in reg.live_ids()}
        assert held == Counter(self.xs.values())

    def _count_moves(self):
        for k in self.moved:
            self.moved[k] += self.idx.stats[k]

    def teardown(self):
        if hasattr(self, "idx"):
            self._count_moves()


def test_planar_state_machine_converts_both_ways():
    PlanarMachine.moved = {"to_heavy": 0, "to_light": 0, "rebuilds": 0}
    run_state_machine_as_test(
        PlanarMachine,
        settings=settings(
            max_examples=10, stateful_step_count=25, deadline=None, derandomize=True
        ),
    )
    # the bulk rules took nodes across the cutoff, both ways, in place,
    # and single updates rebuilt scapegoat subtrees
    assert PlanarMachine.moved["to_heavy"] >= 1
    assert PlanarMachine.moved["to_light"] >= 1
    assert PlanarMachine.moved["rebuilds"] >= 1
