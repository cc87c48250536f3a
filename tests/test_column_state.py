"""Stateful check of the colour column that F carries beside its keys.

Inserts, deletes, queries, forced registry remaps and (for the kinds a
snapshot stores) a save-and-load round trip run in random interleavings
against a plain dict; after every step F's keys equal the leaves'
coordinates and the dict's keys, the column's colours are the dict's
labels in key order, each live colour holds one registry reference per
point of that colour (forced remaps included), and every query equals a
brute-force count.
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
)

from rangemaj import snapshot
from rangemaj.errors import DuplicateKeyError
from rangemaj.tree import MajorityIndex

KEY_OF = {
    "int": lambda i: i,
    "float": lambda i: i / 4,
    "object": lambda i: (i // 16, i % 16),
}
# the snapshot mode that stores each key kind; object keys have none
SNAPSHOT_MODE = {"int": "int", "float": "real", "object": None}
SLOTS = 600  # distinct keys per kind, few enough that inserts collide


def label_of(i):
    # about half the points share one colour, so ranges have majorities
    return "c0" if i < 40 else "c%d" % (i - 40)


LABELS = st.integers(0, 79).map(label_of)


def machine_for(kind):
    key_of = KEY_OF[kind]
    keys = st.integers(0, SLOTS - 1).map(key_of)

    class ColumnMachine(RuleBasedStateMachine):
        @initialize(n=st.integers(0, 450), seed=st.integers(0, 2**16))
        def build(self, n, seed):
            # past 82 points (alpha 1/2) nodes carry candidate lists
            rng = random.Random(seed)
            slots = rng.sample(range(SLOTS), n)
            self.ref = {key_of(i): label_of(rng.randrange(80)) for i in slots}
            self.idx = MajorityIndex.build(self.ref.items(), "1/2", kind)

        @rule(x=keys, label=LABELS)
        def insert(self, x, label):
            if x in self.ref:
                with pytest.raises(DuplicateKeyError):
                    self.idx.insert(x, label)
            else:
                self.idx.insert(x, label)
                self.ref[x] = label

        @rule(x=keys, pick=st.integers(0, 10**6), present=st.booleans())
        def delete(self, x, pick, present):
            if present and self.ref:
                x = sorted(self.ref)[pick % len(self.ref)]
            if x in self.ref:
                self.idx.delete(x)
                del self.ref[x]
            else:
                with pytest.raises(KeyError):
                    self.idx.delete(x)

        @rule(a=keys, b=keys)
        def query(self, a, b):
            lo, hi = min(a, b), max(a, b)
            counts: dict = {}
            for x, label in self.ref.items():
                if lo <= x <= hi:
                    counts[label] = counts.get(label, 0) + 1
            m = sum(counts.values())
            want = {c: f for c, f in counts.items() if 2 * f > m}
            assert self.idx.query_counts(lo, hi) == want

        @rule()
        def remap(self):
            # the same id rewrite a delete applies once ids run sparse
            mapping = self.idx.registry.maybe_remap(0)
            if mapping:
                self.idx._apply_remap(mapping)

        @precondition(lambda self: SNAPSHOT_MODE[kind] is not None)
        @rule(probes=st.lists(st.tuples(keys, keys), max_size=8))
        def snapshot_round_trip(self, probes):
            # the loaded copy answers like the live index, then replaces it
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "snap.jsonl")
                snapshot.save(self.idx, path, SNAPSHOT_MODE[kind])
                loaded, mode = snapshot.load(path)
            assert mode == SNAPSHOT_MODE[kind]
            assert loaded.alpha == self.idx.alpha and len(loaded) == len(self.ref)
            loaded.audit_tree(deep=True)
            for a, b in probes + [(key_of(0), key_of(SLOTS - 1))]:
                lo, hi = min(a, b), max(a, b)
                assert loaded.query_counts(lo, hi) == self.idx.query_counts(lo, hi)
            self.idx = loaded

        @invariant()
        def column_matches_leaves(self):
            F, reg = self.idx.F, self.idx.registry
            assert list(F) == [lf.coord for lf in self.idx.leaves()] == sorted(self.ref)
            assert [reg.label_of(c) for _, c in F.items()] == [
                self.ref[x] for x in sorted(self.ref)
            ]
            # audit_tree checks refcount(c) == len(per_colour[c]) for every
            # live id; the model checks the same by label
            self.idx.audit_tree()
            held = {reg.label_of(c): reg.refcount(c) for c in reg.live_ids()}
            assert held == Counter(self.ref.values())

    ColumnMachine.__name__ = f"ColumnMachine_{kind}"
    return ColumnMachine


SETTINGS = settings(max_examples=25, stateful_step_count=40, deadline=None)
TestColumnInt = machine_for("int").TestCase
TestColumnInt.settings = SETTINGS
TestColumnFloat = machine_for("float").TestCase
TestColumnFloat.settings = SETTINGS
TestColumnObject = machine_for("object").TestCase
TestColumnObject.settings = SETTINGS
