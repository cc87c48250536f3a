"""Colour registry and the per-query tally."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemaj.registry import ColourRegistry, ScratchCounters
from rangemaj.tree import MajorityIndex


def test_intern_idempotent():
    reg = ColourRegistry()
    a = reg.intern("red")
    b = reg.intern("red")
    assert a == b
    assert reg.refcount(a) == 2
    assert reg.live_count == 1


def test_three_distinct_labels():
    reg = ColourRegistry()
    ids = {reg.intern(lab) for lab in ("r", "g", "b")}
    assert len(ids) == 3
    assert max(ids) <= 2 * 3
    assert reg.live_count == 3


def test_fresh_labels_stay_within_twice_points():
    reg = ColourRegistry()
    n = 500
    for i in range(n):
        reg.intern(f"c{i}")
        assert reg.maybe_remap(i + 1) is None
    assert reg.capacity <= 2 * n


def test_no_remap_without_a_retired_id():
    # ids held elsewhere push the high-water mark past 2*points, but with
    # no retired id a remap would be the identity
    reg = ColourRegistry()
    for i in range(50):
        reg.intern(f"c{i}")
    assert reg.maybe_remap(1) is None
    reg.release(reg.id_of("c7"))
    mapping = reg.maybe_remap(1)
    assert mapping is not None and reg.capacity == 49
    assert 8 not in mapping and mapping[9] == 8 and mapping[50] == 49


def test_release_retires_and_reuses():
    reg = ColourRegistry()
    a = reg.intern("x")
    reg.intern("x")
    assert reg.release(a) is False  # refcount 2 -> 1, mapping kept
    assert reg.id_of("x") == a
    assert reg.release(a) is True
    assert reg.id_of("x") is None
    with pytest.raises(KeyError):
        reg.refcount(a)
    b = reg.intern("y")
    assert b == a  # smallest retired id reused
    assert reg.live_count == 1


def test_release_unknown_id():
    reg = ColourRegistry()
    reg.intern("x")
    with pytest.raises(KeyError):
        reg.release(99)
    with pytest.raises(KeyError):
        reg.release(0)


def test_intern_release_pairs_reach_zero():
    reg = ColourRegistry()
    for i in range(40):
        cid = reg.intern(i % 7)
        reg.release(cid)
    assert reg.live_count == 0
    reg.audit()


def test_remap_after_mass_deletion():
    # 1000 distinct colours, then 900 single-point colours deleted:
    # a rebuild must leave every live id within 2 * 100
    reg = ColourRegistry()
    live_id = {i: reg.intern(f"c{i}") for i in range(1000)}
    rng = random.Random(5)
    doomed = rng.sample(range(1000), 900)
    points = 1000
    remapped = False
    for i in doomed:
        reg.release(live_id.pop(i))
        points -= 1
        m = reg.maybe_remap(points)
        if m is not None:
            remapped = True
            live_id = {k: m[v] for k, v in live_id.items()}
    assert remapped
    assert reg.live_count == 100
    assert reg.capacity <= 2 * 100
    assert max(reg.live_ids()) <= 200
    reg.audit()


def test_remap_round_trips_labels():
    reg = ColourRegistry()
    ids = {}
    for i in range(300):
        ids[f"lab{i}"] = reg.intern(f"lab{i}")
    for i in range(0, 300, 2):
        reg.release(ids[f"lab{i}"])
    assert reg.maybe_remap(150) is None  # capacity 300 == 2*150, not yet due
    mapping = reg.maybe_remap(100)
    assert mapping is not None
    for i in range(1, 300, 2):
        new_id = mapping[ids[f"lab{i}"]]
        assert reg.label_of(new_id) == f"lab{i}"
        assert reg.id_of(f"lab{i}") == new_id
    # relative order of ids preserved
    new_ids = [mapping[ids[f"lab{i}"]] for i in range(1, 300, 2)]
    assert new_ids == sorted(new_ids)
    assert new_ids == list(range(1, 151))
    reg.audit()


def test_scratch_bump_drain():
    reg = ColourRegistry()
    c = reg.intern("red")
    sc = ScratchCounters()
    sc.bump(c, 3)
    sc.bump(c, 2)
    assert sc[c] == 5
    assert sc.drain() == {c: 5}
    assert c not in sc
    sc.audit_zero()
    assert sc.drain() == {}


def test_scratch_independent_slots():
    reg = ColourRegistry()
    a = reg.intern("a")
    b = reg.intern("b")
    sc = ScratchCounters()
    sc.bump(a, 4)
    sc.bump(b, 7)
    assert sc[a] == 4
    assert sc[b] == 7
    assert sc.drain() == {a: 4, b: 7}
    sc.audit_zero()


def test_audit_rejects_unregistered_list_key():
    # the tally takes any id; a list key that is not a live id is caught
    # by the tree audit instead
    idx = MajorityIndex.build([(i, "c%d" % (i % 3)) for i in range(400)], "1/2")
    idx.audit_tree(deep=True)
    v = idx.root
    assert v.cand
    good = dict(v.cand)
    first = next(iter(good))
    v.cand = {(idx.registry.capacity + 5 if c == first else c): n for c, n in good.items()}
    with pytest.raises(KeyError):
        idx.audit_tree()
    v.cand = good
    idx.audit_tree(deep=True)


def test_scratch_grows_with_registry():
    # no sizing step: every id the registry issues can be tallied at once
    reg = ColourRegistry()
    sc = ScratchCounters()
    ids = [reg.intern(i) for i in range(50)]
    for cid in ids:
        sc.bump(cid, 1)
    assert sc.drain() == dict.fromkeys(ids, 1)
    sc.audit_zero()


def test_scratch_resize_after_remap():
    # a remap needs nothing from the tally: the new dense ids tally at once
    reg = ColourRegistry()
    ids = [reg.intern(i) for i in range(100)]
    sc = ScratchCounters()
    for cid in ids[:90]:
        reg.release(cid)
    assert reg.maybe_remap(10) is not None
    sc.audit_zero()
    for cid in reg.live_ids():
        sc.bump(cid, 2)
    assert sc.drain() == dict.fromkeys(range(1, 11), 2)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["intern", "release", "remap"]), st.integers(0, 20)),
        max_size=200,
    )
)
def test_registry_property(ops):
    reg = ColourRegistry()
    shadow: dict = {}  # label -> refcount
    points = 0
    for op, arg in ops:
        if op == "intern":
            cid = reg.intern(arg)
            shadow[arg] = shadow.get(arg, 0) + 1
            points += 1
            assert reg.label_of(cid) == arg
        elif op == "release" and shadow:
            label = sorted(shadow)[arg % len(shadow)]
            cid = reg.id_of(label)
            retired = reg.release(cid)
            shadow[label] -= 1
            points -= 1
            if shadow[label] == 0:
                del shadow[label]
                assert retired
        else:
            reg.maybe_remap(points)
        assert reg.live_count == len(shadow)
        assert points == sum(shadow.values())
    reg.maybe_remap(points)
    assert reg.capacity <= max(2 * points, 0) or not shadow
    reg.audit()
