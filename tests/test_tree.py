"""Behavioural tests for the 1-D majority index."""

import gc
import random
import threading
from array import array
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemaj import tree
from rangemaj.counted_set import TARGET_BLOCK, CountedOrderedSet
from rangemaj.errors import DuplicateKeyError
from rangemaj.fuzz import FuzzDriver
from rangemaj.oracle import NaiveStore, naive_majority
from rangemaj.params import BRANCH, rebuild_threshold
from rangemaj.registry import ColourRegistry
from rangemaj.tree import MajorityIndex, count_ids, group_by_height


def small_index(alpha="1/2", kind="int"):
    pts = [(1, "r"), (2, "b"), (3, "r")]
    return MajorityIndex.build(pts, alpha, kind)


@contextmanager
def query_spy():
    """Record every 1-D query from the calls of MajorityIndex._accumulate,
    which only a general query makes, and of tree.answer, which every
    query makes once. Yields a list that gains one dict per query: its
    point count "m", its "mode" ("empty", "pruned" or "general") and the
    survivors it "drained" as (colour id, tally) pairs; a general query
    adds its "window" of ranks [r, r + m) as (r, r + m), its "listed"
    nodes and the other points' colour "ids"."""
    queries, walks = [], []
    orig_walk, orig_answer = MajorityIndex._accumulate, tree.answer

    def accumulate(index, a, b):
        listed, ids = orig_walk(index, a, b)
        walks.append(((a, b), listed, ids))
        return listed, ids

    def answer(m, *args):
        out, tallies = orig_answer(m, *args)
        record = {"m": m, "mode": "pruned" if m else "empty",
                  "drained": list(tallies.items())}
        if walks:
            (window, listed, ids), = walks
            walks.clear()
            record.update(mode="general", window=window, listed=listed, ids=ids)
        queries.append(record)
        return out, tallies

    with mock.patch.object(MajorityIndex, "_accumulate", accumulate), \
            mock.patch.object(tree, "answer", answer):
        yield queries


class TestBuild:
    def test_empty_build_queries_empty(self):
        idx = MajorityIndex.build([], "1/2")
        assert idx.query(0, 100) == set()
        assert idx.query_counts(-5, 5) == {}
        assert len(idx) == 0 and idx.root is None

    def test_three_point_majority(self):
        idx = small_index()
        assert idx.query(1, 3) == {"r"}
        assert idx.query_counts(1, 3) == {"r": 2}

    def test_sizes_after_build(self):
        pts = [(i, "c%d" % (i % 7)) for i in range(500)]
        idx = MajorityIndex.build(pts, "1/4")
        assert len(idx) == 500
        assert idx.root.weight == 500
        idx.audit_tree(deep=True)

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(DuplicateKeyError):
            MajorityIndex.build([(1, "a"), (1, "b")], "1/2")

    def test_duplicate_with_incomparable_labels_rejected(self):
        # the build sorts by coordinate alone, so labels never compare
        with pytest.raises(DuplicateKeyError):
            MajorityIndex.build([(1, "a"), (1, 2)], "1/2")
        idx = MajorityIndex.build([(2, "a"), (1, 2), (3, None)], "1/2")
        assert idx.query_counts(1, 1) == {2: 1}
        assert [lf.coord for lf in idx.leaves()] == [1, 2, 3]

    def test_build_matches_incremental(self):
        rng = random.Random(4)
        pts = [(c, "c%d" % rng.randrange(6)) for c in rng.sample(range(10000), 800)]
        bulk = MajorityIndex.build(pts, "1/10")
        inc = MajorityIndex("1/10")
        for c, lab in pts:
            inc.insert(c, lab)
        bulk.audit_tree(deep=True)
        inc.audit_tree(deep=True)
        for _ in range(300):
            lo = rng.randrange(-100, 10100)
            hi = rng.randrange(lo, 10100)
            assert bulk.query_counts(lo, hi) == inc.query_counts(lo, hi)

    @staticmethod
    def _greedy_groups(weights, target):
        # the reference grouping: close a group once its weight reaches
        # the target; a last group under half the target joins the one
        # before
        groups, cur, acc = [], [], 0
        for w in weights:
            cur.append(w)
            acc += w
            if acc >= target:
                groups.append(cur)
                cur, acc = [], 0
        if cur:
            if groups and 2 * acc < target:
                groups[-1].extend(cur)
            else:
                groups.append(cur)
        return [len(g) for g in groups]

    @pytest.mark.parametrize(
        "n", [2, 3, 7, 8, 9, 11, 12, 13, 63, 64, 65, 68, 100, 511, 512, 515, 700, 4100, 5000]
    )
    def test_levels_group_like_the_greedy_reference(self, n):
        idx = MajorityIndex.build([(i, "c%d" % (i % 3)) for i in range(n)], "1/2")
        level = list(idx.leaves())
        h = 0
        while len(level) > 1:
            h += 1
            parents = list(dict.fromkeys(v.parent for v in level))
            assert all(p.height == h for p in parents)
            want = self._greedy_groups([v.weight for v in level], BRANCH**h)
            assert [len(p.children) for p in parents] == want
            level = parents
        assert level == [idx.root]
        idx.audit_tree(deep=True)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_bulk_build_leaves_the_collector_as_it_was(self, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            MajorityIndex.build([(i, "c%d" % (i % 3)) for i in range(300)], "1/2")
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestStrictness:
    def test_exact_half_is_not_reported(self):
        idx = MajorityIndex.build([(1, "r"), (2, "b")], "1/2")
        assert idx.query(1, 2) == set()

    def test_just_over_half_is_reported(self):
        idx = MajorityIndex.build([(1, "r"), (2, "b"), (3, "r")], "1/2")
        assert idx.query(1, 3) == {"r"}

    def test_empty_window_inside_points(self):
        idx = MajorityIndex.build([(1, "r"), (5, "b"), (9, "r")], "1/2")
        assert idx.query(10, 20) == set()
        assert idx.query(6, 8) == set()

    def test_reversed_bounds_empty(self):
        idx = small_index()
        assert idx.query(3, 1) == set()


class TestUpdates:
    def test_insert_into_empty_then_point_query(self):
        idx = MajorityIndex("1/2")
        idx.insert(7, "g")
        assert idx.query(7, 7) == {"g"}
        assert idx.query(0, 100) == {"g"}

    def test_duplicate_insert_raises(self):
        idx = small_index()
        with pytest.raises(DuplicateKeyError):
            idx.insert(2, "z")

    def test_delete_absent_raises(self):
        idx = small_index()
        with pytest.raises(KeyError):
            idx.delete(42)
        with pytest.raises(KeyError):
            MajorityIndex("1/2").delete(1)

    def test_insert_delete_roundtrip(self):
        idx = small_index()
        idx.insert(10, "b")
        idx.delete(10)
        assert idx.query_counts(1, 3) == {"r": 2}
        idx.audit_tree(deep=True)

    def test_delete_to_empty_and_refill(self):
        idx = MajorityIndex.build([(i, "x") for i in range(50)], "1/2")
        for i in range(50):
            idx.delete(i)
        assert len(idx) == 0 and idx.root is None
        idx.insert(3, "y")
        assert idx.query(0, 10) == {"y"}

    def test_duplicate_insert_leaves_registry_untouched(self):
        # the duplicate is found before the colour is interned
        idx = small_index()
        reg = idx.registry
        before = (reg.capacity, reg.live_count, reg.refcount(reg.id_of("r")))
        for label in ("brand-new", "r"):
            with pytest.raises(DuplicateKeyError):
                idx.insert(3, label)
        assert (reg.capacity, reg.live_count, reg.refcount(reg.id_of("r"))) == before
        assert reg.id_of("brand-new") is None
        idx.audit_tree(deep=True)

    def test_updates_probe_f_once(self, monkeypatch):
        idx = MajorityIndex.build([(i, "c%d" % (i % 5)) for i in range(300)], "1/4")
        calls = []
        cls = type(idx.F)
        for name in ("count_range", "__contains__", "rank_lt", "rank_le", "insert", "delete"):
            orig = getattr(cls, name)

            def spy(self, *args, _orig=orig, _name=name):
                if self is idx.F:
                    calls.append(_name)
                return _orig(self, *args)

            monkeypatch.setattr(cls, name, spy)
        idx.insert(1000, "c1")
        assert calls == ["insert"]
        calls.clear()
        idx.delete(1000)
        assert calls == ["delete"]
        calls.clear()
        with pytest.raises(DuplicateKeyError):
            idx.insert(5, "c2")
        with pytest.raises(KeyError):
            idx.delete(1000)
        assert calls == ["insert", "delete"]

    def test_coordinate_validation_int(self):
        idx = MajorityIndex("1/2", "int")
        with pytest.raises(ValueError):
            idx.insert(1.5, "a")
        with pytest.raises(ValueError):
            idx.insert(True, "a")
        with pytest.raises(ValueError):
            idx.insert(1 << 63, "a")
        idx.insert((1 << 62) - 1, "a")
        assert idx.query(0, 1 << 62) == {"a"}

    def test_coordinate_validation_float(self):
        idx = MajorityIndex("1/2", "float")
        with pytest.raises(ValueError):
            idx.insert(float("nan"), "a")
        with pytest.raises(ValueError):
            idx.insert(float("inf"), "a")
        idx.insert(2.5, "a")
        assert idx.query(2.0, 3.0) == {"a"}

    @pytest.mark.parametrize("bad", ["3", True, False, None, b"1", (1.0,)])
    def test_float_kind_refuses_non_numbers(self, bad):
        # like the int kind: no string is parsed and no bool taken as 0/1
        idx = MajorityIndex.build([(1.0, "a"), (2, "a")], "1/2", "float")
        with pytest.raises(ValueError):
            idx.insert(bad, "b")
        with pytest.raises(ValueError):
            idx.delete(bad)
        with pytest.raises(ValueError):
            idx.query_counts(bad, 3.0)
        with pytest.raises(ValueError):
            idx.query_counts(0.0, bad)
        with pytest.raises(ValueError):
            MajorityIndex.build([(bad, "b")], "1/2", "float")
        assert idx.query_counts(0, 3) == {"a": 2}
        assert [lf.coord for lf in idx.leaves()] == [1.0, 2.0]

    def test_float_kind_ints_and_huge_bounds(self):
        idx = MajorityIndex("1/2", "float")
        idx.insert(3, "a")  # an int is kept as a double
        assert type(next(idx.leaves()).coord) is float
        with pytest.raises(ValueError):
            idx.insert(10**400, "a")  # past the doubles: not finite
        assert idx.query_counts(-(10**400), 10**400) == {"a": 1}

    def test_unknown_key_kind_rejected(self):
        with pytest.raises(ValueError):
            MajorityIndex("1/2", "decimal")


class TestCandidateLists:
    def test_top_two_of_three_colours(self):
        # frequencies 5, 3, 1 with a list of size >= 2 keeps both heavy colours
        pts = [(i, "heavy") for i in range(5)]
        pts += [(10 + i, "mid") for i in range(3)]
        pts += [(20, "rare")]
        idx = MajorityIndex.build(pts, "1/2")
        node = idx.root
        idx.rebuild_list(node)
        heavy = idx.registry.id_of("heavy")
        mid = idx.registry.id_of("mid")
        assert node.cand[heavy] == 5
        assert node.cand[mid] == 3
        ranked = sorted(node.cand.items(), key=lambda kv: -kv[1])[:2]
        assert [cid for cid, _ in ranked] == [heavy, mid]

    def test_list_ties_keep_smallest_ids_in_order(self):
        # 60 colours twice each, more than the 41 a list keeps: ties are
        # cut by id, not by where a colour first appears. Inserting in
        # descending coordinate order gives the largest ids to the
        # leftmost colours.
        idx = MajorityIndex("1/2")
        for x in reversed(range(120)):
            idx.insert(x, "c%d" % (x % 60))
        idx.rebuild_list(idx.root)
        k = idx.cfg.list_size
        assert list(idx.root.cand.items()) == [(cid, 2) for cid in range(1, k + 1)]
        idx.audit_tree(deep=True)

    def test_single_colour_list(self):
        idx = MajorityIndex.build([(i, "only") for i in range(200)], "1/2")
        idx.rebuild_list(idx.root)
        assert idx.root.cand == {idx.registry.id_of("only"): 200}

    def test_rebuild_is_lazy_until_threshold(self):
        # a fresh list absorbs threshold-1 updates, the next one rebuilds
        idx = MajorityIndex.build([(i, "c%d" % (i % 9)) for i in range(420)], "1/2")
        v = idx.root
        idx.rebuild_list(v)
        thresh = v.rebuild_at
        assert thresh == 10  # ceil((1/21)*420/2)
        serial = v.rebuild_serial
        base = 10**6
        for i in range(thresh - 1):
            idx.insert(base + i, "fresh")
            assert v.rebuild_serial == serial, f"rebuilt early at update {i + 1}"
        idx.insert(base + thresh, "fresh")
        assert v.rebuild_serial == serial + 1
        assert v.staleness == 0

    @pytest.mark.parametrize("alpha", ["1/2", "1/4", "1/10", "3/10", "1/100"])
    def test_rebuild_budget_matches_rebuild_threshold(self, alpha):
        # the budget is integer arithmetic on beta's terms, which
        # rebuild_threshold computes from beta itself: bulk lists, then
        # rebuilt ones, over node weights of both parities
        rng = random.Random(alpha)
        weights = set()
        for n in (900, 5003, 20_000):
            idx = MajorityIndex.build([(x, "c%d" % rng.randrange(9)) for x in range(n)], alpha)
            for v in idx.internal_nodes():
                if v.cand is not None:
                    assert v.rebuild_at == rebuild_threshold(v.weight, idx.cfg.beta)
            for x in rng.sample(range(n), 41):
                idx.delete(x)
            for v in idx.internal_nodes():
                if v.cand is not None:
                    idx.rebuild_list(v)
                    assert v.rebuild_at == rebuild_threshold(v.weight, idx.cfg.beta)
                    weights.add(v.weight)
        assert {w % 2 for w in weights} == {0, 1}

    def test_tracked_counts_stay_exact(self):
        idx = MajorityIndex.build([(i, "a" if i % 3 else "b") for i in range(300)], "1/2")
        v = idx.root
        idx.rebuild_list(v)
        aid = idx.registry.id_of("a")
        before = v.cand[aid]
        idx.insert(1000, "a")
        idx.insert(1001, "a")
        idx.delete(1000)
        if v.cand is not None and aid in v.cand and idx.root is v:
            assert v.cand[aid] == before + 1

    def test_pruned_small_nodes_have_no_list(self):
        idx = MajorityIndex.build([(i, "x") for i in range(5)], "1/2")
        assert idx.root.cand is None  # 5 <= prune cutoff for alpha=1/2
        assert idx.query(0, 4) == {"x"}


class TestRebuildEquivalence:
    """``rebuild_list`` against a ``Counter`` over the node's slice of
    F's column."""

    @staticmethod
    def counter_list(idx, v):
        counts = Counter(idx.F.values_from(v.min_leaf.coord, v.weight))
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: idx.cfg.list_size]

    @pytest.mark.parametrize("sparse", [False, True], ids=["bincount", "unique"])
    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.sampled_from(["1/2", "1/4"]),
        n=st.integers(TARGET_BLOCK, 5 * TARGET_BLOCK),
        colours=st.integers(1, 400),
        updates=st.integers(0, 300),
        seed=st.integers(0, 2**32),
    )
    def test_rebuilt_lists_match_counter(self, sparse, alpha, n, colours, updates, seed):
        rng = random.Random(seed)
        registry = ColourRegistry()
        dummies = [("dummy", i) for i in range(50_000 if sparse else 0)]
        # Ids far above any slice length: 50,000 labels interned first
        # hold the low ids until the lists are checked. A remap after a
        # delete keeps the order of the ids, so it leaves the points'
        # ids above 50,000.
        for label in dummies:
            registry.intern(label)
        skew = rng.random() * 3

        def colour():
            return "c%d" % int(colours * rng.random() ** (1 + skew))

        coords = rng.sample(range(20 * n), n)
        idx = MajorityIndex.build([(x, colour()) for x in coords], alpha, registry=registry)
        live = set(coords)
        for _ in range(updates):
            if rng.random() < 0.5 and live:
                x = rng.choice(sorted(live))
                idx.delete(x)
                live.discard(x)
            else:
                x = rng.randrange(20 * n)
                if x not in live:
                    idx.insert(x, colour())
                    live.add(x)
        # block boundaries of F, as positions in key order
        edges = set(np.cumsum([len(b) for b in idx.F._blocks]).tolist())
        crossed = 0
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            for v in idx.internal_nodes():
                if v.cand is None:
                    continue
                first = idx.F.rank_lt(v.min_leaf.coord)
                crossed += any(first < e < first + v.weight for e in edges)
                idx.rebuild_list(v)
                assert list(v.cand.items()) == self.counter_list(idx, v)
                assert v.staleness == 0
        # dense ids count with bincount, sparse ones fall back to unique
        assert unique.called == sparse
        if len(idx) >= 2 * TARGET_BLOCK:
            assert crossed, "no rebuilt slice crossed a block boundary"
        for label in dummies:
            registry.release(registry.id_of(label))
        if dummies:
            idx._apply_remap(registry.maybe_remap(len(idx)))
        idx.audit_tree(deep=True)


class TestQueryPaths:
    def test_single_node_pruned_path(self):
        idx = MajorityIndex.build([(1, "r"), (2, "b"), (3, "r")], "1/2")
        with query_spy() as queries:
            assert idx.query(1, 3) == {"r"}
        assert queries[-1]["mode"] == "pruned"

    def test_single_leaf_path(self):
        # one point is no more than a light node holds: it is scanned
        idx = MajorityIndex.build([(i, "c%d" % i) for i in range(100)], "1/2")
        with query_spy() as queries:
            assert idx.query(17, 17) == {"c17"}
        assert queries[-1]["mode"] == "pruned"

    def test_listed_exact_cover(self):
        idx = MajorityIndex.build([(i, "maj" if i % 2 else "c%d" % i) for i in range(512)], "1/2")
        visits = idx.stats["pruned_leaf_visits"]
        with query_spy() as queries:
            got = idx.query_counts(0, 511)
        # the exact cover is the root: general, the root its one listed node
        assert queries[-1]["mode"] == "general"
        assert queries[-1]["listed"] == [idx.root] and not queries[-1]["ids"]
        assert idx.stats["pruned_leaf_visits"] == visits  # no slice was read
        assert got == {}  # 256 of 512 is exactly half, strictness excludes it
        idx.delete(0)
        assert idx.query(0, 511) == {"maj"}

    def test_listed_exact_cover_reads_the_list_only(self, monkeypatch):
        # churned first, so the lists answering are stale
        rng = random.Random(31)
        xs = rng.sample(range(200_000), 20_000)
        colour = {x: "c%d" % min(int(rng.paretovariate(1.2)), 60) for x in xs}
        idx = MajorityIndex.build(colour.items(), "1/10")
        for _ in range(3000):
            x = rng.choice(xs)
            idx.delete(x)
            colour[x] = "c%d" % min(int(rng.paretovariate(1.2)), 60)
            idx.insert(x, colour[x])
        idx.audit_tree(deep=True)
        verified = []
        cls = type(idx.F)
        orig = cls.count_range

        def spy(self, lo, hi):
            if self is not idx.F:
                verified.append(self)
            return orig(self, lo, hi)

        monkeypatch.setattr(cls, "count_range", spy)
        nodes = [v for v in idx.internal_nodes() if v.cand is not None]
        assert any(v.staleness for v in nodes)
        visits = idx.stats["pruned_leaf_visits"]
        reported = 0
        for v in nodes:
            a, b = v.min_leaf.coord, v.max_leaf.coord
            with query_spy() as queries:
                got = idx.query_counts(a, b)
            assert queries[-1]["mode"] == "general"
            assert queries[-1]["listed"] == [v] and not queries[-1]["ids"]
            counts: dict = {}
            for x, lab in colour.items():
                if a <= x <= b:
                    counts[lab] = counts.get(lab, 0) + 1
            assert got == {lab: f for lab, f in counts.items() if 10 * f > v.weight}
            reported += len(got)
        assert reported
        assert verified == []
        assert idx.stats["pruned_leaf_visits"] == visits

    def test_general_path_matches_oracle(self):
        rng = random.Random(12)
        pts = [(c, "c%d" % rng.randrange(5)) for c in rng.sample(range(5000), 1500)]
        idx = MajorityIndex.build(pts, "1/4")
        general = 0
        for _ in range(200):
            lo = rng.randrange(0, 5000)
            hi = rng.randrange(lo, 5000)
            want = naive_majority(pts, lo, hi, "1/4")
            with query_spy() as queries:
                assert idx.query(lo, hi) == want
            if queries[-1]["mode"] == "general":
                general += 1
        assert general > 50

    def test_decompose_partitions_and_rejects_single(self):
        rng = random.Random(9)
        idx = MajorityIndex.build([(c, "x") for c in range(1000)], "1/2")
        with pytest.raises(ValueError):
            idx.decompose(0, 999)  # root covers the whole range
        for _ in range(100):
            lo = rng.randrange(0, 900)
            hi = rng.randrange(lo + 20, 1000)
            try:
                nodes = idx.decompose(lo, hi)
            except ValueError:
                continue
            total = sum(n.weight for n in nodes)
            assert total == hi - lo + 1
            leaves = sorted(
                l.coord for n in nodes for l in (iter_leaves(n))
            )
            assert leaves == list(range(lo, hi + 1))
            groups = group_by_height(nodes)
            hs = [h for h, _ in groups]
            assert hs == sorted(hs, reverse=True)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["int", "float", "object"]),
        n=st.integers(min_value=1, max_value=700),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_decompose_all_gives_maximal_nodes_of_any_window(self, kind, n, seed, data):
        key = {"int": lambda i: 3 * i - 500, "float": lambda i: i / 4 - 7.5,
               "object": lambda i: ("k", i)}[kind]
        keys = [key(i) for i in range(n)]
        order = random.Random(seed).sample(keys, n)
        # bulk-built, then grown by inserts, so that nodes split unevenly
        built = data.draw(st.integers(min_value=0, max_value=n))
        idx = MajorityIndex.build([(x, "c") for x in order[:built]], "1/2", kind)
        for x in order[built:]:
            idx.insert(x, "c")
        shape = data.draw(st.sampled_from(["any", "node", "leaf", "whole"]))
        if shape == "node":
            node = data.draw(st.sampled_from([idx.root, *idx.internal_nodes(), *idx.leaves()]))
            i, j = keys.index(node.min_leaf.coord), keys.index(node.max_leaf.coord)
        elif shape == "leaf":
            i = j = data.draw(st.integers(min_value=0, max_value=n - 1))
        elif shape == "whole":
            i, j = 0, n - 1
        else:
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=i, max_value=n - 1))
        a, b = keys[i], keys[j]
        out = idx._decompose_all(a, b)
        # disjoint, and together exactly the window's points
        assert sum(v.weight for v in out) == j - i + 1
        assert sorted(lf.coord for v in out for lf in iter_leaves(v)) == keys[i : j + 1]
        # maximal: no node's parent lies inside the window
        for v in out:
            up = v.parent
            assert up is None or up.min_leaf.coord < a or up.max_leaf.coord > b
        if shape == "node":
            assert out == [node]
        elif shape == "whole":
            assert out == [idx.root]


def iter_leaves(node):
    stack = [node]
    while stack:
        v = stack.pop()
        if v.height:
            stack.extend(v.children)
        else:
            yield v


def oracle_answer(store, lo, hi, idx):
    """The strict alpha-majorities of [lo, hi] with counts, and m."""
    p, q = idx._ap, idx._aq
    m, counts = store.counts(lo, hi)
    return {lab: f for lab, f in counts.items() if q * f > p * m}, m


class TestScanCutoff:
    """Windows of at most ``prune_cutoff`` points are counted outright."""

    @pytest.mark.parametrize("kind", ["int", "float", "object"])
    @pytest.mark.parametrize("alpha", ["1/2", "1/4", "1/10", "1/100"])
    def test_windows_around_the_cutoff(self, alpha, kind):
        rng = random.Random(f"{alpha} {kind}")
        cut = MajorityIndex(alpha).prune_cutoff
        n = 2 * cut + 200
        xs = sorted(rng.sample(range(10 * n), n))
        if kind == "float":
            xs = [x + 0.25 for x in xs]
        pts = [(x, "hot" if rng.random() < 0.52 else "c%d" % rng.randrange(6)) for x in xs]
        idx = MajorityIndex.build(pts, alpha, kind)
        store = NaiveStore()
        for x, lab in pts:
            store.insert(x, lab)
        modes = {cut - 1: {"pruned"}, cut: {"pruned"}, cut + 1: {"general"}}
        reported = 0
        for m, allowed in modes.items():
            for i in [0, n - m] + [rng.randrange(n - m) for _ in range(6)]:
                lo, hi = xs[i], xs[i + m - 1]
                want, got_m = oracle_answer(store, lo, hi, idx)
                assert got_m == m
                with query_spy() as queries:
                    got = idx.query_counts(lo, hi)
                assert got == want
                assert queries[-1]["mode"] in allowed
                assert queries[-1]["m"] == m
                reported += len(got)
        assert reported
        idx.audit_tree(deep=True)


def drifting_index(seed, n, alpha, churn):
    """An index whose colours drift with the coordinate, plus noise, so
    that a window's frequent colour is often absent from a listed node
    at its far end; churn recolours points afterwards, so lists go
    stale. Returns the index and its mirror."""
    rng = random.Random(seed)
    span = 20 * n

    def colour(x):
        return "d%d" % (x // (span // 25)) if rng.random() < 0.6 else "n%d" % rng.randrange(30)

    xs = rng.sample(range(span), n)
    label = {x: colour(x) for x in xs}
    idx = MajorityIndex.build(label.items(), alpha)
    for _ in range(churn):
        x = rng.choice(xs)
        idx.delete(x)
        label[x] = colour(x)
        idx.insert(x, label[x])
    store = NaiveStore()
    for x, lab in label.items():
        store.insert(x, lab)
    return idx, store


def general_queries(idx, store, seed, count):
    """Run count log-uniform windows against the oracle, and yield for
    each general one (listed nodes, survivors, counted), where counted
    lists the per-colour sets the query counted, in call order."""
    rng = random.Random(seed)
    lo_key, hi_key = idx.F.successor(-1), idx.F.predecessor(1 << 62)
    for _ in range(count):
        lo = rng.randrange(lo_key, hi_key)
        hi = lo + int(10 ** rng.uniform(2, 6))
        want, _ = oracle_answer(store, lo, hi, idx)
        with mock.patch.object(CountedOrderedSet, "count_range", autospec=True,
                               side_effect=CountedOrderedSet.count_range) as spy, \
                query_spy() as queries:
            assert idx.query_counts(lo, hi) == want
        dbg = queries[-1]
        if dbg["mode"] != "general":
            continue
        counted = [c.args[0] for c in spy.call_args_list if c.args[0] is not idx.F]
        yield dbg["listed"], dict(dbg["drained"]), counted


class TestExactTallies:
    """Every point of a general window lies in a listed node or in the
    ids, so a survivor's tally is its exact count when every listed node
    tracks it; only other survivors are verified."""

    def test_uncut_tracked_survivors_count_nothing(self):
        idx, store = drifting_index(seed=1, n=30_000, alpha="1/10", churn=0)
        seen = with_lists = 0
        for listed, drained, counted in general_queries(idx, store, 2, 1500):
            if any(c not in u.cand for u in listed for c in drained):
                continue
            assert counted == []
            seen += 1
            with_lists += bool(listed and drained)
        assert seen > 50 and with_lists > 10
        idx.audit_tree(deep=True)

    def test_survivor_missing_from_a_stale_list_is_counted(self):
        idx, store = drifting_index(seed=3, n=30_000, alpha="1/10", churn=4000)
        missing = 0
        for listed, drained, counted in general_queries(idx, store, 4, 1500):
            # exactly the survivors some listed node omits, once each
            short = [c for c in drained if any(c not in u.cand for u in listed)]
            assert sorted(map(id, counted)) == sorted(id(idx.per_colour[c]) for c in short)
            missing += any(
                c not in u.cand and u.staleness for c in drained for u in listed
            )
        assert missing > 10
        idx.audit_tree(deep=True)

    def test_lemma_audits_stay_live_at_one_percent(self):
        # most windows of the criterion 2 runs now fit under the cutoff of
        # 4,094 points at alpha = 1/100; a larger index keeps the mass
        # bounds audited on many general queries
        d = FuzzDriver("1/100", seed=100, lemma_audits=True)
        d.seed_points(40_000)
        while d.auditor.checks < 500 and d.queries < 5000:
            d.do_query()
        assert d.auditor.checks == d.general_queries >= 500


class TestWalk:
    """A general query is collected by one walk that cuts nothing: its
    maximal listed nodes and the ids of every other point."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        alpha=st.sampled_from(["1/2", "1/4", "1/10", "1/100"]),
        kind=st.sampled_from(["int", "float", "object"]),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_walk_partitions_the_window(self, alpha, kind, seed, data):
        key = {"int": lambda i: 3 * i - 500, "float": lambda i: i / 4 - 7.5,
               "object": lambda i: ("k", i)}[kind]
        cutoff = MajorityIndex(alpha).prune_cutoff
        n = data.draw(st.integers(min_value=1, max_value=3 * cutoff))
        rng = random.Random(seed)
        keys = [key(i) for i in range(n)]
        idx = MajorityIndex.build([(x, "c%d" % rng.randrange(5)) for x in keys], alpha, kind)
        # churn: recolour some points and drop others, so lists go stale
        # and the tree restructures
        for x in rng.sample(keys, min(n - 1, 2 * cutoff)):
            idx.delete(x)
            if rng.random() < 0.7:
                idx.insert(x, "c%d" % rng.randrange(5))
        size = len(idx.F)
        i = data.draw(st.integers(min_value=0, max_value=size - 1))
        j = data.draw(st.integers(min_value=i, max_value=size - 1))
        m = j - i + 1
        visits = idx.stats["pruned_leaf_visits"]
        with mock.patch.object(MajorityIndex, "scan_pruned", autospec=True,
                               side_effect=MajorityIndex.scan_pruned) as scans:
            listed, ids = idx._accumulate(i, j + 1)
        assert idx.stats["pruned_leaf_visits"] - visits == len(ids)

        def ranks(v):  # the ranks [first, end) of v's points
            first = idx.F.rank_lt(v.min_leaf.coord)
            return first, first + v.weight

        prev = 0
        for v in listed:
            # a list, inside the ranks [i, j + 1), after the node before it
            assert v.cand is not None
            first, end = ranks(v)
            assert i <= first and end <= j + 1
            assert prev <= first
            prev = end
            # maximal: its parent is not inside the window
            up = v.parent
            assert up is None or ranks(up)[0] < i or ranks(up)[1] > j + 1
        assert len(ids) + sum(v.weight for v in listed) == m
        # ids are the window's column without the listed nodes' runs
        covered = set()
        for v in listed:
            first = ranks(v)[0] - i
            covered.update(range(first, first + v.weight))
        col = idx.F.values_from(idx.F.select(i), m)
        assert ids == array("q", (c for r, c in enumerate(col) if r not in covered))
        # one slice per maximal gap, each the run of ranks it starts at
        gaps = []  # [first rank, point count] of each maximal gap
        for r in range(m):
            if r in covered:
                continue
            if gaps and sum(gaps[-1]) == r:
                gaps[-1][1] += 1
            else:
                gaps.append([r, 1])
        assert [c.args[1:] for c in scans.call_args_list] == [(i + r, w) for r, w in gaps]
        assert len(gaps) <= len(listed) + 1

    @pytest.mark.parametrize("alpha", ["1/2", "1/4", "1/10", "1/100"])
    def test_majorities_pass_the_quarter_filter(self, alpha):
        # A list omits under about 1.5*beta of its node's points of any
        # colour, stale or not, so over the disjoint listed nodes a
        # majority's tally stays above alpha*m/4 with no height group left
        # out
        idx, store = drifting_index(seed=11, n=20_000, alpha=alpha, churn=3000)
        p, q = idx._ap, idx._aq
        rng = random.Random(12)
        # a recolour is two updates, and at alpha 1/100 every list budget is
        # even: single inserts leave the lists part-way through their budget
        for x in rng.sample(range(400_000), 25):
            if x not in store:
                idx.insert(x, "n0")
                store.insert(x, "n0")
        lo_key, hi_key = idx.F.successor(-1), idx.F.predecessor(1 << 62)
        bp, bq = idx.cfg.beta.numerator, idx.cfg.beta.denominator
        general = stale = untracked = 0
        for _ in range(300):
            lo = rng.randrange(lo_key, hi_key)
            hi = lo + int(10 ** rng.uniform(3, 6))
            with query_spy() as queries:
                got = idx.query_counts(lo, hi)
            m, counts = store.counts(lo, hi)
            want = {lab: f for lab, f in counts.items() if q * f > p * m}
            assert got == want
            dbg = queries[-1]
            if dbg["mode"] != "general":
                continue
            general += 1
            stale += any(v.staleness for v in dbg["listed"])
            drained = {idx.registry.label_of(c): t for c, t in dbg["drained"]}
            for lab, f in want.items():
                assert 4 * q * drained[lab] > p * m
                # a list that omits a majority holds under 1.6*beta of its node
                c = idx.registry.id_of(lab)
                for u in dbg["listed"]:
                    if c not in u.cand:
                        k = idx.per_colour[c].count_range(u.min_leaf.coord, u.max_leaf.coord)
                        assert 10 * bq * k < 16 * bp * u.weight
                        untracked += 1
        assert general > 50 and stale > 20
        # at 1/2 every majority of these windows is on each list it meets
        assert untracked or alpha == "1/2"

    def test_no_query_reads_the_height_groups(self):
        d = FuzzDriver("1/10", seed=8, coord_lo=0, coord_hi=60_000, n_colours=12)
        d.seed_points(8000)
        with mock.patch.object(MajorityIndex, "_top_groups",
                               side_effect=AssertionError("query read the height groups")), \
                query_spy() as queries:
            d.run(3000)
        assert sum(dbg["mode"] == "general" for dbg in queries) > 100


def read_heads(idx) -> list:
    """Give every listed node of idx the head a query would keep, as if
    each had been read, and return those nodes."""
    nodes = [v for v in idx.internal_nodes() if v.cand is not None]
    for v in nodes:
        v.head = tree.candidate_head(v, idx._ap, idx._aq)
    return nodes


def path_to(idx, x) -> list:
    """The internal nodes above the leaf whose key is the first at or
    above x."""
    leaf = next(idx._leaves_from(x))
    out, v = [], leaf.parent
    while v is not None:
        out.append(v)
        v = v.parent
    return out


class TestHeads:
    """A listed node keeps the colours a query takes from its list, its
    head, until a write to its list, staleness or weight drops it."""

    def index(self, n=6000, seed=0):
        rng = random.Random(seed)
        pts = [(3 * i, "c%d" % min(rng.randrange(12), rng.randrange(12))) for i in range(n)]
        return MajorityIndex.build(pts, "1/4")

    def test_a_query_keeps_each_listed_nodes_head(self):
        idx = self.index()
        rng = random.Random(1)
        orig = tree.candidate_head
        general = 0
        for _ in range(60):
            lo = rng.randrange(18_000)
            hi = lo + rng.randrange(500, 12_000)
            with query_spy() as queries:
                want = idx.query_counts(lo, hi)
            dbg = queries[-1]
            if dbg["mode"] != "general":
                continue
            general += 1
            for v in dbg["listed"]:
                assert v.head == orig(v, idx._ap, idx._aq)
            # the same window again scans no list
            with mock.patch.object(tree, "candidate_head", side_effect=orig) as spy:
                assert idx.query_counts(lo, hi) == want
            assert not spy.called
        assert general > 20
        idx.audit_tree(deep=True)

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_an_update_drops_the_heads_on_its_path(self, op):
        idx = self.index()
        rng = random.Random(op)
        for _ in range(40):
            x = 3 * rng.randrange(6000) + (op == "insert")
            if (op == "insert") == (x in idx.F):
                continue
            before = read_heads(idx)
            if op == "insert":
                idx.insert(x, "c%d" % rng.randrange(12))
                on_path = path_to(idx, x)
            else:
                on_path = path_to(idx, x)
                idx.delete(x)
            live = {id(v) for v in idx.internal_nodes()}  # a merge detaches nodes
            on_path = [v for v in on_path if id(v) in live]
            assert on_path and all(v.head is None for v in on_path)
            # a node that the update did not touch keeps its head
            kept = [v for v in before if id(v) in live and all(v is not u for u in on_path)]
            assert kept and all(v.head is not None for v in kept)
            idx.audit_tree(deep=True)

    def test_a_delete_that_drops_the_list_drops_the_head(self):
        cut = MajorityIndex("1/2").prune_cutoff
        idx = MajorityIndex.build([(x, "c%d" % (x % 3)) for x in range(cut + 1)], "1/2")
        assert idx.query_counts(0, cut) == {}
        assert idx.root.head is not None
        idx.delete(0)
        assert idx.root.cand is None and idx.root.head is None
        idx.audit_tree(deep=True)

    def test_a_rebuild_drops_the_head(self):
        idx = self.index()
        for v in read_heads(idx):
            idx.rebuild_list(v)
            assert v.head is None
        v = read_heads(idx)[0]
        seg = np.frombuffer(idx.F.values_from(v.min_leaf.coord, v.weight), np.int64)
        idx._bulk_list(v, seg)
        assert v.head is None
        idx.audit_tree(deep=True)

    def test_a_remap_drops_every_head(self):
        idx = MajorityIndex.build([(x, "c%d" % (x % 40)) for x in range(4000)], "1/4")
        for x in range(0, 4000, 40):  # colour c0 goes, and its id retires
            idx.delete(x)
        nodes = read_heads(idx)
        mapping = idx.registry.maybe_remap(0)
        assert mapping and any(mapping[c] != c for c in mapping)
        idx._apply_remap(mapping)
        assert all(v.head is None for v in nodes)
        idx.audit_tree(deep=True)

    def test_a_split_and_a_merge_start_without_heads(self):
        idx = self.index(n=3000)
        read_heads(idx)
        splits, x = idx.stats["splits"], 1
        while idx.stats["splits"] == splits:
            idx.insert(x, "c0")
            x += 3
        assert all(v.head is None for v in path_to(idx, x - 3))
        idx.audit_tree(deep=True)
        read_heads(idx)
        merged = idx.stats["merges"] + idx.stats["shares"]
        keys = list(idx.F)
        while idx.stats["merges"] + idx.stats["shares"] == merged:
            idx.delete(keys.pop())
        assert all(v.head is None for v in path_to(idx, keys[-1]))
        idx.audit_tree(deep=True)

    def test_audit_catches_a_stale_head(self):
        idx = self.index()
        v = read_heads(idx)[0]
        v.head = v.head + [idx.registry.capacity]
        with pytest.raises(AssertionError, match="candidate head"):
            idx.audit_structure()
        v.head = None
        light = next(u for u in idx.internal_nodes() if u.cand is None)
        light.head = []
        with pytest.raises(AssertionError, match="candidate head"):
            idx.audit_structure()


class TestRankWindow:
    """A query's window is ranks in F: two rank operations of F set it,
    and nothing else on the query path searches or counts F."""

    def test_query_makes_two_rank_calls_of_f(self, set_calls):
        idx, store = drifting_index(seed=7, n=6000, alpha="1/10", churn=500)
        rng = random.Random(8)
        modes = Counter()
        names = ("successor", "predecessor", "count_range", "rank_lt", "rank_le", "select")
        with set_calls(idx.F, *names) as calls, query_spy() as queries:
            for _ in range(300):
                lo = rng.randrange(-1000, 121_000)
                hi = lo + int(10 ** rng.uniform(0, 5)) - 2
                got = idx.query_counts(lo, hi)
                m, counts = store.counts(lo, hi)
                assert got == {lab: f for lab, f in counts.items() if 10 * f > m}
                assert calls() == Counter(rank_lt=1, rank_le=1)
                modes[queries[-1]["mode"]] += 1
        assert min(modes["empty"], modes["pruned"], modes["general"]) > 10

    @pytest.mark.parametrize("lo, hi, r, m", [
        (2, 8, 1, 1),
        (1, 9, 0, 3),
        (6, 8, 2, 0),
        (-100, 100, 0, 3),
    ], ids=["interior", "exact_endpoints", "empty_gap", "overshoot"])
    def test_three_point_window(self, lo, hi, r, m):
        idx = MajorityIndex.build([(1, "a"), (5, "b"), (9, "c")], "1/2")
        orig = MajorityIndex._collect_ranks
        with mock.patch.object(MajorityIndex, "_collect_ranks", autospec=True,
                               side_effect=orig) as spy:
            got = idx._collect(lo, hi)
        spy.assert_called_once_with(idx, r, m)
        assert got == (m, [], idx.F.values_at(r, m))


class TestFindLeaf:
    def test_every_stored_key_and_no_other(self):
        idx = MajorityIndex.build([(3 * i, "c") for i in range(100)], "1/10")
        for i in range(100):
            assert idx._find_leaf(3 * i).coord == 3 * i
        for x in (-5, 1, 151, 296):
            with pytest.raises(KeyError):
                idx._find_leaf(x)

    def test_key_above_the_largest_raises(self):
        # it once looped forever there; a thread bounds the wait
        idx = MajorityIndex.build([(i, "c") for i in range(100)], "1/2")
        raised = []

        def probe():
            try:
                idx._find_leaf(1000)
            except KeyError:
                raised.append(True)

        t = threading.Thread(target=probe, daemon=True)
        t.start()
        t.join(10)
        assert not t.is_alive() and raised

    def test_empty_index_raises(self):
        idx = MajorityIndex("1/2")
        with pytest.raises(KeyError):
            idx._find_leaf(0)
        idx.insert(7, "c")
        idx.delete(7)
        with pytest.raises(KeyError):
            idx._find_leaf(7)


class TestScanPruned:
    def test_three_leaf_scan(self):
        idx = MajorityIndex.build([(1, "r"), (2, "b"), (3, "r")], "1/2")
        assert idx.query(1, 3) == {"r"}

    def test_single_leaf_any_alpha(self):
        idx = MajorityIndex.build([(1, "r"), (2, "b"), (3, "r")], "99/100")
        assert idx.query(2, 2) == {"b"}

    def test_partial_overlap_of_pruned_cover(self):
        # range snaps inside one small node; exact filtering applies
        idx = MajorityIndex.build([(i, "r" if i < 2 else "b") for i in range(4)], "1/2")
        assert idx.query(0, 1) == {"r"}
        assert idx.query(1, 2) == set()
        assert idx.query(2, 3) == {"b"}


class TestCountIds:
    # below 64 ids a Counter; then bincount while capacity < 2 * len + 4096
    @pytest.mark.parametrize("n, capacity, side", [
        (0, 10, None),
        (1, 10, None),
        (63, 50_000, None),
        (64, 20, "bincount"),
        (2000, 1500, "bincount"),
        (64, 4223, "bincount"),
        (64, 4224, "unique"),
        (300, 200_000, "unique"),
    ])
    def test_matches_counter_on_each_side(self, n, capacity, side):
        rng = random.Random(n * 7919 + capacity)
        # skewed towards small ids, so that some repeat past every part
        ids = array("q", (min(rng.randrange(1, capacity + 1), rng.randrange(1, capacity + 1))
                          for _ in range(n)))
        want = Counter(ids)
        absent = [c for c in (1, 2, capacity // 2, capacity) if c not in want]
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount, \
                mock.patch.object(np, "unique", wraps=np.unique) as unique:
            for part in (0, 1, 3, n):
                over, count = count_ids(ids, capacity, part)
                assert over == {c: k for c, k in want.items() if k > part}
                assert all(type(c) is int and type(k) is int for c, k in over.items())
                for c in list(want) + absent:
                    got = count(c)
                    assert type(got) is int and got == want[c]
        assert (bincount.called, unique.called) == (side == "bincount", side == "unique")

class TestRemapIntegration:
    def test_mass_deletion_compacts_labels(self):
        idx = MajorityIndex("1/2")
        for i in range(600):
            idx.insert(i, "c%d" % i)
        for i in range(580):
            idx.delete(i)
        assert len(idx) == 20
        assert idx.registry.capacity <= 40
        idx.audit_tree(deep=True)
        assert idx.query_counts(580, 599) == {}
        assert idx.query(599, 599) == {"c599"}

    def test_queries_correct_across_remap(self):
        d = FuzzDriver("1/2", seed=77, coord_lo=0, coord_hi=800, n_colours=400)
        d.p_insert, d.p_delete = 0.30, 0.45
        d.run(6000)
        d.index.audit_tree(deep=True)


class TestRelabel:
    @pytest.mark.parametrize("start", [TARGET_BLOCK - 30, 0, 2 * TARGET_BLOCK - 1])
    def test_run_renamed_in_place_answers_like_a_fresh_build(self, start):
        # keys 0, 10, 20, ... over three blocks of F; the run of 60 keys
        # from start (across a block boundary of F in the first and last
        # cases) is packed up against the key before it, as a respread
        # packs a window, so no other key falls between an old key and
        # its new one
        rng = random.Random(start)
        keys = list(range(0, 30 * TARGET_BLOCK, 10))
        colours = ["c0" if rng.random() < 0.45 else "c%d" % rng.randrange(1, 6) for _ in keys]
        idx = MajorityIndex.build(zip(keys, colours), "1/4")
        assert len(idx.F._blocks) == 3
        count = 60
        first = keys[start - 1] + 1 if start else -5
        new = [first + t for t in range(count)]
        stats = dict(idx.stats)
        lists = [(v.weight, v.staleness, dict(v.cand or {})) for v in idx.internal_nodes()]
        idx.relabel(first, new)
        renamed = keys[:start] + new + keys[start + count :]
        assert list(idx.F) == renamed
        assert [(v.weight, v.staleness, dict(v.cand or {})) for v in idx.internal_nodes()] == lists
        assert idx.stats == stats
        idx.audit_tree(deep=True)
        ref = MajorityIndex.build(zip(renamed, colours), "1/4")
        probes = renamed[max(0, start - 3) : start + count + 3] + rng.sample(renamed, 40)
        for a in probes:
            for b in probes[::3]:
                assert idx.query_counts(a, b) == ref.query_counts(a, b), (a, b)
        assert idx.query_counts(-10, 10**6) == ref.query_counts(-10, 10**6)

    def test_nothing_to_rename(self):
        idx = small_index()
        idx.relabel(2, [])
        assert list(idx.F) == [1, 2, 3]
        idx.audit_tree(deep=True)


class TestOracleEquivalence:
    @pytest.mark.parametrize("alpha", ["1/2", "1/4", "1/10"])
    def test_random_queries_random_points(self, alpha):
        rng = random.Random(hash(alpha) & 0xFFFF)
        n = 2000
        pts = [(c, "c%d" % rng.randrange(12)) for c in rng.sample(range(40000), n)]
        idx = MajorityIndex.build(pts, alpha)
        store = NaiveStore()
        for c, lab in pts:
            store.insert(c, lab)
        p = idx.cfg.alpha.numerator
        q = idx.cfg.alpha.denominator
        for _ in range(400):
            lo = rng.randrange(-10, 40010)
            hi = rng.randrange(lo, 40010)
            m, counts = store.counts(lo, hi)
            want = {lab: f for lab, f in counts.items() if q * f > p * m}
            assert idx.query_counts(lo, hi) == want

    def test_many_colours_count_on_the_unique_side(self):
        # about 6,000 colours put the registry's capacity far above a
        # query's joined ids, so general and pruned queries count with
        # np.unique
        rng = random.Random(606)
        n = 10_000
        pts = [(c, "hot" if rng.random() < 0.3 else "c%d" % rng.randrange(20_000))
               for c in rng.sample(range(100_000), n)]
        idx = MajorityIndex.build(pts, "1/4")
        assert idx.registry.capacity > 5000
        store = NaiveStore()
        for c, lab in pts:
            store.insert(c, lab)
        windows = [(lo, lo + int(10 ** rng.uniform(1, 5)))
                   for lo in (rng.randrange(100_000) for _ in range(300))]
        # light nodes' exact spans take the pruned path
        light = [v for v in idx.internal_nodes() if v.cand is None and v.weight >= 64]
        assert len(light) >= 20
        windows += [(v.min_leaf.coord, v.max_leaf.coord) for v in light[:20]]
        modes = Counter()
        # the 20 light spans and the non-empty windows of at most
        # prune_cutoff points
        small = 0
        with mock.patch.object(np, "unique", wraps=np.unique) as unique, \
                query_spy() as queries:
            for lo, hi in windows:
                m, counts = store.counts(lo, hi)
                want = {lab: f for lab, f in counts.items() if 4 * f > m}
                assert idx.query_counts(lo, hi) == want
                modes[queries[-1]["mode"]] += 1
                small += 0 < m <= idx.prune_cutoff
        assert modes["general"] > 100 and modes["pruned"] == small
        assert unique.called

    @pytest.mark.parametrize("kind", ["int", "float", "object"])
    def test_mixed_ops_each_kind(self, kind):
        d = FuzzDriver(
            "1/4", key_kind=kind, seed=101, coord_lo=0, coord_hi=2500,
            n_colours=10, zipf_a=1.2, lemma_audits=True, audit_every=600,
            deep_every=3000,
        )
        d.run(5000)
        d.index.audit_tree(deep=True)
        assert d.general_queries > 100
        assert d.auditor.checks == d.general_queries

    def test_heavy_delete_mix(self):
        d = FuzzDriver("1/2", seed=5, coord_lo=0, coord_hi=3000, n_colours=8,
                       lemma_audits=True, audit_every=500)
        d.seed_points(2500)
        d.p_insert, d.p_delete = 0.15, 0.55
        d.run(6000)
        d.index.audit_tree(deep=True)
        assert d.index.stats["merges"] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["i", "d", "q"]),
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=120,
        )
    )
    def test_hypothesis_op_sequences(self, ops):
        idx = MajorityIndex("1/3")
        mirror = {}
        for kind, coord, col in ops:
            lab = "c%d" % col
            if kind == "i" and coord not in mirror:
                idx.insert(coord, lab)
                mirror[coord] = lab
            elif kind == "d" and coord in mirror:
                idx.delete(coord)
                del mirror[coord]
            else:
                lo, hi = sorted((coord, coord + 7))
                pts = list(mirror.items())
                want = naive_majority(pts, lo, hi, "1/3")
                assert idx.query(lo, hi) == want
        idx.audit_tree(deep=True)


def unlisted_tally(idx, dbg) -> Counter:
    """The colours of the general query dbg's points outside its listed
    nodes, read from F."""
    r, e = dbg["window"]
    assert e - r == dbg["m"]
    out = Counter(idx.F.values_at(r, dbg["m"]))
    for v in dbg["listed"]:
        out.subtract(idx.F.values_from(v.min_leaf.coord, v.weight))
    return +out


def full_tally(idx, dbg) -> Counter:
    """Full tally of the general query dbg: every entry of its listed
    nodes' lists, and every other point of its window."""
    out = unlisted_tally(idx, dbg)
    for v in dbg["listed"]:
        out.update(v.cand)
    return out


def missed_without_staleness(idx, dbg, p, q) -> set:
    """Colours over alpha*m/4 that list scans ignoring staleness would
    skip: each part, a listed node of weight w or the other points, is
    read against its own bar floor(alpha*w/4)."""
    q4 = 4 * q
    unlisted = unlisted_tally(idx, dbg)
    bar = p * sum(unlisted.values()) // q4
    seen = {c for c, n in unlisted.items() if n > bar}
    for u in dbg["listed"]:
        bar = p * u.weight // q4
        for c, n in u.cand.items():
            if n <= bar:
                break
            seen.add(c)
    return {c for c, n in full_tally(idx, dbg).items() if q4 * n > p * dbg["m"]} - seen


def assert_survivors_complete(idx, dbg) -> None:
    """The general query dbg's drained pairs hold every colour whose full
    tally exceeds alpha*m/4, each with exactly that tally. A window with
    no listed node is not filtered: its one count keeps the colours over
    alpha*m."""
    p, q = idx._ap, idx._aq
    full = full_tally(idx, dbg)
    drained = dict(dbg["drained"])
    assert len(drained) == len(dbg["drained"])
    for c, n in drained.items():
        assert n == full[c]
    part = 4 if dbg["listed"] else 1
    for c, n in full.items():
        if part * q * n > p * dbg["m"]:
            assert drained.get(c) == n


@st.composite
def synthetic_parts(draw):
    """A general query's parts, made up: (p, q, listed, ids, full) with
    stub listed nodes, the array('q') ids of the other points, and each
    colour's full tally.

    A part's weight is 4q*j + r, with r often 0 or 1 so that the
    fractional parts of alpha*w/4 often sum below one. Colour 1 sits at
    its part's bar floor(alpha*w/4) in every part; colour 2 does too,
    except one past it in one part, so that its full tally often exceeds
    floor(alpha*m/4) by exactly that one. Colours 3 to 8 fill the rest,
    and colour 9 the ids part's last points. A node's list tracks the
    two edge colours and some fillers, in count-descending order at its
    rebuild, and then at most its staleness in unit moves changed them.
    """
    p, q = draw(st.sampled_from([(1, 2), (1, 4), (1, 10), (3, 10)]))
    q4 = 4 * q
    k = draw(st.integers(1, 5))
    bumped = draw(st.integers(0, k))  # k is the ids part
    listed, full = [], Counter()
    for i in range(k + 1):
        r = draw(st.integers(0, 1) | st.integers(0, q4 - 1))
        w = q4 * draw(st.integers(1, 8)) + r
        bar = p * w // q4
        counts = {1: bar, 2: bar + (i == bumped)}
        room = w - counts[1] - counts[2]
        for c in range(3, 9):
            counts[c] = draw(st.integers(0, room))
            room -= counts[c]
        if i == k:
            counts[9] = room
            ids = array("q", [c for c, n in counts.items() for _ in range(n)])
            full.update(counts)
            continue
        fillers = draw(st.sets(st.integers(3, 8)))
        now = {c: n for c, n in counts.items() if n and (c < 3 or c in fillers)}
        then, moves = dict(now), 0
        for c, step in draw(st.lists(st.tuples(st.sampled_from(sorted(now)),
                                               st.sampled_from([-1, 1])))
                            if now else st.just([])):
            if then[c] > step:  # the rebuild listed a positive count
                then[c] -= step
                moves += 1
        order = sorted(then, key=lambda c: (-then[c], c))
        listed.append(SimpleNamespace(
            weight=w, staleness=moves + draw(st.integers(0, 2)),
            cand={c: now[c] for c in order}, head=None,
        ))
        full.update(now)
    return p, q, listed, ids, full


class TestPigeonhole:
    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.sampled_from(["1/2", "1/4", "1/10", "1/20"]),
        seed=st.integers(min_value=0, max_value=2**16),
        zipf_a=st.sampled_from([1.1, 1.4, 2.0]),
    )
    def test_early_stop_keeps_every_filter_survivor(self, alpha, seed, zipf_a):
        # churn first, so that the listed nodes a query reads are stale
        # 20k points: at alpha 1/20 only nodes of height 4 carry lists
        d = FuzzDriver(alpha, seed=seed, coord_lo=0, coord_hi=200_000, n_colours=40,
                       zipf_a=zipf_a)
        d.seed_points(20_000)
        for _ in range(800):
            d.do_insert() if d.rng.random() < 0.5 else d.do_delete()
        general = stale = 0
        for _ in range(40):
            with query_spy() as queries:
                d.do_query()
            dbg = queries[-1]
            if dbg["mode"] != "general":
                continue
            general += 1
            stale += any(v.staleness for v in dbg["listed"])
            assert_survivors_complete(d.index, dbg)
        assert general and stale

    def test_early_stop_allows_for_staleness(self):
        # 16 colours of about alpha/4 each, recoloured at random: some list
        # entries sit near the stop point, and stale ones overtake earlier
        # entries, so a scan that ignored staleness would miss a colour
        live = 0
        for seed in range(8):
            rng = random.Random(seed)
            pts = [(x, "c%d" % rng.randrange(16)) for x in rng.sample(range(30000), 3000)]
            idx = MajorityIndex.build(pts, "1/4")
            for _ in range(1000):
                x = rng.choice(pts)[0]
                idx.delete(x)
                idx.insert(x, "c%d" % rng.randrange(16))
            for _ in range(2000):
                a = rng.randrange(30000)
                with query_spy() as queries:
                    idx.query_counts(a, rng.randrange(a, 30000))
                dbg = queries[-1]
                if dbg["mode"] == "general":
                    assert_survivors_complete(idx, dbg)
                    live += bool(missed_without_staleness(idx, dbg, 1, 4))
        assert live

    @settings(max_examples=300, deadline=None)
    @given(synthetic_parts())
    def test_answer_keeps_every_tally_over_a_quarter(self, parts):
        # every colour whose full tally exceeds floor(alpha*m/4) survives
        # with exactly that tally, including colour 2 when it clears its
        # part's floor bar by one
        p, q, listed, ids, full = parts
        m = sum(u.weight for u in listed) + len(ids)
        asked = []

        def exact(cs):
            asked.append(list(cs))
            return [full[c] for c in cs]

        out, tallies = tree.answer(m, listed, ids, p, q, 9, exact)
        assert tallies == {c: n for c, n in full.items() if n > p * m // (4 * q)}
        assert out == {c: n for c, n in full.items() if q * n > p * m}
        # exact counts go to the survivors that some listed node does not
        # track, and to no other, in one call
        short = [c for c in tallies if any(c not in u.cand for u in listed)]
        assert asked == ([short] if short else [])
        for u in listed:
            assert u.head == tree.candidate_head(u, p, q)


class TestStats:
    def test_counters_move(self):
        d = FuzzDriver("1/2", seed=2, coord_lo=0, coord_hi=900, n_colours=6)
        d.run(3000)
        s = d.index.stats
        assert s["queries"] == d.queries
        assert s["list_rebuilds"] > 0
        assert s["rebuild_leaf_work"] > 0

    def test_rebuild_work_amortized(self):
        # over U updates the rebuild leaf work stays within c*U*lg(n)/alpha
        import math

        d = FuzzDriver("1/10", seed=33, coord_lo=0, coord_hi=10**6, n_colours=16)
        d.seed_points(4000)
        base = d.index.stats["rebuild_leaf_work"]
        updates = 0
        while updates < 12000:
            if d.rng.random() < 0.5:
                d.do_insert()
            else:
                d.do_delete()
            updates += 1
        work = d.index.stats["rebuild_leaf_work"] - base
        n = max(len(d.index), 2)
        bound = 50 * updates * math.log2(n) / float(d.index.cfg.alpha)
        assert work <= bound, f"rebuild work {work} exceeds {bound:.0f}"
