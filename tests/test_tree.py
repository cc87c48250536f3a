"""Behavioural tests for the 1-D majority index."""

import gc
import random
from array import array
from collections import Counter
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemaj.counted_set import TARGET_BLOCK
from rangemaj.errors import DuplicateKeyError
from rangemaj.fuzz import FuzzDriver
from rangemaj.oracle import NaiveStore, naive_majority
from rangemaj.params import BRANCH
from rangemaj.registry import ColourRegistry
from rangemaj.tree import MajorityIndex, count_ids, group_by_height


def small_index(alpha="1/2", kind="int"):
    pts = [(1, "r"), (2, "b"), (3, "r")]
    return MajorityIndex.build(pts, alpha, kind)


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


class TestSnap:
    def test_snap_interior(self):
        idx = MajorityIndex.build([(1, "a"), (5, "b"), (9, "c")], "1/2")
        assert idx.snap(2, 8) == (5, 5)

    def test_snap_exact_endpoints(self):
        idx = MajorityIndex.build([(1, "a"), (5, "b"), (9, "c")], "1/2")
        assert idx.snap(1, 9) == (1, 9)

    def test_snap_empty_gap(self):
        idx = MajorityIndex.build([(1, "a"), (5, "b"), (9, "c")], "1/2")
        assert idx.snap(6, 8) is None

    def test_snap_overshoot_clamps(self):
        idx = MajorityIndex.build([(1, "a"), (5, "b"), (9, "c")], "1/2")
        assert idx.snap(-100, 100) == (1, 9)


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
    """``rebuild_list`` against a ``Counter`` over the node's leaves."""

    @staticmethod
    def counter_list(idx, v):
        leaves = islice(idx._leaves_from(v.min_leaf.coord), v.weight)
        counts = Counter(lf.colour for lf in leaves)
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
        idx.capture_debug = True
        assert idx.query(1, 3) == {"r"}
        assert idx.last_query_debug["mode"] in ("pruned", "listed", "single")

    def test_single_leaf_path(self):
        idx = MajorityIndex.build([(i, "c%d" % i) for i in range(100)], "1/2")
        idx.capture_debug = True
        assert idx.query(17, 17) == {"c17"}
        assert idx.last_query_debug["mode"] == "single"

    def test_listed_exact_cover(self):
        idx = MajorityIndex.build([(i, "maj" if i % 2 else "c%d" % i) for i in range(512)], "1/2")
        idx.capture_debug = True
        got = idx.query_counts(0, 511)
        assert idx.last_query_debug["mode"] == "listed"
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
        idx.capture_debug = True
        nodes = [v for v in idx.internal_nodes() if v.cand is not None]
        assert any(v.staleness for v in nodes)
        reported = 0
        for v in nodes:
            a, b = v.min_leaf.coord, v.max_leaf.coord
            got = idx.query_counts(a, b)
            assert idx.last_query_debug["mode"] == "listed"
            counts: dict = {}
            for x, lab in colour.items():
                if a <= x <= b:
                    counts[lab] = counts.get(lab, 0) + 1
            assert got == {lab: f for lab, f in counts.items() if 10 * f > v.weight}
            reported += len(got)
        assert reported
        assert verified == []

    def test_general_path_matches_oracle(self):
        rng = random.Random(12)
        pts = [(c, "c%d" % rng.randrange(5)) for c in rng.sample(range(5000), 1500)]
        idx = MajorityIndex.build(pts, "1/4")
        idx.capture_debug = True
        general = 0
        for _ in range(200):
            lo = rng.randrange(0, 5000)
            hi = rng.randrange(lo, 5000)
            want = naive_majority(pts, lo, hi, "1/4")
            assert idx.query(lo, hi) == want
            if idx.last_query_debug["mode"] == "general":
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


def iter_leaves(node):
    stack = [node]
    while stack:
        v = stack.pop()
        if v.height:
            stack.extend(v.children)
        else:
            yield v


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
        idx.capture_debug = True
        windows = [(lo, lo + int(10 ** rng.uniform(1, 5)))
                   for lo in (rng.randrange(100_000) for _ in range(300))]
        # light nodes' exact spans take the pruned path
        light = [v for v in idx.internal_nodes() if v.cand is None and v.weight >= 64]
        windows += [(v.min_leaf.coord, v.max_leaf.coord) for v in light[:20]]
        modes = Counter()
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            for lo, hi in windows:
                m, counts = store.counts(lo, hi)
                want = {lab: f for lab, f in counts.items() if 4 * f > m}
                assert idx.query_counts(lo, hi) == want
                modes[idx.last_query_debug["mode"]] += 1
        assert modes["general"] > 100 and modes["pruned"] == 20
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


def top_group_tally(groups) -> dict:
    """Full tally of a query's top groups: every list entry, every leaf."""
    out: dict = {}
    for _, nodes in groups:
        for v in nodes:
            if v.cand is not None:
                for c, n in v.cand.items():
                    out[c] = out.get(c, 0) + n
                continue
            stack = [v]
            while stack:
                u = stack.pop()
                if u.height:
                    stack.extend(u.children)
                else:
                    out[u.colour] = out.get(u.colour, 0) + 1
    return out


def missed_without_staleness(groups, m, p, q) -> set:
    """Colours over alpha*m/4 that a list scan ignoring staleness would skip."""
    listed = [v for _, ns in groups for v in ns if v.cand is not None]
    qk, pm = 4 * q * (len(listed) + 1), p * m
    exact = top_group_tally([(h, [v for v in ns if v.cand is None]) for h, ns in groups])
    seen = {c for c, n in exact.items() if qk * n > pm}
    for u in listed:
        for c, n in u.cand.items():
            if qk * n <= pm:
                break
            seen.add(c)
    full = top_group_tally(groups)
    return {c for c, n in full.items() if 4 * q * n > pm} - seen


def assert_survivors_complete(idx) -> None:
    """The last general query's drained pairs hold every colour whose full
    top-group tally exceeds alpha*m/4, each with exactly that tally."""
    dbg = idx.last_query_debug
    p, q = idx._ap, idx._aq
    full = top_group_tally(dbg["groups"])
    drained = dict(dbg["drained"])
    assert len(drained) == len(dbg["drained"])
    for c, n in drained.items():
        assert n == full[c]
    for c, n in full.items():
        if 4 * q * n > p * dbg["m"]:
            assert drained.get(c) == n


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
        d.index.capture_debug = True
        for _ in range(800):
            d.do_insert() if d.rng.random() < 0.5 else d.do_delete()
        general = stale = 0
        for _ in range(40):
            d.do_query()
            dbg = d.index.last_query_debug
            if dbg["mode"] != "general":
                continue
            general += 1
            stale += any(v.staleness for _, ns in dbg["groups"] for v in ns if v.cand)
            assert_survivors_complete(d.index)
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
            idx.capture_debug = True
            for _ in range(1000):
                x = rng.choice(pts)[0]
                idx.delete(x)
                idx.insert(x, "c%d" % rng.randrange(16))
            for _ in range(2000):
                a = rng.randrange(30000)
                idx.query_counts(a, rng.randrange(a, 30000))
                dbg = idx.last_query_debug
                if dbg["mode"] == "general":
                    assert_survivors_complete(idx)
                    live += bool(missed_without_staleness(dbg["groups"], dbg["m"], 1, 4))
        assert live


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
