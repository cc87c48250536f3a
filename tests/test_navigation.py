"""Tests for stride-ancestor links, LCA and top-level discovery."""

import gc
import math
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemaj import navigation, tree
from rangemaj.fuzz import FuzzDriver
from rangemaj.navigation import _attached, audit_links, ell_for, findtop, lca, resolve_anc
from rangemaj.oracle import naive_lca
from rangemaj.tree import MajorityIndex, group_by_height


def churned_index(seed=21, n=3000, extra_ops=4000, alpha="1/4"):
    d = FuzzDriver(alpha, key_kind="int", seed=seed, coord_lo=0, coord_hi=10 * n,
                   n_colours=9)
    d.seed_points(n)
    d.run(extra_ops)
    return d.index


def all_leaves(idx):
    return list(idx.leaves())


class TestStride:
    def test_ell_examples(self):
        assert ell_for(2) == 1
        assert ell_for(1024) == 4
        assert ell_for(10**6) == 5
        assert ell_for(0) == 1
        assert ell_for(1) == 1

    def test_ell_matches_float_formula(self):
        for n in [2, 3, 10, 100, 4096, 10**5, 10**6, 2**20, 2**30]:
            want = math.ceil(math.sqrt(max(1, math.ceil(math.log2(n)))))
            assert ell_for(n) == want, n

    def test_resolve_walks_and_caches(self):
        idx = MajorityIndex.build([(i, "x") for i in range(4096)], "1/2")
        leaf = next(idx.leaves())
        ell = ell_for(len(idx.F))
        a = resolve_anc(idx, leaf, ell)
        t = leaf
        for _ in range(ell):
            if t.parent is None:
                break
            t = t.parent
        assert a is t
        assert navigation._links[idx][leaf] is a
        # a second resolve trusts the cache
        assert resolve_anc(idx, leaf, ell) is a

    def test_stale_link_to_dead_node_not_trusted(self):
        idx = MajorityIndex.build([(i, "x") for i in range(600)], "1/2")
        leaf = idx._find_leaf(300)
        ell = ell_for(len(idx.F))
        real = resolve_anc(idx, leaf, ell)
        # links left behind by restructures: a node its parent no longer
        # lists, and a former root; both cover the leaf's range
        for v in (leaf.parent, idx.root):
            bogus = tree._Node(v.height)
            bogus.children = list(v.children)
            bogus.parent = v.parent
            bogus.min_leaf, bogus.max_leaf = v.min_leaf, v.max_leaf
            assert not _attached(idx, bogus)
            navigation._links[idx][leaf] = bogus
            fresh = resolve_anc(idx, leaf, ell)
            assert fresh is real
            assert navigation._links[idx][leaf] is real


class TestLCA:
    def test_siblings_meet_at_parent(self):
        idx = MajorityIndex.build([(i, "x") for i in range(64)], "1/2")
        la = idx._find_leaf(0)
        lb = idx._find_leaf(1)
        got = lca(idx, la, lb)
        assert got is naive_lca(la, lb)
        if la.parent is lb.parent:
            assert got is la.parent

    def test_extremes_meet_at_root(self):
        idx = churned_index(seed=3, n=2000, extra_ops=1500)
        leaves = all_leaves(idx)
        assert lca(idx, leaves[0], leaves[-1]) is idx.root

    def test_same_leaf_rejected(self):
        idx = MajorityIndex.build([(i, "x") for i in range(10)], "1/2")
        leaf = idx._find_leaf(5)
        with pytest.raises(ValueError):
            lca(idx, leaf, leaf)

    def test_thousand_random_pairs_match_naive(self):
        idx = churned_index(seed=8, n=2500, extra_ops=3000)
        leaves = all_leaves(idx)
        rng = random.Random(0)
        for _ in range(1000):
            a, b = rng.sample(leaves, 2)
            assert lca(idx, a, b) is naive_lca(a, b)


class TestFindtop:
    def test_big_z_equals_full_decompose(self):
        idx = churned_index(seed=14, n=2200, extra_ops=2000)
        rng = random.Random(7)
        coords = sorted(l.coord for l in all_leaves(idx))
        for _ in range(60):
            i = rng.randrange(0, len(coords) - 50)
            j = rng.randrange(i + 30, len(coords))
            a, b = coords[i], coords[j]
            try:
                nodes = idx.decompose(a, b)
            except ValueError:
                continue
            wa, wb = idx._find_leaf(a), idx._find_leaf(b)
            got = findtop(idx, wa, wb, 64)
            want = group_by_height(nodes)
            assert [(h, set(map(id, ns))) for h, ns in got] == [
                (h, set(map(id, ns))) for h, ns in want
            ]

    @pytest.mark.parametrize("z", [1, 2, 3, 5])
    def test_truncation_matches_decompose_prefix(self, z):
        idx = churned_index(seed=z, n=2600, extra_ops=2500)
        rng = random.Random(z)
        coords = sorted(l.coord for l in all_leaves(idx))
        checked = 0
        while checked < 250:
            i = rng.randrange(0, len(coords) - 2)
            j = rng.randrange(i + 1, len(coords))
            a, b = coords[i], coords[j]
            try:
                nodes = idx.decompose(a, b)
            except ValueError:
                continue
            wa, wb = idx._find_leaf(a), idx._find_leaf(b)
            got = findtop(idx, wa, wb, z)
            want = group_by_height(nodes)[:z]
            assert [(h, set(map(id, ns))) for h, ns in got] == [
                (h, set(map(id, ns))) for h, ns in want
            ]
            assert idx.stats["last_findtop_lca_calls"] <= 4 * z
            checked += 1

    def test_lca_budget_over_fuzz(self):
        d = FuzzDriver("1/10", key_kind="int", seed=40, coord_lo=0, coord_hi=50000,
                       n_colours=12)
        d.seed_points(6000)
        t = d.index.cfg.top_count
        rng = random.Random(1)
        idx = d.index
        general = 0
        for _ in range(400):
            lo = rng.randrange(0, 50000)
            hi = rng.randrange(lo, 50000)
            d.do_query(lo, hi)
            r = idx.F.rank_lt(lo)
            m = idx.F.rank_le(hi) - r
            if m > idx.prune_cutoff:
                # a general query's window, named by its first and last
                # keys: findtop against the decomposition
                a, b = idx.F.select(r), idx.F.select(r + m - 1)
                groups, _ = idx._top_groups(a, b)
                wa, wb = idx._find_leaf(a), idx._find_leaf(b)
                got = findtop(idx, wa, wb, t)
                assert [(h, set(map(id, ns))) for h, ns in got] == [
                    (h, set(map(id, ns))) for h, ns in groups
                ]
                assert idx.stats["last_findtop_lca_calls"] <= 4 * t
                general += 1
        assert general > 100


class TestLinkAudit:
    def test_links_after_churn(self):
        idx = churned_index(seed=31, n=2000, extra_ops=5000)
        nodes = list(idx.internal_nodes())
        leaves = all_leaves(idx)
        rng = random.Random(2)
        sample = rng.sample(leaves, min(200, len(leaves)))
        audit_links(idx, nodes + sample)

    def test_links_through_restructure_storm(self):
        d = FuzzDriver("1/2", key_kind="int", seed=6, coord_lo=0, coord_hi=1200,
                       n_colours=5)
        d.seed_points(1000)
        # warm the caches, then force heavy restructuring
        for leaf in d.index.leaves():
            resolve_anc(d.index, leaf, ell_for(len(d.index.F)))
        d.p_insert, d.p_delete = 0.1, 0.6
        d.run(2500)
        audit_links(d.index, list(d.index.internal_nodes()) + all_leaves(d.index))

    def test_table_drops_detached_nodes(self):
        idx = MajorityIndex.build([(i, "x") for i in range(1000)], "1/2")
        every = list(idx.internal_nodes()) + all_leaves(idx)
        for v in every:
            resolve_anc(idx, v, ell_for(len(idx.F)))
        assert len(navigation._links[idx]) == len(every)
        for x in range(0, 1000, 10):
            for y in range(x + 1, x + 10):
                idx.delete(y)
        nodes = list(idx.internal_nodes()) + all_leaves(idx)
        for v in nodes:
            resolve_anc(idx, v, ell_for(len(idx.F)))
            assert len(navigation._links[idx]) <= 4 * len(idx.F) + 1
        assert len(navigation._links[idx]) < len(every)
        audit_links(idx, nodes)


class TestNavigationState:
    def test_index_without_navigation_holds_none(self):
        idx = MajorityIndex.build([(i, "c%d" % (i % 7)) for i in range(3000)], "1/10")
        for i in range(3000, 3600):
            idx.insert(i, "c%d" % (i % 3))
        for i in range(0, 3000, 3):
            idx.delete(i)
        for lo in range(0, 3600, 97):
            idx.query_counts(lo, lo + 1500)
        idx.relabel(4, [3])  # 3 was deleted
        idx.audit_tree()
        assert idx.F.count_range(3, 4) == 1
        assert not [k for k in idx.stats if k.startswith("lca")]
        assert not [k for k in MajorityIndex("1/2").stats if k.startswith("lca")]
        assert idx not in navigation._links

    def test_table_keeps_no_index_alive(self):
        idx = MajorityIndex.build([(i, "x") for i in range(2000)], "1/4")
        findtop(idx, idx._find_leaf(10), idx._find_leaf(1900), idx.cfg.top_count)
        assert idx.stats["last_findtop_lca_calls"] >= 1
        assert idx in navigation._links
        ref = weakref.ref(idx)
        del idx
        gc.collect()
        assert ref() is None


class TestAttachment:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        alpha=st.sampled_from(["1/2", "1/10"]),
        n=st.integers(min_value=1, max_value=1200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_attached_exactly_the_reachable_nodes(self, alpha, n, seed):
        # every node ever made, so that the ones restructures discarded
        # are asked about too
        created = []

        class Leaf(tree._Leaf):
            def __init__(self, *args):
                super().__init__(*args)
                created.append(self)

        class Node(tree._Node):
            def __init__(self, *args):
                super().__init__(*args)
                created.append(self)

        def detached_internal(idx):
            """Check _attached on every node made so far; return how many
            internal ones it refused."""
            reachable = set()
            stack = [idx.root] if idx.root is not None else []
            while stack:
                v = stack.pop()
                reachable.add(id(v))
                stack.extend(v.children or ())
            assert [_attached(idx, v) for v in created] == [
                id(v) in reachable for v in created
            ]
            return sum(v.height > 0 and id(v) not in reachable for v in created)

        rng = random.Random(seed)
        span = 10 * n
        with mock.patch.object(tree, "_Leaf", Leaf), mock.patch.object(tree, "_Node", Node):
            keys = rng.sample(range(span), n)
            idx = MajorityIndex.build([(x, "c%d" % (x % 5)) for x in keys], alpha)
            stored = set(keys)
            for _ in range(2):
                # churn, drain to empty, then refill a little
                for _ in range(2 * n):
                    x = rng.randrange(span)
                    if x in stored:
                        idx.delete(x)
                        stored.discard(x)
                    else:
                        idx.insert(x, "c%d" % rng.randrange(5))
                        stored.add(x)
                restructured = detached_internal(idx)
                assert restructured or n < 200
                for x in rng.sample(sorted(stored), len(stored)):
                    idx.delete(x)
                    if rng.random() < 0.01:
                        detached_internal(idx)
                stored.clear()
                assert idx.root is None
                detached_internal(idx)
                for x in rng.sample(range(span), n // 3):
                    idx.insert(x, "c%d" % rng.randrange(5))
                    stored.add(x)
                detached_internal(idx)
            idx.audit_tree()
