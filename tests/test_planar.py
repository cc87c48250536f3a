"""Tests for the rectangle majority index."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from rangemaj.errors import DuplicateKeyError
from rangemaj.oracle import NaiveStore2D, naive_majority_2d
from rangemaj.params import AlphaConfig
from rangemaj.planar import MajorityIndex2D
from rangemaj.tree import MajorityIndex


def mirrored_pair(alpha, n, rng, x_span=50000, y_span=300, colours=8, zipf=False):
    idx = MajorityIndex2D(alpha)
    mirror = NaiveStore2D()
    seen = set()
    while len(seen) < n:
        x = rng.randrange(0, x_span)
        if x in seen:
            continue
        seen.add(x)
        y = rng.randrange(0, y_span)
        lab = "c%d" % rng.randrange(colours)
        idx.insert(x, y, lab)
        mirror.insert(x, y, lab)
    return idx, mirror


class TestBasics:
    def test_three_of_four_in_rect(self):
        pts = [
            (1, 1, "r"), (2, 2, "r"), (3, 3, "r"), (4, 4, "b"), (9, 9, "b"),
        ]
        idx = MajorityIndex2D.build(pts, "1/2")
        # rectangle [1,4]x[1,4] holds r,r,r,b
        assert idx.query(1, 4, 1, 4) == {"r"}
        assert idx.query_counts(1, 4, 1, 4) == {"r": 3}

    def test_single_point_rect(self):
        idx = MajorityIndex2D.build([(5, 7, "g"), (8, 1, "h")], "1/2")
        assert idx.query(5, 5, 7, 7) == {"g"}
        assert idx.query(8, 8, 1, 1) == {"h"}

    def test_empty_cases(self):
        idx = MajorityIndex2D.build([(5, 7, "g")], "1/2")
        assert idx.query(6, 10, 0, 100) == set()
        assert idx.query(0, 10, 8, 9) == set()
        assert idx.query(10, 0, 0, 100) == set()
        assert idx.query(0, 10, 100, 0) == set()
        assert MajorityIndex2D("1/2").query(0, 1, 0, 1) == set()

    def test_strictness(self):
        idx = MajorityIndex2D.build([(1, 1, "r"), (2, 2, "b")], "1/2")
        assert idx.query(1, 2, 1, 2) == set()

    def test_duplicate_x_rejected(self):
        idx = MajorityIndex2D.build([(1, 1, "r")], "1/2")
        with pytest.raises(DuplicateKeyError):
            idx.insert(1, 99, "b")
        with pytest.raises(DuplicateKeyError):
            MajorityIndex2D.build([(3, 1, "a"), (3, 2, "b")], "1/2")

    def test_absent_delete_raises(self):
        idx = MajorityIndex2D.build([(1, 1, "r")], "1/2")
        with pytest.raises(KeyError):
            idx.delete(2)

    @pytest.mark.parametrize("x", [True, "x", [1], math.nan, math.inf],
                             ids=["bool", "str", "list", "nan", "inf"])
    def test_delete_checks_its_coordinate(self, x):
        # True == 1, so an unchecked delete(True) would remove the point at 1
        idx = MajorityIndex2D.build([(1, 1, "r"), (2, 5, "b")], "1/2")
        with pytest.raises(ValueError):
            idx.delete(x)
        assert list(idx.points()) == [(1, 1, "r"), (2, 5, "b")]
        idx.audit2d()

    def test_coordinate_validation(self):
        idx = MajorityIndex2D("1/2")
        with pytest.raises(ValueError):
            idx.insert("x", 1, "a")
        with pytest.raises(ValueError):
            idx.insert(1, float("nan"), "a")
        with pytest.raises(ValueError):
            idx.insert(True, 1, "a")
        idx.insert(1, 2.5, "a")
        assert idx.query(0, 2, 2.0, 3.0) == {"a"}

    def test_query_bounds_validated(self):
        idx = MajorityIndex2D.build([(0, 1, "a"), (1, 2, "a"), (2, 3, "b")], "1/2")
        good = [0, 2, 0, 5]
        for pos in range(4):
            for bad in (float("nan"), "5", None, True):
                box = list(good)
                box[pos] = bad
                with pytest.raises(ValueError):
                    idx.query_counts(*box)
                with pytest.raises(ValueError):
                    idx.query(*box)
                with pytest.raises(ValueError):
                    idx.rect_count(*box)
                with pytest.raises(ValueError):
                    idx.rect_colour_count("a", *box)
        # infinite bounds stay legal and cover everything on their side
        assert idx.query_counts(-math.inf, math.inf, -math.inf, math.inf) == {"a": 2}
        assert idx.rect_count(0, 2, -math.inf, 2) == 2
        assert idx.rect_colour_count("a", -math.inf, 1, 0, math.inf) == 2

    @pytest.mark.parametrize("n", [10, 3000])
    def test_reversed_rectangle_counts_zero(self, n):
        # light pieces (n = 10) bisect their y lists; heavy ones count in F
        idx = MajorityIndex2D.build([(i, i, "a") for i in range(n)], "1/2")
        assert idx.rect_count(0, n - 1, 5, 2) == 0
        assert idx.rect_count(n - 1, 0, 0, n - 1) == 0
        assert idx.rect_colour_count("a", 0, n - 1, 5, 2) == 0
        assert idx.query_counts(0, n - 1, 5, 2) == {}

    def test_repeating_y_allowed(self):
        idx = MajorityIndex2D.build([(i, 42, "r" if i < 7 else "b") for i in range(10)], "1/2")
        assert idx.query(0, 9, 42, 42) == {"r"}


class TestRoundtrip:
    def test_insert_delete_answer_equivalent(self):
        rng = random.Random(3)
        idx, mirror = mirrored_pair("1/2", 300, rng)
        idx.insert(999999, 5, "zz")
        idx.delete(999999)
        idx.audit2d()
        for _ in range(150):
            xlo = rng.randrange(0, 50000)
            xhi = rng.randrange(xlo, 50000)
            ylo = rng.randrange(0, 300)
            yhi = rng.randrange(ylo, 300)
            assert idx.query(xlo, xhi, ylo, yhi) == mirror.query(xlo, xhi, ylo, yhi, "1/2")

    def test_delete_to_empty(self):
        pts = [(i, i % 5, "c%d" % (i % 3)) for i in range(40)]
        idx = MajorityIndex2D.build(pts, "1/4")
        for x, _, _ in pts:
            idx.delete(x)
        assert len(idx) == 0 and idx.root is None
        idx.audit2d()
        assert idx.registry.live_count == 0
        idx.insert(3, 3, "back")
        assert idx.query(0, 5, 0, 5) == {"back"}


class TestStructure:
    def test_membership_depth_is_logarithmic(self):
        rng = random.Random(8)
        idx, _ = mirrored_pair("1/2", 2000, rng)
        depths = idx.membership_depths()
        cap = 2 * math.ceil(math.log2(2000)) + 3
        assert max(depths.values()) <= cap
        avg = sum(depths.values()) / len(depths)
        assert avg >= math.log2(2000) - 2  # genuinely tree-deep, not flat

    def test_audit_after_adversarial_order(self):
        idx = MajorityIndex2D("1/10")
        for i in range(800):  # strictly increasing x forces rebalances
            idx.insert(i, (i * 37) % 64, "c%d" % (i % 6))
        idx.audit2d()
        assert idx.stats["rebuilds"] > 0
        for i in range(0, 800, 2):
            idx.delete(i)
        idx.audit2d()

    def test_audit_rejects_corrupted_light_node(self):
        rng = random.Random(12)
        idx, _ = mirrored_pair("1/2", 300, rng)
        idx.audit2d()
        node = max(
            (v for v in self._internal(idx.root) if v.sub is None),
            key=lambda v: v.weight,
        )
        ys, cols = node.ys, node.cols
        i = next(k for k in range(len(ys) - 1) if ys[k] != ys[k + 1])
        ys[i], ys[i + 1] = ys[i + 1], ys[i]
        with pytest.raises(AssertionError):
            idx.audit2d()
        ys[i], ys[i + 1] = ys[i + 1], ys[i]
        idx.audit2d()
        j = next(k for k in range(len(cols)) if cols[k] != cols[0])
        was, cols[0] = cols[0], cols[j]
        with pytest.raises(AssertionError):
            idx.audit2d()
        cols[0] = was
        idx.audit2d()

    def test_sub_indexes_only_in_heavy_nodes(self, monkeypatch):
        rng = random.Random(5)
        n = 2000
        pts = [(x, rng.randrange(500), "c%d" % rng.randrange(9))
               for x in rng.sample(range(10 * n), n)]
        made = []
        real = AlphaConfig.from_alpha.__func__

        def counting(cls, alpha):
            made.append(alpha)
            return real(cls, alpha)

        monkeypatch.setattr(AlphaConfig, "from_alpha", classmethod(counting))
        idx = MajorityIndex2D.build(pts, "1/4")
        heavy = [v for v in self._internal(idx.root) if v.sub is not None]
        # one config for the index itself, one per sub-index
        assert len(made) == 1 + len(heavy) < n // 50
        assert all(v.weight > idx.light_cutoff for v in heavy)
        assert all(v.weight <= idx.light_cutoff
                   for v in self._internal(idx.root) if v.sub is None)

    @staticmethod
    def _assert_sub_matches_label_build(idx, sub, points):
        # the sub-index a heavy node builds from colour ids equals a label
        # build of the node's (y, x, label) points on the same registry:
        # same F, per-colour sets and lists
        reg = idx.registry
        ref = MajorityIndex.build([((y, x), label) for y, x, label in points], idx.alpha,
                                  "object", registry=reg)
        try:
            assert list(sub.F.items()) == list(ref.F.items())
            assert ({c: list(pc) for c, pc in sub.per_colour.items()}
                    == {c: list(pc) for c, pc in ref.per_colour.items()})
            assert ([(v.weight, v.cand and list(v.cand.items())) for v in sub.internal_nodes()]
                    == [(v.weight, v.cand and list(v.cand.items())) for v in ref.internal_nodes()])
            sub.audit_structure(deep=True)
        finally:
            for _, c in ref.F.items():  # the reference build's holds
                reg.release(c)

    def test_heavy_sub_indexes_equal_label_builds(self):
        rng = random.Random(8)
        n = 1500
        pts = [(x, rng.randrange(300), "c%d" % min(rng.randrange(12), rng.randrange(12)))
               for x in rng.sample(range(10 * n), n)]
        idx = MajorityIndex2D.build(pts, "1/4")
        heavy = [v for v in self._internal(idx.root) if v.sub is not None]
        assert heavy
        for v in heavy:
            leaves = []
            idx._gather_ordered(v, leaves)
            points = [(lf.y, lf.x, idx.registry.label_of(lf.cid)) for lf in leaves]
            self._assert_sub_matches_label_build(idx, v.sub, points)
        idx.audit2d()

        # light nodes that grow past 2L convert in place, also from ids:
        # a point in every gap of the x order keeps the tree balanced
        def point(x):
            return x, x * 7919 % 300, "c%d" % min(x % 12, x // 7 % 12)

        idx = MajorityIndex2D.build([point(i << 10) for i in range(50)], "1/2")
        converted = []
        to_heavy = idx._to_heavy

        def spy(node):
            # mid-insert: the node's lists already hold the new point
            label = idx.registry.label_of
            points = [(y, x, label(c)) for y, x, c in zip(node.ys, node.xs, node.cols)]
            to_heavy(node)
            self._assert_sub_matches_label_build(idx, node.sub, points)
            converted.append(node)

        idx._to_heavy = spy
        while not converted:
            xs = [x for x, _, _ in idx.points()]
            for a, b in zip(xs, xs[1:]):
                idx.insert(*point((a + b) // 2))
        idx.audit2d()

    @staticmethod
    def _internal(root):
        stack = [root]
        while stack:
            v = stack.pop()
            if v.weight > 1:
                yield v
                stack += (v.left, v.right)

    def test_rebuild_work_amortized(self):
        idx = MajorityIndex2D("1/2")
        updates = 0
        for i in range(1500):
            idx.insert(i, i % 97, "c%d" % (i % 5))
            updates += 1
        work = idx.stats["rebuild_points"]
        assert work <= 40 * updates * math.log2(updates + 2)


class TestOracleEquivalence:
    @pytest.mark.parametrize("alpha", ["1/2", "1/4", "1/10"])
    def test_thousand_rects(self, alpha):
        rng = random.Random(17)
        idx, mirror = mirrored_pair(alpha, 2000, rng, colours=10)
        idx.audit2d()
        for _ in range(1000):
            xlo = rng.randrange(-10, 50010)
            xhi = rng.randrange(xlo, 50010)
            ylo = rng.randrange(-5, 305)
            yhi = rng.randrange(ylo, 305)
            got = idx.query_counts(xlo, xhi, ylo, yhi)
            m, counts = mirror.counts(xlo, xhi, ylo, yhi)
            p = idx.cfg.alpha.numerator
            q = idx.cfg.alpha.denominator
            want = {lab: f for lab, f in counts.items() if q * f > p * m}
            assert got == want

    def test_mixed_ops_against_oracle(self):
        rng = random.Random(55)
        idx = MajorityIndex2D("1/4")
        mirror = NaiveStore2D()
        live = []
        for step in range(4000):
            r = rng.random()
            if r < 0.45 or not live:
                x = rng.randrange(0, 30000)
                if x in mirror:
                    continue
                y = rng.randrange(0, 200)
                lab = "c%d" % rng.randrange(7)
                idx.insert(x, y, lab)
                mirror.insert(x, y, lab)
                live.append(x)
            elif r < 0.65:
                i = rng.randrange(len(live))
                x = live[i]
                live[i] = live[-1]
                live.pop()
                idx.delete(x)
                mirror.delete(x)
            else:
                xlo = rng.randrange(0, 30000)
                xhi = rng.randrange(xlo, 30000)
                ylo = rng.randrange(0, 200)
                yhi = rng.randrange(ylo, 200)
                assert idx.query(xlo, xhi, ylo, yhi) == mirror.query(
                    xlo, xhi, ylo, yhi, "1/4"
                )
            if step % 1000 == 999:
                idx.audit2d()
        idx.audit2d()

    def test_many_colours_count_on_the_unique_side(self):
        # about 6,000 colours put the registry's capacity far above the
        # ids a rectangle joins, so queries count them with np.unique
        rng = random.Random(808)
        n = 9000
        pts = [(x, rng.randrange(10_000),
                "hot" if rng.random() < 0.3 else "c%d" % rng.randrange(50_000))
               for x in rng.sample(range(100_000), n)]
        idx = MajorityIndex2D.build(pts, "1/4")
        assert idx.registry.capacity > 5000
        mirror = NaiveStore2D()
        for x, y, lab in pts:
            mirror.insert(x, y, lab)
        reported = 0
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            for _ in range(300):
                w, h = int(10 ** rng.uniform(2, 5)), int(10 ** rng.uniform(1, 4))
                xlo, ylo = rng.randrange(100_000 - w), rng.randrange(10_000 - h)
                got = idx.query_counts(xlo, xlo + w, ylo, ylo + h)
                m, counts = mirror.counts(xlo, xlo + w, ylo, ylo + h)
                assert got == {lab: f for lab, f in counts.items() if 4 * f > m}
                reported += len(got)
        assert unique.called and reported
        idx.audit2d()

    def test_counting_layers_match_mirror(self):
        rng = random.Random(29)
        idx, mirror = mirrored_pair("1/2", 600, rng, colours=6)
        for _ in range(200):
            xlo = rng.randrange(0, 50000)
            xhi = rng.randrange(xlo, 50000)
            ylo = rng.randrange(0, 300)
            yhi = rng.randrange(ylo, 300)
            m, counts = mirror.counts(xlo, xhi, ylo, yhi)
            assert idx.rect_count(xlo, xhi, ylo, yhi) == m
            for lab in ("c0", "c3", "nosuch"):
                assert idx.rect_colour_count(lab, xlo, xhi, ylo, yhi) == counts.get(
                    lab, 0
                )

    def test_brute_force_cross_check(self):
        rng = random.Random(71)
        pts = []
        seen = set()
        while len(pts) < 120:
            x = rng.randrange(0, 400)
            if x in seen:
                continue
            seen.add(x)
            pts.append((x, rng.randrange(0, 40), "c%d" % rng.randrange(4)))
        idx = MajorityIndex2D.build(pts, "1/3")
        for _ in range(250):
            xlo = rng.randrange(0, 400)
            xhi = rng.randrange(xlo, 400)
            ylo = rng.randrange(0, 40)
            yhi = rng.randrange(ylo, 40)
            want = naive_majority_2d(pts, xlo, xhi, ylo, yhi, "1/3")
            assert idx.query(xlo, xhi, ylo, yhi) == want


class TestMemory:
    def test_build_holds_no_per_colour_tally_per_sub_index(self):
        # sub-indexes never tally; with many colours, slots sized to the
        # shared registry in every x-node would cost far more than this
        rng = random.Random(3)
        n, colours = 2000, 1000
        pts = [
            (x, rng.randrange(500), "c%d" % rng.randrange(colours))
            for x in rng.sample(range(10 * n), n)
        ]
        tracemalloc.start()
        try:
            idx = MajorityIndex2D.build(pts, "1/4")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(idx) == n
        assert held / n < 10_000, f"{held / n:.0f} bytes per point"

    def test_light_nodes_keep_build_under_4kb_per_point(self):
        # only the top levels of the x-tree carry a 1-D sub-index; the
        # rest hold three plain lists per node
        rng = random.Random(3)
        n, colours = 2000, 1000
        pts = [
            (x, rng.randrange(500), "c%d" % rng.randrange(colours))
            for x in rng.sample(range(10 * n), n)
        ]
        tracemalloc.start()
        try:
            idx = MajorityIndex2D.build(pts, "1/4")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(idx) == n
        assert held / n < 4_000, f"{held / n:.0f} bytes per point"
