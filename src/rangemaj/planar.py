"""Planar range alpha-majority queries over axis-aligned rectangles.

A weight-balanced binary tree over x-coordinates (scapegoat rebuilds at
a 0.7 child ratio). Every internal x-node answers for the points of its
x-span in (y, x) order, in one of two forms:

- A light node keeps three parallel sequences in (y, x) order: the
  lists ``ys`` and ``xs`` and the colour ids ``cols``, an ``array('q')``.
  A rectangle piece on it is two ``bisect`` calls on ``ys`` and a slice
  of ``cols``.
- A heavy node carries a full 1-D majority index ``sub`` over keys
  (y, x), which stay distinct, with its candidate lists and per-colour
  counting sets.

The light cutoff L is ``LIGHT_LISTS`` candidate lists' worth of points.
A node is built light when its weight is at most L. A light node turns
heavy once its weight exceeds 2L, and a heavy node turns light once its
weight falls to L/2, so every conversion is paid for by Omega(L)
updates. A light piece thus counts O(L) = O(1/alpha) ids, keeping the
paper's per-piece bound, and only the top levels of the tree hold
sub-indexes. ``LIGHT_LISTS`` is large because a slice count in numpy
stays cheaper than a sub-index's candidate collection in Python up to
weights in the thousands. Builds go bottom-up: a node's (y, x)-sorted
records are its children's records merged.

A rectangle query splits [x_lo, x_hi] into O(lg n) canonical x-pieces.
The slices of all light pieces and the leaf pieces join, by memory
copies, with the ids each heavy piece's sub-index collects from its
light nodes and leaves; the joined ``array('q')`` is counted once with
``tree.count_ids``, and the heavy pieces' listed nodes add their
candidate lists. The tally is filtered once globally at a quarter of the
reporting threshold (``tree.survivors``), and each survivor is verified
by its exact count in the light and leaf pieces plus its per-colour
counts in the heavy pieces.

Every layer below the index runs on colour ids. The index alone holds
registry references, one per live point through its leaf: a label is
interned once in ``build`` or ``insert`` and released once in
``delete``. Light lists copy the leaf's id, and heavy sub-indexes take
it through the 1-D index's id-level core, which never touches the
registry.

x-coordinates are pairwise distinct (the 1-D index's rule, lifted);
y-coordinates may repeat freely.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np

from .errors import DuplicateKeyError
from .params import AlphaConfig
from .registry import ColourRegistry
from .tree import MajorityIndex, count_ids, survivors

RATIO_NUM, RATIO_DEN = 7, 10  # scapegoat trigger: child weight > 0.7 * node weight
LIGHT_LISTS = 16  # light cutoff L = LIGHT_LISTS * list_size points


def _ylo_key(ylo):
    return (ylo,)  # sorts before every (ylo, x)


def _yhi_key(yhi):
    return (yhi, math.inf)


class _XLeaf:
    __slots__ = ("x", "y", "cid", "parent")
    weight = 1
    left = None
    right = None

    def __init__(self, x, y, cid):
        self.x = x
        self.y = y
        self.cid = cid
        self.parent = None

    @property
    def min_x(self):
        return self.x

    @property
    def max_x(self):
        return self.x


class _XNode:
    # a light node has ys, xs and cols and no sub; a heavy one the reverse
    __slots__ = (
        "left", "right", "parent", "weight", "min_x", "max_x", "sub", "ys", "xs", "cols"
    )

    def __init__(self, left, right):
        self.left = left
        self.right = right
        left.parent = right.parent = self
        self.parent = None
        self.weight = left.weight + right.weight
        self.min_x = left.min_x
        self.max_x = right.max_x
        self.sub = None
        self.ys = self.xs = self.cols = None


def _slot(node, y, x):
    """Index of (y, x) in a light node's lists: where it is or would go."""
    ys = node.ys
    return bisect_left(node.xs, x, bisect_left(ys, y), bisect_right(ys, y))


class MajorityIndex2D:
    """Dynamic rectangle alpha-majority index over planar points."""

    def __init__(self, alpha):
        self.cfg = AlphaConfig.from_alpha(alpha)
        self._ap = self.cfg.alpha.numerator
        self._aq = self.cfg.alpha.denominator
        self.light_cutoff = LIGHT_LISTS * self.cfg.list_size
        self.registry = ColourRegistry()
        self.root = None
        self._x_present: set = set()
        self.stats = {
            "queries": 0, "rebuilds": 0, "rebuild_points": 0, "to_heavy": 0, "to_light": 0
        }

    def __len__(self) -> int:
        return len(self._x_present)

    @property
    def alpha(self):
        return self.cfg.alpha

    # ---- coordinate checks ----

    @staticmethod
    def _num(v, what):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"numeric {what} required, got {v!r}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"finite {what} required, got {v!r}")
        return v

    @staticmethod
    def _check_rect(*bounds):
        # query bounds may be infinite, as in the 1-D float kind, never NaN
        for v in bounds:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
                raise ValueError(f"numeric, non-NaN query bound required, got {v!r}")

    # ---- construction ----

    @classmethod
    def build(cls, points, alpha):
        self = cls(alpha)
        recs = []
        for x, y, label in points:
            x = self._num(x, "x-coordinate")
            y = self._num(y, "y-coordinate")
            if x in self._x_present:
                raise DuplicateKeyError(x)
            self._x_present.add(x)
            recs.append((x, y, label))
        recs.sort(key=lambda r: r[0])
        cids = self.registry.intern_all([label for _, _, label in recs])
        leaves = [_XLeaf(r[0], r[1], c) for r, c in zip(recs, cids)]
        if leaves:
            self.root = self._build_span(leaves)[0]
        return self

    def _build_span(self, leaves):
        """Subtree over leaves, which are in x order, and its (y, x, cid)
        records in (y, x) order."""
        if len(leaves) == 1:
            lf = leaves[0]
            lf.parent = None
            return lf, [(lf.y, lf.x, lf.cid)]
        mid = len(leaves) // 2
        left, lrecs = self._build_span(leaves[:mid])
        right, rrecs = self._build_span(leaves[mid:])
        recs = sorted(lrecs + rrecs)  # Timsort merges the two runs in linear time
        return self._join(left, right, recs), recs

    def _join(self, left, right, recs):
        """Internal node over adjacent subtrees whose points are recs."""
        node = _XNode(left, right)
        cols = array("q", [r[2] for r in recs])
        if node.weight > self.light_cutoff:
            node.sub = self._sub_index([(y, x) for y, x, _ in recs], cols)
        else:
            node.ys = [r[0] for r in recs]
            node.xs = [r[1] for r in recs]
            node.cols = cols
        return node

    def _sub_index(self, keys, cids):
        """A 1-D index over (y, x) keys, in order, and their colour ids."""
        return MajorityIndex(self.cfg.alpha, "object", self.registry)._load_sorted(keys, cids)

    def _to_heavy(self, node) -> None:
        node.sub = self._sub_index(list(zip(node.ys, node.xs)), node.cols)
        node.ys = node.xs = node.cols = None
        self.stats["to_heavy"] += 1

    def _to_light(self, node) -> None:
        keys, cols = zip(*node.sub.F.items())
        node.ys = [k[0] for k in keys]
        node.xs = [k[1] for k in keys]
        node.cols = array("q", cols)
        node.sub = None
        self.stats["to_light"] += 1

    # ---- updates ----

    def insert(self, x, y, label) -> None:
        x = self._num(x, "x-coordinate")
        y = self._num(y, "y-coordinate")
        if x in self._x_present:
            raise DuplicateKeyError(x)
        cid = self.registry.intern(label)
        leaf = _XLeaf(x, y, cid)
        self._x_present.add(x)
        if self.root is None:
            self.root = leaf
            return
        cur = self.root
        path = []
        heavy_at = 2 * self.light_cutoff
        while cur.weight > 1:
            path.append(cur)
            cur.weight += 1
            if cur.sub is None:
                i = _slot(cur, y, x)
                cur.ys.insert(i, y)
                cur.xs.insert(i, x)
                cur.cols.insert(i, cid)
                if cur.weight > heavy_at:
                    self._to_heavy(cur)
            else:
                cur.sub._insert_id((y, x), lambda: cid)
            if x < cur.min_x:
                cur.min_x = x
            if x > cur.max_x:
                cur.max_x = x
            cur = cur.left if x < cur.left.max_x else cur.right
        # cur is a leaf: pair it with the new one under a fresh internal
        first, second = (cur, leaf) if cur.x < x else (leaf, cur)
        parent = path[-1] if path else None
        join = self._join(first, second, sorted([(cur.y, cur.x, cur.cid), (y, x, cid)]))
        join.parent = parent
        if parent is None:
            self.root = join
        elif parent.left is cur:
            parent.left = join
        else:
            parent.right = join
        self._rebalance(path)

    def delete(self, x) -> None:
        x = self._num(x, "x-coordinate")
        if x not in self._x_present:
            raise KeyError(x)
        self._x_present.discard(x)
        cur = self.root
        path = []
        while cur.weight > 1:
            path.append(cur)
            cur = cur.left if x <= cur.left.max_x else cur.right
        y = cur.y
        for node in path:
            node.weight -= 1
            if node.sub is None:
                i = _slot(node, y, x)
                del node.ys[i], node.xs[i], node.cols[i]
            else:
                node.sub._delete_id((y, x))
                if 2 * node.weight <= self.light_cutoff:
                    self._to_light(node)
        self.registry.release(cur.cid)
        if not path:
            self.root = None
            return
        dying = path.pop()
        sibling = dying.right if dying.left is cur else dying.left
        grand = dying.parent
        sibling.parent = grand
        if grand is None:
            self.root = sibling
        elif grand.left is dying:
            grand.left = sibling
        else:
            grand.right = sibling
        for node in reversed(path):
            node.min_x = node.left.min_x
            node.max_x = node.right.max_x
        self._rebalance(path)

    def _rebalance(self, path) -> None:
        for node in path:  # root first: rebuild the highest violator only
            w = node.weight
            if w < 4:
                continue
            if (
                RATIO_DEN * node.left.weight > RATIO_NUM * w
                or RATIO_DEN * node.right.weight > RATIO_NUM * w
            ):
                self._rebuild_subtree(node)
                return

    def _rebuild_subtree(self, node) -> None:
        leaves: list = []
        self._gather_ordered(node, leaves)
        fresh = self._build_span(leaves)[0]
        parent = node.parent
        fresh.parent = parent
        if parent is None:
            self.root = fresh
        elif parent.left is node:
            parent.left = fresh
        else:
            parent.right = fresh
        self.stats["rebuilds"] += 1
        self.stats["rebuild_points"] += len(leaves)

    def _gather_ordered(self, node, out) -> None:
        if node.weight == 1:
            out.append(node)
        else:
            self._gather_ordered(node.left, out)
            self._gather_ordered(node.right, out)

    def points(self):
        """Yield (x, y, colour-label) for every point, in x order."""
        if self.root is None:
            return
        out: list = []
        self._gather_ordered(self.root, out)
        label = self.registry.label_of
        for lf in out:
            yield lf.x, lf.y, label(lf.cid)

    # ---- canonical pieces ----

    def _pieces(self, xlo, xhi):
        out = []
        if self.root is None:
            return out
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v.max_x < xlo or v.min_x > xhi:
                continue
            if xlo <= v.min_x and v.max_x <= xhi:
                out.append(v)
            elif v.weight > 1:
                stack.append(v.left)
                stack.append(v.right)
        return out

    # ---- counting layers ----

    def rect_count(self, xlo, xhi, ylo, yhi) -> int:
        self._check_rect(xlo, xhi, ylo, yhi)
        if ylo > yhi:  # the light pieces' bisections would go negative
            return 0
        lo, hi = _ylo_key(ylo), _yhi_key(yhi)
        m = 0
        for v in self._pieces(xlo, xhi):
            if v.weight == 1:
                m += 1 if ylo <= v.y <= yhi else 0
            elif v.sub is None:
                m += bisect_right(v.ys, yhi) - bisect_left(v.ys, ylo)
            else:
                m += v.sub.F.count_range(lo, hi)
        return m

    def rect_colour_count(self, label, xlo, xhi, ylo, yhi) -> int:
        self._check_rect(xlo, xhi, ylo, yhi)
        cid = self.registry.id_of(label)
        if cid is None:
            return 0
        return self._rect_cid_count(cid, self._pieces(xlo, xhi), ylo, yhi)

    def _rect_cid_count(self, cid, pieces, ylo, yhi) -> int:
        lo, hi = _ylo_key(ylo), _yhi_key(yhi)
        f = 0
        for v in pieces:
            if v.weight == 1:
                if v.cid == cid and ylo <= v.y <= yhi:
                    f += 1
            elif v.sub is None:
                i, j = bisect_left(v.ys, ylo), bisect_right(v.ys, yhi)
                f += int(np.count_nonzero(np.frombuffer(v.cols, np.int64)[i:j] == cid))
            else:
                pc = v.sub.per_colour.get(cid)
                if pc is not None:
                    f += pc.count_range(lo, hi)
        return f

    # ---- queries ----

    def query(self, xlo, xhi, ylo, yhi) -> set:
        return set(self.query_counts(xlo, xhi, ylo, yhi))

    def query_counts(self, xlo, xhi, ylo, yhi) -> dict:
        """Labels of the rectangle's strict alpha-majorities with their
        exact in-rectangle counts."""
        self._check_rect(xlo, xhi, ylo, yhi)
        self.stats["queries"] += 1
        if self.root is None or xlo > xhi or ylo > yhi:
            return {}
        ids = array("q")  # colour ids of the leaf and light pieces' points
        heavy = []
        for v in self._pieces(xlo, xhi):
            if v.weight == 1:
                if ylo <= v.y <= yhi:
                    ids.append(v.cid)
            elif v.sub is None:
                i, j = bisect_left(v.ys, ylo), bisect_right(v.ys, yhi)
                if i < j:  # most pieces of a short rectangle hold nothing
                    ids += v.cols[i:j]
            else:
                heavy.append(v)
        m = light = len(ids)
        listed = []
        lo, hi = _ylo_key(ylo), _yhi_key(yhi)
        for v in heavy:  # their collected ids join after the light ones
            hm, hlisted, hids = v.sub._collect(lo, hi)
            m += hm
            listed += hlisted
            ids += hids
        p, q = self._ap, self._aq
        tallies, count = survivors(ids, listed, p * m, q, self.registry.capacity)
        # disjoint canonical masses sum to at most m
        assert len(tallies) * p <= 4 * q, "survivor bound exceeded"
        out = {}
        if heavy:
            # count(cid) also counts the heavy pieces' collected ids, which
            # their exact per-colour counts replace
            collected = count_ids(ids[light:], self.registry.capacity)[1]
        for cid in tallies:
            f = count(cid)
            if heavy:
                f += self._rect_cid_count(cid, heavy, ylo, yhi) - collected(cid)
            if q * f > p * m:
                out[self.registry.label_of(cid)] = f
        return out

    # ---- audits ----

    def audit2d(self) -> None:
        """Structural and cross-layer invariants; cost O(n lg n)."""
        if self.root is None:
            assert not self._x_present
            assert self.registry.live_count == 0
            return
        assert self.root.parent is None
        n = len(self._x_present)
        depth_cap = 2 * max(1, math.ceil(math.log2(max(2, n)))) + 3
        light = self.light_cutoff

        def walk(v, depth):
            if v.weight == 1:
                assert depth <= depth_cap, f"leaf depth {depth} over cap {depth_cap}"
                return 1, v.x, v.x, [(v.y, v.x, v.cid)]
            assert v.left.parent is v and v.right.parent is v
            lw, lmin, lmax, lrecs = walk(v.left, depth + 1)
            rw, rmin, rmax, rrecs = walk(v.right, depth + 1)
            assert lmax < rmin, "x-order violated"
            w = lw + rw
            assert v.weight == w
            assert v.min_x == lmin and v.max_x == rmax
            if w >= 4:
                assert RATIO_DEN * lw <= RATIO_NUM * w, "left child overweight"
                assert RATIO_DEN * rw <= RATIO_NUM * w, "right child overweight"
            # the span's (y, x, cid) records in (y, x) order
            want = sorted(lrecs + rrecs)
            if v.sub is None:
                assert w <= 2 * light, f"light node of weight {w} over 2L = {2 * light}"
                assert len(v.ys) == len(v.xs) == len(v.cols) == w, "light lists off weight"
                assert list(zip(v.ys, v.xs, v.cols)) == want, (
                    "light lists out of (y, x) order or off the span"
                )
            else:
                assert 2 * w > light, f"heavy node of weight {w} at or under L/2"
                assert v.ys is None and v.xs is None and v.cols is None
                assert len(v.sub) == w, "substructure size drifted from span"
                v.sub.audit_structure()
                assert [(k[0], k[1], c) for k, c in v.sub.F.items()] == want
            return w, lmin, rmax, want

        w, _, _, recs = walk(self.root, 0)
        assert w == n
        assert {r[1] for r in recs} == self._x_present
        # the index alone holds registry references: one per live point
        reg = self.registry
        reg.audit()
        held = {c: reg.refcount(c) for c in reg.live_ids()}
        assert held == Counter(r[2] for r in recs), "refcounts off the colours' point counts"

    def membership_depths(self):
        """Per-point count of substructures holding it (audit support)."""
        depths: dict = {}

        def walk(v, d):
            if v is None:
                return
            if v.weight == 1:
                depths[v.x] = d
            else:
                walk(v.left, d + 1)
                walk(v.right, d + 1)

        walk(self.root, 0)
        return depths
