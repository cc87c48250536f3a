"""Planar range alpha-majority queries over axis-aligned rectangles.

A weight-balanced binary tree over x-coordinates (scapegoat rebuilds at
a 0.7 child ratio) whose internal nodes each carry a full 1-D majority
index over the y-coordinates of their x-span, keyed by (y, x) so keys
stay distinct. A rectangle query splits [x_lo, x_hi] into O(lg n)
canonical x-pieces, runs the 1-D candidate collection of each piece
into one shared tally, which also yields the rectangle's point count,
filters once globally at a quarter of the reporting threshold, and
verifies survivors with exact per-colour rectangle counts drawn from
the same sub-index counting sets.

x-coordinates are pairwise distinct (the 1-D index's rule, lifted);
y-coordinates may repeat freely.
"""

from __future__ import annotations

import math

from .errors import DuplicateKeyError
from .params import AlphaConfig
from .registry import ColourRegistry, ScratchCounters
from .tree import MajorityIndex

RATIO_NUM, RATIO_DEN = 7, 10  # scapegoat trigger: child weight > 0.7 * node weight


def _ykey(y, x):
    return (y, x)


def _ylo_key(ylo):
    return (ylo,)  # sorts before every (ylo, x)


def _yhi_key(yhi):
    return (yhi, math.inf)


class _XLeaf:
    __slots__ = ("x", "y", "cid", "label", "parent")
    weight = 1
    left = None
    right = None
    sub = None

    def __init__(self, x, y, cid, label):
        self.x = x
        self.y = y
        self.cid = cid
        self.label = label
        self.parent = None

    @property
    def min_x(self):
        return self.x

    @property
    def max_x(self):
        return self.x


class _XNode:
    __slots__ = ("left", "right", "parent", "weight", "min_x", "max_x", "sub")

    def __init__(self):
        self.left = None
        self.right = None
        self.parent = None
        self.weight = 0
        self.min_x = None
        self.max_x = None
        self.sub = None


class MajorityIndex2D:
    """Dynamic rectangle alpha-majority index over planar points."""

    def __init__(self, alpha, registry=None):
        self.cfg = AlphaConfig.from_alpha(alpha)
        self._ap = self.cfg.alpha.numerator
        self._aq = self.cfg.alpha.denominator
        self._shared_registry = registry is not None
        self.registry = registry if registry is not None else ColourRegistry()
        self.scratch = ScratchCounters()
        self.root = None
        self._x_present: set = set()
        self.stats = {"queries": 0, "rebuilds": 0, "rebuild_points": 0}

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
    def build(cls, points, alpha, registry=None):
        self = cls(alpha, registry)
        recs = []
        for x, y, label in points:
            x = self._num(x, "x-coordinate")
            y = self._num(y, "y-coordinate")
            if x in self._x_present:
                raise DuplicateKeyError(x)
            self._x_present.add(x)
            recs.append((x, y, label))
        recs.sort(key=lambda r: r[0])
        leaves = [
            _XLeaf(x, y, self.registry.intern(label), label) for x, y, label in recs
        ]
        self.root = self._build_span(leaves)
        return self

    def _build_span(self, leaves):
        if not leaves:
            return None
        if len(leaves) == 1:
            leaves[0].parent = None
            return leaves[0]
        node = self._fresh_internal(leaves)
        mid = len(leaves) // 2
        node.left = self._build_span(leaves[:mid])
        node.right = self._build_span(leaves[mid:])
        node.left.parent = node
        node.right.parent = node
        return node

    def _fresh_internal(self, leaves):
        node = _XNode()
        node.weight = len(leaves)
        node.min_x = leaves[0].x
        node.max_x = leaves[-1].x
        node.sub = MajorityIndex.build(
            [(_ykey(l.y, l.x), l.label) for l in leaves],
            self.cfg.alpha,
            "object",
            registry=self.registry,
            manage_registry=False,
        )
        return node

    # ---- updates ----

    def insert(self, x, y, label) -> None:
        x = self._num(x, "x-coordinate")
        y = self._num(y, "y-coordinate")
        if x in self._x_present:
            raise DuplicateKeyError(x)
        cid = self.registry.intern(label)
        leaf = _XLeaf(x, y, cid, label)
        self._x_present.add(x)
        if self.root is None:
            self.root = leaf
            return
        cur = self.root
        path = []
        while cur.weight > 1:
            path.append(cur)
            cur.sub.insert(_ykey(y, x), label)
            cur.weight += 1
            if x < cur.min_x:
                cur.min_x = x
            if x > cur.max_x:
                cur.max_x = x
            cur = cur.left if x < cur.left.max_x else cur.right
        # cur is a leaf: pair it with the new one under a fresh internal
        first, second = (cur, leaf) if cur.x < x else (leaf, cur)
        join = self._fresh_internal((first, second))
        join.left, join.right = first, second
        first.parent = second.parent = join
        parent = path[-1] if path else None
        join.parent = parent
        if parent is None:
            self.root = join
        elif parent.left is cur:
            parent.left = join
        else:
            parent.right = join
        self._rebalance(path)

    def delete(self, x) -> None:
        if x not in self._x_present:
            raise KeyError(x)
        self._x_present.discard(x)
        cur = self.root
        path = []
        while cur.weight > 1:
            path.append(cur)
            cur = cur.left if x <= cur.left.max_x else cur.right
        for node in path:
            node.sub.delete(_ykey(cur.y, x))
            node.weight -= 1
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
        for lf in dying.sub.leaves():
            # the collapsed node's remaining hold on its sibling's point
            self.registry.release(lf.colour)
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
        self._release_subtree_holds(node)
        fresh = self._build_span(leaves)
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
        for lf in out:
            yield lf.x, lf.y, lf.label

    def _release_subtree_holds(self, node) -> None:
        # every internal node's sub holds one registry ref per point
        stack = [node]
        while stack:
            v = stack.pop()
            if v.weight == 1:
                continue
            for lf in v.sub.leaves():
                self.registry.release(lf.colour)
            stack.append(v.left)
            stack.append(v.right)

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
        lo, hi = _ylo_key(ylo), _yhi_key(yhi)
        m = 0
        for v in self._pieces(xlo, xhi):
            if v.weight == 1:
                m += 1 if ylo <= v.y <= yhi else 0
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
        pieces = self._pieces(xlo, xhi)
        lo, hi = _ylo_key(ylo), _yhi_key(yhi)
        sc = self.scratch
        m = 0
        for v in pieces:
            if v.weight == 1:
                if ylo <= v.y <= yhi:
                    sc.bump(v.cid, 1)
                    m += 1
            else:
                m += v.sub._collect(lo, hi, sc)
        p, q = self._ap, self._aq
        survivors = [cid for cid, t in sc.drain().items() if 4 * q * t > p * m]
        # disjoint canonical masses sum to at most m
        assert len(survivors) * p <= 4 * q, "survivor bound exceeded"
        out = {}
        for cid in survivors:
            f = self._rect_cid_count(cid, pieces, ylo, yhi)
            if q * f > p * m:
                out[self.registry.label_of(cid)] = f
        return out

    # ---- audits ----

    def audit2d(self) -> None:
        """Structural and cross-layer invariants; cost O(n lg n)."""
        self.scratch.audit_zero()
        if self.root is None:
            assert not self._x_present
            return
        assert self.root.parent is None
        n = len(self._x_present)
        depth_cap = 2 * max(1, math.ceil(math.log2(max(2, n)))) + 3
        holds: dict = {}

        def walk(v, depth):
            if v.weight == 1:
                assert depth <= depth_cap, f"leaf depth {depth} over cap {depth_cap}"
                self.registry.label_of(v.cid)
                # one wrapper hold plus one per internal ancestor
                holds[v.cid] = holds.get(v.cid, 0) + 1 + depth
                return 1, v.x, v.x, [(v.x, v.y, v.cid)]
            assert v.left.parent is v and v.right.parent is v
            lw, lmin, lmax, lpts = walk(v.left, depth + 1)
            rw, rmin, rmax, rpts = walk(v.right, depth + 1)
            assert lmax < rmin, "x-order violated"
            w = lw + rw
            assert v.weight == w
            assert v.min_x == lmin and v.max_x == rmax
            if w >= 4:
                assert RATIO_DEN * lw <= RATIO_NUM * w, "left child overweight"
                assert RATIO_DEN * rw <= RATIO_NUM * w, "right child overweight"
            pts = lpts + rpts
            assert len(v.sub) == w, "substructure size drifted from span"
            v.sub.audit_tree()
            got = sorted(lf.coord for lf in v.sub.leaves())
            assert got == sorted((y, x) for x, y, _ in pts)
            return w, lmin, rmax, pts

        w, _, _, pts = walk(self.root, 0)
        assert w == n
        assert {p[0] for p in pts} == self._x_present
        for cid, expect in holds.items():
            got = self.registry.refcount(cid)
            if self._shared_registry:
                assert got >= expect
            else:
                assert got == expect, f"refcount {got} != {expect} for colour {cid}"

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
