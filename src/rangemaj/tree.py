"""Dynamic range majority index over one-dimensional point sets.

Points are (coordinate, colour) pairs with pairwise-distinct
coordinates. The index answers range queries for every colour occupying
strictly more than an alpha fraction of the points in the range, under
arbitrary interleavings of inserts and deletes.

Layout: a weight-balanced B-tree with branching parameter 8 and one
coordinate per leaf. Heavy nodes carry a short list of their most
frequent colours with counts, rebuilt lazily on a staleness budget;
light nodes are scanned directly.

The point set ``F`` carries each point's colour id in its numeric
column, in coordinate order, and is the one record of it: a leaf holds
only its coordinate and parent, and a node's colours are the ``weight``
entries of that column from the node's first coordinate on, read as one
``array('q')``. A list rebuild therefore costs one lookup of that key in
``F`` plus a numpy count of the slice (``top_colours``), linear in the
node's weight, that touches no leaf object: ``bincount`` while the
registry's capacity, which bounds every id, is below twice the slice
length plus 4,096, ``unique`` past that, then the top ids by count
descending and id ascending. A query joins the slices of F's column
that no listed node covers into one ``array('q')`` and counts it once
with ``count_ids``: a ``Counter`` below ``SMALL_COUNT`` ids, else the same
numpy rule; exact counts are then read for candidates only.

An id-level core never touches the registry: ``_load_sorted`` (keys
in strictly ascending order and their ids), ``_insert_id`` and
``_delete_id``. The public ``build``, ``insert`` and ``delete`` wrap it
and hold one registry reference per point; the planar index's heavy
x-nodes call it directly. ``_load_sorted`` fills ``F`` and the
per-colour sets from sorted runs, then groups each level greedily into
parents and counts each heavy node's list from its slice of the ids,
with the cyclic garbage collector paused.

A query works in one coordinate system, ranks in ``F``: its window is
the ranks [r, r + m), with r the points below lo and r + m the points
at or below hi, two rank operations of ``F`` (``_collect``); the
positional array hands its window of positions over as it is. One
rank-level collector, ``_collect_ranks``, then takes one of two paths:

- ``pruned``: m is at most ``prune_cutoff``, the most a light node
  holds, so the ids are the window's slice of F's column;
- ``general``: one in-order walk from the root (``_accumulate``) splits
  the window into its maximal listed nodes, whose lists the tally reads,
  and the maximal gaps between them, each one slice of F's column. It
  carries each child's offset, so it compares no coordinate and counts
  nothing in ``F``; it enters only listed children that straddle an
  edge and stops at the first child past the window: an exact cover of
  a listed node is that node alone, and every point of the window lies
  in a listed node or in the ids.

One finish, ``answer``, serves every 1-D and planar query. When no node
is listed, the ids are the whole window and one count of them answers.
Otherwise a colour is a candidate only when it holds more than alpha/4
of some part's points, a part being one listed node or the ids. The
candidates a listed node gives depend on its state alone, so the node
keeps them as its ``head`` (``candidate_head``) from the first query
that reads it until a write to its list, staleness or weight drops
it. A candidate whose tally exceeds alpha*m/4 survives, and a survivor
is verified by an exact count only when some listed node does not track
it, which the tally notes as it reads the lists; otherwise its tally is
its exact count.

The paper reads only the top O(lg(1/alpha)) height groups of the
canonical decomposition and verifies candidates by exact counts.
``_decompose_all``, ``group_by_height`` and ``_top_groups`` keep that
decomposition, and ``navigation`` the stride-link search for its top
levels with its own table of links, as a reproduction that criteria 2
and 6 check; neither is on the query path. Every key kind takes the
same paths.
"""

from __future__ import annotations

import gc
import heapq
import math
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .counted_set import CountedOrderedSet
from .errors import DuplicateKeyError
from .params import BRANCH, AlphaConfig, MAX_DEGREE, MIN_DEGREE
from .registry import ColourRegistry

INT_BOUND = 1 << 62


SMALL_COUNT = 64  # below this many ids a Counter beats numpy's ~5 us per call


def _np_counts(a, capacity):
    """Counts of the int64 ids a, each at most capacity: (None, counts
    indexed by id) from bincount, or (the ids ascending, their counts)
    from unique when the ids are sparse."""
    # bincount allocates and scans capacity + 1 slots, unique sorts the
    # ids. Measured on Zipf-skewed ids (numpy 2.4, CPython 3.11, 2 vCPUs):
    # bincount wins up to a largest id of about twice the slice length
    # plus a few thousand (unique's fixed cost is about 20 us), e.g. 300
    # ids up to 2,400: 30 against 45 us; 1,000 ids up to 4,000: 95
    # against 100 us; 100,000 ids up to 1,000: 0.21 against 0.81 ms. Far
    # past it bincount loses badly: 300 ids up to 200,000 take 0.96 ms
    # against 59 us, 100,000 ids up to 800,000 3.4 against 0.9 ms. The
    # registry's capacity bounds every id, so no max() is needed.
    if capacity < 2 * len(a) + 4096:
        return None, np.bincount(a, minlength=capacity + 1)
    return np.unique(a, return_counts=True)


def count_ids(ids, capacity, part=0):
    """Count the colour ids of the array('q') ids, each at most capacity.

    Returns the ids counted more than part times, as a dict from id to
    count, and a function from any id to its count.
    """
    if len(ids) < SMALL_COUNT:
        got = Counter(ids)
        return {c: n for c, n in got.items() if n > part}, got.__getitem__
    vals, counts = _np_counts(np.frombuffer(ids, np.int64), capacity)
    if vals is None:
        over = np.flatnonzero(counts > part)
        return dict(zip(over.tolist(), counts[over].tolist())), counts.item

    def count(c):
        i = min(int(vals.searchsorted(c)), len(vals) - 1)
        return int(counts[i]) if vals[i] == c else 0

    keep = counts > part
    return dict(zip(vals[keep].tolist(), counts[keep].tolist())), count


def answer(m, listed, ids, p, q, capacity, exact, *at):
    """The strict alpha-majorities of a range of m points, alpha = p/q,
    as a dict from colour id to exact count, and the tallies it kept.

    The range's points are those of the listed nodes, whose lists hold
    exact counts of the colours they track, and those whose colour ids
    are in the array('q') ids, each at most capacity. exact(cs, *at)
    lists the counts in the range of the colours cs, the survivors whose
    tally may be short.
    """
    pm = p * m
    if not listed:  # the ids are the whole range's
        out = count_ids(ids, capacity, pm // q)[0]
        return out, out
    # Why a quarter of the threshold keeps every majority: a colour that
    # a listed node v does not track held at most a beta share of v at
    # its last rebuild (the list keeps at least 1/beta - 1 top colours),
    # and fewer than ceil(beta*w/2) updates have hit v since, so it holds
    # at most about 1.5*beta*w(v) of v's points. The listed nodes are
    # disjoint, so a colour's untracked mass is at most about 1.5*beta*m,
    # and beta <= alpha/10.24 makes that at most 0.15*alpha*m. A colour
    # over alpha*m thus tallies more than alpha*m/4.
    #
    # Pigeonhole: the tally is a sum over parts, one per listed node (of
    # u.weight points) and one for the ids (len(ids) points), and the
    # parts' weights sum to m. Since sum(floor(x_i)) <= floor(sum(x_i)),
    # a colour whose tally exceeds floor(alpha*m/4) exceeds
    # floor(alpha*w/4) in some part of weight w. A list is in
    # count-descending order at its rebuild, and each of the `staleness`
    # updates since moved at most one tracked count by one, so every
    # later entry is at most the current count plus staleness: no entry
    # past the first with count + staleness <= floor(alpha*w/4) can
    # exceed it. For integer n, n > x/d exactly when n > x // d, so each
    # test is one integer compare. That scan, the node's head, depends on
    # the node's state alone: the node keeps it until its next update
    # drops it, and a read-only stream scans each list once.
    q4 = 4 * q
    over, count = count_ids(ids, capacity, p * len(ids) // q4)
    cands = set(over)
    for u in listed:
        head = u.head
        if head is None:  # dropped by the node's last update, or never read
            head = u.head = candidate_head(u, p, q)
        cands.update(head)
    quarter = pm // q4  # floor(alpha*m/4)
    tallies = {}
    # a tally is the exact count when every listed node tracks its
    # colour, since tracked counts are exact; the other survivors are
    # short and verified
    short = []
    for c in cands:
        tally = count(c)
        tracked = True
        for u in listed:
            n = u.cand.get(c)
            if n is None:
                tracked = False
            else:
                tally += n
        if tally > quarter:
            tallies[c] = tally
            if not tracked:
                short.append(c)
    # tallies never exceed the true counts, which sum to m
    assert len(tallies) * p <= 4 * q, "survivor bound exceeded"
    counts = dict(tallies)
    if short:
        counts.update(zip(short, exact(short, *at)))
    return {c: f for c, f in counts.items() if q * f > pm}, tallies


def candidate_head(u, p, q) -> list:
    """The colours that a query at alpha = p/q takes from the listed
    node u: its list's entries before the first one at most u's bar,
    floor(alpha*w/4) - staleness. The bar depends on u's weight and
    staleness alone, so the head holds until u's next update."""
    stop = p * u.weight // (4 * q) - u.staleness
    head = []
    for c, n in u.cand.items():
        if n <= stop:
            break
        head.append(c)
    return head


def top_colours(ids, k, capacity) -> dict:
    """The k most frequent of the int64 ids, each in [1, capacity], with
    their counts, count descending and then id ascending."""
    vals, counts = _np_counts(ids, capacity)
    if vals is None:
        vals = np.flatnonzero(counts)
        counts = counts[vals]
    if len(vals) > k:
        # only ids counted at least as often as the k-th largest count
        kth = np.partition(counts, len(counts) - k)[len(counts) - k]
        keep = counts >= kth
        vals, counts = vals[keep], counts[keep]
    # vals ascend, so a stable sort by descending count breaks ties by id
    order = np.argsort(-counts, kind="stable")[:k]
    return dict(zip(vals[order].tolist(), counts[order].tolist()))


def _as_float(x, what) -> float:
    """x as a double; bools and non-numbers are refused, and an int past
    the doubles' range becomes an infinity of its sign."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"numeric {what} required, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def group_by_height(nodes):
    """Canonical nodes grouped by height, highest class first: the
    paper's height groups, kept for the lemma auditor and navigation."""
    by_h: dict = {}
    for n in nodes:
        by_h.setdefault(n.height, []).append(n)
    return [(h, by_h[h]) for h in sorted(by_h, reverse=True)]


class _Leaf:
    """A point's coordinate and parent; it is its own first and last leaf."""

    __slots__ = ("coord", "parent")

    height = 0
    weight = 1
    children = None
    cand = None

    def __init__(self, coord):
        self.coord = coord
        self.parent = None

    min_leaf = max_leaf = property(lambda self: self)


class _Node:
    __slots__ = (
        "children",
        "parent",
        "height",
        "weight",
        "min_leaf",
        "max_leaf",
        "cand",
        "staleness",
        "rebuild_at",
        "rebuild_serial",
        "head",
    )

    def __init__(self, height):
        self.children = []
        self.parent = None
        self.height = height
        self.weight = 0
        self.min_leaf = None
        self.max_leaf = None
        self.cand = None
        self.staleness = 0
        self.rebuild_at = 0
        self.rebuild_serial = 0
        self.head = None  # candidate_head, kept by answer


class MajorityIndex:
    """Dynamic 1-D range alpha-majority index.

    key_kind selects the coordinate domain: "int" (integers within
    +/-2^62), "float" (ints or floats, kept as finite doubles), or
    "object" (any totally ordered Python keys, e.g. tuples). It changes
    validation only; every kind answers through the same query path.
    """

    def __init__(self, alpha, key_kind="int", registry=None):
        self.cfg = AlphaConfig.from_alpha(alpha)
        if key_kind not in ("int", "float", "object"):
            raise ValueError(f"unknown key kind {key_kind!r}")
        self.key_kind = key_kind
        self._ap = self.cfg.alpha.numerator
        self._aq = self.cfg.alpha.denominator
        # a list's rebuild budget, rebuild_threshold's ceil(beta*w/2), as
        # ceil(w*bn / bd2) in integers: rebuild_threshold validates and
        # compares Fractions on every call
        self._bn = self.cfg.beta.numerator
        self._bd2 = 2 * self.cfg.beta.denominator
        self.prune_cutoff = 2 * self.cfg.list_size
        self.registry = registry if registry is not None else ColourRegistry()
        self.F = CountedOrderedSet()
        self.F.load_sorted((), ())  # F carries the colour column
        self.per_colour: dict = {}
        self.root = None
        self.stats = {
            "rebuild_leaf_work": 0,
            "list_rebuilds": 0,
            "splits": 0,
            "merges": 0,
            "shares": 0,
            "queries": 0,
            "pruned_leaf_visits": 0,
        }

    # ---- coordinate validation ----

    def _coord(self, x):
        if self.key_kind == "int":
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"integer coordinate required, got {x!r}")
            if not -INT_BOUND <= x <= INT_BOUND:
                raise ValueError(f"coordinate {x} outside +/-2^62")
            return x
        if self.key_kind == "float":
            x = _as_float(x, "coordinate")
            if not math.isfinite(x):
                raise ValueError(f"finite coordinate required, got {x!r}")
            return x
        return x

    def _query_bound(self, x, which):
        # query endpoints tolerate over-wide ranges in the numeric kinds
        if self.key_kind == "int":
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"integer bound required, got {x!r}")
            return max(-INT_BOUND, x) if which == "lo" else min(INT_BOUND, x)
        if self.key_kind == "float":
            x = _as_float(x, "bound")
            if math.isnan(x):
                raise ValueError("NaN query bound")
            return x
        return x

    # ---- basic accessors ----

    def __len__(self) -> int:
        return len(self.F)

    @property
    def height(self):
        return self.root.height if self.root is not None else None

    @property
    def alpha(self) -> Fraction:
        return self.cfg.alpha

    # ---- bulk construction ----

    @classmethod
    def build(cls, points, alpha, key_kind="int", registry=None):
        """An index over (coordinate, colour label) pairs in any order;
        each point takes one registry reference for its colour."""
        self = cls(alpha, key_kind, registry)
        # by coordinate alone: labels need not compare, even on a repeat
        pts = sorted(((self._coord(c), lab) for c, lab in points), key=itemgetter(0))
        for i in range(1, len(pts)):
            if pts[i - 1][0] == pts[i][0]:
                raise DuplicateKeyError(pts[i][0])
        keys = [c for c, _ in pts]
        return self._load_sorted(keys, self.registry.intern_all([lab for _, lab in pts]))

    def _load_sorted(self, keys, cids):
        """Fill this empty index from valid keys in strictly ascending
        order and their colour ids, and return it."""
        if not keys:
            return self
        # The build allocates about one object per point, none of which
        # is garbage before it returns, and each allocation burst sets off
        # collector passes over every live object: at 100,000 points they
        # took half of a snapshot load. The collector is paused meanwhile.
        paused = gc.isenabled()
        gc.disable()
        try:
            self._fill_sorted(keys, cids)
        finally:
            if paused:
                gc.enable()
        return self

    def _fill_sorted(self, keys, cids) -> None:
        self.F.load_sorted(keys, cids)
        ids_arr = np.array(cids, dtype=np.int64)
        # a stable sort by id lists each colour's keys in key order
        order = np.argsort(ids_arr, kind="stable")
        by_colour = ids_arr[order]
        starts = (np.flatnonzero(by_colour[1:] != by_colour[:-1]) + 1).tolist()
        grouped = [keys[i] for i in order.tolist()]
        for i, j in zip([0] + starts, starts + [len(keys)]):
            pc = self.per_colour[int(by_colour[i])] = CountedOrderedSet()
            pc.load_sorted(grouped[i:j])

        level = list(map(_Leaf, keys))
        h = 0
        while len(level) > 1:
            h += 1
            target = BRANCH**h
            # Children group greedily: a group closes once its weight
            # reaches the target, and a last group under half the target
            # joins the one before. pre[i] is the weight of level[:i],
            # which is also where level[i]'s leaves start.
            pre = list(accumulate([v.weight for v in level], initial=0))
            n = len(level)
            cuts = [0]
            while True:
                e = bisect_left(pre, pre[cuts[-1]] + target)
                if e >= n:
                    break
                cuts.append(e)
            if len(cuts) > 1 and 2 * (pre[n] - pre[cuts[-1]]) < target:
                cuts[-1] = n
            else:
                cuts.append(n)
            new_level = []
            for i, j in zip(cuts, cuts[1:]):
                node = _Node(h)
                node.children = kids = level[i:j]
                for c in kids:
                    c.parent = node
                node.weight = w = pre[j] - pre[i]
                node.min_leaf = kids[0].min_leaf
                node.max_leaf = kids[-1].max_leaf
                if w > self.prune_cutoff:
                    self._bulk_list(node, ids_arr[pre[i] : pre[j]])
                new_level.append(node)
            level = new_level

        self.root = level[0]
        self.root.parent = None

    def _bulk_list(self, node, seg) -> None:
        """Give node a fresh list, counted from seg, its colour ids."""
        node.cand = top_colours(seg, self.cfg.list_size, self.registry.capacity)
        node.staleness = 0
        node.rebuild_at = -(-node.weight * self._bn // self._bd2)
        node.head = None

    # ---- candidate lists ----

    def rebuild_list(self, v) -> None:
        """Recompute C(v) exactly from v's slice of F's colour column."""
        self._bulk_list(v, np.frombuffer(self.F.values_from(v.min_leaf.coord, v.weight), np.int64))
        v.rebuild_serial += 1
        self.stats["list_rebuilds"] += 1
        self.stats["rebuild_leaf_work"] += v.weight

    def _upkeep_insert(self, v, cid) -> None:
        # every update into the subtree ages the list; tracked colours
        # additionally keep their exact count
        if v.cand is None:
            if v.weight > self.prune_cutoff:
                self.rebuild_list(v)
            return
        c = v.cand.get(cid)
        if c is not None:
            v.cand[cid] = c + 1
        v.staleness += 1
        v.head = None
        if v.staleness >= v.rebuild_at:
            self.rebuild_list(v)

    def _upkeep_delete(self, v, cid) -> None:
        if v.cand is None:
            return
        if v.weight <= self.prune_cutoff:
            v.cand = v.head = None
            return
        c = v.cand.get(cid)
        if c is not None:
            # exact while tracked; dropping at zero loses nothing
            if c == 1:
                del v.cand[cid]
            else:
                v.cand[cid] = c - 1
        v.staleness += 1
        v.head = None
        if v.staleness >= v.rebuild_at:
            self.rebuild_list(v)

    # ---- rebalancing ----

    def _make_internal(self, kids, height):
        node = _Node(height)
        node.children = kids
        w = 0
        for c in kids:
            c.parent = node
            w += c.weight
        node.weight = w
        node.min_leaf = kids[0].min_leaf
        node.max_leaf = kids[-1].max_leaf
        if w > self.prune_cutoff:
            self.rebuild_list(node)
        return node

    @staticmethod
    def _halve(kids):
        total = sum(c.weight for c in kids)
        acc = 0
        for i, c in enumerate(kids[:-1]):
            acc += c.weight
            if 2 * acc >= total:
                return kids[: i + 1], kids[i + 1 :]
        return kids[:-1], kids[-1:]

    def _split(self, v) -> None:
        left_kids, right_kids = self._halve(v.children)
        a = self._make_internal(left_kids, v.height)
        b = self._make_internal(right_kids, v.height)
        parent = v.parent
        if parent is None:
            self.root = self._make_internal([a, b], v.height + 1)
        else:
            i = parent.children.index(v)
            parent.children[i : i + 1] = [a, b]
            a.parent = b.parent = parent
        self.stats["splits"] += 1

    def _fix_underflow(self, v) -> None:
        parent = v.parent
        sibs = parent.children
        i = sibs.index(v)
        j = i - 1 if i > 0 else i + 1
        sib = sibs[j]
        lo, hi = (j, i) if j < i else (i, j)
        kids = sibs[lo].children + sibs[hi].children
        combined = v.weight + sib.weight
        h = v.height
        if 2 * combined <= 3 * BRANCH**h:
            node = self._make_internal(kids, h)
            node.parent = parent
            sibs[lo : hi + 1] = [node]
            self.stats["merges"] += 1
        else:
            left_kids, right_kids = self._halve(kids)
            a = self._make_internal(left_kids, h)
            b = self._make_internal(right_kids, h)
            a.parent = b.parent = parent
            sibs[lo : hi + 1] = [a, b]
            self.stats["shares"] += 1

    # ---- updates ----

    def insert(self, x, colour) -> None:
        # one probe of F, which interns the colour only for a new x
        self._insert_id(self._coord(x), lambda: self.registry.intern(colour))

    def delete(self, x) -> None:
        self.registry.release(self._delete_id(self._coord(x)))
        mapping = self.registry.maybe_remap(len(self.F))
        if mapping:
            self._apply_remap(mapping)

    def _insert_id(self, x, make_cid) -> None:
        """Store the valid key x with the colour id make_cid() gives,
        which is called only when x is not stored yet."""
        cid = self.F.insert(x, make_cid)
        if cid is None:
            raise DuplicateKeyError(x)
        pc = self.per_colour.get(cid)
        if pc is None:
            pc = CountedOrderedSet()
            self.per_colour[cid] = pc
        pc.insert(x)

        leaf = _Leaf(x)
        if self.root is None:
            self.root = leaf
            return
        path = []
        cur = self.root
        while cur.height:
            path.append(cur)
            nxt = None
            for c in cur.children:
                if c.max_leaf.coord >= x:
                    nxt = c
                    break
            cur = nxt if nxt is not None else cur.children[-1]

        if not path:
            kids = [cur, leaf] if cur.coord < x else [leaf, cur]
            self.root = self._make_internal(kids, 1)
            return

        parent = path[-1]
        pos = parent.children.index(cur)
        if x < cur.coord:
            parent.children.insert(pos, leaf)
        else:
            parent.children.insert(pos + 1, leaf)
        leaf.parent = parent

        for v in reversed(path):
            v.weight += 1
            v.min_leaf = v.children[0].min_leaf
            v.max_leaf = v.children[-1].max_leaf
            if v.weight > 2 * BRANCH**v.height:
                self._split(v)
            else:
                self._upkeep_insert(v, cid)

    def _delete_id(self, x) -> int:
        """Remove the valid key x and return its colour id (KeyError(x)
        when x is not stored)."""
        cid = self.F.delete(x)
        path = []
        cur = self.root
        while cur.height:
            path.append(cur)
            for c in cur.children:
                if c.max_leaf.coord >= x:
                    cur = c
                    break
        pc = self.per_colour[cid]
        pc.delete(x)
        if not len(pc):
            del self.per_colour[cid]

        if not path:
            self.root = None
        else:
            path[-1].children.remove(cur)
            for v in reversed(path):
                v.weight -= 1
                v.min_leaf = v.children[0].min_leaf
                v.max_leaf = v.children[-1].max_leaf
                if v.parent is None:
                    if len(v.children) == 1:
                        child = v.children[0]
                        child.parent = None
                        self.root = child
                    else:
                        self._upkeep_delete(v, cid)
                elif 2 * v.weight < BRANCH**v.height:
                    self._fix_underflow(v)
                else:
                    self._upkeep_delete(v, cid)
        return cid

    def relabel(self, first, new_keys) -> None:
        """Rename the len(new_keys) stored keys from the first one at or
        above first to new_keys, in place.

        new_keys is sorted, and no other stored key falls between an old
        key and its new one. The order of the points is then unchanged,
        and with it the tree shape, every node's weight, colours, list
        and staleness: only the keys in F, in the per-colour sets and on
        the leaves are rewritten.
        """
        if not new_keys:
            return
        cids = self.F.values_from(first, len(new_keys))
        old_keys = self.F.replace_run(first, new_keys)
        runs: dict = {}  # colour id -> (its first old key, its new keys)
        for cid, old, new in zip(cids, old_keys, new_keys):
            run = runs.get(cid)
            if run is None:
                runs[cid] = (old, [new])
            else:
                run[1].append(new)
        for cid, (start, keys) in runs.items():
            self.per_colour[cid].replace_run(start, keys)
        for key, leaf in zip(new_keys, self._leaves_from(first)):
            leaf.coord = key

    def _leaves_from(self, x):
        """Leaves from the first one at or above x on, in order: one
        descent, then a walk that reads no coordinate."""
        path = []
        v = self.root
        while v.height:
            kids = v.children
            i = 0
            while i + 1 < len(kids) and kids[i].max_leaf.coord < x:
                i += 1
            path.append((kids, i + 1))
            v = kids[i]
        yield v
        while path:
            kids, i = path.pop()
            if i < len(kids):
                path.append((kids, i + 1))
                v = kids[i]
                while v.height:
                    path.append((v.children, 1))
                    v = v.children[0]
                yield v

    def _apply_remap(self, mapping) -> None:
        self.per_colour = {mapping[c]: pc for c, pc in self.per_colour.items()}
        self.F.map_values(mapping.__getitem__)
        for u in self.internal_nodes():
            if u.cand is not None:
                # stale entries of fully-deleted colours are dropped
                u.cand = {mapping[c]: n for c, n in u.cand.items() if c in mapping}
                u.head = None

    # ---- range machinery ----

    def _cover_node(self, a, b):
        # deepest node whose range contains [a, b], two stored keys
        v = self.root
        while v.height:
            down = None
            for c in v.children:
                if c.max_leaf.coord >= a:
                    if c.max_leaf.coord >= b:
                        down = c
                    break
            if down is None:
                return v
            v = down
        return v

    def _find_leaf(self, x):
        """The leaf that stores x (KeyError(x) when x is not stored)."""
        v = self.root
        while v is not None and v.height:
            v = next((c for c in v.children if c.max_leaf.coord >= x), None)
        if v is None or v.coord != x:
            raise KeyError(x)
        return v

    def _decompose_all(self, a, b):
        """The maximal nodes inside [a, b], which partition its points:
        the deepest node covering [a, b] when that is exactly [a, b]. The
        paper's canonical decomposition, down to the leaves. No query
        calls it; ``_top_groups``, ``decompose`` and the lemma auditor
        do."""
        v = self._cover_node(a, b)
        if a <= v.min_leaf.coord and v.max_leaf.coord <= b:
            return [v]
        out = []
        stack = [v] if v.height else []
        while stack:
            v = stack.pop()
            for c in v.children:
                cmin = c.min_leaf.coord
                cmax = c.max_leaf.coord
                if cmax < a or cmin > b:
                    continue
                if a <= cmin and cmax <= b:
                    out.append(c)
                elif c.height:
                    stack.append(c)
        return out

    def decompose(self, a, b):
        """Canonical set of [a, b], two stored keys; requires a general
        range (one spanning more than a single node)."""
        out = self._decompose_all(a, b)
        if len(out) < 2:
            raise ValueError("range is represented by a single node")
        return out

    def _top_groups(self, a, b):
        """The top ``cfg.top_count`` height groups of the canonical set of
        [a, b], and whether any group was cut below them: the paper's
        choice of nodes to read. No query calls it; criterion 2's lemma
        auditor and navigation's ``findtop`` check against it."""
        groups = group_by_height(self._decompose_all(a, b))
        top = self.cfg.top_count
        return groups[:top], len(groups) > top

    def _accumulate(self, a, b):
        """The maximal listed nodes inside the window of ranks [a, b),
        left to right, and the colour ids of its other points, in order,
        as one array('q').

        One in-order walk from the root that carries each child's offset,
        the rank of its first point, and enters a child only when it is
        listed and straddles an edge. A child left of the window is
        skipped and the first one past it ends the walk; an unlisted one
        (light node or leaf) lengthens the open gap by its overlap, plain
        arithmetic, and a listed one inside the window closes the gap.
        The window's points between two listed nodes are adjacent in F,
        so each maximal gap is one slice of F's column.
        """
        listed = []
        ids = array("q")  # gap slices join by memory copies
        start = w = 0  # the open gap: its first rank and its point count
        stack = []  # frames (children, next index, offset) to resume
        kids, i, o = [self.root], 0, 0  # o is the offset of kids[i]
        while True:
            if i == len(kids):
                if not stack:
                    break
                kids, i, o = stack.pop()
                continue
            c = kids[i]
            e = o + c.weight
            if e <= a:  # left of the window
                i += 1
                o = e
                continue
            if o >= b:  # past the window: so is every later child
                break
            if c.cand is None:
                if not w:
                    start = max(a, o)
                w += min(b, e) - max(a, o)
            elif a <= o and e <= b:
                if w:
                    ids += self.scan_pruned(start, w)
                    w = 0
                listed.append(c)
            else:
                stack.append((kids, i + 1, e))
                kids, i = c.children, 0
                continue
            i += 1
            o = e
        if w:
            ids += self.scan_pruned(start, w)
        return listed, ids

    def scan_pruned(self, r, m) -> array:
        """Colour ids of the m points from the rank r on, in order: a
        slice of F's column."""
        self.stats["pruned_leaf_visits"] += m
        return self.F.values_at(r, m)

    # ---- queries ----

    def query(self, lo, hi) -> set:
        return set(self.query_counts(lo, hi))

    def query_counts(self, lo, hi) -> dict:
        """Labels of the strict alpha-majorities of [lo, hi] with their
        exact in-range counts."""
        out = self._query_ids(lo, hi)
        label = self.registry.label_of
        return {label(cid): n for cid, n in out.items()}

    def _query_ids(self, lo, hi) -> dict:
        lo = self._query_bound(lo, "lo")
        hi = self._query_bound(hi, "hi")
        self.stats["queries"] += 1
        m, listed, ids = self._collect(lo, hi)
        return answer(
            m, listed, ids, self._ap, self._aq, self.registry.capacity,
            self._colour_counts, lo, hi,
        )[0]

    def _colour_counts(self, cids, lo, hi) -> list:
        per = self.per_colour
        return [per[c].count_range(lo, hi) if c in per else 0 for c in cids]

    def _collect(self, lo, hi):
        """(m, listed, ids) for [lo, hi]: the range's point count, its
        listed nodes and the joined colour ids of its other points;
        ``answer`` finishes them. The range is the window of the m ranks
        from r = F.rank_lt(lo) on, which ``_collect_ranks`` splits. The
        planar index merges these across several sub-indexes before it
        finishes them.
        """
        r = self.F.rank_lt(lo)
        return self._collect_ranks(r, self.F.rank_le(hi) - r)

    def _collect_ranks(self, r, m):
        """(m, listed, ids) for the window of the m ranks from r on: empty
        when m <= 0, one slice of ids when m is at most ``prune_cutoff``,
        else split by ``_accumulate``'s walk."""
        if m <= 0:
            return 0, [], array("q")
        if m <= self.prune_cutoff:
            return m, [], self.scan_pruned(r, m)
        listed, ids = self._accumulate(r, r + m)
        return m, listed, ids

    # ---- debug audits ----

    def audit_tree(self, deep=False) -> None:
        """``audit_structure``, plus the checks of an index that holds its
        registry's references: one per point, ids dense in [1, 2n]."""
        self.audit_structure(deep)
        reg = self.registry
        reg.audit()
        assert reg.capacity <= 2 * len(self.F)
        assert {c: reg.refcount(c) for c in reg.live_ids()} == {
            c: len(pc) for c, pc in self.per_colour.items()
        }, "refcounts off the colours' point counts"

    def audit_structure(self, deep=False) -> None:
        """Structural invariants, every colour id live in the registry;
        deep adds exact recounts of fresh lists from F's column."""
        assert list(self.F) == [lf.coord for lf in self.leaves()], (
            "F's keys out of step with the leaves"
        )
        if self.root is None:
            return
        assert self.root.parent is None
        k_store = self.cfg.list_size

        def walk(v):
            if v.height == 0:
                return 1, v, v
            deg = len(v.children)
            assert MIN_DEGREE <= deg <= MAX_DEGREE, f"degree {deg} at height {v.height}"
            w = 0
            prev_max = None
            for c in v.children:
                assert c.parent is v
                assert c.height == v.height - 1
                cw, cmin, cmax = walk(c)
                assert c.weight == cw
                assert c.min_leaf is cmin and c.max_leaf is cmax
                if prev_max is not None:
                    assert prev_max.coord < cmin.coord
                prev_max = cmax
                w += cw
            assert v.weight == w
            assert v.min_leaf is v.children[0].min_leaf
            assert v.max_leaf is v.children[-1].max_leaf
            if v.parent is not None:
                cap = BRANCH**v.height
                assert 2 * w >= cap, f"underweight {w} at height {v.height}"
                assert w <= 2 * cap, f"overweight {w} at height {v.height}"
            if v.cand is not None:
                assert v.weight > self.prune_cutoff
                assert len(v.cand) <= k_store
                assert v.staleness < v.rebuild_at
                assert v.head is None or v.head == candidate_head(v, self._ap, self._aq), (
                    "candidate head out of step with the list"
                )
                for cid, cnt in v.cand.items():
                    self.registry.label_of(cid)
                    assert 1 <= cnt <= v.weight
                if deep:
                    counts = Counter(self.F.values_from(v.min_leaf.coord, w))
                    for cid, cnt in v.cand.items():
                        assert counts[cid] == cnt, "tracked count drifted from truth"
                    bn, bd = self.cfg.beta.numerator, self.cfg.beta.denominator
                    for cid, cnt in counts.items():
                        if cnt * bd > bn * v.weight:
                            assert cid in v.cand, "beta-majority missing from list"
                    if v.staleness == 0:
                        expect = dict(
                            heapq.nsmallest(
                                k_store, counts.items(), key=lambda kv: (-kv[1], kv[0])
                            )
                        )
                        assert list(v.cand.items()) == list(expect.items()), (
                            "fresh list differs from exact recount"
                        )
            else:
                assert v.weight <= self.prune_cutoff
                assert v.head is None, "candidate head without a list"
            return w, v.min_leaf, v.max_leaf

        w, _, _ = walk(self.root)
        assert w == len(self.F)
        by_colour: dict = {}
        for x, cid in self.F.items():
            by_colour.setdefault(cid, []).append(x)
        for cid in by_colour:
            self.registry.label_of(cid)
        assert {c: list(pc) for c, pc in self.per_colour.items()} == by_colour, (
            "per-colour sets out of step with F"
        )
        if deep:
            self.F.audit()
            for pc in self.per_colour.values():
                pc.audit()

    def leaves(self):
        """All leaves left to right (test support)."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v.height:
                stack.extend(reversed(v.children))
            else:
                yield v

    def internal_nodes(self):
        if self.root is None or self.root.height == 0:
            return
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            for c in v.children:
                if c.height:
                    stack.append(c)
