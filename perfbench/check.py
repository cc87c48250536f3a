"""Reference answers for the benchmark, written without rangemaj.

Each model is brought up from a workload's initial data, then replays
the executed op log in order and recomputes every query answer:

* ``Line``: a 1-D point set as one sorted coordinate list plus one
  sorted list per category, kept with ``bisect``.
* ``Row``: the positional array as a plain Python list.
* ``Plane``: planar points scanned flat (vectorised with numpy) on every
  rectangle.

A colour is an alpha-majority of a range holding m points when its
count c satisfies c > alpha * m, tested exactly as q * c > p * m for
alpha = p / q.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter

import numpy as np

# Windows up to this many points are tallied directly; wider ones test
# only the categories whose total count could pass the threshold.
_SLICE_MAX = 2000


def _majorities(counts, m, p, q) -> dict:
    return {c: n for c, n in counts.items() if q * n > p * m}


class Line:
    """1-D points (coordinate, category) under insert and delete."""

    def __init__(self, points, alpha):
        self.p, self.q = alpha.numerator, alpha.denominator
        self.keys = sorted(x for x, _ in points)
        self.colour = dict(points)
        self.per_cat: dict = {}
        for x in self.keys:
            self.per_cat.setdefault(self.colour[x], []).append(x)

    def insert(self, x, c) -> None:
        insort(self.keys, x)
        self.colour[x] = c
        insort(self.per_cat.setdefault(c, []), x)

    def delete(self, x) -> None:
        c = self.colour.pop(x)
        keys = self.keys
        del keys[bisect_left(keys, x)]
        lst = self.per_cat[c]
        del lst[bisect_left(lst, x)]
        if not lst:
            del self.per_cat[c]

    def query(self, lo, hi) -> dict:
        if lo > hi:
            return {}
        i, j = bisect_left(self.keys, lo), bisect_right(self.keys, hi)
        m = j - i
        if m == 0:
            return {}
        p, q = self.p, self.q
        if m <= _SLICE_MAX:
            colour = self.colour
            return _majorities(Counter(colour[x] for x in self.keys[i:j]), m, p, q)
        out = {}
        for c, lst in self.per_cat.items():
            if q * len(lst) > p * m:
                n = bisect_right(lst, hi) - bisect_left(lst, lo)
                if q * n > p * m:
                    out[c] = n
        return out


class Row:
    """Positional colour array, 1-based, as a plain list."""

    def __init__(self, colours, alpha):
        self.p, self.q = alpha.numerator, alpha.denominator
        self.items = list(colours)

    def insert(self, i, c) -> None:
        self.items.insert(i - 1, c)

    def delete(self, i) -> None:
        del self.items[i - 1]

    def modify(self, i, c) -> None:
        self.items[i - 1] = c

    def query(self, i, j) -> dict:
        m = j - i + 1
        return _majorities(Counter(self.items[i - 1 : j]), m, self.p, self.q)


class Plane:
    """Planar points (x, y, colour) with distinct x, scanned flat.

    Every point gets a new slot, and the slot arrays double when full; a
    delete clears its slot's live flag.
    """

    def __init__(self, points, alpha):
        self.p, self.q = alpha.numerator, alpha.denominator
        self.x = np.zeros(0, dtype=np.int64)
        self.y = np.zeros(0, dtype=np.int64)
        self.cid = np.zeros(0, dtype=np.int64)
        self.live = np.zeros(0, dtype=bool)
        self.names: list = []
        self.name_id: dict = {}
        self.slot: dict = {}
        self.used = 0
        for x, y, c in points:
            self.insert(x, y, c)

    def insert(self, x, y, c) -> None:
        k = self.used
        if k == len(self.x):
            grow = max(1024, k)
            self.x, self.y, self.cid, self.live = (
                np.concatenate([a, np.zeros(grow, dtype=a.dtype)])
                for a in (self.x, self.y, self.cid, self.live))
        self.used += 1
        cid = self.name_id.get(c)
        if cid is None:
            cid = self.name_id[c] = len(self.names)
            self.names.append(c)
        self.x[k], self.y[k], self.cid[k] = x, y, cid
        self.live[k] = True
        self.slot[x] = k

    def delete(self, x) -> None:
        self.live[self.slot.pop(x)] = False

    def query(self, xlo, xhi, ylo, yhi) -> dict:
        n = self.used
        x, y = self.x[:n], self.y[:n]
        inside = self.live[:n] & (x >= xlo) & (x <= xhi) & (y >= ylo) & (y <= yhi)
        hits = self.cid[:n][inside]
        m = len(hits)
        if m == 0:
            return {}
        counts = np.bincount(hits)
        p, q = self.p, self.q
        return {
            self.names[c]: int(counts[c])
            for c in np.flatnonzero(counts * q > p * m)
        }


def replay(model, log, first=0, limit=5):
    """Replay ``log`` of (op, outcome) pairs on ``model``; ``first`` is
    the stream position of its first op, used in the notes.

    ``op`` is (kind, *args) with kind "q" for a query and "i", "d" or
    "m" for an update; ``outcome`` is the query answer, None for an
    update, or the exception the op raised. Returns the number of
    failed ops and up to ``limit`` descriptions of them. An update that
    raised is not applied, so later answers are checked against the
    state the program should have reached.
    """
    failed = 0
    notes: list = []
    apply = {"i": model.insert, "d": model.delete}
    if hasattr(model, "modify"):
        apply["m"] = model.modify
    for n, (op, outcome) in enumerate(log, start=first):
        kind, args = op[0], op[1:]
        if isinstance(outcome, BaseException):
            failed += 1
            if len(notes) < limit:
                notes.append(f"op {n} {op!r} raised {outcome!r}")
            continue
        if kind == "q":
            want = model.query(*args)
            if outcome != want:
                failed += 1
                if len(notes) < limit:
                    notes.append(f"op {n} {op!r} answered {outcome!r}, expected {want!r}")
        else:
            apply[kind](*args)
    return failed, notes
