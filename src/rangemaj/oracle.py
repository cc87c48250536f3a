"""Brute-force references the test suite trusts.

Everything here recomputes answers from flat data with no help from the
production modules: no shared traversal helpers, no shared counting, so a
bug cannot cancel itself out across both sides of an equivalence check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .params import as_fraction


def naive_majority(records, lo, hi, alpha) -> set:
    """Linear-scan majorities of the closed range; strict threshold."""
    a = as_fraction(alpha)
    counts: dict = {}
    m = 0
    for coord, colour in records:
        if lo <= coord <= hi:
            m += 1
            counts[colour] = counts.get(colour, 0) + 1
    p, q = a.numerator, a.denominator
    return {c for c, f in counts.items() if f * q > p * m}


def naive_majority_2d(records, xlo, xhi, ylo, yhi, alpha) -> set:
    a = as_fraction(alpha)
    counts: dict = {}
    m = 0
    for x, y, colour in records:
        if xlo <= x <= xhi and ylo <= y <= yhi:
            m += 1
            counts[colour] = counts.get(colour, 0) + 1
    p, q = a.numerator, a.denominator
    return {c for c, f in counts.items() if f * q > p * m}


def naive_gamma(ell: int, m: int, beta, search_cap: Optional[int] = None):
    """Exhaustive minimum of inserts+deletes promoting a colour.

    Searches all pairs (n_i, n_d) in [0, cap]^2 for the cheapest way to
    push a colour with m occurrences among ell points strictly over a beta
    fraction, keeping at least one point present. Returns math.inf when no
    pair within the cap works.
    """
    if ell < 1 or not 0 <= m < ell:
        raise ValueError(f"need ell >= 1 and 0 <= m < ell, got {ell!r}, {m!r}")
    b = as_fraction(beta)
    p, q = b.numerator, b.denominator
    cap = 3 * ell if search_cap is None else search_cap
    ni, nd = np.meshgrid(
        np.arange(cap + 1, dtype=np.int64),
        np.arange(cap + 1, dtype=np.int64),
        indexing="ij",
    )
    remaining = ell + ni - nd
    ok = (remaining >= 1) & ((m + ni) * q > p * remaining)
    if not ok.any():
        return math.inf
    return int((ni + nd)[ok].min())


class NaiveStore:
    """Flat mirror of a one-dimensional index, tuned just enough to keep
    large equivalence runs affordable (vectorised counting, swap deletes)."""

    def __init__(self):
        self._coords = np.empty(16, dtype=np.float64)
        self._cids = np.empty(16, dtype=np.int32)
        self._size = 0
        self._pos: dict = {}  # coord -> slot
        self._label_ids: dict = {}
        self._labels: list = []

    def __len__(self) -> int:
        return self._size

    def _label_id(self, label) -> int:
        i = self._label_ids.get(label)
        if i is None:
            i = len(self._labels)
            self._label_ids[label] = i
            self._labels.append(label)
        return i

    def insert(self, coord, label) -> None:
        if coord in self._pos:
            raise ValueError(f"duplicate coordinate {coord!r}")
        if self._size == len(self._coords):
            self._coords = np.concatenate([self._coords, np.empty_like(self._coords)])
            self._cids = np.concatenate([self._cids, np.empty_like(self._cids)])
        self._coords[self._size] = coord
        self._cids[self._size] = self._label_id(label)
        self._pos[coord] = self._size
        self._size += 1

    def delete(self, coord) -> None:
        slot = self._pos.pop(coord)
        last = self._size - 1
        if slot != last:
            self._coords[slot] = self._coords[last]
            self._cids[slot] = self._cids[last]
            self._pos[self._coords[slot].item()] = slot
        self._size -= 1

    def __contains__(self, coord) -> bool:
        return coord in self._pos

    def counts(self, lo, hi):
        """(m, per-label counts dict) for the closed range."""
        c = self._coords[: self._size]
        mask = (c >= lo) & (c <= hi)
        ids = self._cids[: self._size][mask]
        if ids.size == 0:
            return 0, {}
        bc = np.bincount(ids, minlength=len(self._labels))
        hit = np.flatnonzero(bc)
        return int(ids.size), {self._labels[i]: int(bc[i]) for i in hit}

    def query(self, lo, hi, alpha) -> set:
        a = as_fraction(alpha)
        p, q = a.numerator, a.denominator
        m, counts = self.counts(lo, hi)
        return {label for label, f in counts.items() if f * q > p * m}


class NaiveStore2D:
    """Planar variant of NaiveStore keyed by x (x-coordinates distinct)."""

    def __init__(self):
        self._xs = np.empty(16, dtype=np.float64)
        self._ys = np.empty(16, dtype=np.float64)
        self._cids = np.empty(16, dtype=np.int32)
        self._size = 0
        self._pos: dict = {}  # x -> slot
        self._label_ids: dict = {}
        self._labels: list = []

    def __len__(self) -> int:
        return self._size

    def _label_id(self, label) -> int:
        i = self._label_ids.get(label)
        if i is None:
            i = len(self._labels)
            self._label_ids[label] = i
            self._labels.append(label)
        return i

    def insert(self, x, y, label) -> None:
        if x in self._pos:
            raise ValueError(f"duplicate x-coordinate {x!r}")
        if self._size == len(self._xs):
            self._xs = np.concatenate([self._xs, np.empty_like(self._xs)])
            self._ys = np.concatenate([self._ys, np.empty_like(self._ys)])
            self._cids = np.concatenate([self._cids, np.empty_like(self._cids)])
        self._xs[self._size] = x
        self._ys[self._size] = y
        self._cids[self._size] = self._label_id(label)
        self._pos[x] = self._size
        self._size += 1

    def delete(self, x) -> None:
        slot = self._pos.pop(x)
        last = self._size - 1
        if slot != last:
            self._xs[slot] = self._xs[last]
            self._ys[slot] = self._ys[last]
            self._cids[slot] = self._cids[last]
            self._pos[self._xs[slot].item()] = slot
        self._size -= 1

    def __contains__(self, x) -> bool:
        return x in self._pos

    def counts(self, xlo, xhi, ylo, yhi):
        xs = self._xs[: self._size]
        ys = self._ys[: self._size]
        mask = (xs >= xlo) & (xs <= xhi) & (ys >= ylo) & (ys <= yhi)
        ids = self._cids[: self._size][mask]
        if ids.size == 0:
            return 0, {}
        bc = np.bincount(ids, minlength=len(self._labels))
        hit = np.flatnonzero(bc)
        return int(ids.size), {self._labels[i]: int(bc[i]) for i in hit}

    def query(self, xlo, xhi, ylo, yhi, alpha) -> set:
        a = as_fraction(alpha)
        p, q = a.numerator, a.denominator
        m, counts = self.counts(xlo, xhi, ylo, yhi)
        return {label for label, f in counts.items() if f * q > p * m}


def naive_lca(a, b):
    """Lowest common ancestor by plain parent walks."""
    seen = set()
    node = a
    while node is not None:
        seen.add(id(node))
        node = node.parent
    node = b
    while node is not None:
        if id(node) in seen:
            return node
        node = node.parent
    raise ValueError("nodes share no ancestor")
