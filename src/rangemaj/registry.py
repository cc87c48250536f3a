"""Colour labels mapped to small dense integer ids, plus the query tally.

External colour labels (any hashable) are interned to ids that stay in
[1, 2n] for n stored points: a global remap reassigns ids densely once
the issued-id high-water mark exceeds twice the point count. The
per-query tally is a ``Counter`` from id to summed count, emptied by a
drain.
"""

from __future__ import annotations

import heapq
from collections import Counter


class ColourRegistry:
    __slots__ = ("_label_index", "_labels", "_refcounts", "_free", "_live")

    def __init__(self):
        self._label_index: dict = {}
        self._labels: list = [None]  # 1-based; None marks a retired slot
        self._refcounts: list[int] = [0]
        self._free: list[int] = []  # retired ids, smallest reused first
        self._live = 0

    @property
    def capacity(self) -> int:
        """High-water mark of issued ids."""
        return len(self._labels) - 1

    @property
    def live_count(self) -> int:
        return self._live

    def intern(self, label, refs: int = 1) -> int:
        """Id for label, allocating if new; counts refs references."""
        cid = self._label_index.get(label)
        if cid is not None:
            self._refcounts[cid] += refs
            return cid
        if self._free:
            cid = heapq.heappop(self._free)
            self._labels[cid] = label
            self._refcounts[cid] = refs
        else:
            cid = len(self._labels)
            self._labels.append(label)
            self._refcounts.append(refs)
        self._label_index[label] = cid
        self._live += 1
        return cid

    def intern_all(self, labels) -> list[int]:
        """Ids of the labels of a sequence, one reference per entry. Each
        distinct label is interned once, in order of first appearance, so
        ids come out as a label-by-label intern would issue them."""
        ids = {lab: self.intern(lab, n) for lab, n in Counter(labels).items()}
        return list(map(ids.__getitem__, labels))

    def hold(self, cids) -> None:
        """One more reference on each id of cids, all of them live."""
        refcounts = self._refcounts
        for cid in cids:
            refcounts[cid] += 1

    def release(self, cid: int) -> bool:
        """Drop one reference; returns True when the id was retired."""
        if not 1 <= cid < len(self._labels) or self._labels[cid] is None:
            raise KeyError(cid)
        self._refcounts[cid] -= 1
        if self._refcounts[cid] > 0:
            return False
        del self._label_index[self._labels[cid]]
        self._labels[cid] = None
        heapq.heappush(self._free, cid)
        self._live -= 1
        return True

    def id_of(self, label) -> int | None:
        return self._label_index.get(label)

    def label_of(self, cid: int):
        if not 1 <= cid < len(self._labels) or self._labels[cid] is None:
            raise KeyError(cid)
        return self._labels[cid]

    def refcount(self, cid: int) -> int:
        if not 1 <= cid < len(self._labels) or self._labels[cid] is None:
            raise KeyError(cid)
        return self._refcounts[cid]

    def live_ids(self) -> list[int]:
        return [i for i, lab in enumerate(self._labels) if i and lab is not None]

    def maybe_remap(self, point_count: int) -> dict[int, int] | None:
        """Densely reassign ids when the high-water mark exceeds 2*points.

        Returns the old->new mapping the owner must apply to its own
        per-id state, or None when no remap was due. New ids preserve
        the relative order of old ones.
        """
        if self.capacity <= 2 * point_count:
            return None
        old_live = self.live_ids()
        mapping = {old: new for new, old in enumerate(old_live, start=1)}
        labels = [None]
        refcounts = [0]
        for old in old_live:
            labels.append(self._labels[old])
            refcounts.append(self._refcounts[old])
        self._labels = labels
        self._refcounts = refcounts
        self._label_index = {lab: i for i, lab in enumerate(labels) if i}
        self._free = []
        return mapping if mapping else None

    def audit(self) -> None:
        assert self._live == len(self._label_index)
        for label, cid in self._label_index.items():
            assert self._labels[cid] == label
            assert self._refcounts[cid] >= 1
        retired = [i for i in range(1, len(self._labels)) if self._labels[i] is None]
        assert sorted(self._free) == retired


class ScratchCounters(Counter):
    """Per-query tally: colour id -> summed count, drain-reset.

    Hot loops add a whole array of colour ids with ``t.update(ids)``, which
    counts in C, or write ``t[c] = t.get(c, 0) + n`` directly; ``bump`` is
    that single step as a method.
    """

    __slots__ = ()

    def bump(self, cid: int, delta: int) -> None:
        self[cid] = self.get(cid, 0) + delta

    def drain(self) -> dict:
        """All (id, total) pairs as a dict; the tally is left empty."""
        out = dict(self)
        self.clear()
        return out

    def audit_zero(self) -> None:
        assert not self, "tally left nonzero"
