"""Colour labels mapped to small dense integer ids.

External colour labels (any hashable) are interned to small ids,
retired ids being reused smallest first. The issued-id high-water mark,
``capacity``, bounds every id, so the counts in ``tree`` size a dense
``np.bincount`` by it without reading the ids' maximum, and pick
``np.unique`` instead when it is far above the ids counted.

``maybe_remap`` reassigns ids densely once ``capacity`` exceeds twice
the point count. The 1-D index calls it after every delete, so its ids
stay in [1, 2n] for n stored points. The planar index never calls it:
its ``capacity`` stays at the most colours it ever held at once, even
after most of them are gone.
"""

from __future__ import annotations

import heapq
from collections import Counter


class ColourRegistry:
    __slots__ = ("_label_index", "_labels", "_refcounts", "_free")

    def __init__(self):
        self._label_index: dict = {}
        self._labels: list = [None]  # 1-based; None marks a retired slot
        self._refcounts: list[int] = [0]
        self._free: list[int] = []  # retired ids, smallest reused first

    @property
    def capacity(self) -> int:
        """High-water mark of issued ids."""
        return len(self._labels) - 1

    @property
    def live_count(self) -> int:
        return len(self._label_index)

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
        return cid

    def intern_all(self, labels) -> list[int]:
        """Ids of the labels of a sequence, one reference per entry. Each
        distinct label is interned once, in order of first appearance, so
        ids come out as a label-by-label intern would issue them."""
        ids = {lab: self.intern(lab, n) for lab, n in Counter(labels).items()}
        return list(map(ids.__getitem__, labels))

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
        """Densely reassign ids when the high-water mark exceeds 2*points
        and some id is retired; with none retired the ids are dense.

        Returns the old->new mapping the owner must apply to its own
        per-id state, or None when no remap was due. New ids preserve
        the relative order of old ones.
        """
        if self.capacity <= 2 * point_count or not self._free:
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
        for label, cid in self._label_index.items():
            assert self._labels[cid] == label
            assert self._refcounts[cid] >= 1
        retired = [i for i in range(1, len(self._labels)) if self._labels[i] is None]
        assert sorted(self._free) == retired


class ScratchCounters(Counter):
    """A colour id -> summed count tally, drain-reset.

    The indexes count with ``tree.count_ids`` and hold none; the class
    stays only because the benchmark's tracer wraps ``bump`` and
    ``drain`` by name.
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
