"""Colour labels mapped to small dense integer ids, plus scratch counters.

External colour labels (any hashable) are interned to ids that stay in
[1, 2n] for n stored points: a global remap reassigns ids densely once
the issued-id high-water mark exceeds twice the point count. The scratch
counter array is the per-query tally indexed by id; it tracks touched
slots so a drain costs output size, not capacity.
"""

from __future__ import annotations

import heapq


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
        """High-water mark of issued ids; scratch arrays size to this."""
        return len(self._labels) - 1

    @property
    def live_count(self) -> int:
        return self._live

    def intern(self, label) -> int:
        """Id for label, allocating if new; counts one reference."""
        cid = self._label_index.get(label)
        if cid is not None:
            self._refcounts[cid] += 1
            return cid
        if self._free:
            cid = heapq.heappop(self._free)
            self._labels[cid] = label
            self._refcounts[cid] = 1
        else:
            cid = len(self._labels)
            self._labels.append(label)
            self._refcounts.append(1)
        self._label_index[label] = cid
        self._live += 1
        return cid

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


class ScratchCounters:
    """Per-query tally array indexed by colour id, drain-reset.

    Slots are allocated on the first ``bump``, not up front, so an owner
    that never tallies (a planar sub-index) holds no per-colour storage.
    """

    __slots__ = ("_reg", "_slots", "_flags", "_touched")

    def __init__(self, registry: ColourRegistry):
        self._reg = registry
        self._slots: list[int] = []
        self._flags = bytearray()
        self._touched: list[int] = []

    def _ensure(self, cid: int) -> None:
        if not 1 <= cid <= self._reg.capacity:
            raise IndexError(f"colour id {cid} out of range")
        need = self._reg.capacity + 1 - len(self._slots)
        if need > 0:
            self._slots.extend([0] * need)
            self._flags.extend(b"\x00" * need)

    def bump(self, cid: int, delta: int) -> None:
        self._ensure(cid)
        self._slots[cid] += delta
        if not self._flags[cid]:
            self._flags[cid] = 1
            self._touched.append(cid)

    def read(self, cid: int) -> int:
        self._ensure(cid)
        return self._slots[cid]

    def drain(self) -> list[tuple[int, int]]:
        """All touched (id, total) pairs; every touched slot reset to 0."""
        out = []
        for cid in self._touched:
            out.append((cid, self._slots[cid]))
            self._slots[cid] = 0
            self._flags[cid] = 0
        self._touched.clear()
        return out

    def resize(self) -> None:
        """Re-fit to the registry after a remap; slots must all be zero."""
        assert not self._touched, "resize during an active tally"
        self._slots = []
        self._flags = bytearray()

    def audit_zero(self) -> None:
        assert not self._touched
        assert all(v == 0 for v in self._slots), "scratch slot left nonzero"
