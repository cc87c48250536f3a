"""Ordered multiset with rank and range counting.

Keys live in sorted blocks of a few hundred entries; a directory of block
minima plus a Fenwick tree over block sizes turns every rank query into one
directory bisect, one Fenwick prefix, and one in-block bisect. Works for any
totally ordered key type (ints, floats, tuples).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

TARGET_BLOCK = 256
SPLIT_AT = 2 * TARGET_BLOCK
MERGE_BELOW = TARGET_BLOCK // 4


class CountedOrderedSet:
    __slots__ = ("_blocks", "_mins", "_fen", "_size")

    def __init__(self):
        self._blocks: list[list] = []
        self._mins: list = []
        self._fen: list[int] = [0]
        self._size = 0

    # ---- Fenwick over block sizes (1-based) ----

    def _fen_rebuild(self) -> None:
        sizes = [len(b) for b in self._blocks]
        n = len(sizes)
        fen = [0] * (n + 1)
        for i, s in enumerate(sizes, start=1):
            fen[i] += s
            j = i + (i & -i)
            if j <= n:
                fen[j] += fen[i]
        self._fen = fen

    def _fen_add(self, i: int, delta: int) -> None:
        i += 1
        n = len(self._fen) - 1
        while i <= n:
            self._fen[i] += delta
            i += i & -i

    def _fen_prefix(self, k: int) -> int:
        # elements in blocks[0:k]
        total = 0
        while k > 0:
            total += self._fen[k]
            k -= k & -k
        return total

    # ---- updates ----

    def insert(self, key) -> None:
        if not self._blocks:
            self._blocks.append([key])
            self._mins.append(key)
            self._fen = [0, 1]
            self._size = 1
            return
        i = bisect_right(self._mins, key) - 1
        if i < 0:
            i = 0
        block = self._blocks[i]
        insort(block, key)
        if key < self._mins[i]:
            self._mins[i] = key
        self._size += 1
        if len(block) >= SPLIT_AT:
            half = len(block) // 2
            right = block[half:]
            del block[half:]
            self._blocks.insert(i + 1, right)
            self._mins.insert(i + 1, right[0])
            self._fen_rebuild()
        else:
            self._fen_add(i, 1)

    def delete(self, key) -> None:
        i = bisect_right(self._mins, key) - 1 if self._blocks else -1
        if i < 0:
            raise KeyError(key)
        block = self._blocks[i]
        pos = bisect_left(block, key)
        if pos == len(block) or block[pos] != key:
            raise KeyError(key)
        del block[pos]
        self._size -= 1
        if not block:
            del self._blocks[i]
            del self._mins[i]
            self._fen_rebuild()
            return
        if pos == 0:
            self._mins[i] = block[0]
        if len(block) < MERGE_BELOW and len(self._blocks) > 1:
            j = i - 1 if i > 0 else i + 1
            if len(self._blocks[j]) + len(block) < SPLIT_AT:
                lo, hi = (j, i) if j < i else (i, j)
                self._blocks[lo].extend(self._blocks[hi])
                del self._blocks[hi]
                del self._mins[hi]
                self._fen_rebuild()
                return
        self._fen_add(i, -1)

    # ---- queries ----

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key) -> bool:
        if not self._blocks:
            return False
        i = bisect_right(self._mins, key) - 1
        if i < 0:
            return False
        block = self._blocks[i]
        pos = bisect_left(block, key)
        return pos < len(block) and block[pos] == key

    def rank_lt(self, key) -> int:
        """Stored keys strictly below ``key``."""
        i = bisect_left(self._mins, key) - 1
        if i < 0:
            return 0
        return self._fen_prefix(i) + bisect_left(self._blocks[i], key)

    def rank_le(self, key) -> int:
        """Stored keys at or below ``key``."""
        i = bisect_right(self._mins, key) - 1
        if i < 0:
            return 0
        return self._fen_prefix(i) + bisect_right(self._blocks[i], key)

    def count_range(self, lo, hi) -> int:
        """Exact number of stored keys in the closed range [lo, hi]."""
        if not self._blocks or lo > hi:
            return 0
        # walked directly rather than as rank_le(hi) - rank_lt(lo); the
        # test suite cross-checks the two formulations against each other
        i = bisect_left(self._mins, lo) - 1
        below_lo = 0 if i < 0 else self._fen_prefix(i) + bisect_left(self._blocks[i], lo)
        j = bisect_right(self._mins, hi) - 1
        upto_hi = 0 if j < 0 else self._fen_prefix(j) + bisect_right(self._blocks[j], hi)
        return upto_hi - below_lo

    def predecessor(self, key):
        """Largest stored key <= key, or None."""
        i = bisect_right(self._mins, key) - 1
        if i < 0:
            return None
        block = self._blocks[i]
        pos = bisect_right(block, key) - 1
        return block[pos]

    def successor(self, key):
        """Smallest stored key >= key, or None."""
        if not self._blocks:
            return None
        i = bisect_right(self._mins, key) - 1
        if i < 0:
            return self._blocks[0][0]
        block = self._blocks[i]
        pos = bisect_left(block, key)
        if pos < len(block):
            return block[pos]
        if i + 1 < len(self._blocks):
            return self._blocks[i + 1][0]
        return None

    # ---- bulk ----

    def load_sorted(self, keys) -> None:
        """Replace contents with an already-sorted key sequence."""
        keys = list(keys)
        self._blocks = [
            keys[i : i + TARGET_BLOCK] for i in range(0, len(keys), TARGET_BLOCK)
        ]
        self._mins = [b[0] for b in self._blocks]
        self._size = len(keys)
        self._fen_rebuild()

    # ---- debug ----

    def audit(self) -> None:
        assert all(self._blocks), "empty block retained"
        flat = []
        for block in self._blocks:
            flat.extend(block)
        assert flat == sorted(flat), "global order broken"
        assert len(flat) == self._size
        assert self._mins == [b[0] for b in self._blocks]
        for k in range(len(self._blocks) + 1):
            assert self._fen_prefix(k) == sum(len(b) for b in self._blocks[:k])
