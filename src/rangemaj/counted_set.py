"""Ordered multiset with rank and range counting, and an optional column.

Keys live in sorted blocks of a few hundred entries; a directory of block
minima plus a Fenwick tree over block sizes turns every rank query into one
directory bisect, one Fenwick prefix, and one in-block bisect, and finding
the block and offset of a given rank into one descent of the Fenwick tree
(``select`` reads the key there). Works for any totally ordered key type
(ints, floats, tuples).

A set may carry a column: one signed 64-bit integer per key, kept in
``array('q')`` value blocks parallel to the key blocks by the same insert,
delete, split, merge and bulk-load code. A set with a column holds each
key once. The index's point set keeps each point's colour id there, so the
colours of any run of keys come out as one ``array('q')``, joined from
block slices by memory copies, which ``numpy.frombuffer`` reads without a
copy: ``values_at`` takes the run's first rank and costs one descent,
``values_from`` takes a key and costs bisects. A set gets its column from ``load_sorted(keys,
values)``; ``load_sorted((), ())`` starts an empty one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain

TARGET_BLOCK = 256
SPLIT_AT = 2 * TARGET_BLOCK
MERGE_BELOW = TARGET_BLOCK // 4


class CountedOrderedSet:
    __slots__ = ("_blocks", "_vals", "_mins", "_fen", "_size")

    def __init__(self):
        self._blocks: list[list] = []
        self._vals: list[array] | None = None  # value blocks, with a column
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

    def insert(self, key, make_value=None):
        """Add key.

        With a column, make_value() gives the int stored beside a new
        key and is returned; it is called only once key is known to be
        absent, and a key already stored returns None and changes
        nothing. Without a column the set is a multiset and returns None.
        """
        vals = self._vals
        if (vals is None) != (make_value is None):
            raise ValueError("a value is given exactly when the set has a column")
        value = None
        blocks = self._blocks
        if not blocks:
            if vals is not None:
                value = make_value()
                vals.append(array("q", (value,)))
            blocks.append([key])
            self._mins.append(key)
            self._fen = [0, 1]
            self._size = 1
            return value
        i = bisect_right(self._mins, key) - 1
        if i < 0:
            i = 0
        block = blocks[i]
        if vals is None:
            pos = bisect_right(block, key)
        else:
            pos = bisect_left(block, key)
            if pos < len(block) and block[pos] == key:
                return None
            value = make_value()
            vals[i].insert(pos, value)
        block.insert(pos, key)
        if key < self._mins[i]:
            self._mins[i] = key
        self._size += 1
        if len(block) >= SPLIT_AT:
            half = len(block) // 2
            blocks.insert(i + 1, block[half:])
            del block[half:]
            if vals is not None:
                vblock = vals[i]
                vals.insert(i + 1, vblock[half:])
                del vblock[half:]
            self._mins.insert(i + 1, blocks[i + 1][0])
            self._fen_rebuild()
        else:
            self._fen_add(i, 1)
        return value

    def delete(self, key):
        """Remove one copy of key and return its value (None without a
        column); KeyError when key is not stored."""
        i = bisect_right(self._mins, key) - 1 if self._blocks else -1
        if i < 0:
            raise KeyError(key)
        blocks, vals = self._blocks, self._vals
        block = blocks[i]
        pos = bisect_left(block, key)
        if pos == len(block) or block[pos] != key:
            raise KeyError(key)
        del block[pos]
        value = None if vals is None else vals[i].pop(pos)
        self._size -= 1
        if not block:
            del blocks[i]
            del self._mins[i]
            if vals is not None:
                del vals[i]
            self._fen_rebuild()
            return value
        if pos == 0:
            self._mins[i] = block[0]
        if len(block) < MERGE_BELOW and len(blocks) > 1:
            j = i - 1 if i > 0 else i + 1
            if len(blocks[j]) + len(block) < SPLIT_AT:
                lo, hi = (j, i) if j < i else (i, j)
                blocks[lo].extend(blocks[hi])
                del blocks[hi]
                del self._mins[hi]
                if vals is not None:
                    vals[lo].extend(vals[hi])
                    del vals[hi]
                self._fen_rebuild()
                return value
        self._fen_add(i, -1)
        return value

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

    def _locate(self, k):
        """(block index, offset in it) of the rank k, 0 <= k < len(self):
        one descent of the Fenwick tree to the last block start at or
        below k."""
        fen = self._fen
        n = len(fen)
        i, step = 0, 1 << ((n - 1).bit_length() - 1)
        while step:
            j = i + step
            if j < n and fen[j] <= k:
                i = j
                k -= fen[j]
            step >>= 1
        return i, k

    def select(self, k):
        """The stored key of rank k, counting from 0; IndexError unless
        0 <= k < len(self)."""
        if not 0 <= k < self._size:
            raise IndexError(f"rank {k} out of range [0, {self._size})")
        i, k = self._locate(k)
        return self._blocks[i][k]

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

    # ---- the column ----

    def values_from(self, key, count) -> array:
        """Values of the count stored keys from the first one at or above
        key, in key order, as one ``array('q')``."""
        i = bisect_left(self._mins, key) - 1
        if i < 0:
            i, start = 0, 0
        else:
            start = bisect_left(self._blocks[i], key)
        return self._run(i, start, count)

    def values_at(self, k, count) -> array:
        """Values of the count stored keys from the rank k on, in key
        order, as one ``array('q')``; k + count is at most len(self)."""
        if not count:
            return array("q")
        return self._run(*self._locate(k), count)

    def _run(self, i, start, count) -> array:
        # count values from block i's offset start on, joined by copies
        vals = self._vals
        out = vals[i][start : start + count]
        while len(out) < count:
            i += 1
            out += vals[i][: count - len(out)]
        return out

    def replace_run(self, key, keys) -> list:
        """Overwrite the len(keys) stored keys from the first one at or
        above key with keys, in place, and return the keys overwritten;
        block sizes, the Fenwick tree and the column stay as they are.

        The caller keeps the order: keys is sorted, and no stored key
        outside the run falls between its old and its new keys.
        """
        blocks, mins = self._blocks, self._mins
        i = bisect_left(mins, key) - 1
        if i < 0:
            i, pos = 0, 0
        else:
            pos = bisect_left(blocks[i], key)
        done, count = 0, len(keys)
        old = []
        while done < count:
            block = blocks[i]
            take = min(len(block) - pos, count - done)
            old += block[pos : pos + take]
            block[pos : pos + take] = keys[done : done + take]
            if pos == 0:
                mins[i] = block[0]
            done += take
            i += 1
            pos = 0
        return old

    def __iter__(self):
        """Stored keys in order."""
        return chain.from_iterable(self._blocks)

    def items(self):
        """Iterator over the (key, value) pairs of a set with a column,
        in key order."""
        return zip(chain.from_iterable(self._blocks), chain.from_iterable(self._vals))

    def map_values(self, fn) -> None:
        """Replace every value v of the column with fn(v)."""
        self._vals = [array("q", map(fn, block)) for block in self._vals]

    # ---- bulk ----

    def load_sorted(self, keys, values=None) -> None:
        """Replace contents with an already-sorted key sequence; with
        values (one int per key, keys distinct), the set carries a
        column."""
        keys = list(keys)
        spans = range(0, len(keys), TARGET_BLOCK)
        self._blocks = [keys[i : i + TARGET_BLOCK] for i in spans]
        if values is None:
            self._vals = None
        else:
            values = array("q", values)
            if len(values) != len(keys):
                raise ValueError("one value per key required")
            self._vals = [values[i : i + TARGET_BLOCK] for i in spans]
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
        if self._vals is not None:
            assert all(type(b) is array and b.typecode == "q" for b in self._vals), (
                "value block is not an array('q')"
            )
            assert [len(b) for b in self._vals] == [len(b) for b in self._blocks]
            assert all(a < b for a, b in zip(flat, flat[1:])), "column keys repeat"
