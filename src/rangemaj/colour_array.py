"""Dynamic array of colours with positional updates and range
alpha-majority queries.

Positions map to strictly increasing integer labels drawn from a 2^62
universe via density-threshold list labeling: an insert takes the
midpoint of its neighbour gap (a tail append steps at most
``TAIL_STRIDE`` past the last label), and when the gap is full the
smallest enclosing aligned window still under its density threshold is
re-spread evenly. Thresholds fall geometrically with window level and
bottom out at one half, so the top-level re-spread doubles as the global
relabel. A re-spread keeps the order of the keys, so the integer
majority index renames the window's keys in place (``relabel``) and
sees one insert, for the new slot; the moved-key count is the exported
cost measure. ``from_colours`` builds an array in one bulk index build
over evenly spread labels. The array keeps only the labels: a slot's
colour is the index's colour id at its label, read back through the
registry.
"""

from __future__ import annotations

from fractions import Fraction

from .tree import MajorityIndex

BITS = 62
UNIVERSE = 1 << BITS
# The furthest a tail append steps past the last label. Halving the gap
# up to UNIVERSE instead would spend a bit of the universe per append,
# and a long run of appends would respread over and over.
TAIL_STRIDE = UNIVERSE >> 20

# Per-level density ceilings. The ratio per level must leave each window
# real absorption headroom over its children, else hot spots respread on
# every insert; 93/100 per level, floored at 1/2, measured best against
# a repeated-midpoint workload.
_TAU = [max(Fraction(1, 2), Fraction(93, 100) ** j) for j in range(BITS + 1)]
_FLOOR_LEVEL = 4


def _window_ok(count: int, level: int) -> bool:
    tau = _TAU[level]
    return count * tau.denominator < tau.numerator * (1 << level)


def _spread(lo: int, span: int, k: int) -> list[int]:
    """k labels spread evenly across [lo, lo + span)."""
    return [lo + (t * span) // (k + 1) for t in range(1, k + 1)]


class DynamicColourArray:
    """Array of colours indexed from 1, backed by an integer majority
    index keyed by order-maintenance labels."""

    def __init__(self, alpha):
        self.engine = MajorityIndex(alpha, "int")
        self._labels: list[int] = []
        self.moves = 0  # keys relabelled by respreads
        self.ops = 0

    @classmethod
    def from_colours(cls, colours, alpha) -> DynamicColourArray:
        """An array holding colours in order, its labels spread evenly
        over the universe as by a top-level respread, built in one bulk
        index build from the labels, which are in order already."""
        self = cls(alpha)
        colours = list(colours)
        self._labels = _spread(0, UNIVERSE, len(colours))
        engine = self.engine
        engine._load_sorted(self._labels, engine.registry.intern_all(colours))
        return self

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def alpha(self):
        return self.engine.cfg.alpha

    # ---- label management ----

    def _respread(self, lo: int, level: int, s: int, e: int, idx: int) -> int:
        """Evenly relabel positions s..e-1 across [lo, lo + 2^level),
        renaming the engine's keys in place; return the label of the new
        slot idx among them, which the engine does not hold yet."""
        k = e - s
        assert k < 1 << level
        labels = self._labels
        fresh = _spread(lo, 1 << level, k)
        slot = idx - s
        old = labels[s:idx] + labels[idx + 1 : e]
        labels[s:e] = fresh
        self.engine.relabel(old, fresh[:slot] + fresh[slot + 1 :])
        self.moves += k - 1  # the new slot's first labeling is not a move
        return fresh[slot]

    def _assign(self, idx: int, colour) -> None:
        """Label the already-spliced slot at list index idx and insert it
        into the engine."""
        labels = self._labels
        n = len(labels)
        left = labels[idx - 1] if idx > 0 else -1
        right = labels[idx + 1] if idx + 1 < n else UNIVERSE
        step = (right - left) // 2
        if 0 < idx == n - 1:  # a tail append
            step = min(step, TAIL_STRIDE)
        if step:
            label = left + step
        else:
            label = self._crowded(idx)
        labels[idx] = label
        self.engine.insert(label, colour)

    def _crowded(self, idx: int) -> int:
        # find the smallest aligned window around the anchor that stays
        # under its density threshold once the new slot joins
        labels = self._labels
        n = len(labels)
        anchor = labels[idx - 1] if idx > 0 else labels[idx + 1]
        for level in range(_FLOOR_LEVEL, BITS + 1):
            lo = (anchor >> level) << level
            hi = lo + (1 << level)
            s = idx
            while s > 0 and labels[s - 1] >= lo:
                s -= 1
            e = idx + 1
            while e < n and labels[e] < hi:
                e += 1
            if _window_ok(e - s, level):
                return self._respread(lo, level, s, e, idx)
        raise OverflowError("label universe exhausted")

    # ---- operations ----

    def _check_pos(self, i: int, hi: int) -> None:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= hi:
            raise IndexError(f"position {i!r} out of range [1, {hi}]")

    def insert(self, i: int, colour) -> None:
        """Insert colour between positions i-1 and i (1 <= i <= n+1)."""
        self._check_pos(i, len(self._labels) + 1)
        self._labels.insert(i - 1, None)
        self._assign(i - 1, colour)
        self.ops += 1

    def append(self, colour) -> None:
        self.insert(len(self._labels) + 1, colour)

    def delete(self, i: int) -> None:
        """Remove position i; later positions shift left. No relabels."""
        self._check_pos(i, len(self._labels))
        label = self._labels.pop(i - 1)
        self.engine.delete(label)
        self.ops += 1

    def modify(self, i: int, colour) -> None:
        """Replace the colour at position i, keeping its label."""
        self._check_pos(i, len(self._labels))
        label = self._labels[i - 1]
        self.engine.delete(label)
        self.engine.insert(label, colour)
        self.ops += 1

    def get(self, i: int):
        self._check_pos(i, len(self._labels))
        engine = self.engine
        return engine.registry.label_of(engine.F.values_from(self._labels[i - 1], 1)[0])

    def query(self, i: int, j: int) -> set:
        return set(self.query_counts(i, j))

    def query_counts(self, i: int, j: int) -> dict:
        """Strict alpha-majorities of A[i..j] with exact counts; {} when
        i > j."""
        self._check_pos(i, len(self._labels))
        self._check_pos(j, len(self._labels))
        if i > j:
            return {}
        return self.engine.query_counts(self._labels[i - 1], self._labels[j - 1])

    # ---- audits ----

    def audit(self, deep: bool = False) -> None:
        labels = self._labels
        assert len(labels) == len(self.engine)
        for t in range(1, len(labels)):
            assert labels[t - 1] < labels[t], f"label order broken at {t}"
        if labels:
            assert 0 <= labels[0] and labels[-1] < UNIVERSE
            got = sorted(lf.coord for lf in self.engine.leaves())
            assert got == labels, "engine keys drifted from labels"
        self.engine.audit_tree(deep=deep)
