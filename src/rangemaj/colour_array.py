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
over evenly spread labels.

The array stores nothing beside the index: the labels are the keys of
the index's point set ``F``, position i is the key of rank i - 1
(``F.select``), a window's size is one ``F.count_range``, and a slot's
colour is the colour id in ``F``'s column at rank i - 1 (``F.values_at``),
read back through the registry. Positions are ranks, so a query hands
A[i..j] to the index as the window of j - i + 1 ranks from i - 1 on and
finishes it through ``tree.answer``; it reads the two end labels only
when a survivor needs an exact per-colour count.
"""

from __future__ import annotations

from fractions import Fraction

from .tree import MajorityIndex, answer

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
        self.moves = 0  # keys relabelled by respreads

    @classmethod
    def from_colours(cls, colours, alpha) -> DynamicColourArray:
        """An array holding colours in order, its labels spread evenly
        over the universe as by a top-level respread, built in one bulk
        index build from the labels, which are in order already."""
        self = cls(alpha)
        colours = list(colours)
        engine = self.engine
        labels = _spread(0, UNIVERSE, len(colours))
        engine._load_sorted(labels, engine.registry.intern_all(colours))
        return self

    def __len__(self) -> int:
        return len(self.engine.F)

    @property
    def alpha(self):
        return self.engine.cfg.alpha

    # ---- label management ----

    def _respread(self, lo: int, level: int, k: int, slot: int) -> int:
        """Evenly relabel the k slots of the window [lo, lo + 2^level),
        the new one at index slot among them, renaming the engine's keys
        in place; return the new slot's label, which the engine does not
        hold yet."""
        assert k < 1 << level
        fresh = _spread(lo, 1 << level, k)
        self.engine.relabel(lo, fresh[:slot] + fresh[slot + 1 :])
        self.moves += k - 1  # the new slot's first labeling is not a move
        return fresh[slot]

    def _crowded(self, idx: int, anchor: int) -> int:
        # find the smallest aligned window around the anchor, a neighbour
        # of the new slot idx, that stays under its density threshold
        # once the new slot joins
        F = self.engine.F
        for level in range(_FLOOR_LEVEL, BITS + 1):
            lo = (anchor >> level) << level
            k = F.count_range(lo, lo + (1 << level) - 1) + 1
            if _window_ok(k, level):
                return self._respread(lo, level, k, idx - F.rank_lt(lo))
        raise OverflowError("label universe exhausted")

    # ---- operations ----

    def _check_pos(self, i: int, hi: int) -> None:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= hi:
            raise IndexError(f"position {i!r} out of range [1, {hi}]")

    def _label(self, i: int) -> int:
        """The label at position i, which must be in range."""
        F = self.engine.F
        self._check_pos(i, len(F))
        return F.select(i - 1)

    def insert(self, i: int, colour) -> None:
        """Insert colour between positions i-1 and i (1 <= i <= n+1)."""
        F = self.engine.F
        n = len(F)
        self._check_pos(i, n + 1)
        left = F.select(i - 2) if i > 1 else -1
        right = F.select(i - 1) if i <= n else UNIVERSE
        step = (right - left) // 2
        if 1 < i == n + 1:  # a tail append
            step = min(step, TAIL_STRIDE)
        if step:
            label = left + step
        else:
            label = self._crowded(i - 1, left if i > 1 else right)
        self.engine.insert(label, colour)

    def append(self, colour) -> None:
        self.insert(len(self) + 1, colour)

    def delete(self, i: int) -> None:
        """Remove position i; later positions shift left. No relabels."""
        self.engine.delete(self._label(i))

    def modify(self, i: int, colour) -> None:
        """Replace the colour at position i, keeping its label."""
        label = self._label(i)
        self.engine.delete(label)
        self.engine.insert(label, colour)

    def get(self, i: int):
        F = self.engine.F
        self._check_pos(i, len(F))
        return self.engine.registry.label_of(F.values_at(i - 1, 1)[0])

    def query(self, i: int, j: int) -> set:
        return set(self.query_counts(i, j))

    def query_counts(self, i: int, j: int) -> dict:
        """Strict alpha-majorities of A[i..j] with exact counts; {} when
        i > j."""
        n = len(self)
        self._check_pos(i, n)
        self._check_pos(j, n)
        if i > j:
            return {}
        engine = self.engine
        engine.stats["queries"] += 1
        m, listed, ids = engine._collect_ranks(i - 1, j - i + 1)
        out = answer(
            m, listed, ids, engine._ap, engine._aq, engine.registry.capacity,
            self._exact, i, j,
        )[0]
        label = engine.registry.label_of
        return {label(cid): f for cid, f in out.items()}

    def _exact(self, cids, i, j) -> list:
        """The counts of the colour ids cids in A[i..j]."""
        F = self.engine.F
        return self.engine._colour_counts(cids, F.select(i - 1), F.select(j - 1))

    # ---- audits ----

    def audit(self, deep: bool = False) -> None:
        """The engine's audit, which checks that its keys, the labels,
        ascend strictly, plus the labels' bounds."""
        F = self.engine.F
        if len(F):
            assert 0 <= F.select(0) and F.select(len(F) - 1) < UNIVERSE
        self.engine.audit_tree(deep=deep)
