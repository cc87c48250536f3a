"""Randomized driving of the majority index against a flat mirror.

FuzzDriver interleaves inserts, deletes and queries from a seeded
generator, checks every query answer (labels and exact counts) against
NaiveStore, and optionally re-derives the per-query mass bounds of the
paper's analysis. The auditor works out a query's window of ranks as
the query does, and the paper's top height groups of the window's first
to last key from the index itself, so the query path keeps no record
for it. Used by the test suite, the CLI selftest and the acceptance gate.
"""

from __future__ import annotations

import numpy as np

from .oracle import NaiveStore
from .params import BRANCH, FILTER_MARGIN, LEVEL_MASS_FACTOR
from .tree import MajorityIndex


class LemmaAuditError(AssertionError):
    """A mass bound that the query path relies on failed to hold."""


class LemmaAuditor:
    """Post-query re-derivation of the three mass bounds behind the
    candidate-filtering scheme.

    A query is general when its window holds more than the index's
    ``prune_cutoff`` points. After a general query, with I the canonical
    node set of the window's range of stored keys and m its point count:

    * level masses: grouping the internal nodes of I by height, the
      j-th highest group carries at most m points for j = 1 and
      strictly fewer than min(m, 31 * m / 8**(j-1)) for j >= 2;
    * coverage: the nodes of I outside the top ``cfg.top_count`` height
      groups carry strictly fewer than alpha * m / 2 points;
    * non-candidate mass: for every live colour, the points of that
      colour lying in listed nodes of I whose candidate list omits it
      number strictly fewer than 2.56 * m / (k + 1).

    The last bound is computed exactly: stored candidate counts are
    kept exact while a colour stays listed, so truth minus the counted
    contributions isolates the omitted mass, and a negative remainder
    exposes a stale counter immediately.
    """

    def __init__(self, index):
        self.index = index
        self.checks = 0

    def check(self, lo, hi) -> bool:
        """Audit the query [lo, hi] if it is general; return whether it was."""
        idx = self.index
        # the window of m ranks from r on, as _collect names it
        r = idx.F.rank_lt(idx._query_bound(lo, "lo"))
        m = idx.F.rank_le(idx._query_bound(hi, "hi")) - r
        if m <= idx.prune_cutoff:
            return False
        a, b = idx.F.select(r), idx.F.select(r + m - 1)
        groups, _ = idx._top_groups(a, b)
        p, q = idx._ap, idx._aq

        full = idx._decompose_all(a, b)
        if sum(v.weight for v in full) != m:
            raise LemmaAuditError("canonical set does not partition the range")

        by_h: dict = {}
        for v in full:
            if v.height:
                by_h[v.height] = by_h.get(v.height, 0) + v.weight
        for j, h in enumerate(sorted(by_h, reverse=True), 1):
            mass = by_h[h]
            if j == 1:
                if mass > m:
                    raise LemmaAuditError(f"top level mass {mass} > m={m}")
            elif mass >= m or mass * BRANCH ** (j - 1) >= LEVEL_MASS_FACTOR * m:
                raise LemmaAuditError(
                    f"level {j} (height {h}) mass {mass} out of bound, m={m}"
                )

        top_ids = {id(n) for _, ns in groups for n in ns}
        below = [v for v in full if id(v) not in top_ids]
        below_mass = sum(v.weight for v in below)
        if 2 * q * below_mass >= p * m:
            raise LemmaAuditError(
                f"mass {below_mass} outside top groups >= alpha*m/2 (m={m})"
            )

        # the mass each canonical node contributes to the tally, recounted
        # here for the top groups as well as for the nodes below them
        counted: dict = {}
        for v in [n for _, ns in groups for n in ns] + below:
            if v.cand is not None:
                for cid, cnt in v.cand.items():
                    counted[cid] = counted.get(cid, 0) + cnt
            else:  # a leaf or an unlisted node: its slice of F's column
                for cid in idx.F.values_from(v.min_leaf.coord, v.weight):
                    counted[cid] = counted.get(cid, 0) + 1

        k1 = idx.cfg.candidate_bound + 1
        num, den = FILTER_MARGIN.numerator, FILTER_MARGIN.denominator
        for cid, pc in idx.per_colour.items():
            non = pc.count_range(a, b) - counted.get(cid, 0)
            if non < 0:
                raise LemmaAuditError(f"stored counts for colour {cid} exceed truth")
            if den * k1 * non >= num * m:
                raise LemmaAuditError(
                    f"non-candidate mass {non} for colour {cid} out of bound, m={m}"
                )
        self.checks += 1
        return True


class FuzzDriver:
    """Seeded op-mix driver holding an index and its flat mirror in
    lockstep; every query is verified, mismatches raise at once."""

    def __init__(
        self,
        alpha,
        key_kind="int",
        seed=0,
        coord_lo=0,
        coord_hi=10**6,
        n_colours=64,
        zipf_a=None,
        p_insert=0.4,
        p_delete=0.2,
        lemma_audits=False,
        audit_every=0,
        deep_every=0,
    ):
        self.rng = np.random.default_rng(seed)
        self.index = MajorityIndex(alpha, key_kind)
        self.mirror = NaiveStore()
        self.key_kind = key_kind
        self.coord_lo = coord_lo
        self.coord_hi = coord_hi
        self.n_colours = n_colours
        self.zipf_a = zipf_a
        self.p_insert = p_insert
        self.p_delete = p_delete
        self.audit_every = audit_every
        self.deep_every = deep_every
        self.auditor = None
        if lemma_audits:
            self.auditor = LemmaAuditor(self.index)
        self.ops = 0
        self.inserts = 0
        self.deletes = 0
        self.queries = 0
        self.general_queries = 0
        p, q = self.index._ap, self.index._aq
        self._pq = (p, q)

    # ---- sampling ----

    def _label(self) -> str:
        if self.zipf_a is not None:
            v = int(self.rng.zipf(self.zipf_a))
            return "c%03d" % ((v - 1) % self.n_colours)
        return "c%03d" % int(self.rng.integers(self.n_colours))

    def _fresh_coord(self):
        for _ in range(64):
            c = int(self.rng.integers(self.coord_lo, self.coord_hi + 1))
            if self.key_kind == "float":
                c = float(c) + round(float(self.rng.random()), 6)
            if c not in self.mirror:
                return c
        return None

    def _existing_coord(self):
        if not len(self.mirror):
            return None
        slot = int(self.rng.integers(len(self.mirror)))
        c = self.mirror._coords[slot]
        return float(c) if self.key_kind == "float" else int(c)

    def _bounds(self):
        lo = int(self.rng.integers(self.coord_lo, self.coord_hi + 1))
        hi = int(self.rng.integers(self.coord_lo, self.coord_hi + 1))
        if lo > hi:
            lo, hi = hi, lo
        if self.rng.random() < 0.05:
            # occasionally run past the occupied region on both sides
            lo = self.coord_lo - 3
            hi = self.coord_hi + 3
        if self.key_kind == "float":
            return float(lo) - 0.5, float(hi) + 0.5
        return lo, hi

    # ---- op execution ----

    def do_insert(self) -> bool:
        c = self._fresh_coord()
        if c is None:
            return False
        lab = self._label()
        self.index.insert(c, lab)
        self.mirror.insert(c, lab)
        self.inserts += 1
        return True

    def do_delete(self) -> bool:
        c = self._existing_coord()
        if c is None:
            return False
        self.index.delete(c)
        self.mirror.delete(c)
        self.deletes += 1
        return True

    def do_query(self, lo=None, hi=None) -> dict:
        if lo is None:
            lo, hi = self._bounds()
        got = self.index.query_counts(lo, hi)
        p, q = self._pq
        m, counts = self.mirror.counts(lo, hi)
        want = {lab: f for lab, f in counts.items() if q * f > p * m}
        if got != want:
            raise AssertionError(
                f"query [{lo}, {hi}] returned {got}, expected {want} (m={m})"
            )
        self.queries += 1
        if self.auditor is not None and self.auditor.check(lo, hi):
            self.general_queries += 1
        return got

    def step(self) -> None:
        r = float(self.rng.random())
        if r < self.p_insert:
            self.do_insert() or self.do_delete()
        elif r < self.p_insert + self.p_delete:
            self.do_delete() or self.do_insert()
        else:
            self.do_query()
        self.ops += 1
        if self.audit_every and self.ops % self.audit_every == 0:
            deep = bool(self.deep_every) and self.ops % self.deep_every == 0
            self.index.audit_tree(deep=deep)

    def run(self, n_ops: int) -> None:
        for _ in range(n_ops):
            self.step()

    def seed_points(self, n: int) -> None:
        """Bulk-load n random points through the constructor path; only
        valid before any incremental ops."""
        assert len(self.mirror) == 0
        pts = []
        while len(pts) < n:
            c = self._fresh_coord()
            if c is None:
                continue
            pts.append((c, self._label()))
            self.mirror.insert(c, pts[-1][1])
        self.index = MajorityIndex.build(pts, self.index.cfg.alpha, self.key_kind)
        if self.auditor is not None:
            self.auditor = LemmaAuditor(self.index)
