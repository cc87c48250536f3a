"""Acceptance gate: ten pinned criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines
as they happen; under plain pytest they appear in the captured output
of failing tests only.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from rangemaj.colour_array import DynamicColourArray
from rangemaj.fuzz import FuzzDriver
from rangemaj.navigation import findtop
from rangemaj.oracle import NaiveStore2D, naive_gamma
from rangemaj.params import gamma_lower_bound, rebuild_threshold
from rangemaj.planar import MajorityIndex2D
from rangemaj.tree import MajorityIndex, group_by_height

ALPHAS_1D = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 100))
COLOURS = ["c%02d" % i for i in range(64)]


def verdict(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {num:2d}: {word} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def randomized_runs():
    """Criterion 1 workload, shared with criteria 2 and 5: 10^5 ops as
    four 25k runs, one per alpha, lemma audits live on every general
    query."""
    drivers = {}
    t0 = time.perf_counter()
    for i, alpha in enumerate(ALPHAS_1D):
        d = FuzzDriver(
            alpha,
            key_kind="int",
            seed=1000 + i,
            coord_lo=0,
            coord_hi=10**6,
            n_colours=64,
            zipf_a=1.2,
            p_insert=0.4,
            p_delete=0.2,
            lemma_audits=True,
        )
        d.run(25_000)
        drivers[alpha] = d
    return drivers, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(randomized_runs):
    drivers, elapsed = randomized_runs
    total_ops = sum(d.ops for d in drivers.values())
    total_q = sum(d.queries for d in drivers.values())
    ok = total_ops == 100_000 and elapsed < 60.0 and total_q > 0
    verdict(1, ok,
            f"{total_ops} ops over {len(drivers)} alphas, {total_q} queries "
            f"all matching the naive oracle, {elapsed:.1f}s (< 60s)")


def test_criterion_2_lemma_bounds_live(randomized_runs):
    drivers, _ = randomized_runs
    parts = []
    ok = True
    for alpha, d in drivers.items():
        checks = d.auditor.checks
        general = d.general_queries
        ok = ok and checks == general and general > 0
        parts.append(f"{alpha}: {checks}")
    verdict(2, ok, "mass-bound audits on every general query ("
            + ", ".join(parts) + "), zero violations")


def test_criterion_3_gamma_lower_bound():
    t0 = time.perf_counter()
    cells = 0
    worst = None
    for beta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 10)):
        for ell in range(1, 61):
            for m in range(0, (ell - 1) // 2 + 1):
                g = naive_gamma(ell, m, beta)
                lb = gamma_lower_bound(ell, m, beta)
                if g < lb:
                    worst = (ell, m, beta, g, lb)
                cells += 1
    elapsed = time.perf_counter() - t0
    ok = worst is None and elapsed < 10.0
    verdict(3, ok,
            f"naive_gamma >= analytic bound on all {cells} cells, "
            f"{elapsed:.2f}s (< 10s)" + ("" if worst is None else f"; worst {worst}"))


def test_criterion_4_rebuild_laziness():
    beta = Fraction(1, 21)
    rng = random.Random(4)
    coords = rng.sample(range(10**6), 420)
    pts = [(x, COLOURS[rng.getrandbits(6) % 64]) for x in coords]
    idx = MajorityIndex.build(pts, Fraction(1, 2), key_kind="int")
    root = idx.root
    assert idx.cfg.beta == beta and root.weight == 420
    idx.rebuild_list(root)
    threshold = rebuild_threshold(420, beta)
    assert root.rebuild_at == threshold == 10

    serial0 = root.rebuild_serial
    updates_until_rebuild = 0
    for k in range(1, 2 * threshold):
        while True:
            x = rng.randrange(10**6)
            if not idx.F.count_range(x, x):
                break
        idx.insert(x, COLOURS[k % 64])
        if root.rebuild_serial != serial0:
            updates_until_rebuild = k
            break
    ok = updates_until_rebuild == threshold
    verdict(4, ok,
            f"beta=1/21, weight-420 node: list rebuilt after exactly "
            f"{updates_until_rebuild} updates (threshold {threshold})")


def test_criterion_5_weight_balance_audit(randomized_runs):
    drivers, _ = randomized_runs
    nodes = 0
    bad = []
    for alpha, d in drivers.items():
        d.index.audit_tree(deep=True)
        for v in d.index.internal_nodes():
            nodes += 1
            deg = len(v.children)
            if not 2 <= deg <= 32:
                bad.append((alpha, "degree", deg))
            if v.parent is not None:
                lo_ok = 2 * v.weight >= 8 ** v.height
                hi_ok = v.weight <= 2 * 8 ** v.height
                if not (lo_ok and hi_ok):
                    bad.append((alpha, "weight", v.height, v.weight))
    ok = not bad and nodes > 0
    verdict(5, ok, f"{nodes} internal nodes across 4 trees: degree in [2,32], "
            f"non-root weight in [8^h/2, 2*8^h]"
            + ("" if ok else f"; violations {bad[:3]}"))


def test_criterion_6_findtop_matches_decompose():
    rng = random.Random(66)
    coords = rng.sample(range(10**6), 30_000)
    pts = [(x, COLOURS[min(rng.getrandbits(6), rng.getrandbits(6))]) for x in coords]
    idx = MajorityIndex.build(pts, Fraction(1, 10), key_kind="int")
    for t in range(4000):  # churn so ancestor caches go stale
        x = rng.randrange(10**6)
        if idx.F.count_range(x, x):
            idx.delete(x)
        else:
            idx.insert(x, COLOURS[t % 64])
    t_count = idx.cfg.top_count
    ordered = sorted(lf.coord for lf in idx.leaves())
    checked = 0
    mismatches = 0
    max_lca = 0
    while checked < 1000:
        i = rng.randrange(0, len(ordered) - 1)
        j = rng.randrange(i + 1, len(ordered))
        a, b = ordered[i], ordered[j]
        try:
            nodes = idx.decompose(a, b)
        except ValueError:
            continue
        wa, wb = idx._find_leaf(a), idx._find_leaf(b)
        got = findtop(idx, wa, wb, t_count)
        calls = idx.stats["last_findtop_lca_calls"]
        max_lca = max(max_lca, calls)
        want = group_by_height(nodes)[:t_count]
        same = [(h, set(map(id, ns))) for h, ns in got] == [
            (h, set(map(id, ns))) for h, ns in want
        ]
        if not same or calls > 4 * t_count:
            mismatches += 1
        checked += 1
    ok = mismatches == 0
    verdict(6, ok,
            f"1000 general queries: findtop == top-{t_count} height groups "
            f"of decompose, max LCA calls {max_lca} <= {4 * t_count}")


def test_criterion_7_amortized_rebuild_work():
    alpha = Fraction(1, 10)
    rng = random.Random(77)
    coords = rng.sample(range(10**6), 10**4)
    pts = [(x, COLOURS[rng.getrandbits(6) % 64]) for x in coords]
    idx = MajorityIndex.build(pts, alpha, key_kind="int")
    live = set(coords)
    work0 = idx.stats["rebuild_leaf_work"]
    updates = 100_000
    for t in range(updates):
        if (t % 2 == 0 and len(live) < 12_000) or len(live) < 8_000:
            while True:
                x = rng.randrange(10**6)
                if x not in live:
                    break
            idx.insert(x, COLOURS[rng.getrandbits(6) % 64])
            live.add(x)
        else:
            x = live.pop()
            idx.delete(x)
    per_op = (idx.stats["rebuild_leaf_work"] - work0) / updates
    bound = 50 * math.log2(len(live)) / alpha
    ok = per_op <= bound
    verdict(7, ok,
            f"{updates} updates at n~10^4: rebuild leaf-work/update "
            f"{per_op:.1f} <= {bound:.1f}")


def test_criterion_8_planar_oracle_equivalence():
    t0 = time.perf_counter()
    total_ops = 0
    total_rects = 0
    for alpha in (Fraction(1, 2), Fraction(1, 10)):
        rng = random.Random(800 + alpha.denominator)
        idx = MajorityIndex2D(alpha)
        mirror = NaiveStore2D()
        xs = []
        used = set()
        span = 10**6
        p, q = alpha.numerator, alpha.denominator
        for _ in range(5000):
            r = rng.random()
            n = len(xs)
            if ((r < 0.60 and n < 2000) or n == 0) and r >= 0.10:
                while True:
                    x = rng.randrange(span)
                    if x not in used:
                        break
                y = round(rng.random() * 1000, 4)
                c = COLOURS[min(rng.getrandbits(6), rng.getrandbits(6))]
                idx.insert(x, y, c)
                mirror.insert(x, y, c)
                used.add(x)
                xs.append(x)
            elif r >= 0.10 and n:
                i = rng.randrange(n)
                x = xs.pop(i)
                used.discard(x)
                idx.delete(x)
                mirror.delete(x)
            elif n:
                a, b = sorted((rng.randrange(span), rng.randrange(span)))
                ylo, yhi = sorted((rng.random() * 1000, rng.random() * 1000))
                m, cnt = mirror.counts(a, b, ylo, yhi)
                want = {c: k for c, k in cnt.items() if k * q > p * m}
                got = idx.query_counts(a, b, ylo, yhi)
                assert got == want, (alpha, a, b, ylo, yhi)
                total_rects += 1
            total_ops += 1
        idx.audit2d()
    elapsed = time.perf_counter() - t0
    ok = total_ops == 10_000 and total_rects >= 900 and elapsed < 120.0
    verdict(8, ok,
            f"{total_ops} 2-D ops, {total_rects} rectangles exact vs brute "
            f"force, {elapsed:.1f}s (< 120s)")


def test_criterion_9_dynamic_array():
    alpha = Fraction(1, 2)
    arr = DynamicColourArray(alpha)
    mirror = []
    rng = random.Random(900)
    queries = 0
    audits = 0

    def check_query(full: bool) -> None:
        nonlocal queries
        n = len(mirror)
        if full:
            i, j = 1, n
        else:
            i = rng.randrange(1, n + 1)
            j = min(n, i + rng.randrange(1500))
        got = arr.query_counts(i, j)
        window = mirror[i - 1:j]
        m = len(window)
        want = {c: k for c, k in Counter(window).items() if 2 * k > m}
        assert got == want, (i, j)
        queries += 1

    total = 50_000
    for t in range(total):
        phase = t % 20
        n = len(mirror)
        if t < 5_000:
            i = n // 2 + 1
            c = "m%d" % rng.randrange(8)
            arr.insert(i, c)
            mirror.insert(i - 1, c)
        elif phase < 9:
            i = rng.randrange(1, n + 2)
            c = COLOURS[min(rng.getrandbits(4), rng.getrandbits(4))]
            arr.insert(i, c)
            mirror.insert(i - 1, c)
        elif phase < 13 and n:
            i = rng.randrange(1, n + 1)
            arr.delete(i)
            mirror.pop(i - 1)
        elif phase < 15 and n:
            i = rng.randrange(1, n + 1)
            c = COLOURS[rng.getrandbits(4)]
            arr.modify(i, c)
            mirror[i - 1] = c
        elif n:
            check_query(queries % 40 == 39)
        if t % 250 == 249:
            arr.audit()  # includes the full label monotonicity scan
            audits += 1
    arr.audit(deep=True)
    lg = math.log2(total)
    moves_ok = arr.moves <= 8 * total * lg * lg
    ok = queries > 5000 and moves_ok
    verdict(9, ok,
            f"{total} positional ops (5000 adversarial midpoints), "
            f"{queries} queries exact vs naive array, {audits + 1} label "
            f"monotonicity audits, {arr.moves} relabelled moves within bound")


def test_criterion_10_scaling_smoke():
    alpha = Fraction(1, 10)
    span = 1 << 40
    rng = random.Random(42)

    def build(n):
        coords = rng.sample(range(span), n)
        pts = [(x, COLOURS[min(rng.getrandbits(6), rng.getrandbits(6))])
               for x in coords]
        return MajorityIndex.build(pts, alpha, key_kind="int")

    def window(r):
        a, b = r.randrange(span), r.randrange(span)
        return (a, b) if a <= b else (b, a)

    def block(idx, r, out, reps=100):
        for _ in range(10):  # warm the caches for this index, untimed
            idx.query_counts(*window(warm))
        for _ in range(reps):
            lo, hi = window(r)
            t0 = time.perf_counter_ns()
            idx.query_counts(lo, hi)
            out.append(time.perf_counter_ns() - t0)

    def median(samples):
        samples.sort()
        return samples[len(samples) // 2]

    small = build(10**4)
    big = build(10**6)
    # 300 queries per index, timed in alternating blocks of 100, so that a
    # swing in machine speed falls on both indexes alike
    warm = random.Random(3)
    r_small, r_big = random.Random(1), random.Random(2)
    s_small, s_big = [], []
    for _ in range(3):
        block(small, r_small, s_small)
        block(big, r_big, s_big)
    t_small, t_big = median(s_small), median(s_big)
    ratio = t_big / t_small
    ok = ratio <= 5.0
    verdict(10, ok,
            f"median query latency n=10^6 vs n=10^4: "
            f"{t_big / 1000:.0f}us vs {t_small / 1000:.0f}us, ratio "
            f"{ratio:.2f} <= 5 (log-like growth; lg lg n factor not certified)")
