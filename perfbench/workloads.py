"""The benchmark's four workloads.

Each workload is built from a seed alone: its initial data and its op
stream come from one ``random.Random(seed)``, and the program sees only
the generated values. ``setup`` builds the structure through the public
API, ``ops`` yields the stream in chunks (generated between timed
chunks, never inside one), ``methods`` maps op kinds to the calls that
run them and ``model`` gives the reference from ``check``, in the
state before the first op.

Ops are tuples (kind, *args): "q" is a query, "i", "d" and "m" are an
insert, a delete and a modify.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction
from itertools import accumulate

import check
from rangemaj import DynamicColourArray, MajorityIndex, MajorityIndex2D, cli, snapshot

CHUNK = 300
ZIPF_S = 1.1
SPAN_PER_POINT = 10  # 1-D coordinates are unique ints in [0, 10 n)


def zipf_cum(k, s=ZIPF_S):
    """Cumulative Zipf weights for ranks 1..k, for ``random.choices``."""
    return list(accumulate(1.0 / r**s for r in range(1, k + 1)))


def log_uniform(rng, lo, hi) -> int:
    """Integer in [lo, hi], uniform in log scale."""
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


class Workload:
    """Defaults shared by the workloads below."""

    def prepare(self, workdir) -> None:
        """Write any input files set-up reads; most workloads have none."""

    def methods(self, obj):
        return {"q": obj.query_counts, "i": obj.insert, "d": obj.delete}


class Query1D(Workload):
    """Read-only analysis of an event log loaded from a snapshot.

    Set-up runs ``rangemaj build`` on a CSV of n unique int timestamps
    with Zipf-skewed categories, then loads the snapshot it wrote. The
    timed stream is ``query_counts`` over windows whose width in points is
    log-uniform from 1 to n; half the endpoints fall strictly between
    stored coordinates. No op changes the index.
    """

    name = "query_1d"
    alpha = Fraction(1, 10)

    def __init__(self, seed, n=100_000, names=1000):
        self.rng = rng = random.Random(seed)
        coords = rng.sample(range(SPAN_PER_POINT * n), n)
        labels = [f"cat{i:04d}" for i in range(names)]
        cats = rng.choices(labels, cum_weights=zipf_cum(names), k=n)
        self.points = list(zip(coords, cats))
        self.keys = sorted(coords)

    def prepare(self, workdir) -> None:
        self.csv = os.path.join(workdir, "events.csv")
        self.snap = os.path.join(workdir, "events.snapshot.jsonl")
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x},{c}\n" for x, c in self.points)

    def setup(self):
        argv = ["build", "--input", self.csv, "--mode", "int",
                "--alpha", "1/10", "--snapshot", self.snap]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rangemaj build exited {code}")
        if f'"n": {len(self.points)}' not in out.getvalue():
            raise RuntimeError(f"unexpected build summary {out.getvalue()!r}")
        obj, mode = snapshot.load(self.snap)
        if mode != "int" or len(obj) != len(self.points):
            raise RuntimeError("snapshot did not round-trip")
        return obj

    def _endpoint(self, i, side):
        # keys[i] itself, or a coordinate strictly inside the gap beside
        # it, which selects the same points
        keys, rng = self.keys, self.rng
        x = keys[i]
        j = i - 1 if side < 0 else i + 1
        if rng.random() < 0.5 and 0 <= j < len(keys) and abs(keys[j] - x) > 1:
            x += side * rng.randrange(1, abs(keys[j] - x))
        return x

    def ops(self):
        rng, n = self.rng, len(self.keys)
        while True:
            chunk = []
            for _ in range(CHUNK):
                k = log_uniform(rng, 1, n)
                i = rng.randrange(n - k + 1)
                chunk.append(("q", self._endpoint(i, -1), self._endpoint(i + k - 1, 1)))
            yield chunk

    def methods(self, obj):
        return {"q": obj.query_counts}

    def model(self):
        return check.Line(self.points, self.alpha)


class Churn1D(Workload):
    """A write-heavy stream on the query_1d data shape.

    About 40% inserts and 40% deletes of random live keys keep n near
    its start, and 20% are queries over coordinate windows whose width
    is log-uniform from 1 to the whole span. Queries take about a third
    of the time. With 10% queries a run held only about 2,000 of them,
    too few for a median and a 99th percentile that hold from one run to
    the next.

    Category popularity drifts: every ``drift`` ops a brand-new name
    takes Zipf rank 1, every other name moves down one rank, and the
    name at the tail stops receiving inserts, so names are interned and
    released throughout the run.
    """

    name = "churn_1d"
    alpha = Fraction(1, 10)

    def __init__(self, seed, n=100_000, names=1000, drift=50):
        self.rng = rng = random.Random(seed)
        self.span = SPAN_PER_POINT * n
        self.names, self.drift, self.base = names, drift, 0
        self.cum = zipf_cum(names)
        coords = rng.sample(range(self.span), n)
        self.points = [(x, self._name(rng)) for x in coords]
        self.live = list(coords)
        self.present = set(coords)

    def _name(self, rng):
        rank = rng.choices(range(self.names), cum_weights=self.cum)[0]
        return f"cat{self.base + self.names - 1 - rank:05d}"

    def setup(self):
        return MajorityIndex.build(self.points, self.alpha, key_kind="int")

    def ops(self):
        rng, live, present, span = self.rng, self.live, self.present, self.span
        count = 0
        while True:
            chunk = []
            for _ in range(CHUNK):
                count += 1
                if count % self.drift == 0:
                    self.base += 1
                r = rng.random()
                if r < 0.40:
                    x = rng.randrange(span)
                    while x in present:
                        x = rng.randrange(span)
                    present.add(x)
                    live.append(x)
                    chunk.append(("i", x, self._name(rng)))
                elif r < 0.80:
                    j = rng.randrange(len(live))
                    x = live[j]
                    live[j] = live[-1]
                    live.pop()
                    present.discard(x)
                    chunk.append(("d", x))
                else:
                    lo = rng.randrange(span)
                    chunk.append(("q", lo, lo + log_uniform(rng, 1, span)))
            yield chunk

    def model(self):
        return check.Line(self.points, self.alpha)


class ArrayEdit(Workload):
    """The positional variant under document-like editing.

    Set-up appends n Zipf-skewed colours one by one, as ``build --mode
    array`` and snapshot load do. The stream is 30% inserts (half typed
    at a cursor that advances with each insert and jumps before one
    insert in ten, half at random positions), 30% deletes (half a
    backspace at the cursor, half random), 10% modifies and 30% queries
    over position ranges whose width is log-uniform from 1 to the array
    length.

    The length is held within ``band`` of n: update cost depends on
    where node weights sit against the tree's list cut-off, so a length
    left to random-walk makes one seed's run unlike another's.
    """

    name = "array_edit"
    alpha = Fraction(1, 10)

    def __init__(self, seed, n=1000, names=50, band=20):
        self.rng = rng = random.Random(seed)
        self.low, self.high = n - band, n + band
        self.labels = [f"col{i:02d}" for i in range(names)]
        self.cum = zipf_cum(names)
        self.colours = rng.choices(self.labels, cum_weights=self.cum, k=n)
        self.length = n
        self.cursor = rng.randint(1, n)

    def setup(self):
        arr = DynamicColourArray(self.alpha)
        for c in self.colours:
            arr.append(c)
        return arr

    def ops(self):
        rng = self.rng
        while True:
            chunk = []
            for _ in range(CHUNK):
                n = self.length
                colour = rng.choices(self.labels, cum_weights=self.cum)[0]
                r = rng.random()
                if r < 0.60 and not self.low < n < self.high:
                    r = 0.0 if n <= self.low else 0.5  # steer back into the band
                if r < 0.30:
                    if rng.random() < 0.1:
                        self.cursor = rng.randint(1, n + 1)
                    if rng.random() < 0.5:
                        pos = min(self.cursor, n + 1)
                        self.cursor = pos + 1
                    else:
                        pos = rng.randint(1, n + 1)
                    chunk.append(("i", pos, colour))
                    self.length += 1
                elif r < 0.60:
                    if rng.random() < 0.5 and 1 < self.cursor <= n + 1:
                        self.cursor -= 1
                        pos = self.cursor
                    else:
                        pos = rng.randint(1, n)
                    chunk.append(("d", pos))
                    self.length -= 1
                elif r < 0.70:
                    chunk.append(("m", rng.randint(1, n), colour))
                else:
                    k = log_uniform(rng, 1, n)
                    i = rng.randint(1, n - k + 1)
                    chunk.append(("q", i, i + k - 1))
            yield chunk

    def methods(self, obj):
        return {**super().methods(obj), "m": obj.modify}

    def model(self):
        return check.Row(self.colours, self.alpha)


class PlanarRect(Workload):
    """Rectangle queries and point churn on the planar index.

    n points with distinct int x and free int y in [0, 100 n), Zipf-skewed
    over a few colours, alpha 1/4. The stream is 80% rectangles whose
    width and height are independently log-uniform from 1/1000 of the
    span to the whole span, 10% inserts and 10% deletes.
    """

    name = "planar_rect"
    alpha = Fraction(1, 4)

    def __init__(self, seed, n=10_000, names=20):
        self.rng = rng = random.Random(seed)
        self.span = 100 * n
        self.labels = [f"zone{i:02d}" for i in range(names)]
        self.cum = zipf_cum(names)
        xs = rng.sample(range(self.span), n)
        cs = rng.choices(self.labels, cum_weights=self.cum, k=n)
        self.points = [(x, rng.randrange(self.span), c) for x, c in zip(xs, cs)]
        self.live = list(xs)
        self.present = set(xs)

    def setup(self):
        return MajorityIndex2D.build(self.points, self.alpha)

    def ops(self):
        rng, span, live, present = self.rng, self.span, self.live, self.present
        small = max(1, span // 1000)
        while True:
            chunk = []
            for _ in range(CHUNK):
                r = rng.random()
                if r < 0.80:
                    w, h = log_uniform(rng, small, span), log_uniform(rng, small, span)
                    x, y = rng.randrange(span - w + 1), rng.randrange(span - h + 1)
                    chunk.append(("q", x, x + w, y, y + h))
                elif r < 0.90:
                    x = rng.randrange(span)
                    while x in present:
                        x = rng.randrange(span)
                    present.add(x)
                    live.append(x)
                    colour = rng.choices(self.labels, cum_weights=self.cum)[0]
                    chunk.append(("i", x, rng.randrange(span), colour))
                else:
                    j = rng.randrange(len(live))
                    x = live[j]
                    live[j] = live[-1]
                    live.pop()
                    present.discard(x)
                    chunk.append(("d", x))
            yield chunk

    def model(self):
        return check.Plane(self.points, self.alpha)


WORKLOADS = {w.name: w for w in (Query1D, Churn1D, ArrayEdit, PlanarRect)}
