"""Snapshot round-trips, version 1 compatibility and validation."""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rangemaj import cli, snapshot
from rangemaj.colour_array import DynamicColourArray
from rangemaj.errors import DuplicateKeyError
from rangemaj.planar import MajorityIndex2D
from rangemaj.snapshot import SnapshotError
from rangemaj.tree import MajorityIndex


def test_real_mode_floats_survive_exactly(tmp_path):
    rng = random.Random(3)
    pts = [(rng.random() * 1e6, "c%d" % rng.randrange(5)) for _ in range(300)]
    idx = MajorityIndex.build(pts, Fraction(1, 4), key_kind="float")
    path = str(tmp_path / "s.jsonl")
    snapshot.save(idx, path, "real")
    back, mode = snapshot.load(path)
    assert mode == "real"
    assert [lf.coord for lf in back.leaves()] == [lf.coord for lf in idx.leaves()]
    for _ in range(40):
        a = rng.random() * 1e6
        b = rng.random() * 1e6
        lo, hi = (a, b) if a <= b else (b, a)
        assert back.query_counts(lo, hi) == idx.query_counts(lo, hi)


def test_2d_and_array_round_trip(tmp_path):
    pts = [(1, 5.0, "r"), (2, 1.0, "b"), (3, 2.5, "r")]
    idx = MajorityIndex2D.build(pts, Fraction(1, 2))
    p2 = str(tmp_path / "p.jsonl")
    snapshot.save(idx, p2, "2d")
    back, _ = snapshot.load(p2)
    assert sorted(back.points()) == sorted(pts)
    assert back.query(1, 3, 1.0, 5.0) == idx.query(1, 3, 1.0, 5.0)

    arr = DynamicColourArray(Fraction(1, 2))
    for c in ("x", "y", "x"):
        arr.append(c)
    pa = str(tmp_path / "a.jsonl")
    snapshot.save(arr, pa, "array")
    back, _ = snapshot.load(pa)
    assert [back.get(i) for i in (1, 2, 3)] == ["x", "y", "x"]
    assert back.alpha == Fraction(1, 2)


@pytest.mark.parametrize(
    "mangle,msg",
    [
        (lambda h: {**h, "format": "other"}, "not a"),
        (lambda h: {**h, "version": 99}, "version"),
        (lambda h: {**h, "mode": "weird"}, "mode"),
        (lambda h: {**h, "alpha": "3/2"}, "alpha"),
        (lambda h: {**h, "count": 7}, "promises"),
        (lambda h: {k: v for k, v in h.items() if k != "count"}, "missing"),
    ],
)
def test_bad_headers_rejected(tmp_path, mangle, msg):
    idx = MajorityIndex.build([(1, "a"), (2, "b")], Fraction(1, 2), key_kind="int")
    path = tmp_path / "s.jsonl"
    snapshot.save(idx, str(path), "int")
    lines = path.read_text(encoding="utf-8").splitlines()
    header = mangle(json.loads(lines[0]))
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n",
                    encoding="utf-8")
    with pytest.raises(SnapshotError, match=msg):
        snapshot.load(str(path))


def test_record_errors_name_lines(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"format": "rangemaj-snapshot", "version": 1, "mode": "int", '
        '"alpha": "1/2", "count": 2}\n{"t": 1, "c": "a"}\n{"t": 2}\n',
        encoding="utf-8",
    )
    with pytest.raises(SnapshotError, match="line 3"):
        snapshot.load(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SnapshotError, match="empty"):
        snapshot.load(str(path))


def test_failed_save_leaves_old_snapshot_intact(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    idx = MajorityIndex.build([(i, "c%d" % (i % 3)) for i in range(200)], Fraction(1, 4))
    snapshot.save(idx, str(path), "int")
    before = path.read_bytes()

    # a key that cannot be serialised, in the coordinate column after the
    # header and the colour table
    bad = list(range(100)) + [object()]
    monkeypatch.setattr(type(idx.F), "__iter__", lambda self: iter(bad))
    with pytest.raises(TypeError):
        snapshot.save(idx, str(path), "int")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]
    monkeypatch.undo()

    idx.insert(1000, "new")
    snapshot.save(idx, str(path), "int")
    back, _ = snapshot.load(str(path))
    assert len(back) == 201
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]


# ---- version 1 files ----

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_ALPHA = Fraction(1, 4)
MODES = ("int", "real", "2d", "array")


def fixture_points(mode):
    """The points each ``fixtures/v1_<mode>.jsonl`` was saved from, by the
    version 1 ``save``."""
    if mode == "array":
        return ["a" if i % 3 == 0 or 40 <= i < 70 else "c%d" % (i % 5) for i in range(120)]
    if mode == "2d":
        return [(3 * i + i % 2, (37 * i) % 50 + 0.5 * (i % 2),
                 "a" if i % 4 == 0 else "c%d" % (i * i % 6)) for i in range(150)]
    if mode == "real":
        return [(0.37 * i - 20.0 + 1e-3 * (i % 7), "a" if 50 <= i < 120 else "c%d" % (i % 7))
                for i in range(200)]
    return [(3 * i - 400 + i % 2, "a" if i % 3 == 0 or 100 <= i < 160 else "c%d" % (i % 5))
            for i in range(300)]


def build_fixture(mode):
    pts = fixture_points(mode)
    if mode == "array":
        return DynamicColourArray.from_colours(pts, FIXTURE_ALPHA)
    if mode == "2d":
        return MajorityIndex2D.build(pts, FIXTURE_ALPHA)
    kind = "float" if mode == "real" else "int"
    return MajorityIndex.build(pts, FIXTURE_ALPHA, key_kind=kind)


def windows(mode):
    """Query bounds over the fixture's points: stored keys, and points
    between and beyond them."""
    pts = fixture_points(mode)
    if mode == "array":
        n = len(pts)
        return [(i, j) for i in range(1, n + 1, 7) for j in range(i, n + 1, 11)]
    xs = sorted(p[0] for p in pts)
    mids = [(a + b) / 2 for a, b in zip(xs[4::17], xs[5::17])]
    bounds = xs[::9] + ([int(m) for m in mids] if mode == "int" else mids)
    bounds += [xs[0] - 1, xs[-1] + 1]
    pairs = [(a, b) for a in bounds for b in bounds if a <= b]
    if mode != "2d":
        return pairs
    return [(a, b, ylo, yhi) for (a, b), (ylo, yhi) in
            zip(pairs, [(0, 49.5), (10, 30), (-1, 20.5), (25, 60)] * len(pairs))]


def index_shape(idx):
    """Everything a 1-D index derives from its points, ids included."""
    return (
        list(idx.F.items()),
        {c: list(pc) for c, pc in idx.per_colour.items()},
        [(v.height, v.weight, v.cand and list(v.cand.items())) for v in idx.internal_nodes()],
    )


def assert_sound(idx):
    """Deep audit, and one registry reference per point of each colour."""
    idx.audit_tree(deep=True)
    per_colour = Counter(c for _, c in idx.F.items())
    assert {c: idx.registry.refcount(c) for c in idx.registry.live_ids()} == per_colour


@pytest.mark.parametrize("mode", MODES)
def test_v1_fixture_loads_and_answers_like_its_source(mode):
    path = FIXTURES / f"v1_{mode}.jsonl"
    assert json.loads(path.read_text(encoding="utf-8").splitlines()[0])["version"] == 1
    back, got_mode = snapshot.load(str(path))
    src = build_fixture(mode)
    assert got_mode == mode and back.alpha == FIXTURE_ALPHA and len(back) == len(src)
    for w in windows(mode):
        assert back.query_counts(*w) == src.query_counts(*w), w
    if mode == "array":
        assert [back.get(i) for i in range(1, len(src) + 1)] == fixture_points(mode)
        back.audit(deep=True)
    elif mode == "2d":
        assert list(back.points()) == list(src.points())
        back.audit2d()
    else:
        assert index_shape(back) == index_shape(src)
        assert_sound(back)


@pytest.mark.parametrize("mode", MODES)
def test_v1_fixture_answers_through_cli_query(mode, capsys):
    path = str(FIXTURES / f"v1_{mode}.jsonl")
    src = build_fixture(mode)
    for w in windows(mode)[::13]:
        code = cli.main(["query", "--snapshot", path] + [repr(v) for v in w])
        out = capsys.readouterr().out
        assert code == 0
        got = {r["colour"]: r["count"] for r in map(json.loads, out.splitlines())}
        assert got == src.query_counts(*w), w


@pytest.mark.parametrize("mode", ("int", "real"))
def test_v2_load_equals_v1_load(mode, tmp_path):
    v1, _ = snapshot.load(str(FIXTURES / f"v1_{mode}.jsonl"))
    path = str(tmp_path / "s.jsonl")
    snapshot.save(v1, path, mode)
    assert json.loads(open(path, encoding="utf-8").readline())["version"] == 2
    v2, _ = snapshot.load(path)
    assert index_shape(v2) == index_shape(v1)
    assert_sound(v2)


def test_v1_records_out_of_order_are_sorted(tmp_path):
    lines = (FIXTURES / "v1_int.jsonl").read_text(encoding="utf-8").splitlines()
    body = lines[1:]
    random.Random(5).shuffle(body)
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
    back, _ = snapshot.load(str(path))
    assert index_shape(back) == index_shape(build_fixture("int"))


# ---- version 2 validation ----

def v2_file(tmp_path, mode, mangle=None):
    """A version 2 snapshot of 12 points, with mangle(columns) applied to
    its columns (name -> list) before it is written back."""
    if mode == "2d":
        idx = MajorityIndex2D.build([(10 * i, i % 4, "c%d" % (i % 3)) for i in range(12)],
                                    Fraction(1, 3))
    else:
        kind = "float" if mode == "real" else "int"
        idx = MajorityIndex.build([(10 * i, "c%d" % (i % 3)) for i in range(12)],
                                  Fraction(1, 3), key_kind=kind)
    path = tmp_path / "s.jsonl"
    snapshot.save(idx, str(path), mode)
    if mangle is not None:
        lines = path.read_text(encoding="utf-8").splitlines()
        cols = dict(zip(snapshot.COLUMNS[mode], map(json.loads, lines[1:])))
        mangle(cols)
        lines[1:] = [json.dumps(cols[name]) for name in snapshot.COLUMNS[mode]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def setitem(column, i, value):
    def mangle(cols):
        cols[column][i] = value
    return mangle


def swap(column, i):
    def mangle(cols):
        col = cols[column]
        col[i], col[i + 1] = col[i + 1], col[i]
    return mangle


BAD_COLUMNS = [
    ("int", lambda c: c["t"].append(999), r"column 't' holds 13 entries, header promises 12"),
    ("int", lambda c: c["c"].pop(), r"column 'c' holds 11 entries, header promises 12"),
    ("2d", lambda c: c["y"].pop(), r"column 'y' holds 11 entries"),
    ("int", setitem("c", 5, 3), r"column 'c', position 5: colour table position"),
    ("int", setitem("c", 5, -1), r"column 'c', position 5: colour table position"),
    ("int", setitem("c", 4, True), r"column 'c', position 4: colour table position"),
    ("int", setitem("c", 4, 1.0), r"column 'c', position 4: colour table position"),
    ("int", setitem("t", 3, "30"), r"column 't', position 3: integer coordinate required"),
    ("int", setitem("t", 3, True), r"column 't', position 3: integer coordinate required"),
    ("int", setitem("t", 3, 30.5), r"column 't', position 3: integer coordinate required"),
    ("int", setitem("t", 11, 2**62 + 1), r"column 't', position 11: coordinate .* outside"),
    ("int", setitem("t", 0, -(2**62) - 1), r"column 't', position 0: coordinate .* outside"),
    ("real", setitem("t", 2, float("nan")), r"column 't', position 2: finite coordinate"),
    ("real", setitem("t", 2, "20"), r"column 't', position 2: numeric coordinate"),
    ("2d", setitem("y", 3, None), r"column 'y', position 3: numeric y-coordinate"),
    ("int", swap("t", 6), r"column 't', position 7: key 60 is below the previous key 70"),
    ("real", swap("t", 0), r"column 't', position 1: key 0.0 is below"),
    ("2d", swap("t", 9), r"column 't', position 10: key 90 is below"),
]


@pytest.mark.parametrize("mode,mangle,msg", BAD_COLUMNS)
def test_malformed_v2_columns_named(tmp_path, capsys, mode, mangle, msg):
    path = v2_file(tmp_path, mode, mangle)
    with pytest.raises(SnapshotError, match=msg):
        snapshot.load(path)
    assert cli.main(["query", "--snapshot", path, "0", "50"]) == 2
    assert re.search(msg, capsys.readouterr().err)


@pytest.mark.parametrize("mode", ("int", "real", "2d"))
def test_repeated_v2_key_is_a_duplicate(tmp_path, capsys, mode):
    def repeat(cols):
        cols["t"][7] = cols["t"][6]
    path = v2_file(tmp_path, mode, repeat)
    with pytest.raises(DuplicateKeyError, match=r"column 't', position 7"):
        snapshot.load(path)
    assert cli.main(["query", "--snapshot", path, "0", "50"]) == 3


@pytest.mark.parametrize(
    "body,msg",
    [
        (['["c0"]', "[0, 1", "[0]"], r"column 't': bad JSON"),
        (['["c0"]', '{"t": [0]}', "[0]"], r"column 't': expected a JSON array"),
        (['["c0"]', "[0]"], r"needs 3 column lines \(colours, t, c\), found 2"),
        (['["c0"]', "[0]", "[0]", "[0]"], r"needs 3 column lines"),
        (['["c0"]', "[" * 100_000, "[0]"], r"column 't': bad JSON"),
        (['["c0"]', "[" + "9" * 5000 + "]", "[0]"], r"column 't': bad JSON"),
    ],
)
def test_malformed_v2_body_rejected(tmp_path, capsys, body, msg):
    header = {"format": "rangemaj-snapshot", "version": 2, "mode": "int",
              "alpha": "1/2", "count": 1}
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join([json.dumps(header)] + body) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotError, match=msg):
        snapshot.load(str(path))
    assert cli.main(["query", "--snapshot", str(path), "0", "1"]) == 2


def test_non_utf8_and_odd_headers_rejected(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    path.write_bytes(b'{"format": "rangemaj-snapshot"}\n\xff\xfe\n')
    with pytest.raises(SnapshotError, match="UTF-8"):
        snapshot.load(str(path))
    header = {"format": "rangemaj-snapshot", "version": 2, "mode": "int",
              "alpha": "1/2", "count": 0}
    for field, value, msg in [("version", True, "version"), ("count", True, "count"),
                              ("version", "2", "version")]:
        path.write_text(json.dumps({**header, field: value}) + "\n[]\n[]\n[]\n",
                        encoding="utf-8")
        with pytest.raises(SnapshotError, match=msg):
            snapshot.load(str(path))
    assert cli.main(["query", "--snapshot", str(path), "0", "1"]) == 2
