"""Snapshot round-trips and header validation."""

import json
import random
from fractions import Fraction

import pytest

from rangemaj import snapshot
from rangemaj.colour_array import DynamicColourArray
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

    # a record that cannot be serialised, well after the header
    bad = [(i, 1) for i in range(100)] + [(object(), 1)]
    monkeypatch.setattr(type(idx.F), "items", lambda self: iter(bad))
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
