"""CLI paths: golden outputs, exit codes, schema-validated JSON."""

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangemaj import cli
from rangemaj.tree import MajorityIndex

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["n", "colours", "height", "mode", "alpha"],
    "properties": {
        "n": {"type": "integer", "minimum": 0},
        "colours": {"type": "integer", "minimum": 0},
        "height": {"type": ["integer", "null"], "minimum": 0},
        "mode": {"enum": ["real", "int", "2d", "array"]},
        "alpha": {"type": "string", "pattern": r"^\d+/\d+$"},
        "snapshot": {"type": "string"},
    },
    "additionalProperties": False,
}

QUERY_SCHEMA = {
    "type": "object",
    "required": ["colour", "count", "fraction", "m"],
    "properties": {
        "colour": {"type": "string"},
        "count": {"type": "integer", "minimum": 1},
        "fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "m": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

REPLAY_SCHEMA = {
    "type": "object",
    "required": ["q", "line", "m", "result"],
    "properties": {
        "q": {"type": "integer", "minimum": 1},
        "line": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 0},
        "result": {"type": "object", "additionalProperties": {"type": "integer"}},
        "ok": {"type": "boolean"},
    },
    "additionalProperties": False,
}


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def jlines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@pytest.fixture
def events_csv(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("100,red\n200,blue\n300,red\n", encoding="utf-8")
    return str(path)


class TestBuild:
    def test_three_line_csv(self, capsys, tmp_path, events_csv):
        snap = str(tmp_path / "snap.jsonl")
        rc, out, _ = run_cli(
            capsys, "build", "--input", events_csv, "--alpha", "1/2",
            "--mode", "int", "--snapshot", snap,
        )
        assert rc == 0
        summary = json.loads(out)
        jsonschema.validate(summary, SUMMARY_SCHEMA)
        assert summary["n"] == 3
        assert summary["colours"] == 2
        assert summary["snapshot"] == snap
        header = jlines(open(snap, encoding="utf-8").read())[0]
        assert header["count"] == 3
        assert header["mode"] == "int"

    def test_malformed_line_17_named(self, capsys, tmp_path):
        lines = ["%d,c%d" % (i, i % 3) for i in range(1, 21)]
        lines[16] = "oops"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "int")
        assert rc == 2
        assert "line 17" in err

    def test_duplicate_coordinate_exit_3(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("5,a\n5,b\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "int")
        assert rc == 3
        assert "5" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "build", "--input", str(tmp_path / "nope.csv"))
        assert rc == 2
        assert "nope.csv" in err

    def test_header_skip_and_jsonl_input(self, capsys, tmp_path):
        csvp = tmp_path / "h.csv"
        csvp.write_text("timestamp,category\n1,a\n2,b\n", encoding="utf-8")
        rc, out, _ = run_cli(capsys, "build", "--input", str(csvp), "--header")
        assert rc == 0 and json.loads(out)["n"] == 2
        jp = tmp_path / "e.jsonl"
        jp.write_text(
            '{"timestamp": 1, "category": "a"}\n{"t": 2, "c": "b"}\n',
            encoding="utf-8",
        )
        rc, out, _ = run_cli(capsys, "build", "--input", str(jp))
        assert rc == 0 and json.loads(out)["n"] == 2

    def test_real_mode_rejects_nan(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.5,a\nnan,b\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "real")
        assert rc == 2
        assert "line 2" in err

    def test_int_past_the_bound_names_line(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1,a\n%d,b\n" % (1 << 63), encoding="utf-8")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "int")
        assert rc == 2 and err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_duplicate_named_in_file_order(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("9,a\n5,b\n9,c\n5,d\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "int")
        assert rc == 3
        assert err == "error: line 3: coordinate 9 already used on line 1\n"

    def test_csv_field_past_the_limit_names_line(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,a\n2," + "b" * 200_000 + "\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, "build", "--input", str(path))
        assert rc == 2 and out == ""
        assert_one_error_line(err, "line 2: field larger than field limit")

    @pytest.mark.parametrize("mode", ["2d", "int", "real"])
    def test_structure_checks_decide_and_name_the_line(self, capsys, tmp_path, mode):
        # the structure's own checks decide; the CLI names the first bad
        # line in file order
        path = tmp_path / "p.csv"
        big = "9" * 400
        path.write_text(f"1,a,1\n{big},b,2\n3,c,nan\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, "build", "--input", str(path), "--mode", mode,
                               "--snapshot", str(tmp_path / "s.snap"))
        if mode == "int":  # past +/-2^62
            assert rc == 2 and err.startswith("error: line 2: ")
        elif mode == "real":  # past the doubles' range: infinite
            assert rc == 2 and err.startswith("error: line 2: finite coordinate")
        else:  # 2-D keys are ints as given, so line 3's NaN y is the first fault
            assert rc == 2 and err.startswith("error: line 3: finite y-coordinate")
            path.write_text(f"1,a,1\n{big},b,2\n", encoding="utf-8")
            rc, out, err = run_cli(capsys, "build", "--input", str(path), "--mode", mode,
                                   "--snapshot", str(tmp_path / "s.snap"))
            assert rc == 0, err
            xs = jlines(open(tmp_path / "s.snap", encoding="utf-8").read())[2]
            assert xs == [1, int(big)]
            path.write_text("9,a,0\n5,b,0\n9.0,c,0\n5,d,0\n", encoding="utf-8")
            rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", mode)
            assert rc == 3
            assert err == "error: line 3: coordinate 9.0 already used on line 1\n"

    @pytest.mark.parametrize("mode", ["int", "real"])
    def test_each_point_checked_once(self, capsys, tmp_path, monkeypatch, mode):
        path = tmp_path / "e.csv"
        path.write_text("".join("%d,c%d\n" % (i * 7 % 20, i % 3) for i in range(20)),
                        encoding="utf-8")
        calls = []
        coord = MajorityIndex._coord

        def spy(self, x):
            calls.append(x)
            return coord(self, x)

        monkeypatch.setattr(MajorityIndex, "_coord", spy)
        rc, out, _ = run_cli(capsys, "build", "--input", str(path), "--mode", mode)
        assert rc == 0 and json.loads(out)["n"] == 20
        assert len(calls) == 20


def assert_one_error_line(err, *names):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for name in names:
        assert name in err


class TestFileErrors:
    """OS and decoding errors end in exit 2 and one line naming the path."""

    def test_query_snapshot_is_a_directory(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "query", "--snapshot", str(tmp_path), "1", "2")
        assert rc == 2 and out == ""
        assert_one_error_line(err, str(tmp_path))

    def test_build_input_is_a_directory(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "build", "--input", str(tmp_path))
        assert rc == 2 and out == ""
        assert_one_error_line(err, str(tmp_path))

    @pytest.mark.parametrize("name", ["bad.csv", "bad.jsonl"])
    def test_build_input_not_utf8(self, capsys, tmp_path, name):
        path = tmp_path / name
        good = b"1,a\n" if name.endswith(".csv") else b'{"t": 1, "c": "a"}\n'
        path.write_bytes(good + b"2,\xff\xfe\n")
        rc, out, err = run_cli(capsys, "build", "--input", str(path))
        assert rc == 2 and out == ""
        assert_one_error_line(err, str(path), "UTF-8")

    def test_replay_input_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "st.jsonl"
        path.write_bytes(b'{"op": "insert", "t": 1, "c": "r"}\n{"op": "\xc3"}\n')
        rc, out, err = run_cli(capsys, "replay", "--input", str(path))
        assert rc == 2 and out == ""
        assert_one_error_line(err, str(path), "UTF-8")

    @pytest.mark.parametrize("target", ["missing_dir/x.snap", "."])
    def test_build_snapshot_unwritable_names_target(self, capsys, tmp_path,
                                                    events_csv, target):
        # a missing directory, and a target that is a directory
        snap = str(tmp_path / target)
        rc, out, err = run_cli(capsys, "build", "--input", events_csv, "--snapshot", snap)
        assert rc == 2 and out == ""
        assert_one_error_line(err, snap)
        assert ".tmp" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


class TestQuery:
    def test_majority_reported_with_fraction(self, capsys, tmp_path, events_csv):
        snap = str(tmp_path / "s.jsonl")
        run_cli(capsys, "build", "--input", events_csv, "--snapshot", snap)
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "100", "300")
        assert rc == 0
        recs = jlines(out)
        assert len(recs) == 1
        jsonschema.validate(recs[0], QUERY_SCHEMA)
        assert recs[0] == {"colour": "red", "count": 2, "fraction": 2 / 3, "m": 3}

    def test_empty_window_empty_output(self, capsys, tmp_path, events_csv):
        snap = str(tmp_path / "s.jsonl")
        run_cli(capsys, "build", "--input", events_csv, "--snapshot", snap)
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "400", "500")
        assert rc == 0 and out == ""
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "300", "100")
        assert rc == 0 and out == ""

    def test_fractions_exceed_alpha(self, capsys, tmp_path):
        rng = random.Random(5)
        rows = [
            "%d,c%d" % (x, min(rng.getrandbits(3), rng.getrandbits(3)))
            for x in rng.sample(range(5000), 400)
        ]
        path = tmp_path / "z.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        run_cli(capsys, "build", "--input", str(path), "--alpha", "1/4",
                "--snapshot", snap)
        for _ in range(30):
            a, b = sorted((rng.randrange(5000), rng.randrange(5000)))
            rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, str(a), str(b))
            assert rc == 0
            for rec in jlines(out):
                jsonschema.validate(rec, QUERY_SCHEMA)
                assert rec["fraction"] > 0.25
                assert rec["count"] * 4 > rec["m"]

    def test_real_mode_build_and_query(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.5,a\n1.25,a\n2.75,b\n", encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        rc, out, _ = run_cli(capsys, "build", "--input", str(path),
                             "--mode", "real", "--snapshot", snap)
        assert rc == 0 and json.loads(out)["n"] == 3
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "0", "1.5")
        assert rc == 0
        assert jlines(out)[0]["colour"] == "a"

    def test_real_mode_parses_integer_text(self, capsys, tmp_path):
        # the CLI turns text into numbers before the float-kind index sees it
        path = tmp_path / "r.jsonl"
        path.write_text('{"t": 1, "c": "a"}\n{"t": "2", "c": "a"}\n'
                        '{"t": " 2.5 ", "c": "b"}\n', encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        rc, out, err = run_cli(capsys, "build", "--input", str(path),
                               "--mode", "real", "--snapshot", snap)
        assert rc == 0 and json.loads(out)["n"] == 3, err
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "1", " 2 ")
        assert rc == 0
        assert jlines(out) == [{"colour": "a", "count": 2, "fraction": 1.0, "m": 2}]
        rc, _, err = run_cli(capsys, "query", "--snapshot", snap, "true", "3")
        assert rc == 2 and "true" in err
        # an integer past the doubles' range is an infinite bound, as in
        # the library: the window [1, +inf] holds all three points
        rc, out, err = run_cli(capsys, "query", "--snapshot", snap, "1", "9" * 400)
        assert rc == 0 and err == ""
        assert jlines(out) == [{"colour": "a", "count": 2, "fraction": 2 / 3, "m": 3}]

    def test_real_mode_counts_m_on_the_snapped_bounds(self, capsys, tmp_path):
        # 2**53 + 1 is no double: the float index reads it as 2**53, the
        # stored point, and m counts that window too
        path = tmp_path / "r.csv"
        path.write_text(f"1,b\n{2**53},a\n", encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "real",
                             "--alpha", "1/3", "--snapshot", snap)
        assert rc == 0, err
        big = str(2**53 + 1)
        rc, out, err = run_cli(capsys, "query", "--snapshot", snap, big, big)
        assert rc == 0 and err == ""
        assert jlines(out) == [{"colour": "a", "count": 1, "fraction": 1.0, "m": 1}]
        rc, out, err = run_cli(capsys, "query", "--snapshot", snap, "0", big)
        assert rc == 0 and err == ""
        assert jlines(out) == [{"colour": "a", "count": 1, "fraction": 0.5, "m": 2},
                               {"colour": "b", "count": 1, "fraction": 0.5, "m": 2}]

    def test_bad_bounds_exit_2(self, capsys, tmp_path, events_csv):
        snap = str(tmp_path / "s.jsonl")
        run_cli(capsys, "build", "--input", events_csv, "--snapshot", snap)
        rc, _, err = run_cli(capsys, "query", "--snapshot", snap, "abc", "300")
        assert rc == 2 and "abc" in err
        rc, _, _ = run_cli(capsys, "query", "--snapshot", snap, "100")
        assert rc == 2

    def test_bounds_beyond_int64(self, capsys, tmp_path, events_csv):
        snap = str(tmp_path / "s.jsonl")
        run_cli(capsys, "build", "--input", events_csv, "--mode", "int",
                "--snapshot", snap)
        rc, out, err = run_cli(capsys, "query", "--snapshot", snap,
                               str(-(2**70)), str(2**70))
        assert rc == 0, err
        assert jlines(out) == [
            {"colour": "red", "count": 2, "fraction": 2 / 3, "m": 3}
        ]

    def test_snapshot_round_trip_matches_live(self, capsys, tmp_path):
        rng = random.Random(11)
        pts = [(x, "k%d" % rng.randrange(6)) for x in rng.sample(range(3000), 250)]
        path = tmp_path / "r.csv"
        path.write_text("".join("%d,%s\n" % p for p in pts), encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        run_cli(capsys, "build", "--input", str(path), "--alpha", "1/10",
                "--snapshot", snap)
        live = MajorityIndex.build(pts, Fraction(1, 10), key_kind="int")
        for _ in range(60):
            a, b = sorted((rng.randrange(3000), rng.randrange(3000)))
            rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, str(a), str(b))
            assert rc == 0
            got = {r["colour"]: r["count"] for r in jlines(out)}
            assert got == live.query_counts(a, b)


class TestTwoDim:
    def test_build_query_2d(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,red,1\n2,red,2\n3,blue,3\n4,red,4\n", encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        rc, out, _ = run_cli(capsys, "build", "--input", str(path), "--mode", "2d",
                             "--alpha", "1/2", "--snapshot", snap)
        assert rc == 0
        summary = json.loads(out)
        jsonschema.validate(summary, SUMMARY_SCHEMA)
        assert summary["n"] == 4
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap,
                             "1", "4", "1", "2.5")
        assert rc == 0
        recs = jlines(out)
        assert [r["colour"] for r in recs] == ["red"]
        assert recs[0]["m"] == 2
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "1", "4")
        assert rc == 2

    def test_missing_y_exit_2(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,red,1\n2,red\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "build", "--input", str(path), "--mode", "2d")
        assert rc == 2 and "line 2" in err


class TestArrayMode:
    def test_build_query_array(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,r\n0,b\n0,r\n", encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        rc, out, _ = run_cli(capsys, "build", "--input", str(path), "--mode", "array",
                             "--snapshot", snap)
        assert rc == 0 and json.loads(out)["n"] == 3
        rc, out, _ = run_cli(capsys, "query", "--snapshot", snap, "1", "3")
        recs = jlines(out)
        assert rc == 0
        assert recs[0]["colour"] == "r" and recs[0]["m"] == 3
        rc, _, _ = run_cli(capsys, "query", "--snapshot", snap, "1", "9")
        assert rc == 2

    def test_reversed_array_range_is_empty(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,r\n0,b\n0,r\n", encoding="utf-8")
        snap = str(tmp_path / "s.jsonl")
        rc, _, _ = run_cli(capsys, "build", "--input", str(path), "--mode", "array",
                           "--snapshot", snap)
        assert rc == 0
        rc, out, err = run_cli(capsys, "query", "--snapshot", snap, "3", "1")
        assert rc == 0 and out == "" and err == ""
        stream = tmp_path / "st.jsonl"
        recs = [{"op": "insert", "c": c} for c in "rbr"]
        recs.append({"op": "query", "lo": 3, "hi": 1, "expect": {}})
        stream.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "replay", "--input", str(stream),
                             "--alpha", "1/2", "--mode", "array")
        assert rc == 0
        rec = jlines(out)[0]
        jsonschema.validate(rec, REPLAY_SCHEMA)
        assert rec["result"] == {} and rec["m"] == 0 and rec["ok"] is True


class TestReplay:
    def test_embedded_expect_passes(self, capsys, tmp_path):
        stream = tmp_path / "st.jsonl"
        recs = [{"op": "insert", "t": t, "c": "r" if t != 3 else "b"}
                for t in range(1, 6)]
        recs.append({"op": "query", "lo": 1, "hi": 5, "expect": {"r": 4}})
        stream.write_text("".join(json.dumps(r) + "\n" for r in recs),
                          encoding="utf-8")
        rc, out, _ = run_cli(capsys, "replay", "--input", str(stream),
                             "--alpha", "1/2", "--mode", "int")
        assert rc == 0
        rec = jlines(out)[0]
        jsonschema.validate(rec, REPLAY_SCHEMA)
        assert rec["ok"] is True and rec["result"] == {"r": 4}

    def test_expect_mismatch_exit_1(self, capsys, tmp_path):
        stream = tmp_path / "st.jsonl"
        stream.write_text(
            json.dumps({"op": "insert", "t": 1, "c": "r"}) + "\n"
            + json.dumps({"op": "query", "lo": 1, "hi": 1, "expect": ["b"]}) + "\n",
            encoding="utf-8",
        )
        rc, out, err = run_cli(capsys, "replay", "--input", str(stream))
        assert rc == 1
        assert jlines(out)[0]["ok"] is False
        assert "mismatch" in err

    def test_config_record_sets_mode(self, capsys, tmp_path):
        stream = tmp_path / "st.jsonl"
        recs = [
            {"op": "config", "alpha": "1/2", "mode": "array"},
            {"op": "insert", "c": "x"},
            {"op": "insert", "c": "y"},
            {"op": "modify", "i": 2, "c": "x"},
            {"op": "query", "lo": 1, "hi": 2, "expect": {"x": 2}},
        ]
        stream.write_text("".join(json.dumps(r) + "\n" for r in recs),
                          encoding="utf-8")
        rc, out, _ = run_cli(capsys, "replay", "--input", str(stream))
        assert rc == 0 and jlines(out)[0]["ok"] is True

    def test_malformed_stream_line_exit_2(self, capsys, tmp_path):
        stream = tmp_path / "st.jsonl"
        stream.write_text('{"op": "insert", "t": 1, "c": "r"}\nnot json\n',
                          encoding="utf-8")
        rc, _, err = run_cli(capsys, "replay", "--input", str(stream))
        assert rc == 2 and "line 2" in err

    def test_duplicate_insert_exit_3(self, capsys, tmp_path):
        stream = tmp_path / "st.jsonl"
        stream.write_text(
            '{"op": "insert", "t": 1, "c": "r"}\n{"op": "insert", "t": 1, "c": "b"}\n',
            encoding="utf-8",
        )
        rc, _, err = run_cli(capsys, "replay", "--input", str(stream))
        assert rc == 3 and "line 2" in err

    def test_delete_absent_exit_3(self, capsys, tmp_path):
        stream = tmp_path / "st.jsonl"
        stream.write_text('{"op": "delete", "t": 9}\n', encoding="utf-8")
        rc, _, _ = run_cli(capsys, "replay", "--input", str(stream))
        assert rc == 3


    @pytest.mark.parametrize("mode", ["real", "int"])
    @pytest.mark.parametrize("rec", [
        {"op": "insert", "t": "4", "c": "r"},
        {"op": "insert", "t": True, "c": "r"},
        {"op": "delete", "t": "1"},
        {"op": "delete", "t": False},
        {"op": "query", "lo": "1", "hi": 3},
        {"op": "query", "lo": 1, "hi": "3"},
        {"op": "query", "lo": True, "hi": 3},
        {"op": "query", "lo": 0, "hi": False},
    ], ids=["insert-str", "insert-bool", "delete-str", "delete-bool",
            "query-str-lo", "query-str-hi", "query-bool-lo", "query-bool-hi"])
    def test_non_numeric_coordinate_exit_2(self, capsys, tmp_path, mode, rec):
        stream = tmp_path / "st.jsonl"
        recs = [{"op": "insert", "t": 1, "c": "r"}, rec]
        stream.write_text("".join(json.dumps(r) + "\n" for r in recs),
                          encoding="utf-8")
        rc, out, err = run_cli(capsys, "replay", "--input", str(stream),
                               "--mode", mode)
        assert rc == 2 and out == ""
        assert err.startswith("error: line 2: ") and err.count("\n") == 1
        assert "Traceback" not in err and "not supported" not in err


    @pytest.mark.parametrize("t", [True, "x", [1]], ids=["bool", "str", "list"])
    def test_2d_delete_checks_its_coordinate_exit_2(self, capsys, tmp_path, t):
        # True == 1: an unchecked delete would remove the point at x = 1
        stream = tmp_path / "st.jsonl"
        recs = [{"op": "insert", "t": 1, "y": 1, "c": "r"}, {"op": "delete", "t": t}]
        stream.write_text("".join(json.dumps(r) + "\n" for r in recs),
                          encoding="utf-8")
        rc, out, err = run_cli(capsys, "replay", "--input", str(stream), "--mode", "2d")
        assert rc == 2 and out == ""
        assert err.startswith("error: line 2: ") and err.count("\n") == 1
        assert "Traceback" not in err

class TestSelftest:
    def test_deterministic_and_green(self, capsys):
        rc1, out1, _ = run_cli(capsys, "selftest", "--seed", "7", "--iters", "400")
        rc2, out2, _ = run_cli(capsys, "selftest", "--seed", "7", "--iters", "400")
        assert rc1 == rc2 == 0
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["ok"] is True and rep["alpha_1_2"]["ops"] == 400


class TestEntryPoint:
    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,a\n2,b\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "rangemaj.cli", "build", "--input", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 2

    def test_log_env_accepted(self, tmp_path, child_env):
        path = tmp_path / "e.csv"
        path.write_text("1,a\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "rangemaj.cli", "build", "--input", str(path)],
            capture_output=True, text=True,
            env=child_env(RANGE_MAJ_LOG="DEBUG"),
        )
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        jsonschema.validate(summary, SUMMARY_SCHEMA)
        assert summary["n"] == 1
        assert "DEBUG:rangemaj" in proc.stderr


# ---- properties: malformed input never ends in a traceback, and
# `query` and a replayed query answer a window alike ----

# alpha 1/10 over at most 9 points: every colour in a window is a
# majority, so a window's counts sum to its m
ALPHA = "1/10"
POINTS = {  # (t, y, colour); array mode uses the colours alone
    "int": [(1, None, "a"), (2, None, "a"), (3, None, "b"), (5, None, "a"),
            (6, None, "c"), (8, None, "a")],
    "real": [(0.5, None, "a"), (1, None, "a"), (2.5, None, "b"), (3, None, "a"),
             (4.75, None, "c"), (6, None, "a"), (2**53, None, "b")],
    "2d": [(1, 4, "a"), (2, 1, "a"), (3, 3, "b"), (5, 2, "a"), (6, 6, "c"), (8, 5, "a")],
    "array": [(0, None, "a"), (0, None, "a"), (0, None, "b"), (0, None, "a"),
              (0, None, "c"), (0, None, "a")],
}
MODES = sorted(POINTS)
FIELDS = ("lo", "hi", "ylo", "yhi")

# window ends that some mode accepts; infinite bounds only in real and 2d,
# and 2**53 + 1, which is no double, reads as real mode's point at 2**53
ENDS = st.one_of(st.integers(1, 6), st.integers(-1, 9),
                 st.sampled_from([2.5, math.inf, -math.inf, 2**70, -(2**70), 2**53 + 1]))
NUMBERS = st.one_of(ENDS, st.sampled_from([-0.5, 1.0, math.nan, 2**62 + 1, 10**400]))
# non-numeric in text and in JSON alike, so query and replay see one value
JUNK = st.one_of(st.booleans(), st.none(),
                 st.sampled_from(["abc", "", "1..2", "0x10", "[1]"]))


def as_text(v):
    """v as query argv text that `_number` reads back to v."""
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)  # "inf", "-inf", "nan"
    return repr(v)


def quiet_cli(*argv):
    """Run the CLI in-process; an exception escaping it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    err = err.getvalue()
    assert rc in (0, 1, 2, 3), rc
    assert "Traceback" not in err
    assert err.count("error:") <= 1 and err.count("\n") <= 1, err
    assert (rc == 0) == (err == ""), (rc, err)
    return rc, out.getvalue()


def insert_records(mode):
    for t, y, c in POINTS[mode]:
        rec = {"op": "insert", "c": c}
        if mode != "array":
            rec["t"] = t
        if mode == "2d":
            rec["y"] = y
        yield rec


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A directory holding one snapshot per mode, written by `build`."""
    d = tmp_path_factory.mktemp("cli_props")
    for mode, pts in POINTS.items():
        path = d / f"{mode}.csv"
        path.write_text("".join(f"{t},{c},{'' if y is None else y}\n" for t, y, c in pts),
                        encoding="utf-8")
        rc, _ = quiet_cli("build", "--input", str(path), "--mode", mode,
                          "--alpha", ALPHA, "--snapshot", str(d / f"{mode}.snap"))
        assert rc == 0
    return d


def replay(cli_dir, mode, recs):
    path = cli_dir / "stream.jsonl"
    lines = [json.dumps({"op": "config", "mode": mode, "alpha": ALPHA})]
    lines += [r if isinstance(r, str) else json.dumps(r)
              for r in [*insert_records(mode), *recs]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return quiet_cli("replay", "--input", str(path))


def assert_window_alike(cli_dir, mode, values):
    """`query` and a replayed query of the same bounds end alike."""
    rc_q, out_q = quiet_cli("query", "--snapshot", str(cli_dir / f"{mode}.snap"),
                            "--", *map(as_text, values))
    fields = FIELDS[: 4 if mode == "2d" else 2]
    rc_r, out_r = replay(cli_dir, mode, [{"op": "query", **dict(zip(fields, values))}])
    assert rc_q == rc_r and rc_q in (0, 2)
    if rc_q:
        assert out_q == out_r == ""
        return False
    rows = jlines(out_q)
    (rec,) = jlines(out_r)
    jsonschema.validate(rec, REPLAY_SCHEMA)
    assert sum(rec["result"].values()) == rec["m"]
    assert {r["colour"]: r["count"] for r in rows} == rec["result"]
    for r in rows:
        jsonschema.validate(r, QUERY_SCHEMA)
        assert r["m"] == rec["m"]
    return bool(rows)


class TestProperties:
    @pytest.mark.parametrize("mode,values", [
        ("int", [-(2**70), 2**70]),
        ("real", [-math.inf, math.inf]),
        ("2d", [-math.inf, math.inf, -math.inf, math.inf]),
        ("array", [1, 6]),
    ])
    def test_whole_window_answers_alike(self, cli_dir, mode, values):
        assert assert_window_alike(cli_dir, mode, values)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(mode=st.sampled_from(MODES), ends=st.lists(ENDS, min_size=4, max_size=4))
    @example(mode="real", ends=[2**53 + 1, math.inf, 0, 0])  # lo snaps to a point
    def test_windows_answer_alike(self, cli_dir, mode, ends):
        lo, hi, ylo, yhi = ends
        values = [min(lo, hi), max(lo, hi), min(ylo, yhi), max(ylo, yhi)]
        assert_window_alike(cli_dir, mode, values[: 4 if mode == "2d" else 2])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(mode=st.sampled_from(MODES),
           values=st.lists(st.one_of(NUMBERS, JUNK), min_size=1, max_size=5))
    def test_malformed_windows_fail_alike(self, cli_dir, mode, values):
        # any values and any count of them, missing bounds included; an
        # extra bound is an error to `query` only, as replay ignores fields
        assert_window_alike(cli_dir, mode, values[: 4 if mode == "2d" else 2])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        mode=st.sampled_from(MODES),
        recs=st.lists(
            st.one_of(
                st.fixed_dictionaries(
                    {"op": st.sampled_from(["insert", "delete", "modify", "query",
                                            "config", "bogus"])},
                    optional={k: st.one_of(NUMBERS, JUNK)
                              for k in ("t", "y", "i", "c", "expect", "mode", "alpha",
                                        *FIELDS)},
                ),
                st.fixed_dictionaries({}, optional={"t": NUMBERS, "c": st.just("a")}),
                st.sampled_from(["[1, 2]", "not json", '"op"', "[" * 5000, "9" * 5000]),
            ),
            max_size=6,
        ),
    )
    def test_malformed_replay_ends_in_an_exit_code(self, cli_dir, mode, recs):
        replay(cli_dir, mode, recs)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mode=st.sampled_from(MODES),
           values=st.lists(st.one_of(NUMBERS, JUNK), min_size=0, max_size=3))
    def test_malformed_build_ends_in_an_exit_code(self, cli_dir, mode, values):
        path = cli_dir / "events.csv"
        good = "".join(f"{t},{c},{'' if y is None else y}\n" for t, y, c in POINTS[mode])
        path.write_text(good + ",".join(map(as_text, values)) + "\n", encoding="utf-8")
        quiet_cli("build", "--input", str(path), "--mode", mode)
