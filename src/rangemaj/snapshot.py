"""Snapshot files: a versioned JSON header line plus the points as columns.

Only the point data and the configuration go to disk; the tree is
rebuilt on load, so file compatibility does not depend on internal
layout. A file is LF-terminated UTF-8 lines. ``save`` writes version 2:
the header object, then one JSON array per column, in this order:

- ``colours``: the colour table, each distinct colour label once;
- ``t``: the coordinates in ascending order (every mode but ``array``,
  whose positions are implicit);
- ``y``: the second coordinates, point by point as in ``t`` (``2d``
  only);
- ``c``: each point's colour as a position in the colour table.

``load`` parses each column once and checks types, bounds and strict
ascent in one pass over it, with no sort. Each distinct colour is
interned once, taking one registry reference per point of that colour,
and the structure is built from the keys already in order: through
``MajorityIndex._load_sorted`` in the 1-D modes,
``DynamicColourArray.from_colours`` in ``array`` mode and
``MajorityIndex2D.build`` in ``2d``. Version 1 files, one JSON object
per point (``{"t": ..., "y": ..., "c": ...}``), still load: their
records become the same columns, sorted when not already in order, in
front of the same loader.

A malformed file raises ``SnapshotError``, whose message names the
line, or the column and the position in it (counted from 0); a repeated
coordinate raises ``DuplicateKeyError``, as a repeated insert does.

A save writes a temporary file in the target's directory, syncs it and
renames it onto the target, so the target is always a whole snapshot.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .colour_array import DynamicColourArray
from .errors import DuplicateKeyError
from .planar import MajorityIndex2D
from .tree import MajorityIndex

FORMAT = "rangemaj-snapshot"
VERSION = 2
MODES = ("real", "int", "2d", "array")
COLUMNS = {
    "int": ("colours", "t", "c"),
    "real": ("colours", "t", "c"),
    "2d": ("colours", "t", "y", "c"),
    "array": ("colours", "c"),
}


class SnapshotError(ValueError):
    pass


def _alpha_str(alpha: Fraction) -> str:
    return f"{alpha.numerator}/{alpha.denominator}"


def parse_alpha(text) -> Fraction:
    try:
        a = Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SnapshotError(f"bad alpha {text!r}: {exc}") from None
    if not 0 < a < 1:
        raise SnapshotError(f"alpha must be in (0, 1), got {text!r}")
    return a


# ---- save ----

def _table(values):
    """The distinct values in order of first appearance, and each value's
    position among them."""
    pos = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(pos), list(map(pos.__getitem__, values))


def _columns(obj, mode):
    """obj's columns in file order."""
    if mode == "array":
        table, index = _table([obj.get(i) for i in range(1, len(obj) + 1)])
        yield table
    elif mode == "2d":
        pts = list(obj.points())
        table, index = _table([c for _, _, c in pts])
        yield table
        yield [x for x, _, _ in pts]
        yield [y for _, y, _ in pts]
    else:
        keys = list(obj.F)
        ids, index = _table(obj.F.values_from(keys[0], len(keys)) if keys else ())
        yield list(map(obj.registry.label_of, ids))
        yield keys
    yield index


def save(obj, path, mode: str) -> None:
    if mode not in MODES:
        raise SnapshotError(f"unknown mode {mode!r}")
    header = {
        "format": FORMAT,
        "version": VERSION,
        "mode": mode,
        "alpha": _alpha_str(obj.alpha),
        "count": len(obj),
    }
    # written whole to a temporary file beside the target, then renamed
    # onto it: a failed or interrupted save leaves any old file intact.
    # The name is unique per process; a file left by a crashed process
    # of the same id is overwritten.
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(header) + "\n")
            for column in _columns(obj, mode):
                fh.write(json.dumps(column, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # named after the target, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


# ---- load ----

def _parse(line: str, where: str):
    try:
        return json.loads(line)
    # ValueError also covers an integer past the interpreter's digit
    # limit; RecursionError, arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"{where}: bad JSON ({exc})") from None


def _v1_columns(fh, mode: str, count: int) -> dict:
    """A version 1 body, one object per point, as columns in key order,
    with colour labels in place of table positions."""
    rows = []
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        rec = _parse(line, f"line {lineno}")
        if not isinstance(rec, dict):
            raise SnapshotError(f"line {lineno}: expected an object")
        if "c" not in rec:
            raise SnapshotError(f"line {lineno}: missing colour field 'c'")
        if mode == "2d" and ("t" not in rec or "y" not in rec):
            raise SnapshotError(f"line {lineno}: 2-D record needs 't' and 'y'")
        if mode != "array" and "t" not in rec:
            raise SnapshotError(f"line {lineno}: record needs coordinate 't'")
        rows.append(rec)
    if len(rows) != count:
        raise SnapshotError(f"header promises {count} records, found {len(rows)}")
    cols = {name: [rec[name] for rec in rows] for name in COLUMNS[mode][1:]}
    cols["c"] = [str(c) for c in cols["c"]]
    t = cols.get("t")
    try:
        if t is not None and any(a > b for a, b in zip(t, t[1:])):
            order = sorted(range(count), key=t.__getitem__)
            cols = {name: [col[i] for i in order] for name, col in cols.items()}
    except TypeError:
        pass  # keys of mixed types: the key check names the first bad one
    return cols


def _v2_columns(fh, mode: str, count: int) -> dict:
    """A version 2 body as columns, with colour labels in place of table
    positions."""
    names = COLUMNS[mode]
    lines = [line for line in fh if line.strip()]
    if len(lines) != len(names):
        raise SnapshotError(
            f"{mode} snapshot needs {len(names)} column lines ({', '.join(names)}), "
            f"found {len(lines)}"
        )
    cols = {}
    for name, line in zip(names, lines):
        col = _parse(line, f"column {name!r}")
        if not isinstance(col, list):
            raise SnapshotError(f"column {name!r}: expected a JSON array")
        if name != "colours" and len(col) != count:
            raise SnapshotError(
                f"column {name!r} holds {len(col)} entries, header promises {count}"
            )
        cols[name] = col
    table = [str(c) for c in cols.pop("colours")]
    size = len(table)
    for i, k in enumerate(cols["c"]):
        if type(k) is not int or not 0 <= k < size:
            raise SnapshotError(
                f"column 'c', position {i}: colour table position in [0, {size}) "
                f"required, got {k!r}"
            )
    cols["c"] = list(map(table.__getitem__, cols["c"]))
    return cols


def _checked(col, name: str, check, ascending: bool) -> list:
    """col checked in one pass: each entry through check, which returns
    it as stored or raises ValueError, and, when ascending, each above
    the one before it."""
    out = []
    prev = None
    for i, x in enumerate(col):
        try:
            x = check(x)
        except ValueError as exc:
            raise SnapshotError(f"column {name!r}, position {i}: {exc}") from None
        if ascending and out and not x > prev:
            where = f"column {name!r}, position {i}: key {x!r}"
            if x == prev:
                raise DuplicateKeyError(f"{where} repeats the previous key")
            raise SnapshotError(f"{where} is below the previous key {prev!r}")
        out.append(x)
        prev = x
    return out


def _from_columns(mode: str, alpha: Fraction, cols: dict):
    labels = cols["c"]
    if mode == "array":
        return DynamicColourArray.from_colours(labels, alpha)
    if mode == "2d":
        num = MajorityIndex2D._num
        xs = _checked(cols["t"], "t", lambda v: num(v, "x-coordinate"), True)
        ys = _checked(cols["y"], "y", lambda v: num(v, "y-coordinate"), False)
        return MajorityIndex2D.build(zip(xs, ys, labels), alpha)
    idx = MajorityIndex(alpha, key_kind="float" if mode == "real" else mode)
    keys = _checked(cols["t"], "t", idx._coord, True)
    return idx._load_sorted(keys, idx.registry.intern_all(labels))


def load(path):
    """Rebuild the structure stored at path. Returns (object, mode)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first.strip():
                raise SnapshotError("empty snapshot file")
            header = _parse(first, "line 1")
            if not isinstance(header, dict):
                raise SnapshotError("line 1: expected an object")
            for field in ("format", "version", "mode", "alpha", "count"):
                if field not in header:
                    raise SnapshotError(f"header missing {field!r}")
            if header["format"] != FORMAT:
                raise SnapshotError(f"not a {FORMAT} file")
            version = header["version"]
            if type(version) is not int or version not in (1, VERSION):
                raise SnapshotError(f"unsupported version {version!r}")
            mode = header["mode"]
            if mode not in MODES:
                raise SnapshotError(f"unknown mode {mode!r}")
            alpha = parse_alpha(header["alpha"])
            count = header["count"]
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise SnapshotError(f"bad count {count!r}")
            read = _v1_columns if version == 1 else _v2_columns
            cols = read(fh, mode, count)
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"not UTF-8 text ({exc})") from None
    return _from_columns(mode, alpha, cols), mode
