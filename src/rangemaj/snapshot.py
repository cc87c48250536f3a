"""Snapshot files: a versioned JSONL header plus flat point records.

Only the point data and the configuration go to disk; the tree is
rebuilt on load, so file compatibility does not depend on internal
layout. Records are one JSON object per line, LF-terminated, UTF-8.
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
VERSION = 1
MODES = ("real", "int", "2d", "array")


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


def save(obj, path, mode: str) -> None:
    if mode not in MODES:
        raise SnapshotError(f"unknown mode {mode!r}")
    if mode == "array":
        count = len(obj)
        records = ({"c": obj.get(i)} for i in range(1, count + 1))
    elif mode == "2d":
        count = len(obj)
        records = ({"t": x, "y": y, "c": c} for x, y, c in obj.points())
    else:
        count = len(obj)
        label = obj.registry.label_of
        records = ({"t": x, "c": label(cid)} for x, cid in obj.F.items())
    header = {
        "format": FORMAT,
        "version": VERSION,
        "mode": mode,
        "alpha": _alpha_str(obj.alpha),
        "count": count,
    }
    # written whole to a temporary file beside the target, then renamed
    # onto it: a failed or interrupted save leaves any old file intact.
    # The name is unique per process; a file left by a crashed process
    # of the same id is overwritten.
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(json.dumps(header) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _record(line: str, lineno: int) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"line {lineno}: bad JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise SnapshotError(f"line {lineno}: expected an object")
    return rec


def load(path):
    """Rebuild the structure stored at path. Returns (object, mode)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise SnapshotError("empty snapshot file")
        header = _record(first, 1)
        for field in ("format", "version", "mode", "alpha", "count"):
            if field not in header:
                raise SnapshotError(f"header missing {field!r}")
        if header["format"] != FORMAT:
            raise SnapshotError(f"not a {FORMAT} file")
        if header["version"] != VERSION:
            raise SnapshotError(f"unsupported version {header['version']!r}")
        mode = header["mode"]
        if mode not in MODES:
            raise SnapshotError(f"unknown mode {mode!r}")
        alpha = parse_alpha(header["alpha"])
        want = header["count"]
        if not isinstance(want, int) or want < 0:
            raise SnapshotError(f"bad count {want!r}")

        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec = _record(line, lineno)
            if "c" not in rec:
                raise SnapshotError(f"line {lineno}: missing colour field 'c'")
            rows.append((lineno, rec))

    if len(rows) != want:
        raise SnapshotError(f"header promises {want} records, found {len(rows)}")

    if mode == "array":
        colours = (str(rec["c"]) for _, rec in rows)
        return DynamicColourArray.from_colours(colours, alpha), mode

    if mode == "2d":
        pts = []
        for lineno, rec in rows:
            if "t" not in rec or "y" not in rec:
                raise SnapshotError(f"line {lineno}: 2-D record needs 't' and 'y'")
            pts.append((rec["t"], rec["y"], str(rec["c"])))
        try:
            return MajorityIndex2D.build(pts, alpha), mode
        except DuplicateKeyError:
            raise
        except (TypeError, ValueError) as exc:
            raise SnapshotError(f"bad point data: {exc}") from None

    pts = []
    for lineno, rec in rows:
        if "t" not in rec:
            raise SnapshotError(f"line {lineno}: record needs coordinate 't'")
        pts.append((rec["t"], str(rec["c"])))
    kind = "float" if mode == "real" else mode
    try:
        return MajorityIndex.build(pts, alpha, key_kind=kind), mode
    except DuplicateKeyError:
        raise
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"bad point data: {exc}") from None
