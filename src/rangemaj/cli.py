"""Command line front end: build/query/replay over event logs, plus a
selftest entry point.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 constraint
violation (duplicate or missing coordinate).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from fractions import Fraction

from . import snapshot as snap_mod
from .colour_array import DynamicColourArray
from .errors import DuplicateKeyError
from .fuzz import FuzzDriver, LemmaAuditError
from .planar import MajorityIndex2D
from .snapshot import SnapshotError, parse_alpha
from .tree import MajorityIndex

log = logging.getLogger("rangemaj")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CONSTRAINT = 3


class InputError(Exception):
    """Malformed input; message already names the offending line."""


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


# ---- input parsing ----

def _coord(text, mode: str, lineno: int = 0):
    where = f"line {lineno}: " if lineno else ""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        val = text
    else:
        s = str(text).strip()
        try:
            val = int(s, 10)
        except ValueError:
            if mode == "int":
                raise InputError(f"{where}integer coordinate expected, got {s!r}")
            try:
                val = float(s)
            except ValueError:
                raise InputError(f"{where}bad coordinate {s!r}") from None
    if mode == "int":
        if isinstance(val, float):
            raise InputError(f"{where}integer coordinate expected, got {val!r}")
        return val
    out = float(val)
    if not math.isfinite(out):
        raise InputError(f"{where}non-finite coordinate {out!r}")
    return out


def _iter_csv(path: str, skip_header: bool):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            lineno = reader.line_num
            if skip_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise InputError(f"line {lineno}: need timestamp,category")
            y = row[2].strip() if len(row) > 2 and row[2].strip() else None
            yield lineno, row[0].strip(), row[1].strip(), y


def _iter_jsonl(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"line {lineno}: bad JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise InputError(f"line {lineno}: expected a JSON object")
            t = rec.get("timestamp", rec.get("t"))
            c = rec.get("category", rec.get("c"))
            if c is None:
                raise InputError(f"line {lineno}: missing category")
            yield lineno, t, str(c), rec.get("y")


def _read_events(path: str, fmt: str | None, skip_header: bool):
    if fmt is None:
        fmt = "jsonl" if path.endswith((".jsonl", ".json", ".ndjson")) else "csv"
    if fmt == "csv":
        yield from _iter_csv(path, skip_header)
    else:
        yield from _iter_jsonl(path)


# ---- build ----

def _build_object(args):
    events = _read_events(args.input, args.format, args.header)
    alpha = parse_alpha(args.alpha)
    mode = args.mode
    if mode == "array":
        colours = (c for _lineno, _t, c, _y in events)
        return DynamicColourArray.from_colours(colours, alpha), alpha

    if mode == "2d":
        pts = []
        for lineno, t, c, y in events:
            if t is None:
                raise InputError(f"line {lineno}: missing timestamp")
            if y is None:
                raise InputError(f"line {lineno}: 2-D mode needs a second coordinate")
            pts.append((_coord(t, "real", lineno), _coord(y, "real", lineno), c))
        return MajorityIndex2D.build(pts, alpha), alpha

    pts = []
    seen = {}
    for lineno, t, c, y in events:
        if t is None:
            raise InputError(f"line {lineno}: missing timestamp")
        x = _coord(t, mode, lineno)
        if x in seen:
            raise DuplicateKeyError(
                f"line {lineno}: coordinate {x!r} already used on line {seen[x]}"
            )
        seen[x] = lineno
        pts.append((x, c))
    kind = "float" if mode == "real" else mode
    return MajorityIndex.build(pts, alpha, key_kind=kind), alpha


def _summary(obj, mode: str, alpha: Fraction) -> dict:
    if mode == "array":
        n = len(obj)
        colours = obj.engine.registry.live_count
        height = obj.engine.height
    elif mode == "2d":
        n = len(obj)
        colours = obj.registry.live_count
        depths = obj.membership_depths()
        height = max(depths.values()) if depths else None
    else:
        n = len(obj)
        colours = obj.registry.live_count
        height = obj.height
    return {
        "n": n,
        "colours": colours,
        "height": height,
        "mode": mode,
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
    }


def cmd_build(args) -> int:
    obj, alpha = _build_object(args)
    summary = _summary(obj, args.mode, alpha)
    if args.snapshot:
        snap_mod.save(obj, args.snapshot, args.mode)
        summary["snapshot"] = args.snapshot
    print(json.dumps(summary))
    return EXIT_OK


# ---- query ----

def _query_m(obj, mode: str, bounds) -> int:
    if mode == "array":
        i, j = bounds
        return j - i + 1
    if mode == "2d":
        return obj.rect_count(*bounds)
    lo, hi = bounds
    return obj.F.count_range(lo, hi)


def cmd_query(args) -> int:
    obj, mode = snap_mod.load(args.snapshot)
    vals = args.bounds
    if mode == "2d":
        if len(vals) != 4:
            raise InputError("2-D query needs lo hi ylo yhi")
        b = tuple(_coord(v, "real") for v in vals)
        bounds = (b[0], b[1], b[2], b[3])
        if b[0] > b[1] or b[2] > b[3]:
            counts = {}
        else:
            counts = obj.query_counts(*bounds)
    elif mode == "array":
        if len(vals) != 2:
            raise InputError("array query needs positions i j")
        try:
            i, j = (int(str(v), 10) for v in vals)
        except ValueError as exc:
            raise InputError(f"bad position: {exc}") from None
        try:
            counts = obj.query_counts(i, j)
        except IndexError as exc:
            raise InputError(str(exc)) from None
        bounds = (i, j)
    else:
        if len(vals) != 2:
            raise InputError("query needs bounds lo hi")
        lo = _coord(vals[0], mode)
        hi = _coord(vals[1], mode)
        bounds = (lo, hi)
        counts = obj.query_counts(lo, hi) if lo <= hi else {}
    m = _query_m(obj, mode, bounds) if counts else 0
    for colour in sorted(counts):
        cnt = counts[colour]
        print(json.dumps(
            {"colour": colour, "count": cnt, "fraction": cnt / m, "m": m}
        ))
    return EXIT_OK


# ---- replay ----

def _replay_query(obj, mode: str, rec, lineno: int) -> tuple[dict, int]:
    if mode == "array":
        i, j = rec.get("lo"), rec.get("hi")
        if not isinstance(i, int) or not isinstance(j, int):
            raise InputError(f"line {lineno}: array query needs integer lo/hi")
        try:
            counts = obj.query_counts(i, j)
        except IndexError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        return counts, max(j - i + 1, 0)
    if mode == "2d":
        try:
            box = (rec["lo"], rec["hi"], rec["ylo"], rec["yhi"])
        except KeyError as exc:
            raise InputError(f"line {lineno}: query missing {exc}") from None
        counts = obj.query_counts(*box)
        return counts, obj.rect_count(*box)
    lo, hi = rec.get("lo"), rec.get("hi")
    if lo is None or hi is None:
        raise InputError(f"line {lineno}: query needs lo and hi")
    counts = obj.query_counts(lo, hi)
    return counts, obj.F.count_range(lo, hi)


def cmd_replay(args) -> int:
    alpha = parse_alpha(args.alpha)
    mode = args.mode
    obj = None
    failures = 0
    qnum = 0
    with open(args.input, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"line {lineno}: bad JSON ({exc})") from None
            if not isinstance(rec, dict) or "op" not in rec:
                raise InputError(f"line {lineno}: record needs an 'op' field")
            op = rec["op"]

            if op == "config":
                if obj is not None:
                    raise InputError(f"line {lineno}: config must precede ops")
                if "alpha" in rec and not args.alpha_given:
                    alpha = parse_alpha(rec["alpha"])
                if "mode" in rec and not args.mode_given:
                    mode = rec["mode"]
                    if mode not in snap_mod.MODES:
                        raise InputError(f"line {lineno}: unknown mode {mode!r}")
                continue

            if obj is None:
                if mode == "array":
                    obj = DynamicColourArray(alpha)
                elif mode == "2d":
                    obj = MajorityIndex2D(alpha)
                else:
                    obj = MajorityIndex(
                        alpha, key_kind="float" if mode == "real" else mode
                    )

            def need(field):
                if field not in rec:
                    raise InputError(f"line {lineno}: op {op!r} needs field {field!r}")
                return rec[field]

            try:
                if op == "insert":
                    if mode == "array":
                        i = rec.get("i", len(obj) + 1)
                        obj.insert(i, str(need("c")))
                    elif mode == "2d":
                        obj.insert(need("t"), need("y"), str(need("c")))
                    else:
                        obj.insert(need("t"), str(need("c")))
                elif op == "delete":
                    obj.delete(need("i") if mode == "array" else need("t"))
                elif op == "modify":
                    if mode == "array":
                        obj.modify(need("i"), str(need("c")))
                    elif mode == "2d":
                        raise InputError(f"line {lineno}: modify unsupported in 2-D replay")
                    else:
                        t, c = need("t"), str(need("c"))
                        obj.delete(t)
                        obj.insert(t, c)
                elif op == "query":
                    qnum += 1
                    counts, m = _replay_query(obj, mode, rec, lineno)
                    out = {"q": qnum, "line": lineno, "m": m, "result": counts}
                    if "expect" in rec:
                        want = rec["expect"]
                        if isinstance(want, dict):
                            ok = {str(k): v for k, v in want.items()} == counts
                        else:
                            ok = set(map(str, want)) == set(counts)
                        out["ok"] = ok
                        if not ok:
                            failures += 1
                    print(json.dumps(out))
                else:
                    raise InputError(f"line {lineno}: unknown op {op!r}")
            except DuplicateKeyError as exc:
                raise DuplicateKeyError(f"line {lineno}: {exc}") from None
            except KeyError as exc:
                raise KeyError(f"line {lineno}: {exc.args[0]}") from None
            except (TypeError, ValueError) as exc:
                raise InputError(f"line {lineno}: {exc}") from None
    if failures:
        print(f"error: {failures} of {qnum} replayed queries mismatched",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---- selftest ----

def cmd_selftest(args) -> int:
    summary = {}
    try:
        for alpha in (Fraction(1, 2), Fraction(1, 10)):
            driver = FuzzDriver(
                alpha,
                key_kind="int",
                seed=args.seed,
                lemma_audits=True,
                audit_every=max(args.iters // 8, 1),
            )
            driver.run(args.iters)
            key = f"alpha_{alpha.numerator}_{alpha.denominator}"
            summary[key] = {
                "ops": driver.ops,
                "general_queries": driver.general_queries,
                "lemma_checks": driver.auditor.checks,
            }
    except (AssertionError, LemmaAuditError) as exc:
        print(json.dumps({"ok": False, "seed": args.seed, "error": str(exc)}))
        return EXIT_VERIFY
    print(json.dumps({"ok": True, "seed": args.seed, "iters": args.iters, **summary}))
    return EXIT_OK


# ---- wiring ----

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rangemaj",
        description="Range majority index over event logs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index from CSV/JSONL events")
    b.add_argument("--input", required=True)
    b.add_argument("--alpha", default="1/2")
    b.add_argument("--mode", choices=snap_mod.MODES, default="int")
    b.add_argument("--snapshot", help="write the built index here")
    b.add_argument("--format", choices=("csv", "jsonl"), default=None,
                   help="input format (default: by file extension)")
    b.add_argument("--header", action="store_true",
                   help="skip the first CSV row")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="query a snapshot")
    q.add_argument("--snapshot", required=True)
    q.add_argument("bounds", nargs="+",
                   help="lo hi (1-D, array) or lo hi ylo yhi (2-D)")
    q.set_defaults(fn=cmd_query)

    r = sub.add_parser("replay", help="apply a JSONL op stream")
    r.add_argument("--input", required=True)
    r.add_argument("--alpha", default="1/2")
    r.add_argument("--mode", choices=snap_mod.MODES, default="int")
    r.set_defaults(fn=cmd_replay)

    st = sub.add_parser("selftest", help="oracle-equivalence and bound audits")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--iters", type=int, default=3000)
    st.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("RANGE_MAJ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.alpha_given = any(a == "--alpha" or a.startswith("--alpha=") for a in argv)
    args.mode_given = any(a == "--mode" or a.startswith("--mode=") for a in argv)
    log.debug("command %s", args.command)
    try:
        return args.fn(args)
    except (InputError, SnapshotError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except FileNotFoundError as exc:
        return _fail(f"cannot open {exc.filename}", EXIT_INPUT)
    except DuplicateKeyError as exc:
        return _fail(str(exc), EXIT_CONSTRAINT)
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        return _fail(f"absent coordinate: {detail}", EXIT_CONSTRAINT)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
