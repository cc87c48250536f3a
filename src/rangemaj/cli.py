"""Command line front end: build/query/replay over event logs, plus a
selftest entry point.

The front end turns text into numbers and errors into exit codes; the
structures decide everything else. ``build`` and ``query`` read each
coordinate or bound with ``_number`` (an int when the text reads as
one, else a float), ``replay`` passes its JSON values as they are, and
the structure's own checks decide what is valid: a bound the library
takes, such as an infinite one in ``real`` and ``2d`` mode, the CLI
takes too. ``query`` and a replayed query answer through ``_window``.

Exit codes: 0 ok, 1 verification failure, 2 input error (malformed or
non-UTF-8 input, or a path that cannot be opened), 3 constraint
violation (duplicate or missing coordinate); never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
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

def _number(text):
    """A coordinate field as a number: a JSON number as it is, text as an
    int when it reads as one and else as a float; ValueError otherwise."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return text
    s = str(text).strip()
    for parse in (int, float):
        try:
            return parse(s)
        except ValueError:
            pass
    raise ValueError(f"bad coordinate {s!r}")


def _iter_csv(path: str, skip_header: bool):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
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
        except csv.Error as exc:  # e.g. a field past the csv module's size limit
            raise InputError(f"line {reader.line_num}: {exc}") from None


def _records(path: str):
    """(line number, object) for each non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            # ValueError also covers an integer past the interpreter's
            # digit limit; RecursionError, arrays nested too deep
            except (ValueError, RecursionError) as exc:
                raise InputError(f"line {lineno}: bad JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise InputError(f"line {lineno}: expected a JSON object")
            yield lineno, rec


def _iter_jsonl(path: str):
    for lineno, rec in _records(path):
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

    pts = []
    lines = []
    for lineno, t, c, y in events:
        if t is None:
            raise InputError(f"line {lineno}: missing timestamp")
        if mode == "2d" and y is None:
            raise InputError(f"line {lineno}: 2-D mode needs a second coordinate")
        try:
            pts.append((_number(t), _number(y), c) if mode == "2d" else (_number(t), c))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        lines.append(lineno)
    try:
        if mode == "2d":
            return MajorityIndex2D.build(pts, alpha), alpha
        return MajorityIndex.build(pts, alpha, snap_mod.KEY_KINDS[mode]), alpha
    except ValueError:
        # the build checks each point once; on a failure, find the first
        # bad line in file order with the structure's own checks
        num = MajorityIndex2D._num
        if mode != "2d":
            coord = MajorityIndex(alpha, snap_mod.KEY_KINDS[mode])._coord
        seen = {}
        for p, lineno in zip(pts, lines):
            try:
                if mode == "2d":
                    x = num(p[0], "x-coordinate")
                    num(p[1], "y-coordinate")
                else:
                    x = coord(p[0])
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
            if x in seen:
                raise DuplicateKeyError(
                    f"line {lineno}: coordinate {x!r} already used on line {seen[x]}"
                ) from None
            seen[x] = lineno
        raise


def _summary(obj, mode: str, alpha: Fraction) -> dict:
    if mode == "array":
        registry, height = obj.engine.registry, obj.engine.height
    elif mode == "2d":
        registry, height = obj.registry, max(obj.membership_depths().values(), default=None)
    else:
        registry, height = obj.registry, obj.height
    return {
        "n": len(obj),
        "colours": registry.live_count,
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

def _bound_fields(mode: str) -> tuple:
    """The names of a query's bounds in mode, in order."""
    return ("lo", "hi", "ylo", "yhi") if mode == "2d" else ("lo", "hi")


def _window(obj, mode: str, bounds, where: str = "") -> tuple[dict, int]:
    """The strict alpha-majorities of one query window with their counts,
    and the window's point count m. The structure checks the bounds."""
    try:
        counts = obj.query_counts(*bounds)
        if mode == "array":
            i, j = bounds
            m = max(j - i + 1, 0)
        elif mode == "2d":
            m = obj.rect_count(*bounds)
        else:  # the stored keys in [lo, hi], counted in F
            lo, hi = obj._query_bound(bounds[0], "lo"), obj._query_bound(bounds[1], "hi")
            m = obj.F.count_range(lo, hi)
    except (ValueError, TypeError, IndexError) as exc:
        raise InputError(f"{where}{exc}") from None
    return counts, m


def cmd_query(args) -> int:
    obj, mode = snap_mod.load(args.snapshot)
    fields = _bound_fields(mode)
    if len(args.bounds) != len(fields):
        raise InputError(f"{mode} query needs bounds {' '.join(fields)}")
    try:
        bounds = [_number(v) for v in args.bounds]
    except ValueError as exc:
        raise InputError(str(exc)) from None
    counts, m = _window(obj, mode, bounds)
    for colour in sorted(counts):
        cnt = counts[colour]
        print(json.dumps(
            {"colour": colour, "count": cnt, "fraction": cnt / m, "m": m}
        ))
    return EXIT_OK


# ---- replay ----

def cmd_replay(args) -> int:
    # a flag beats the stream's config record, which beats the default
    alpha = parse_alpha("1/2" if args.alpha is None else args.alpha)
    mode = args.mode or "int"
    obj = None
    failures = 0
    qnum = 0
    for lineno, rec in _records(args.input):
        where = f"line {lineno}: "
        if "op" not in rec:
            raise InputError(f"{where}record needs an 'op' field")
        op = rec["op"]

        def need(field):
            if field not in rec:
                raise InputError(f"{where}op {op!r} needs field {field!r}")
            return rec[field]

        try:
            if op == "config":
                if obj is not None:
                    raise InputError(f"{where}config must precede ops")
                if "alpha" in rec and args.alpha is None:
                    alpha = parse_alpha(rec["alpha"])
                if "mode" in rec and args.mode is None:
                    mode = rec["mode"]
                    if mode not in snap_mod.MODES:
                        raise InputError(f"{where}unknown mode {mode!r}")
                continue
            if obj is None:
                obj = snap_mod.empty(mode, alpha)

            if op == "insert":
                if mode == "array":
                    obj.insert(rec.get("i", len(obj) + 1), str(need("c")))
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
                    raise InputError(f"{where}modify unsupported in 2-D replay")
                else:
                    t, c = need("t"), str(need("c"))
                    obj.delete(t)
                    obj.insert(t, c)
            elif op == "query":
                qnum += 1
                bounds = [need(f) for f in _bound_fields(mode)]
                counts, m = _window(obj, mode, bounds, where)
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
                raise InputError(f"{where}unknown op {op!r}")
        except DuplicateKeyError as exc:
            raise DuplicateKeyError(f"{where}{exc}") from None
        except KeyError as exc:
            raise KeyError(f"{where}{exc.args[0]}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise InputError(f"{where}{exc}") from None
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
    r.add_argument("--alpha", help="default: the config record's, else 1/2")
    r.add_argument("--mode", choices=snap_mod.MODES,
                   help="default: the config record's, else int")
    r.set_defaults(fn=cmd_replay)

    st = sub.add_parser("selftest", help="oracle-equivalence and bound audits")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--iters", type=int, default=3000)
    st.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("RANGE_MAJ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _parser().parse_args(argv)
    log.debug("command %s", args.command)
    try:
        return args.fn(args)
    except (InputError, SnapshotError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except UnicodeDecodeError as exc:
        # snapshot.load maps its own; build and replay read args.input
        return _fail(f"{args.input}: not UTF-8 text ({exc.reason})", EXIT_INPUT)
    except OSError as exc:
        # not found, a directory, no permission, ...: the path as given
        where = f"cannot open {exc.filename}: " if exc.filename is not None else ""
        return _fail(f"{where}{exc.strerror or exc}", EXIT_INPUT)
    except DuplicateKeyError as exc:
        return _fail(str(exc), EXIT_CONSTRAINT)
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        return _fail(f"absent coordinate: {detail}", EXIT_CONSTRAINT)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
