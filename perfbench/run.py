"""rangemaj benchmark: four closed-loop workloads, exact-answer check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query_1d --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One workload runs in one single-threaded process with one client: the
next call starts only when the previous one has returned. The process
imports rangemaj from ``src/`` of the checkout and nothing else. It
generates its inputs from ``--seed``, sets the structure up three times
(``setup_s`` is the median) and runs the op stream for ``--seconds``.
Between timed chunks it replays the ops just run on the reference
models in ``check.py`` and counts every exception or wrong answer as
failed. Between chunks it also times a fixed probe (``speed.py``), and
every reported time is scaled to the reference machine's full speed.

With ``--trace 1`` the run wraps the boundaries between rangemaj's
modules (see ``tracing.py``), sets up once, and reports per-layer
metrics instead; its end-to-end numbers, minus an untraced run's, are
the tracing overhead. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. The line before it holds
the full detail, including metrics not gated by BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import check
from speed import REF_PROBE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Peak RSS is read once this many ops have run. Python's heap keeps
# growing with allocation churn, so a high-water mark read at the end
# would grow with the number of ops that fitted in the run, that is
# with speed.
RSS_OPS = 9000
WORKLOAD_NAMES = ("query_1d", "churn_1d", "array_edit", "planar_rect")
# the metrics BENCHMARK.json gates; each exists on every workload
END_TO_END = ("setup_s", "query_p50_us", "query_p99_us", "query_mean_us",
              "ops_per_s", "peak_rss_mb")


def load_program():
    """Import rangemaj from this checkout's ``src/``, nowhere else."""
    pkg = ROOT / "src" / "rangemaj"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no rangemaj sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import rangemaj

    if Path(rangemaj.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"rangemaj imported from {rangemaj.__file__}, not {pkg}")
    return rangemaj


def environment() -> dict:
    try:
        from rangemaj.backend import BACKEND as backend
    except ImportError:
        backend = None
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
    }


def pctl(samples, frac):
    """Nearest-rank percentile of a sorted list."""
    return samples[max(0, math.ceil(frac * len(samples)) - 1)]


def measure(wl, seconds, workdir, tracer=None, repeats=SETUP_REPEATS, corrupt=None):
    """Set ``wl`` up ``repeats`` times, then run its stream for ``seconds``.

    The machine-speed probe (``speed.py``) runs before and after every
    set-up and between chunks of the stream; a time's ``scale`` is the
    reference probe time over the mean of the two probes around it. Each
    chunk is checked against the workload's reference model once it has
    run, outside the timed region, so the process holds no growing log
    of answers. ``corrupt`` may edit a chunk's (op, outcome) log before
    it is checked. Returns the set-ups as (scale, seconds), the chunks as
    (scale, latencies by op class, ops, seconds), ops attempted, ops
    failed, failure notes and the peak RSS in KiB once ``RSS_OPS`` ops
    have run (at the end if fewer did).
    """
    clock = time.perf_counter

    def scale(before, after):
        return 2 * REF_PROBE_S / (before + after)

    wl.prepare(workdir)
    setups = []
    obj = None
    for _ in range(repeats):
        obj = None
        gc.collect()
        before = probe(clock)
        if tracer:
            tracer.begin("setup")
        t0 = clock()
        obj = wl.setup()
        t1 = clock()
        if tracer:
            tracer.end()
        setups.append((scale(before, probe(clock)), t1 - t0))
    model = wl.model()
    gc.collect()

    methods = wl.methods(obj)
    chunks = []
    attempted = failed = 0
    notes = []
    elapsed = 0.0
    done = False
    rss_kib = None
    before = probe(clock)
    for chunk in wl.ops():
        lat = {"query": array("d"), "update": array("d")}
        log = []
        start = clock()
        for op in chunk:
            fn, args = methods[op[0]], op[1:]
            kind = "query" if op[0] == "q" else "update"
            if tracer:
                tracer.begin(kind)
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # counted as failed, reported below
                out = exc
            t1 = clock()
            if tracer:
                tracer.end()
            lat[kind].append(t1 - t0)
            log.append((op, out))
            if elapsed + (t1 - start) >= seconds:
                done = True
                break
        wall = clock() - start
        elapsed += wall
        after = probe(clock)
        chunks.append((scale(before, after), lat, len(log), wall))
        before = after
        if corrupt:
            corrupt(log)
        f, n = check.replay(model, log, first=attempted, limit=5 - len(notes))
        attempted += len(log)
        failed += f
        notes += n
        if rss_kib is None and attempted >= RSS_OPS:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if done:
            break
    if rss_kib is None:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return setups, chunks, attempted, failed, notes, rss_kib


def end_to_end(setups, chunks, attempted, failed, rss_kib):
    """Every end-to-end metric: name -> (value, unit, samples).

    Every time is multiplied by its set-up's or chunk's probe ``scale``:
    it reads as it would on the reference machine at full speed.
    ``ops_per_s`` is the median over the chunks of each chunk's ops per
    scaled second: a chunk holds about 300 ops, so the amortised cost of
    rebuilds and respreads stays in it, while the rare chunk that holds
    one outsized respread does not swing the run.
    """
    out = {"setup_s": (statistics.median(k * t for k, t in setups), "s", len(setups))}
    for kind in ("query", "update"):
        xs = sorted(k * x for k, lat, _, _ in chunks for x in lat[kind])
        if xs:
            out[f"{kind}_p50_us"] = (statistics.median(xs) * 1e6, "us", len(xs))
            out[f"{kind}_p99_us"] = (pctl(xs, 0.99) * 1e6, "us", len(xs))
            out[f"{kind}_mean_us"] = (statistics.fmean(xs) * 1e6, "us", len(xs))
    rates = [n / (k * t) for k, _, n, t in chunks if n]
    out["ops_per_s"] = (statistics.median(rates), "1/s", len(rates))
    out["peak_rss_mb"] = (rss_kib / 1024, "MiB", 1)
    out["error_rate"] = (failed / attempted, "ratio", attempted)
    return out


def run_workload(name, seed, seconds, trace, sizes=None, corrupt=None):
    """One measured run; returns (result line, detail).

    ``sizes`` overrides the workload's default sizes (the self-test runs
    tiny ones); ``corrupt`` is passed to ``measure``.
    """
    import workloads

    wl = workloads.WORKLOADS[name](seed, **(sizes or {}))
    env = environment()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        skip = ("counted_set",) if env["backend"] == "native" else ()
        tracer.install(skip_layers=skip)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, chunks, attempted, failed, notes, rss = measure(
            wl, seconds, str(workdir), tracer, 1 if trace else SETUP_REPEATS, corrupt)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(setups, chunks, attempted, failed, rss)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **env,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in e2e.items()},
        "failures": notes,
        # reference probe time over the probe time, median over the chunks
        "speed_scale": statistics.median(k for k, *_ in chunks),
    }
    if tracer:
        metrics, absent = tracer.metrics(detail["speed_scale"])
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{name}-seed{seed}.npz"
        tracer.save(spans)
        detail.update(per_layer=metrics, absent=absent, spans=str(spans.relative_to(ROOT)),
                      spans_kept=len(tracer.spans), spans_dropped=tracer.dropped)
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def report(detail) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}  "
          f"python {detail['python']}  backend {detail['backend']}  "
          f"nproc {detail['nproc']}")
    rows = [(k, m["value"], m["unit"], m["samples"])
            for k, m in detail["end_to_end"].items()]
    rows += [(k, m["value"], m["unit"], "") for k, m in detail.get("per_layer", {}).items()]
    rows += [(k, "absent", "", "") for k in detail.get("absent", [])]
    for k, v, u, n in rows:
        v = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"  {k:32s} {v:>14s} {u:9s} {n}")
    for note in detail["failures"]:
        print(f"  FAILED {note}")


def run_all(seed, seconds) -> int:
    """Every workload in its own process, untraced then traced."""
    code = 0
    overhead = {}
    for name in WORKLOAD_NAMES:
        details = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-2]))
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                code = 1
                break
            details.append(json.loads(lines[-2]))
        if len(details) == 2:
            plain, traced = (d["end_to_end"] for d in details)
            overhead[name] = {k: traced[k]["value"] - plain[k]["value"]
                              for k in plain if k in traced}
    print("tracing overhead (traced minus untraced):")
    for name, diffs in overhead.items():
        for k, v in diffs.items():
            print(f"  {name:12s} {k:20s} {v:+.6g}")
    print(json.dumps({"ok": code == 0, "tracing_overhead": overhead}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import rangemaj: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(detail)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
