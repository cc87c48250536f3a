"""Quick self-test of the benchmark itself (a few seconds).

    python3 perfbench/selftest.py

Runs all four workloads at tiny sizes, untraced and traced, and checks
that each prints the metrics BENCHMARK.json declares with no failed op.
Feeds the checker one corrupted answer and requires it to be caught,
and requires the benchmark to refuse to run in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits non-zero on
the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

TINY = {
    "query_1d": {"n": 2000, "names": 50},
    "churn_1d": {"n": 2000, "names": 50, "drift": 10},
    "array_edit": {"n": 120, "names": 10},
    "planar_rect": {"n": 300, "names": 5},
}
SECONDS = 0.3


def expect(cond, what) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def corrupt_first_query():
    """A chunk editor that adds a bogus colour to the run's first answer."""
    done = []

    def corrupt(log):
        for k, (op, out) in enumerate(log):
            if op[0] == "q" and not done:
                log[k] = (op, {**out, "no-such-colour": 1})
                done.append(k)

    return corrupt


def main() -> int:
    run.load_program()
    import tracing

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match run.py")
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end metrics match run.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [m[:3] for m in tracing.METRICS],
           "BENCHMARK.json per_layer metrics match tracing.py")

    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            result, detail = run.run_workload(name, 1, SECONDS, trace, TINY[name])
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace} ran clean: {detail['failures']}")
            want = [m[0] for m in tracing.METRICS] if trace else list(run.END_TO_END)
            expect(sorted(result["metrics"]) == sorted(want),
                   f"{name} trace {trace} reports every declared metric")
            if trace:
                expect(not detail["absent"], f"{name}: no per-layer metric absent")
                if name == "query_1d":
                    expect(result["metrics"]["tree.rebuild_calls"]["value"] == 0,
                           "queries trigger no candidate-list rebuild")
            else:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name}: end-to-end metrics are positive")
            print(f"ok  {name} trace {trace}: {result['attempted']} ops")

    result, detail = run.run_workload("query_1d", 2, SECONDS, 0, TINY["query_1d"],
                                      corrupt=corrupt_first_query())
    expect(not result["correct"] and result["failed"] == 1,
           f"checker catches one corrupted answer (failed={result['failed']})")
    print("ok  corrupted answer caught:", detail["failures"][0][:80])

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "query_1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "refuses to run without the program's sources")
    print("ok  refuses to run without src/:", proc.stderr.strip())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
