#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny scale (a few seconds per run).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, passes its output checks and
   emits exactly the metrics BENCHMARK.json names, each with its unit.
2. Negative controls: a τ above the served model's bound trips the
   zero-fallback check on every workload, and a skipped insert in the
   replay trips the fingerprint check on `ingest_mixed`.

Exits non-zero when any of these fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["point_estimate", "batch_estimate", "ingest_mixed"]


def run(workload, trace, inject=None, seed=3):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[2:])} exited {p.returncode}:\n{p.stderr[-3000:]}")
    lines = p.stdout.strip().split("\n")
    return json.loads(lines[-1]), lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            result, lines = run(w, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0,
                   f"{w} trace={trace}: every output check passes")
            expect(got == wanted[trace],
                   f"{w} trace={trace}: emits every named metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{w} trace={trace}: every value is a number")

    for w in WORKLOADS:
        result, lines = run(w, 0, inject="tau-above-bound")
        tripped = any(l.startswith("check zero_fallbacks FAILED") for l in lines)
        expect(not result["correct"] and tripped,
               f"{w}: a tau above the bound trips the zero-fallback check")

    result, lines = run("ingest_mixed", 0, inject="skip-insert")
    tripped = any(l.startswith("check fingerprint FAILED") for l in lines)
    expect(not result["correct"] and tripped,
           "ingest_mixed: a skipped insert trips the fingerprint check")

    if failures:
        sys.exit(f"{len(failures)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
