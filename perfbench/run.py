#!/usr/bin/env python3
"""Build and run the served GL-CNN benchmark for one workload.

    python3 perfbench/run.py --workload point_estimate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds `perfbench/` (a package of its
own, path-depending on the repository's crates) with cargo in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload:
`point_estimate`, `batch_estimate` or `ingest_mixed`. `--trace 1` reports
the per-layer metrics and writes the spans under
`$CARGO_TARGET_DIR/perfbench-traces/`. The last line of standard output is
the JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def source_digest():
    """SHA-256 over the sources the benchmark builds, for the run record."""
    h = hashlib.sha256()
    for top in ("Cargo.lock", "Cargo.toml", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["point_estimate", "batch_estimate", "ingest_mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--inject", choices=["tau-above-bound", "skip-insert"])
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("perfbench: no crates/ next to perfbench/; run from a repository checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    work = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "cardest-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--work-dir", work,
        "--trace-dir", os.path.join(target, "perfbench-traces"),
        "--git-rev", git_rev(),
        "--source-digest", source_digest(),
    ]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = {"correct", "attempted", "failed", "metrics"} == set(result)
    except ValueError:
        ok = False
    if run.returncode != 0 or not ok:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
