#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload

Run from the root of a checkout. Builds the C++ binary from source into
.bench_build/, generates the workload's events from the seed outside
every clock, measures one run, and prints two JSON lines: a report
(gates, metrics, counts, environment) and, last, the result
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Exits 0 only if every correctness gate passed; exits 2
without a result if the build or the input cannot be made.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within this many seconds of starting, build excluded.
RUN_LIMIT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                stdin=subprocess.DEVNULL).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            fail(f"build step failed ({' '.join(cmd)})")


def source_sha256():
    """Hash of the sources and build files the binary is made of."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(f for f in filenames if not f.endswith(".md")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unavailable"
    return lines[1]


def call(cmd, deadline):
    """Run the binary; returns (exit code, stdout). Kills it at deadline."""
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             stdin=subprocess.DEVNULL, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 3)
    return out.returncode, out.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_one(spec, workload, args):
    deadline = time.monotonic() + RUN_LIMIT_S
    data_dir = os.path.join(BUILD, "data")
    os.makedirs(data_dir, exist_ok=True)
    tag = f"{workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    path = os.path.join(data_dir, tag + ".bin")
    smoke = ["--smoke"] if args.smoke else []
    try:
        rc, out = call([BINARY, "gen", "--workload", workload, "--seed",
                        str(args.seed), "--out", path] + smoke, deadline)
        gen = last_json(out)
        if rc != 0 or gen is None:
            fail(f"input generation failed for {workload}")
        cmd = [BINARY, "run", "--workload", workload, "--input", path,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--expect-crc", gen["crc32"],
               "--perturb", args.perturb] + smoke
        if args.trace:
            spans_dir = os.path.join(BUILD, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans-out", os.path.join(spans_dir, tag + ".json")]
        rc, out = call(cmd, deadline)
    finally:
        if os.path.exists(path):
            os.remove(path)
    report = last_json(out)
    if report is None or rc not in (0, 1):
        fail(f"{workload}: the binary exited {rc} without a report")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        v = report["metrics"].get(m["name"])
        if isinstance(v, (int, float)) and math.isfinite(v):
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        else:
            missing.append(m["name"])
    report["gates"]["metrics_emitted"] = not missing
    if missing:
        log(f"{workload}: metrics missing or not finite: {missing}")
        report["failed"] += 1
    report["correct"] = report["failed"] == 0
    report["metrics"] = metrics
    report["env"].update({"git_sha": git_sha(),
                          "source_sha256": source_sha256(),
                          "seconds": args.seconds})
    print(json.dumps({"report": report}), flush=True)
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long input sizes (self-test)")
    p.add_argument("--perturb", choices=("none", "loss", "answer"),
                   default="none",
                   help="corrupt one loss or answer; the run must fail")
    args = p.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        fail(f"unknown workload {args.workload}; one of {names} or all")
    build()

    ok = True
    for workload in todo:
        result = run_one(spec, workload, args)
        ok = ok and result["correct"]
        if len(todo) > 1:
            for name, m in result["metrics"].items():
                log(f"{workload:24s} {name:28s} {m['value']:.6g} {m['unit']}")
            log(f"{workload:24s} attempted={result['attempted']} "
                f"failed={result['failed']}")
        print(json.dumps(result), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
