#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its smoke size, untraced and
traced, through perfbench/run.py, and checks that:
  - every named metric is emitted with its unit (end-to-end ones > 0);
  - the span tree written by the traced run is well formed (children
    inside parents) and its coverage is recomputed to the reported value;
  - the same seed gives the same input CRC and a bit-identical val_loss,
    and another seed gives another input;
  - each correctness gate fires both ways: the clean run passes, and a
    perturbed training loss (a repeated or a traced epoch) or serve
    answer fails the run;
  - compare.py gives the expected verdicts and exit codes.
Exits 0 when everything holds.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS = os.path.join(ROOT, ".bench_build", "spans")
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace=0, perturb="none"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke", "--perturb", perturb]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"no result from {' '.join(cmd)}")
    return p.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(workload, result, wanted, positive):
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    check(not missing, f"{workload}: every metric emitted" + (f" {missing}" if missing else ""))
    units = [m["name"] for m in wanted
             if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    check(not units, f"{workload}: every unit as declared" + (f" {units}" if units else ""))
    if positive:
        zero = [n for n, m in got.items() if not m["value"] > 0]
        check(not zero, f"{workload}: end-to-end metrics never 0" + (f" {zero}" if zero else ""))


def check_spans(workload, seed, reported):
    with open(os.path.join(SPANS, f"{workload}-{seed}-smoke.json")) as f:
        spans = json.load(f)["traceEvents"]
    # One thread: a span's parent is the latest span one level up that
    # started before it.
    spans.sort(key=lambda s: (s["ts"], s["args"]["depth"]))
    bad = 0
    child = [0.0] * len(spans)
    open_at = []
    for i, s in enumerate(spans):
        depth = s["args"]["depth"]
        if depth > len(open_at):
            bad += 1
            continue
        del open_at[depth:]
        open_at.append(i)
        if depth == 0:
            continue
        parent = open_at[depth - 1]
        p = spans[parent]
        if (s["ts"] + 1e-3 < p["ts"]
                or s["ts"] + s["dur"] > p["ts"] + p["dur"] + 1e-3):
            bad += 1
        child[parent] += s["dur"]
    check(spans and bad == 0,
          f"{workload}: {len(spans)} spans, children inside parents")
    per = {}
    for s, c in zip(spans, child):
        if c > 0:
            acc = per.setdefault(s["name"], [0.0, 0.0])
            acc[0] += c
            acc[1] += s["dur"]
    coverage = min(c / d for c, d in per.values())
    check(abs(coverage - reported) < 1e-3 and coverage >= 0.95,
          f"{workload}: coverage {coverage:.4f} recomputed, >= 0.95")


def check_compare():
    """compare.py on synthetic result sets with known verdicts."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    w = spec["workloads"][0]["name"]
    metric = next(m for m in spec["end_to_end"] if m["better"] == "higher")

    def write(dirname, values, crc=lambda seed: f"{seed:08x}"):
        os.makedirs(dirname)
        with open(os.path.join(dirname, "runs.log"), "w") as f:
            for seed, v in enumerate(values):
                rep = {"workload": w, "trace": 0, "correct": True,
                       "env": {"seed": seed, "input_crc32": crc(seed)},
                       "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                                   for m in spec["end_to_end"]}}
                rep["metrics"][metric["name"]]["value"] = v
                f.write(json.dumps({"report": rep}) + "\n")

    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    bound = metric["bound"]
    cases = {
        "improved": [v * (1 + bound / 2) for v in base],
        "worse": [v * (1 - 2 * bound) for v in base],
        "within bound": [v * (1 - bound / 2) for v in base],
    }
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        write(os.path.join(tmp, "base"), base)
        write(os.path.join(tmp, "noisy"), [50.0, 150] * 5)
        for want, values in cases.items():
            write(os.path.join(tmp, want), values)
            p = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                                os.path.join(tmp, "base"), os.path.join(tmp, want)],
                               capture_output=True, text=True)
            row = [l for l in p.stdout.splitlines() if metric["name"] in l]
            check(row and row[0].endswith(want)
                  and p.returncode == (1 if want == "worse" else 0),
                  f"compare.py: verdict '{want}', exit {p.returncode}")
        p = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                            os.path.join(tmp, "noisy"), os.path.join(tmp, "base")],
                           capture_output=True, text=True)
        row = [l for l in p.stdout.splitlines() if metric["name"] in l]
        check(row and row[0].endswith("unresolved"),
              "compare.py: verdict 'unresolved' on a base wider than the bound")
        write(os.path.join(tmp, "other-input"), base,
              crc=lambda seed: "ffffffff" if seed == 3 else f"{seed:08x}")
        p = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                            os.path.join(tmp, "base"),
                            os.path.join(tmp, "other-input")],
                           capture_output=True, text=True)
        row = [l for l in p.stdout.splitlines() if metric["name"] in l]
        check(row and row[0].endswith("inputs differ")
              and "inputs differ on seeds [3]" in p.stdout
              and p.returncode == 1,
              f"compare.py: a seed read another input, no verdict, exit {p.returncode}")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in [w["name"] for w in spec["workloads"]]:
        rc, rep, res = run(w, 7)
        check(rc == 0 and res["correct"] and res["failed"] == 0
              and rep["counts"]["batches_diverged"] == 0,
              f"{w}: clean untraced run passes its gates, repeats identical")
        check_metrics(w, res, spec["end_to_end"], positive=True)
        rc2, rep2, _ = run(w, 7)
        check(rep2["env"]["input_crc32"] == rep["env"]["input_crc32"]
              and rep2["counts"]["val_loss_bits"] == rep["counts"]["val_loss_bits"],
              f"{w}: same seed, same input CRC and bit-identical val_loss")
        _, rep3, _ = run(w, 8)
        check(rep3["env"]["input_crc32"] != rep["env"]["input_crc32"],
              f"{w}: another seed, another input")

        rc, rep, res = run(w, 7, trace=1)
        check(rc == 0 and res["correct"]
              and rep["counts"]["batches_diverged"] == 0
              and rep["gates"]["val_loss_bit_identical"],
              f"{w}: traced loop reproduces the session bit for bit")
        check_metrics(w, res, spec["per_layer"], positive=False)
        check_spans(w, 7, res["metrics"]["trace.coverage"]["value"])

        rc, rep, res = run(w, 7, trace=1, perturb="loss")
        check(rc == 1 and not res["correct"]
              and rep["counts"]["batches_diverged"] >= 1,
              f"{w}: a perturbed traced training loss fails the run")
        rc, rep, res = run(w, 7, perturb="loss")
        check(rc == 1 and not res["correct"]
              and rep["counts"]["batches_diverged"] >= 1
              and not rep["gates"]["train_repeats_bit_identical"],
              f"{w}: a perturbed repeated training loss fails the run")
        rc, rep, res = run(w, 7, perturb="answer")
        check(rc == 1 and not res["correct"]
              and rep["counts"]["answers_mismatched"] >= 1,
              f"{w}: a perturbed serve answer fails the run")
    check_compare()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
