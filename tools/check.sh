#!/bin/sh
# Local mirror of the CI matrix (.github/workflows/ci.yml).
#
#   tools/check.sh            # everything: lint, tidy, analyze, then
#                             # default + sanitize + tsan suites, the
#                             # fault matrix, the bench smokes (incl.
#                             # perfbench/selftest.py), and the chaos
#                             # soak (tools/chaos_soak.sh)
#   tools/check.sh <regex>    # same, only tests matching regex
#   tools/check.sh -s [re]    # sanitize preset only (old behaviour)
#   tools/check.sh -q         # quick static gate (seconds): the
#                             # cascade linter self-test + tree scan,
#                             # then the determinism checker
#                             # (tools/detcheck.py) against the
#                             # existing compile DB or a plain src/
#                             # tree scan. Intended as a pre-commit
#                             # hook.
#
# Static steps (lint, clang-tidy, the clang analyze preset, the
# determinism scan lane) run first so the cheap failures arrive before
# any compile. Steps whose toolchain is missing locally
# (clang++/clang-tidy on a gcc-only box) are skipped with a notice —
# CI always runs them.
set -e
cd "$(dirname "$0")/.."

# ------------------------------------------------------------------
# Stage 1: Cascade-invariant linter (determinism, iostream,
# metric-name, raw-mutex and the other lint_cascade.py contracts).
# ------------------------------------------------------------------
run_lint() {
    python3 tools/lint_cascade.py --self-test
    python3 tools/lint_cascade.py
}

if [ "${1:-}" = "-q" ]; then
    run_lint
    # Determinism contract, seconds-fast: self-test the checker, then
    # walk the trajectory call graph. Reuses an existing compilation
    # database when one is around; otherwise detcheck falls back to a
    # plain src/ tree scan, so the gate never needs a configure.
    python3 tools/detcheck.py --self-test
    python3 tools/detcheck.py
    echo "check.sh -q: lint + detcheck clean"
    exit 0
fi

if [ "${1:-}" = "-s" ]; then
    cmake --preset sanitize
    cmake --build --preset sanitize -j "$(nproc)"
    if [ -n "${2:-}" ]; then
        ctest --preset sanitize -R "$2"
    else
        ctest --preset sanitize -j "$(nproc)"
    fi
    sh tools/fault_matrix.sh build-sanitize
    exit 0
fi

FILTER="${1:-}"

run_lint

# ------------------------------------------------------------------
# Stage 2: clang-tidy over src/ tools/ bench/ (needs the compilation
# database the default preset exports).
# ------------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset default
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build -quiet \
            "$(pwd)/(src|tools|bench)/.*\.(cc|cpp)$"
    else
        find src tools bench -name '*.cc' -o -name '*.cpp' \
            | xargs clang-tidy -p build --quiet
    fi
else
    echo "check.sh: clang-tidy not found; skipping (CI runs it)" >&2
fi

# ------------------------------------------------------------------
# Stage 3: Clang thread-safety analysis build (-Werror=thread-safety).
# ------------------------------------------------------------------
if command -v clang++ >/dev/null 2>&1; then
    cmake --preset analyze
    cmake --build --preset analyze -j "$(nproc)"
else
    echo "check.sh: clang++ not found; skipping analyze preset" \
         "(CI runs it, including the seeded-violation negative" \
         "check)" >&2
fi

# ------------------------------------------------------------------
# Stage 4: determinism scan lane — detcheck self-test, clean-tree
# pass, seeded-violation negative check, CSA when clang++ exists
# (tools/scan.sh skips it with a notice otherwise).
# ------------------------------------------------------------------
sh tools/scan.sh

# ------------------------------------------------------------------
# Stage 5: runtime suites — default, ASan/UBSan, TSan.
# ------------------------------------------------------------------
run_preset() {
    preset="$1"
    filter="$2"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    if [ -n "$filter" ]; then
        ctest --preset "$preset" -R "$filter"
    else
        ctest --preset "$preset" -j "$(nproc)"
    fi
}

run_preset default "$FILTER"
run_preset sanitize "$FILTER"
run_preset tsan "$FILTER"

# Fault matrices: ASan tree (legacy lane) + TSan tree (races between
# the training thread, the background checkpoint writer and the
# forked workers' supervision).
sh tools/fault_matrix.sh build-sanitize
TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan.supp halt_on_error=1" \
    sh tools/fault_matrix.sh build-tsan

# Hot-path bench smoke: seconds-long shapes, verifies the runner and
# the JSON it emits stay healthy. Also run it under TSan so the
# parallel GEMM paths see race detection with real thread counts.
cmake --build --preset default -j "$(nproc)" --target bench_hotpath
./build/tools/bench_hotpath --smoke --out build/BENCH_hotpath_smoke.json
cmake --build --preset tsan -j "$(nproc)" --target bench_hotpath
TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan.supp halt_on_error=1" \
    ./build-tsan/tools/bench_hotpath --smoke \
    --out build-tsan/BENCH_hotpath_smoke.json
# Serve bench smoke under TSan: concurrent readers allocate their
# query tensors while a live writer applies windows.
cmake --build --preset tsan -j "$(nproc)" --target bench_serve
TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan.supp halt_on_error=1" \
    ./build-tsan/tools/bench_serve --smoke \
    --out build-tsan/BENCH_serve_smoke.json

# The repo benchmark at smoke size (mirrors the CI bench-smoke job):
# metrics, span tree, determinism, gates and compare.py verdicts.
python3 perfbench/selftest.py

# Worker smoke (mirrors the CI worker-chaos-smoke job): a sharded
# 4-worker-process run with one worker SIGKILLed mid-epoch must fold
# the dead worker's shards into the survivors and save a model
# byte-identical to the unkilled 1-worker reference.
cmake --build --preset default -j "$(nproc)" --target cascade_train_cli
WORKER_WORK="$(mktemp -d)"
WORKER_ARGS="--dataset wiki --scale 60 --epochs 2 --seed 42 \
    --policy cascade --shards 4"
./build/tools/cascade_train $WORKER_ARGS --workers 1 \
    --save "$WORKER_WORK/ref.model" >/dev/null
CASCADE_FAULT_WORKER_KILL_NTH="5@1" \
    ./build/tools/cascade_train $WORKER_ARGS --workers 4 \
    --save "$WORKER_WORK/killed.model" >"$WORKER_WORK/killed.log" 2>&1
grep -q "worker_deaths=1 " "$WORKER_WORK/killed.log"
cmp "$WORKER_WORK/ref.model" "$WORKER_WORK/killed.model"
rm -rf "$WORKER_WORK"
echo "check.sh: worker smoke passed (1 of 4 killed, bit-identical)"

# Serve smoke (mirrors the CI serve-smoke job): train and save a
# model, export the dataset as an event log, then serve it out-of-core
# over a unix socket — cascade_serve --smoke round-trips a real
# protocol client (stats/embed/score/shutdown) in-process. Plus the
# engine-level bench smoke with its serve==offline exact-match gate.
cmake --build --preset default -j "$(nproc)" \
    --target cascade_serve_cli bench_serve cascade_train_cli
SERVE_WORK="$(mktemp -d)"
SERVE_ARGS="--dataset wiki --scale 100 --seed 42"
./build/tools/cascade_train $SERVE_ARGS --epochs 1 --policy cascade \
    --save "$SERVE_WORK/m.model" >/dev/null
./build/tools/cascade_train $SERVE_ARGS \
    --export-eventlog "$SERVE_WORK/wiki.cevl" >/dev/null
./build/tools/cascade_serve $SERVE_ARGS --load "$SERVE_WORK/m.model" \
    --eventlog "$SERVE_WORK/wiki.cevl" --socket "$SERVE_WORK/s.sock" \
    --smoke | grep -q "^serve "
./build/tools/bench_serve --smoke --out build/BENCH_serve_smoke.json
rm -rf "$SERVE_WORK"
echo "check.sh: serve smoke passed (socket round-trip + exact match)"

# Chaos soak: seeded SIGKILLs against the real CLI (some inside the
# checkpoint write window), every relaunch resumes, worker processes
# are killed by PID (section 5), and the final trajectory must be
# byte-identical to an uninterrupted run.
cmake --build --preset default -j "$(nproc)" \
    --target cascade_train_cli chaos_kill chaos_worker_kill
sh tools/chaos_soak.sh build
