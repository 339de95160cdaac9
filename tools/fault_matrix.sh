#!/bin/sh
# Fault-matrix driver: run the training CLI under representative
# CASCADE_FAULT_* configurations and assert the fault-tolerance
# contract end to end (exit codes, checkpoint-write retries and
# degradation markers, resume, worker deaths).
#
# This deliberately drives the binary rather than running ctest under
# an armed environment: env-configured faults are process-global, so
# they would fire inside unrelated tests that never expect them. The
# unit/integration coverage for the same machinery lives in
# tests/test_supervisor.cc and tests/test_fault_tolerance.cc.
#
#   tools/fault_matrix.sh [build-dir]     # default: build-sanitize
set -u
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-sanitize}"
BIN="$BUILD_DIR/tools/cascade_train"
if [ ! -x "$BIN" ]; then
    echo "fault_matrix: $BIN not built (run cmake --build $BUILD_DIR)" >&2
    exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# run <name> <expected-exit> <pattern|-> <logfile> -- [ENV=V ...] -- args...
run_case() {
    name="$1"; want_exit="$2"; pattern="$3"; log="$WORK/$4"
    shift 4
    [ "$1" = "--" ] && shift
    envs=""
    while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
        envs="$envs $1"
        shift
    done
    [ "${1:-}" = "--" ] && shift
    if env $envs "$BIN" "$@" >"$log" 2>&1; then
        got_exit=0
    else
        got_exit=$?
    fi
    if [ "$got_exit" -ne "$want_exit" ]; then
        echo "FAIL [$name]: exit $got_exit, expected $want_exit" >&2
        sed 's/^/    /' "$log" >&2
        FAILURES=$((FAILURES + 1))
        return
    fi
    if [ "$pattern" != "-" ] && ! grep -q "$pattern" "$log"; then
        echo "FAIL [$name]: output lacks '$pattern'" >&2
        sed 's/^/    /' "$log" >&2
        FAILURES=$((FAILURES + 1))
        return
    fi
    echo "ok   [$name]"
}

# summary_matches <name> <logfile> <dumpfile> <field>=<counter> ...
# The run's summary line and its --metrics-out dump must agree: each
# summary field equals its counter in the registry (which must exist).
summary_matches() {
    name="$1"; log="$WORK/$2"; dump="$WORK/$3"
    shift 3
    if python3 - "$log" "$dump" "$@" <<'PY'
import json
import sys

log, dump, pairs = sys.argv[1], sys.argv[2], sys.argv[3:]
lines = [l for l in open(log) if l.startswith("dataset=")]
if not lines:
    sys.exit("no summary line in " + log)
fields = dict(kv.split("=", 1) for kv in lines[-1].split())
counters = json.load(open(dump))["counters"]
bad = 0
for pair in pairs:
    field, counter = pair.split("=", 1)
    if counter not in counters or int(fields[field]) != counters[counter]:
        print("    %s=%s but counter %s is %s" % (
            field, fields.get(field), counter, counters.get(counter)))
        bad += 1
sys.exit(1 if bad else 0)
PY
    then
        echo "ok   [$name-registry]"
    else
        echo "FAIL [$name-registry]: summary disagrees with $dump" >&2
        FAILURES=$((FAILURES + 1))
    fi
}

COMMON="--dataset wiki --scale 400 --epochs 1 --seed 42"

# 1. The disk never recovers: checkpoint writes retry, then the run
#    degrades to "checkpointing disabled" and still completes.
run_case write-burst 0 "degraded=checkpointing-disabled checkpointing=disabled" write.log -- \
    CASCADE_FAULT_WRITE_FAIL_NTH=1 CASCADE_FAULT_WRITE_FAIL_COUNT=1000000 -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_burst.bin" \
    --checkpoint-every 1 --retry-max 2 --retry-base-ms 0

# 2. Crash mid-run (exit 3), then resume to completion (exit 0).
run_case crash 3 "rerun with --resume" crash.log -- \
    CASCADE_FAULT_CRASH_BATCH=3 -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_crash.bin" \
    --checkpoint-every 1
run_case crash-resume 0 "degraded=none" resume.log -- -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_crash.bin" \
    --checkpoint-every 1 --resume

# 2b. The same under chunked Cascade_EX (4 chunks of ~109 training
#     events): the crash after batch 14 (ending at event 351) lies in
#     chunk 3, so the resume re-derives a later chunk and its lookup
#     state from the restored batch start. The resumed model must be
#     byte-identical to an uninterrupted run's.
run_case ex-uninterrupted 0 "degraded=none" ex_ref.log -- -- \
    $COMMON --policy cascade-ex --save "$WORK/ex_ref.model"
run_case crash-ex 3 "rerun with --resume" crash_ex.log -- \
    CASCADE_FAULT_CRASH_BATCH=14 -- \
    $COMMON --policy cascade-ex --checkpoint "$WORK/ck_crash_ex.bin" \
    --checkpoint-every 1
run_case crash-resume-ex 0 "resumed at epoch 0 batch 15" resume_ex.log -- -- \
    $COMMON --policy cascade-ex --checkpoint "$WORK/ck_crash_ex.bin" \
    --checkpoint-every 1 --resume --save "$WORK/ex_resumed.model"
if ! cmp -s "$WORK/ex_ref.model" "$WORK/ex_resumed.model"; then
    echo "FAIL [crash-resume-ex]: resumed model differs from the" \
        "uninterrupted run" >&2
    FAILURES=$((FAILURES + 1))
fi

# 3. Injected NaN loss: guard trips, rollback recovers, run completes.
run_case nan-rollback 0 "guard_trips=1" nan.log -- \
    CASCADE_FAULT_NAN_BATCH=2 -- \
    $COMMON --policy cascade --checkpoint-every 2 \
    --metrics-out "$WORK/nan.json"
summary_matches nan-rollback nan.log nan.json guard_trips=guard.trips

# 4. Garbage fault value: strict parsing refuses to run.
run_case garbage-env 1 "invalid integer" garbage.log -- \
    CASCADE_FAULT_NAN_BATCH=banana -- \
    $COMMON --policy tgl

# 5. Typo'd fault variable: warned about, run unaffected.
run_case unknown-var 0 "unrecognized fault variable" typo.log -- \
    CASCADE_FAULT_NAN_BACH=1 -- \
    $COMMON --policy tgl

# 6. Torn write: the only checkpoint save (the final one — the huge
#    cadence suppresses mid-run saves) is cut in half but REPORTS
#    SUCCESS, exactly like a real torn write under power loss. The
#    run finishes happy; only the resume's CRC check can tell, and
#    with a single generation there is nothing older to fall back to.
run_case torn-write 0 "checkpointing=on" torn.log -- \
    CASCADE_FAULT_TORN_WRITE_NTH=1 -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_torn.bin" \
    --checkpoint-every 100000 --checkpoint-keep 1
run_case torn-write-resume 1 "missing or corrupt" torn_resume.log -- -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_torn.bin" \
    --checkpoint-every 100000 --checkpoint-keep 1 --resume

# 7. One ENOSPC on a checkpoint write: fails visibly, absorbed by a
#    checkpoint-write retry, no degradation.
run_case enospc-retry 0 "retries=1" enospc.log -- \
    CASCADE_FAULT_ENOSPC_NTH=1 -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_enospc.bin" \
    --checkpoint-every 1 --retry-base-ms 0 \
    --metrics-out "$WORK/enospc.json"
summary_matches enospc-retry enospc.log enospc.json \
    retries=checkpoint.retries

# 8. One short write (64 of N bytes reach the disk): the checked
#    write path surfaces it as a failure; one retry recovers.
run_case short-write-retry 0 "retries=1" short.log -- \
    CASCADE_FAULT_SHORT_WRITE_BYTES=64 -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_short.bin" \
    --checkpoint-every 1 --retry-base-ms 0

# 9. Newest generation torn after the fact: resume skips it and
#    restores the previous generation instead of dying.
run_case older-gen-setup 0 "checkpointing=on" older_setup.log -- -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_older.bin" \
    --checkpoint-every 1 --checkpoint-keep 3
if ! head -c 40 "$WORK/ck_older.bin" >"$WORK/ck_older.cut" ||
    ! mv "$WORK/ck_older.cut" "$WORK/ck_older.bin"; then
    # An unchecked truncation would leave the head intact and let the
    # resume below "pass" without exercising the fallback at all.
    echo "FAIL [older-gen-tear]: could not truncate $WORK/ck_older.bin" >&2
    FAILURES=$((FAILURES + 1))
fi
run_case older-gen-resume 0 "generation 1" older_resume.log -- -- \
    $COMMON --policy cascade --checkpoint "$WORK/ck_older.bin" \
    --checkpoint-every 1 --checkpoint-keep 3 --resume

# 10. Worker SIGKILLs itself mid-epoch (the cooperative knob — the
#     uncooperative by-PID variant lives in chaos_soak.sh section 5):
#     the supervisor sees the socket close, folds the dead worker's
#     shards into the survivor, and the run completes with the death
#     on the books.
run_case worker-kill-recovers 0 "worker_deaths=1" worker_kill.log -- \
    CASCADE_FAULT_WORKER_KILL_NTH=4@1 -- \
    $COMMON --policy cascade --workers 2 --shards 4 \
    --metrics-out "$WORK/worker_kill.json"
summary_matches worker-kill-recovers worker_kill.log worker_kill.json \
    worker_deaths=worker.deaths

# 11. Worker hangs instead of dying: no EOF ever arrives, so only the
#     heartbeat watchdog can notice. The stall (2s) dwarfs the
#     deadline (200ms); the supervisor must declare the worker dead,
#     SIGKILL it, and finish without it.
run_case worker-hang-watchdog 0 "heartbeat deadline missed" \
    worker_hang.log -- \
    CASCADE_FAULT_WORKER_HANG_MS=3@1=2000 -- \
    $COMMON --policy cascade --workers 2 --shards 4 \
    --worker-heartbeat-ms 200

if [ "$FAILURES" -ne 0 ]; then
    echo "fault_matrix: $FAILURES case(s) failed" >&2
    exit 1
fi
echo "fault_matrix: all cases passed"
