#!/bin/sh
# Process-level chaos soak: SIGKILL the real training binary at
# seeded-random points — including inside the checkpoint write window
# — relaunch it with --resume-auto each time, and assert the final
# trajectory is BIT-IDENTICAL to an uninterrupted run.
#
# This is the end-to-end proof behind the crash-consistency design
# (DESIGN.md "Surviving real crashes"): the in-process fault knobs
# exercise polite failures, tools/chaos_kill exercises the impolite
# one (SIGKILL, no destructors), and this driver closes the loop by
# comparing the surviving run against a reference run byte for byte.
# Section 5 covers the second fault domain (DESIGN.md "Worker-level
# fault domains"): tools/chaos_worker_kill SIGKILLs individual
# sharded worker processes while the supervisor stays up.
#
#   tools/chaos_soak.sh [build-dir]     # default: build
#
# Environment overrides (all optional):
#   CHAOS_SEED          kill-schedule seed        (default 1234)
#   CHAOS_KILLS         total SIGKILLs            (default 8)
#   CHAOS_WINDOW_KILLS  kills inside the write window (default 2)
#
# Budget: the whole soak is sized to finish well inside 2 minutes so
# it can run as a CI smoke lane.
set -u
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/tools/cascade_train"
KILLER="$BUILD_DIR/tools/chaos_kill"
WORKER_KILLER="$BUILD_DIR/tools/chaos_worker_kill"
for exe in "$BIN" "$KILLER" "$WORKER_KILLER"; do
    if [ ! -x "$exe" ]; then
        echo "chaos_soak: $exe not built (run cmake --build $BUILD_DIR)" >&2
        exit 1
    fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

fail() {
    echo "FAIL [$1]: $2" >&2
    shift 2
    for log in "$@"; do
        sed 's/^/    /' "$log" >&2
    done
    FAILURES=$((FAILURES + 1))
}

SEED="${CHAOS_SEED:-1234}"
KILLS="${CHAOS_KILLS:-8}"
WINDOW_KILLS="${CHAOS_WINDOW_KILLS:-2}"

# Sized so one uninterrupted run takes ~2s with ~40 checkpoint
# commits — enough marker cycles for the kill schedule, small enough
# for CI. The trajectory is deterministic in the seed (and thread
# count, by kernel design), so byte comparison is meaningful.
WORKLOAD="--dataset wiki --scale 40 --epochs 3 --seed 42 \
    --policy cascade --checkpoint-every 5 --checkpoint-keep 3"

# --- 1. Reference run: same workload, never interrupted. -----------
if ! $BIN $WORKLOAD --checkpoint "$WORK/ref_ck.bin" \
        --save "$WORK/ref.model" >"$WORK/ref.log" 2>&1; then
    fail reference "uninterrupted run failed" "$WORK/ref.log"
    echo "chaos_soak: cannot continue without a reference" >&2
    exit 1
fi
echo "ok   [reference]"

# --- 2. Chaos run: $KILLS SIGKILLs, $WINDOW_KILLS inside the write
# window. The injected checkpoint-stage latency widens the write
# window (marker is touched before the latency applies) so window
# kills land reliably; latency never changes the trajectory. The
# writes run on the session's background writer, so at 40ms the gap
# between two windows is just the next snapshot's encode (0.7-2.5ms
# for this workload on a 4-vCPU box), still several times
# chaos_kill's 0.2ms marker poll.
if CASCADE_FAULT_STAGE_LATENCY=checkpoint=40 \
    "$KILLER" --checkpoint "$WORK/chaos_ck.bin" \
        --kills "$KILLS" --window-kills "$WINDOW_KILLS" \
        --seed "$SEED" --round-timeout-s 60 -- \
        $BIN $WORKLOAD --checkpoint "$WORK/chaos_ck.bin" \
        --save "$WORK/chaos.model" >"$WORK/chaos.log" 2>&1; then
    echo "ok   [chaos-run]"
else
    fail chaos-run "chaos_kill exited non-zero" "$WORK/chaos.log"
fi

summary="$(grep '^chaos_kill: kills=' "$WORK/chaos.log" || true)"
echo "     $summary"
case "$summary" in
*"kills=$KILLS"*) echo "ok   [kill-count]" ;;
*) fail kill-count "expected kills=$KILLS in summary" "$WORK/chaos.log" ;;
esac
case "$summary" in
*"window_verified=$WINDOW_KILLS"*) echo "ok   [window-kills]" ;;
*) fail window-kills \
    "expected window_verified=$WINDOW_KILLS in summary" \
    "$WORK/chaos.log" ;;
esac

# Every relaunch after the first kill must actually have resumed, and
# window kills must leave a dirty marker for the next process to find.
if grep -q "resumed at epoch" "$WORK/chaos.log"; then
    echo "ok   [resumes-happened]"
else
    fail resumes-happened "no relaunch ever resumed" "$WORK/chaos.log"
fi
if grep -q "stale checkpoint write marker" "$WORK/chaos.log"; then
    echo "ok   [dirty-marker-detected]"
else
    fail dirty-marker-detected \
        "window kills left no detected dirty marker" "$WORK/chaos.log"
fi

# --- 3. Trajectory equivalence: byte-identical saved model, equal
# final validation loss.
if cmp -s "$WORK/ref.model" "$WORK/chaos.model"; then
    echo "ok   [model-bit-identical]"
else
    fail model-bit-identical \
        "saved models differ between reference and chaos runs" \
        "$WORK/ref.log"
fi
ref_loss="$(sed -n 's/.*val_loss=\([0-9.eE+-]*\).*/\1/p' "$WORK/ref.log" | tail -1)"
chaos_loss="$(sed -n 's/.*val_loss=\([0-9.eE+-]*\).*/\1/p' "$WORK/chaos.log" | tail -1)"
if [ -n "$ref_loss" ] && [ "$ref_loss" = "$chaos_loss" ]; then
    echo "ok   [val-loss-equal] ($ref_loss)"
else
    fail val-loss-equal \
        "val_loss '$chaos_loss' != reference '$ref_loss'" \
        "$WORK/chaos.log"
fi

# --- 4. Torn newest generation: corrupt the head checkpoint of a
# finished run, resume, and verify recovery falls back to the
# previous generation instead of dying or trusting garbage.
if ! $BIN $WORKLOAD --checkpoint "$WORK/torn_ck.bin" \
        >"$WORK/torn_setup.log" 2>&1; then
    fail torn-setup "setup run failed" "$WORK/torn_setup.log"
elif ! head -c 50 "$WORK/torn_ck.bin" >"$WORK/torn_ck.bin.cut" ||
    ! mv "$WORK/torn_ck.bin.cut" "$WORK/torn_ck.bin"; then
    # Without this explicit check a failed truncation (missing head
    # file, full disk) used to leave the checkpoint intact and let
    # the resume "pass" without exercising the fallback path at all
    # — `cmd && cmd` inside an if/else body never fails the script.
    fail torn-truncate \
        "could not truncate the head checkpoint" "$WORK/torn_setup.log"
else
    if $BIN $WORKLOAD --checkpoint "$WORK/torn_ck.bin" --resume \
            >"$WORK/torn_resume.log" 2>&1 &&
        grep -q "generation 1" "$WORK/torn_resume.log" &&
        grep -q "failed the CRC/length check" "$WORK/torn_resume.log"; then
        echo "ok   [torn-newest-fallback]"
    else
        fail torn-newest-fallback \
            "resume did not fall back to generation 1" \
            "$WORK/torn_resume.log"
    fi
fi

# --- 5. Worker fault domains: the same workload sharded across 4
# worker processes, with chaos_worker_kill SIGKILLing 2 of them by
# PID mid-run (uncooperative, wall-clock-timed — the kill can land
# mid-compute or mid-frame). The supervisor must detect each death,
# fold the dead worker's shards into the survivors, and still save a
# model byte-identical to an unkilled sharded run. Exit codes of BOTH
# halves are captured explicitly: the training run goes to the
# background, so a bare `wait` would silently discard its status.
SHARDED="$WORKLOAD --shards 4"
if ! $BIN $SHARDED --workers 1 --save "$WORK/wref.model" \
        >"$WORK/wref.log" 2>&1; then
    fail worker-reference "sharded reference run failed" "$WORK/wref.log"
else
    $BIN $SHARDED --workers 4 \
        --checkpoint "$WORK/wchaos_ck.bin" \
        --save "$WORK/wchaos.model" >"$WORK/wchaos.log" 2>&1 &
    train_pid=$!
    "$WORKER_KILLER" --roster "$WORK/wchaos_ck.bin.workers" \
        --kills 2 --seed "$SEED" --initial-delay-ms 200 \
        >"$WORK/wkill.log" 2>&1
    killer_rc=$?
    wait "$train_pid"
    train_rc=$?
    if [ "$train_rc" -ne 0 ]; then
        fail worker-chaos-run \
            "sharded run exited $train_rc after worker kills" \
            "$WORK/wchaos.log"
    elif [ "$killer_rc" -ne 0 ]; then
        fail worker-chaos-run \
            "chaos_worker_kill exited $killer_rc" "$WORK/wkill.log"
    else
        echo "ok   [worker-chaos-run]"
    fi
    wsummary="$(grep '^chaos_worker_kill: kills=' "$WORK/wkill.log" || true)"
    echo "     $wsummary"
    case "$wsummary" in
    *"kills=2"*"rebalances_seen=2"*) echo "ok   [worker-kill-count]" ;;
    *) fail worker-kill-count \
        "expected kills=2 rebalances_seen=2" "$WORK/wkill.log" ;;
    esac
    if grep -q "worker_deaths=2 worker_rebalances=2" "$WORK/wchaos.log"; then
        echo "ok   [worker-deaths-reported]"
    else
        fail worker-deaths-reported \
            "summary missing worker_deaths=2 worker_rebalances=2" \
            "$WORK/wchaos.log"
    fi
    if cmp -s "$WORK/wref.model" "$WORK/wchaos.model"; then
        echo "ok   [worker-chaos-model-bit-identical]"
    else
        fail worker-chaos-model-bit-identical \
            "model after 2 worker SIGKILLs differs from unkilled run" \
            "$WORK/wchaos.log"
    fi
fi

if [ "$FAILURES" -ne 0 ]; then
    echo "chaos_soak: $FAILURES check(s) failed" >&2
    exit 1
fi
echo "chaos_soak: all checks passed"
