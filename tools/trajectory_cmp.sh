#!/bin/sh
# Trajectory check for performance changes: train the same ten cases
# with two builds of cascade_train and require every pair of --save
# models to be byte-identical (cmp).
#
#   tools/trajectory_cmp.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a build directory holding tools/cascade_train. The
# cases are five (model, policy) configurations -- tgn+cascade,
# apan+tgl, tgat+cascade-ex, jodie+cascade-tb and dysat+tgl -- each on
# WIKI/50 for 2 epochs at --threads 1 and --threads 4. One line is
# printed per case. Exit 0 when all ten match; exit 1 naming the
# first case whose models differ or whose run failed; exit 2 on
# usage errors.
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
    exit 2
fi
PARENT_BIN="$1/tools/cascade_train"
CHANGE_BIN="$2/tools/cascade_train"
for bin in "$PARENT_BIN" "$CHANGE_BIN"; do
    if [ ! -x "$bin" ]; then
        echo "trajectory_cmp: $bin not built" >&2
        exit 2
    fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FIRST=""

for config in tgn:cascade apan:tgl tgat:cascade-ex jodie:cascade-tb \
              dysat:tgl; do
    model="${config%%:*}"
    policy="${config#*:}"
    for threads in 1 4; do
        name="$model+$policy --threads $threads"
        verdict=same
        for side in parent change; do
            if [ "$side" = parent ]; then bin="$PARENT_BIN"; else bin="$CHANGE_BIN"; fi
            rm -f "$WORK/$side.bin"
            if ! "$bin" --dataset wiki --scale 50 --epochs 2 \
                    --model "$model" --policy "$policy" \
                    --threads "$threads" --save "$WORK/$side.bin" \
                    >"$WORK/$side.log" 2>&1; then
                verdict="FAILED ($side run)"
                sed 's/^/    /' "$WORK/$side.log" >&2
                break
            fi
        done
        if [ "$verdict" = same ] &&
           ! cmp -s "$WORK/parent.bin" "$WORK/change.bin"; then
            verdict=DIFFERS
        fi
        printf '%-8s %s\n' "$verdict" "$name"
        if [ "$verdict" != same ] && [ -z "$FIRST" ]; then
            FIRST="$name"
        fi
    done
done

if [ -n "$FIRST" ]; then
    echo "trajectory_cmp: first differing case: $FIRST" >&2
    exit 1
fi
echo "trajectory_cmp: all 10 cases byte-identical"
