#!/bin/sh
# journal_query --dump-checkpoint on a checkpoint serve_daemon wrote: the
# text view carries the tenants, the slot, the engines' emission totals
# and the fleet's typed per-edge records and no per-slot history, and a
# truncated or bit-flipped file exits 3.
#
#   dump_checkpoint_test.sh SERVE_DAEMON JOURNAL_QUERY WORK_DIR
set -eu
daemon=$1
query=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
"$daemon" --tenants 2 --edges 3 --slots 8 --checkpoint "$work/ck.bin" \
  > /dev/null
"$query" --dump-checkpoint "$work/ck.bin" > "$work/dump.txt"
grep -qx 'serve.tenants u64 1 2' "$work/dump.txt"
test "$(grep -cx 'engine.slot u64 1 8' "$work/dump.txt")" -eq 2
test "$(grep -c '^engine.emission_total f64 1 ' "$work/dump.txt")" -eq 2
# v5 holds decision state only: no per-slot series, no selection counts.
history='inference_cost|switching_cost|trading_cost|emissions|buys|sells'
history="$history|accuracy|workload|selection_counts"
if grep -Eq "^engine\.($history) " "$work/dump.txt"; then exit 1; fi
# Without observability the observer record is an empty string.
grep -qx 'serve.observer_state str 0 ' "$work/dump.txt"
# Each tenant's 3 generators are one rng[] record; its cursors are u32[]
# and its flags u8[].
test "$(grep -c '^btfleet\.rng rng\[\] 3 ' "$work/dump.txt")" -eq 2
test "$(grep -c '^btfleet\.current_arm u32\[\] 3 ' "$work/dump.txt")" -eq 2
test "$(grep -c '^btfleet\.block_open u8\[\] 3 ' "$work/dump.txt")" -eq 2
# A truncated copy fails the envelope's byte count: exit code 3.
head -c 200 "$work/ck.bin" > "$work/cut.bin"
status=0
"$query" --dump-checkpoint "$work/cut.bin" > /dev/null 2>&1 || status=$?
test "$status" -eq 3
# One payload byte changed in place (its low bit flipped) fails the
# checksum: exit code 3.
cp "$work/ck.bin" "$work/flip.bin"
at=$(($(wc -c < "$work/flip.bin") - 100))
byte=$(od -An -tu1 -j "$at" -N 1 "$work/flip.bin" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" |
  dd of="$work/flip.bin" bs=1 seek="$at" conv=notrunc 2> /dev/null
if cmp -s "$work/ck.bin" "$work/flip.bin"; then exit 1; fi
status=0
"$query" --dump-checkpoint "$work/flip.bin" > /dev/null 2>&1 || status=$?
test "$status" -eq 3
rm -rf "$work"
