#!/bin/sh
# journal_query --dump-checkpoint on a checkpoint serve_daemon wrote: the
# text view carries the tenants and the slot, and a damaged file exits 3.
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
test "$(grep -c '^engine.emissions f64\[\] 8 ' "$work/dump.txt")" -eq 2
# A truncated copy fails the envelope's byte count: exit code 3.
head -c 200 "$work/ck.bin" > "$work/cut.bin"
status=0
"$query" --dump-checkpoint "$work/cut.bin" > /dev/null 2>&1 || status=$?
test "$status" -eq 3
rm -rf "$work"
