#!/bin/sh
# The serving daemon's kill/restore gate: a full 160-slot 2-tenant run and
# a run stopped at slot 80 and restored from its checkpoint must write
# byte-identical hex-float traces, serial and pooled (EXPERIMENTS.md
# "Serving daemon: SIGKILL recovery drill"). The binary checkpoint must
# print as text, and a restore into a different horizon must be refused
# with exit code 2.
#
#   kill_restore_test.sh SERVE_DAEMON JOURNAL_QUERY WORK_DIR
set -eu
daemon=$1
query=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
flags="--tenants 2 --edges 3 --slots 160 --market-cap 2"
for mode in "" "--pooled"; do
  rm -f ck.bin ck.txt full.csv resumed.csv
  "$daemon" $flags $mode --trace-out full.csv > /dev/null
  "$daemon" $flags $mode --checkpoint ck.bin --stop-after 80 > /dev/null
  "$query" --dump-checkpoint ck.bin > ck.txt
  test "$(grep -cx 'engine.slot u64 1 80' ck.txt)" -eq 2
  # The checkpoint belongs to a 160-slot horizon: restoring it into a
  # 400-slot daemon fails with a StateError (exit 2) and runs nothing.
  status=0
  "$daemon" --tenants 2 --edges 3 --slots 400 --market-cap 2 $mode \
    --checkpoint ck.bin --restore --stop-after 5 > /dev/null 2>&1 ||
    status=$?
  test "$status" -eq 2
  "$daemon" $flags $mode --checkpoint ck.bin --restore \
    --trace-out resumed.csv > /dev/null
  cmp full.csv resumed.csv
done
cd /
rm -rf "$work"
