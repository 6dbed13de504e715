#!/bin/sh
# The serving daemon's kill/restore gate: a full 160-slot 2-tenant run and
# a run stopped at slot 80 and restored from its checkpoint must leave the
# same record, serial and pooled (EXPERIMENTS.md "Serving daemon: SIGKILL
# recovery drill"). Both lives of the stopped run journal into one
# directory; the hex-float trace journal_query rebuilds from it must equal
# the uninterrupted run's --trace-out byte for byte. (--trace-out covers
# only the slots its own process ran, and the journal carries every
# per-slot value.) The stopped life writes a checkpoint and the metrics
# page every slot, so both tasks of the slot tail run at every boundary.
# The binary checkpoint must print as text, and a restore into a different
# horizon must be refused with exit code 2.
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
# Exit code 3 means SLO alerts fired, which the binding shared market cap
# makes expected once the journal turns the watchdog on.
journaled() {
  status=0
  "$daemon" "$@" > /dev/null || status=$?
  test "$status" -eq 0 || test "$status" -eq 3
}
for mode in "" "--pooled"; do
  rm -rf ck.bin ck.bin.tmp ck.txt m.prom full.csv resumed.csv journal
  mkdir journal
  "$daemon" $flags $mode --trace-out full.csv > /dev/null
  journaled $flags $mode --checkpoint ck.bin --checkpoint-every 1 \
    --metrics-out m.prom --stop-after 80 --journal journal
  test -s m.prom
  "$query" --dump-checkpoint ck.bin > ck.txt
  test "$(grep -cx 'engine.slot u64 1 80' ck.txt)" -eq 2
  # The checkpoint belongs to a 160-slot horizon: restoring it into a
  # 400-slot daemon fails with a StateError (exit 2) and runs nothing.
  status=0
  "$daemon" --tenants 2 --edges 3 --slots 400 --market-cap 2 $mode \
    --checkpoint ck.bin --restore --stop-after 5 > /dev/null 2>&1 ||
    status=$?
  test "$status" -eq 2
  journaled $flags $mode --checkpoint ck.bin --restore --journal journal
  "$query" journal --format trace --out resumed.csv > /dev/null
  cmp full.csv resumed.csv
done
cd /
rm -rf "$work"
