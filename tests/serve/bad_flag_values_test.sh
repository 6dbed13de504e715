#!/bin/sh
# Bad numbers on the command line: a malformed, negative, out-of-range or
# non-finite value is a usage error (exit 1) that names its flag, never an
# abort or a silent wrap, for serve_daemon and journal_query alike. A
# metrics port outside [0, 65535] is a runtime failure (exit 2) instead of
# a bind to some other port.
#
#   bad_flag_values_test.sh SERVE_DAEMON JOURNAL_QUERY WORK_DIR
set -eu
daemon=$1
query=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
# expect STATUS COMMAND...: COMMAND must exit with STATUS.
expect() {
  want=$1
  shift
  status=0
  "$@" > out.txt 2> err.txt || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "expected exit $want, got $status: $*" >&2
    cat err.txt >&2
    exit 1
  fi
}
small="--tenants 1 --edges 3 --slots 3"
expect 1 "$daemon" $small --edges abc
grep -q -- '--edges' err.txt
expect 1 "$daemon" $small --mean 1e400
expect 1 "$daemon" $small --stop-after -1
expect 1 "$daemon" $small --market-cap nan
grep -q -- '--market-cap' err.txt
expect 2 "$daemon" $small --metrics-port 70000
mkdir J
"$daemon" $small --journal J > /dev/null
expect 1 "$query" J --from x
grep -q -- '--from' err.txt
cd /
rm -rf "$work"
