#!/bin/sh
# The serving daemon's observability gate, serial and pooled: the decision
# journal verifies checksum-clean, journal_query's trace replay rebuilds
# the daemon's own --trace-out byte for byte, its CSV and JSON exports hold
# one well-formed row or object per journaled record, and the metrics page
# is well-formed Prometheus text carrying the tenant, SLO and journal
# series.
# Exit code 3 means SLO alerts fired, which the binding shared market cap
# makes expected here. A trace or export that cannot be written (to
# /dev/full, where one exists) exits 2.
#
#   observability_smoke_test.sh SERVE_DAEMON JOURNAL_QUERY WORK_DIR
set -eu
daemon=$1
query=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"
flags="--tenants 2 --edges 3 --slots 160 --market-cap 2"
# One exposition line: a TYPE comment or `name[{labels}] value`.
line='^(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)'
line="$line"'|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})?'
line="$line"' (-?[0-9][0-9.eE+-]*|NaN|[+-]Inf))$'
for mode in "" "--pooled"; do
  rm -rf journal metrics.prom obs_trace.csv replayed.csv records.csv \
    records.json
  mkdir journal
  status=0
  "$daemon" $flags $mode --journal journal --metrics-out metrics.prom \
    --trace-out obs_trace.csv > /dev/null || status=$?
  test "$status" -eq 0 || test "$status" -eq 3
  records=$("$query" journal --verify |
    sed -n 's/.* \([0-9][0-9]*\) record(s) in .*/\1/p')
  test -n "$records"
  "$query" journal --format trace --out replayed.csv > /dev/null
  cmp obs_trace.csv replayed.csv
  # Every CSV line has the header's 23 fields; one data row and one JSON
  # object per record.
  "$query" journal --format csv --out records.csv
  "$query" journal --format json --out records.json
  awk -F, 'NF != 23 { bad = 1 } END { exit bad }' records.csv
  test "$(($(wc -l < records.csv) - 1))" -eq "$records"
  test "$(grep -c '^  {"kind": ' records.json)" -eq "$records"
  test -s metrics.prom
  if grep -Evq "$line" metrics.prom; then
    echo "malformed metrics line:" >&2
    grep -Ev "$line" metrics.prom >&2
    exit 1
  fi
  for series in cea_tenant_cap_burn_rate cea_tenant_allowance_solvency \
      cea_slo_alerts_total cea_journal_records_sealed; do
    grep -q "^$series" metrics.prom
  done
done
# /dev/full accepts the open and fails the write: the daemon's trace and
# each of journal_query's exports must report it.
if [ -w /dev/full ]; then
  status=0
  "$daemon" --tenants 1 --edges 3 --slots 3 --trace-out /dev/full \
    > /dev/null 2>&1 || status=$?
  test "$status" -eq 2
  for format in csv json trace; do
    status=0
    "$query" journal --format "$format" --out /dev/full > /dev/null 2>&1 ||
      status=$?
    test "$status" -eq 2
  done
fi
cd /
rm -rf "$work"
