#!/bin/sh
# The serving daemon's observability gate, serial and pooled: the decision
# journal verifies checksum-clean, journal_query's trace replay rebuilds
# the daemon's own --trace-out byte for byte, and the metrics page is
# well-formed Prometheus text carrying the tenant, SLO and journal series.
# Exit code 3 means SLO alerts fired, which the binding shared market cap
# makes expected here.
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
  rm -rf journal metrics.prom obs_trace.csv replayed.csv
  mkdir journal
  status=0
  "$daemon" $flags $mode --journal journal --metrics-out metrics.prom \
    --trace-out obs_trace.csv > /dev/null || status=$?
  test "$status" -eq 0 || test "$status" -eq 3
  "$query" journal --verify > /dev/null
  "$query" journal --format trace --out replayed.csv > /dev/null
  cmp obs_trace.csv replayed.csv
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
cd /
rm -rf "$work"
