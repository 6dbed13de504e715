#pragma once

// Prometheus text-format exposition (version 0.0.4) over the telemetry
// registry (obs/telemetry.h), plus the handful of serving-layer samples
// the scrape page needs that are not plain registry metrics (per-tenant
// labeled gauges, histogram quantiles). The daemon renders this at
// pool-quiescent slot boundaries and publishes it atomically, without
// fsync (util::write_file_atomic: the page is regenerated every slot), to
// a status file and, optionally, over a minimal TCP endpoint
// (serve/metrics_server.h).
//
// Rendering rules:
//  * metric names are sanitized to [a-zA-Z_][a-zA-Z0-9_]* and prefixed
//    ("cea_"); counters additionally get the conventional "_total" suffix;
//  * histograms render as cumulative `_bucket{le="..."}` series plus
//    `_sum` and `_count`, with the implicit `le="+Inf"` bucket;
//  * values use locale-independent shortest-round-trip decimal
//    (util/numio), NaN/Inf spelled the Prometheus way.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.h"

namespace cea::obs {

/// One extra labeled sample to expose alongside the registry snapshot.
struct PromSample {
  std::string name;  ///< raw name; sanitized + prefixed like registry names
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  const char* type = "gauge";  ///< "gauge" or "counter" (TYPE header)
};

/// Sanitize a metric name: every character outside [a-zA-Z0-9_] becomes
/// '_' and a leading digit is prefixed with '_'.
std::string prom_sanitize(std::string_view name);

/// Render one value the way Prometheus parses it ("NaN", "+Inf", "-Inf",
/// shortest-round-trip decimal otherwise).
std::string prom_value(double value);

/// Render the snapshot plus the extra samples as one exposition document.
/// Consecutive extra samples with the same name share one TYPE header, so
/// group per-tenant series by name.
std::string prometheus_text(const Snapshot& snapshot,
                            std::span<const PromSample> extra,
                            std::string_view prefix = "cea_");

/// Quantile estimate from a snapshot histogram: linear interpolation
/// inside the bucket that crosses rank q*count, clamped to the finite
/// edges (the overflow bucket reports the histogram max). Returns 0 for
/// an empty histogram; q is clamped to [0, 1].
double histogram_quantile(const HistogramValue& histogram, double q);

}  // namespace cea::obs
