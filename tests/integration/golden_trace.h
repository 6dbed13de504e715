#pragma once

// Shared fixture of the golden-trace regression harness: one small,
// fixed-seed "Ours" scenario whose full RunResult is serialized bit-exactly
// (hex-float cells via CsvWriter::write_row_exact) and checked into
// tests/integration/golden/. The test compares fresh runs against the
// checked-in traces field by field; the golden_trace_regen tool rewrites
// them after an intentional semantics change.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/environment.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/csv.h"
#include "util/numio.h"

namespace cea::sim::golden {

/// Small but non-degenerate: several edges and enough slots for blocks,
/// trades, and at least one model switch to occur.
inline SimConfig golden_config() {
  SimConfig config;
  config.num_edges = 3;
  config.horizon = 32;
  config.workload.num_slots = 32;
  config.workload.mean_samples = 400.0;
  config.carbon_cap = 40.0;
  config.loss_draw_cap = 64;
  config.seed = 17;
  return config;
}

inline constexpr std::uint64_t kGoldenRunSeed = 7;

/// A trace is an ordered list of labeled double rows — the flattened
/// RunResult in a fixed row order shared by serializer and comparator.
using Trace = std::vector<std::pair<std::string, std::vector<double>>>;

inline Trace trace_of(const RunResult& result) {
  Trace trace;
  trace.emplace_back("inference_cost", result.inference_cost);
  trace.emplace_back("switching_cost", result.switching_cost);
  trace.emplace_back("trading_cost", result.trading_cost);
  trace.emplace_back("emissions", result.emissions);
  trace.emplace_back("buys", result.buys);
  trace.emplace_back("sells", result.sells);
  trace.emplace_back("accuracy", result.accuracy);
  trace.emplace_back("workload", result.workload);
  for (std::size_t i = 0; i < result.selection_counts.size(); ++i) {
    std::vector<double> counts;
    counts.reserve(result.selection_counts[i].size());
    for (std::size_t c : result.selection_counts[i])
      counts.push_back(static_cast<double>(c));
    trace.emplace_back("selection_counts_" + std::to_string(i),
                       std::move(counts));
  }
  trace.emplace_back(
      "scalars",
      std::vector<double>{static_cast<double>(result.total_switches),
                          result.carbon_cap, result.settlement_price});
  return trace;
}

inline void write_trace(const Trace& trace, const std::string& path) {
  CsvWriter writer(path);
  for (const auto& [label, values] : trace)
    writer.write_row_exact(label, values);
}

inline Trace read_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("golden trace missing: " + path +
                             " (regenerate with golden_trace_regen)");
  }
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream cells(line);
    std::string cell;
    if (!std::getline(cells, cell, ',')) continue;
    std::vector<double> values;
    std::string label = cell;
    while (std::getline(cells, cell, ',')) {
      // util::parse_double, not strtod: the golden hex-floats must parse
      // bit-exactly regardless of the host locale's decimal separator.
      double value = 0.0;
      if (!cea::util::parse_double(cell, value)) {
        throw std::runtime_error("golden trace " + path + ": bad cell '" +
                                 cell + "'");
      }
      values.push_back(value);
    }
    trace.emplace_back(std::move(label), std::move(values));
  }
  return trace;
}

/// Bit-level equality: distinguishes -0.0 from 0.0 and compares NaNs by
/// payload instead of always failing.
inline bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-level comparison. Empty result means bit-identical; otherwise each
/// entry names the row, the column, and both values.
inline std::vector<std::string> diff_traces(const Trace& expected,
                                            const Trace& actual) {
  std::vector<std::string> diffs;
  if (expected.size() != actual.size()) {
    diffs.push_back("row count: expected " + std::to_string(expected.size()) +
                    ", actual " + std::to_string(actual.size()));
  }
  const std::size_t rows = std::min(expected.size(), actual.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto& [exp_label, exp_values] = expected[r];
    const auto& [act_label, act_values] = actual[r];
    if (exp_label != act_label) {
      diffs.push_back("row " + std::to_string(r) + " label: expected '" +
                      exp_label + "', actual '" + act_label + "'");
      continue;
    }
    if (exp_values.size() != act_values.size()) {
      diffs.push_back(exp_label + ": length expected " +
                      std::to_string(exp_values.size()) + ", actual " +
                      std::to_string(act_values.size()));
      continue;
    }
    for (std::size_t c = 0; c < exp_values.size(); ++c) {
      if (!same_bits(exp_values[c], act_values[c])) {
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "%s[%zu]: expected %a (%.17g), actual %a (%.17g)",
                      exp_label.c_str(), c, exp_values[c], exp_values[c],
                      act_values[c], act_values[c]);
        diffs.emplace_back(buffer);
      }
    }
  }
  return diffs;
}

inline std::string join_diffs(const std::vector<std::string>& diffs) {
  std::string out;
  for (const auto& d : diffs) {
    out += d;
    out += '\n';
  }
  return out;
}

/// Run the golden scenario with the given engine options. The "Ours" combo
/// exercises Algorithms 1 and 2, the block accounting, and the trading
/// ledger in one trace.
inline RunResult run_golden(SimOptions options = {}) {
  const auto env = Environment::make_parametric(golden_config());
  Simulator simulator(env, options);
  const auto combo = ours_combo();
  return simulator.run(combo.policy, combo.trader, kGoldenRunSeed,
                       combo.name);
}

/// Directory holding the checked-in traces (compile definition set in
/// tests/CMakeLists.txt).
inline std::string golden_dir() { return CEA_GOLDEN_TRACE_DIR; }

inline std::string batched_golden_path() {
  return golden_dir() + "/ours_batched.csv";
}

/// The Offline baseline (best fixed model + offline trading LP) pins the
/// simplex solver bit-exactly: any pivot-order or arithmetic change in
/// opt/simplex shows up as a field-level diff in the buys/sells rows.
inline std::string offline_golden_path() {
  return golden_dir() + "/offline_lp.csv";
}

/// Run the golden scenario's Offline combo (run_offline drives
/// solve_offline_trading and OfflineLpTrader over the realized emissions).
inline RunResult run_golden_offline() {
  const auto env = Environment::make_parametric(golden_config());
  return run_offline(env, kGoldenRunSeed);
}

}  // namespace cea::sim::golden
