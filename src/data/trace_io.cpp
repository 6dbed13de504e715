#include "data/trace_io.h"

#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/numio.h"

namespace cea::data {
namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    // Trim surrounding whitespace.
    const auto begin = cell.find_first_not_of(" \t\r");
    const auto end = cell.find_last_not_of(" \t\r");
    cells.push_back(begin == std::string::npos
                        ? std::string()
                        : cell.substr(begin, end - begin + 1));
  }
  return cells;
}

// Locale-independent (util/numio.h): std::strtod honored LC_NUMERIC, so
// under a comma-decimal locale (de_DE.UTF-8) "7.4" stopped parsing at the
// '.' and prices/counts were rejected or silently mis-read. Pinned by the
// locale regression tests in tests/data/test_trace_io.cpp.
bool parse_double(const std::string& cell, double& out) {
  return util::parse_double(cell, out);
}

/// Strict workload count: integral, >= 1, and within int range. The old
/// static_cast<int>(value) silently truncated "3.7" to 3 and was undefined
/// behavior for values beyond INT_MAX.
bool parse_count(const std::string& cell, int& out, std::string& why) {
  double value = 0.0;
  if (!util::parse_double(cell, value) || value <= 0.0) {
    why = "bad count";
    return false;
  }
  if (std::floor(value) != value) {
    why = "non-integral count";
    return false;
  }
  if (value > static_cast<double>(INT_MAX)) {
    why = "count exceeds INT_MAX";
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

}  // namespace

WorkloadTraces load_workload_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_workload_csv: cannot open " + path);
  WorkloadTraces traces;
  std::string line;
  std::size_t expected_columns = 0;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto cells = split_csv_line(line);
    std::vector<int> trace;
    trace.reserve(cells.size());
    for (const auto& cell : cells) {
      int value = 0;
      std::string why;
      if (!parse_count(cell, value, why)) {
        throw std::runtime_error("load_workload_csv: " + why + " '" + cell +
                                 "' at line " + std::to_string(line_number));
      }
      trace.push_back(value);
    }
    if (expected_columns == 0) {
      expected_columns = trace.size();
    } else if (trace.size() != expected_columns) {
      throw std::runtime_error(
          "load_workload_csv: ragged row at line " +
          std::to_string(line_number) + " (" + std::to_string(trace.size()) +
          " columns, expected " + std::to_string(expected_columns) + ")");
    }
    traces.push_back(std::move(trace));
  }
  if (traces.empty())
    throw std::runtime_error("load_workload_csv: no rows in " + path);
  return traces;
}

PriceSeries load_prices_csv(const std::string& path, double sell_ratio) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_prices_csv: cannot open " + path);
  PriceSeries series;
  std::string line;
  std::size_t line_number = 0;
  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto cells = split_csv_line(line);
    double buy = 0.0;
    if (!parse_double(cells[0], buy)) {
      if (first_data_line) {
        first_data_line = false;  // header row
        continue;
      }
      throw std::runtime_error("load_prices_csv: bad price '" + cells[0] +
                               "' at line " + std::to_string(line_number));
    }
    first_data_line = false;
    // parse_double accepts "nan" and "inf" (so a leading "nan" row is data,
    // not a header), and a NaN fails none of the ordered comparisons, so
    // finiteness is checked explicitly.
    if (!std::isfinite(buy) || buy <= 0.0) {
      throw std::runtime_error(
          "load_prices_csv: non-positive or non-finite price at line " +
          std::to_string(line_number));
    }
    double sell = buy * sell_ratio;
    if (cells.size() >= 2 && !cells[1].empty()) {
      if (!parse_double(cells[1], sell) || !std::isfinite(sell) ||
          sell <= 0.0 || sell > buy) {
        throw std::runtime_error(
            "load_prices_csv: bad sell price at line " +
            std::to_string(line_number) +
            " (must be finite, positive and <= buy price)");
      }
    }
    series.buy.push_back(buy);
    series.sell.push_back(sell);
  }
  if (series.buy.empty())
    throw std::runtime_error("load_prices_csv: no rows in " + path);
  return series;
}

void save_workload_csv(const WorkloadTraces& traces, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_workload_csv: cannot open " + path);
  // Counts are formatted through util/numio (never the stream's locale):
  // an imbued/global locale could group digits ("12.034") and break the
  // loader's strict integer parse.
  for (const auto& trace : traces) {
    std::string row;
    for (std::size_t t = 0; t < trace.size(); ++t) {
      if (t > 0) row.push_back(',');
      row += util::format_i64(trace[t]);
    }
    row.push_back('\n');
    out << row;
  }
}

void save_prices_csv(const PriceSeries& series, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_prices_csv: cannot open " + path);
  // Same locale audit as save_workload_csv: `out << double` renders the
  // decimal separator of the stream's locale, which load_prices_csv would
  // then reject; format_double always emits '.'.
  out << "buy,sell\n";
  for (std::size_t t = 0; t < series.size(); ++t) {
    out << util::format_double(series.buy[t], 10) << ','
        << util::format_double(series.sell[t], 10) << '\n';
  }
}

}  // namespace cea::data
