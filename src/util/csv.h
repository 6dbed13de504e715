#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cea {

/// Minimal CSV writer used by the benchmark harness to dump figure series.
///
/// Values containing commas, quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens (truncates) the file; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void write_row(std::initializer_list<std::string_view> cells);
  void write_row(const std::vector<std::string>& cells);

  /// Convenience: format doubles with 10 significant digits (plot-grade).
  void write_row(std::string_view label, const std::vector<double>& values);

  /// Format doubles as C99 hex-floats (%a): every bit of the mantissa
  /// round-trips exactly through strtod, which is what the golden-trace
  /// regression harness relies on for bit-exact comparisons.
  void write_row_exact(std::string_view label,
                       const std::vector<double>& values);

  /// Flushes and closes the file; throws std::runtime_error naming the
  /// path when a write or the close failed (e.g. a full disk). Without
  /// it, the destructor closes the file and a failure goes unseen.
  void close();

 private:
  void write_cells(const std::vector<std::string>& cells);

  std::string path_;
  std::ofstream out_;
};

/// Escape a single CSV cell (exposed for testing).
std::string csv_escape(std::string_view cell);

}  // namespace cea
