#include "util/csv.h"

#include <stdexcept>

#include "util/numio.h"

namespace cea {

std::string csv_escape(std::string_view cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(cell);
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error("CsvWriter: cannot write " + path_);
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(std::initializer_list<std::string_view> cells) {
  std::vector<std::string> copy;
  copy.reserve(cells.size());
  for (auto c : cells) copy.emplace_back(c);
  write_cells(copy);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  write_cells(cells);
}

void CsvWriter::write_row(std::string_view label,
                          const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.emplace_back(label);
  // util::format_double, not ostringstream: stream insertion renders the
  // decimal separator of the imbued (global) locale, which would corrupt
  // the CSV under e.g. de_DE.UTF-8.
  for (double v : values) cells.push_back(util::format_double(v, 10));
  write_cells(cells);
}

void CsvWriter::write_row_exact(std::string_view label,
                                const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.emplace_back(label);
  // util::format_double_exact, not snprintf "%a": printf consults
  // LC_NUMERIC for the radix character, so a non-"C" locale would emit
  // "0x1,8p+3" and break every bit-exact reader.
  for (double v : values) cells.push_back(util::format_double_exact(v));
  write_cells(cells);
}

}  // namespace cea
