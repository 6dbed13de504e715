#include "obs/journal.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <stdexcept>

#include "util/numio.h"
#include "util/state_io.h"

namespace cea::obs {
namespace {

constexpr std::string_view kSegmentMagic = "CEA-JOURNAL v1";
constexpr std::string_view kSegmentPrefix = "seg-";
constexpr std::string_view kSegmentSuffix = ".cjl";

std::string fnv_hex(std::string_view bytes) {
  const std::uint64_t checksum = util::fnv1a64(bytes);
  char out[17];
  for (int i = 0; i < 16; ++i) {
    const unsigned nibble =
        static_cast<unsigned>(checksum >> (60 - 4 * i)) & 0xF;
    out[i] = static_cast<char>(nibble < 10 ? '0' + nibble
                                           : 'a' + (nibble - 10));
  }
  out[16] = '\0';
  return out;
}

void check_token(std::string_view text, const char* what) {
  if (text.empty()) {
    throw std::invalid_argument(std::string("journal: empty ") + what);
  }
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '#') {
      throw std::invalid_argument(std::string("journal: ") + what + " '" +
                                  std::string(text) +
                                  "' contains whitespace or '#'");
    }
  }
}

/// Split a record body into space-separated tokens (single-space grammar:
/// format_record never emits empty fields).
std::vector<std::string_view> tokenize(std::string_view body) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start <= body.size()) {
    const std::size_t space = body.find(' ', start);
    if (space == std::string_view::npos) {
      tokens.push_back(body.substr(start));
      break;
    }
    tokens.push_back(body.substr(start, space - start));
    start = space + 1;
  }
  return tokens;
}

double parse_double_field(std::string_view token, const char* what) {
  double value = 0.0;
  if (!util::parse_double(token, value)) {
    throw JournalError("journal: bad " + std::string(what) + " '" +
                       std::string(token) + "'");
  }
  return value;
}

std::uint64_t parse_u64_field(std::string_view token, const char* what) {
  std::uint64_t value = 0;
  if (!util::parse_u64(token, value)) {
    throw JournalError("journal: bad " + std::string(what) + " '" +
                       std::string(token) + "'");
  }
  return value;
}

/// Strip and verify the trailing " #<fnv16>" checksum; returns the body.
std::string_view checked_body(std::string_view line) {
  const std::size_t marker = line.rfind(" #");
  if (marker == std::string_view::npos || line.size() - marker != 2 + 16) {
    throw JournalError("journal: record missing checksum field: '" +
                       std::string(line) + "'");
  }
  const std::string_view body = line.substr(0, marker);
  if (fnv_hex(body) != line.substr(marker + 2)) {
    throw JournalError("journal: record checksum mismatch: '" +
                       std::string(line) + "'");
  }
  return body;
}

}  // namespace

std::string format_record(const JournalRecord& record) {
  check_token(record.tenant, "tenant name");
  std::string body;
  if (record.kind == JournalRecord::Kind::kSlot) {
    body = "slot ";
    body += record.tenant;
    body += ' ';
    body += util::format_u64(record.slot);
    body += ' ';
    if (record.model_counts.empty()) {
      body += '-';
    } else {
      for (std::size_t n = 0; n < record.model_counts.size(); ++n) {
        if (n > 0) body += ':';
        body += util::format_u64(record.model_counts[n]);
      }
    }
    body += ' ';
    body += util::format_u64(record.switches_total);
    body += ' ';
    body += util::format_u64(record.solver_lanes);
    body += ' ';
    body += util::format_u64(record.arena_overflows);
    for (const double value :
         {record.trader_dual, record.buy, record.sell, record.buy_price,
          record.sell_price, record.emission, record.balance,
          record.carbon_cap, record.inference_cost, record.switching_cost,
          record.trading_cost, record.accuracy, record.workload}) {
      body += ' ';
      body += util::format_double_exact(value);
    }
  } else {
    check_token(record.alert, "alert name");
    body = "alert ";
    body += record.tenant;
    body += ' ';
    body += util::format_u64(record.slot);
    body += ' ';
    body += record.alert;
    body += ' ';
    body += util::format_double_exact(record.value);
    body += ' ';
    body += util::format_double_exact(record.threshold);
  }
  body += " #";
  body += fnv_hex(body.substr(0, body.size() - 2));
  return body;
}

JournalRecord parse_record(std::string_view line) {
  const std::string_view body = checked_body(line);
  const auto tokens = tokenize(body);
  JournalRecord record;
  if (!tokens.empty() && tokens[0] == "slot") {
    // "slot" tenant t counts switches lanes overflows + 13 doubles.
    if (tokens.size() != 20) {
      throw JournalError("journal: slot record has " +
                         std::to_string(tokens.size()) +
                         " fields, expected 20");
    }
    record.kind = JournalRecord::Kind::kSlot;
    record.tenant = std::string(tokens[1]);
    record.slot = parse_u64_field(tokens[2], "slot index");
    if (tokens[3] != "-") {
      std::string_view counts = tokens[3];
      while (!counts.empty()) {
        const std::size_t colon = counts.find(':');
        const std::string_view cell = counts.substr(0, colon);
        record.model_counts.push_back(parse_u64_field(cell, "model count"));
        if (colon == std::string_view::npos) break;
        counts.remove_prefix(colon + 1);
      }
    }
    record.switches_total = parse_u64_field(tokens[4], "switch count");
    record.solver_lanes = parse_u64_field(tokens[5], "solver lanes");
    record.arena_overflows = parse_u64_field(tokens[6], "arena overflows");
    double* const doubles[] = {
        &record.trader_dual,    &record.buy,          &record.sell,
        &record.buy_price,      &record.sell_price,   &record.emission,
        &record.balance,        &record.carbon_cap,   &record.inference_cost,
        &record.switching_cost, &record.trading_cost, &record.accuracy,
        &record.workload};
    for (std::size_t i = 0; i < 13; ++i) {
      *doubles[i] = parse_double_field(tokens[7 + i], "slot field");
    }
  } else if (!tokens.empty() && tokens[0] == "alert") {
    if (tokens.size() != 6) {
      throw JournalError("journal: alert record has " +
                         std::to_string(tokens.size()) +
                         " fields, expected 6");
    }
    record.kind = JournalRecord::Kind::kAlert;
    record.tenant = std::string(tokens[1]);
    record.slot = parse_u64_field(tokens[2], "slot index");
    record.alert = std::string(tokens[3]);
    record.value = parse_double_field(tokens[4], "alert value");
    record.threshold = parse_double_field(tokens[5], "alert threshold");
  } else {
    throw JournalError("journal: unknown record kind in '" +
                       std::string(line) + "'");
  }
  return record;
}

std::string segment_path(const std::string& directory, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "%.*s%08zu%.*s",
                static_cast<int>(kSegmentPrefix.size()), kSegmentPrefix.data(),
                index, static_cast<int>(kSegmentSuffix.size()),
                kSegmentSuffix.data());
  return directory + "/" + name;
}

namespace {

/// Segment indices present in `directory`, sorted. Missing directory is
/// reported via `exists`.
std::vector<std::size_t> list_segments(const std::string& directory,
                                       bool& exists) {
  std::vector<std::size_t> indices;
  DIR* dir = ::opendir(directory.c_str());
  exists = dir != nullptr;
  if (dir == nullptr) return indices;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string_view name = entry->d_name;
    if (name.size() != kSegmentPrefix.size() + 8 + kSegmentSuffix.size() ||
        name.substr(0, kSegmentPrefix.size()) != kSegmentPrefix ||
        name.substr(name.size() - kSegmentSuffix.size()) != kSegmentSuffix) {
      continue;
    }
    std::uint64_t index = 0;
    if (!util::parse_u64(name.substr(kSegmentPrefix.size(), 8), index)) {
      ::closedir(dir);
      throw JournalError("journal: unparsable segment name '" +
                         std::string(name) + "' in " + directory);
    }
    indices.push_back(static_cast<std::size_t>(index));
  }
  ::closedir(dir);
  std::sort(indices.begin(), indices.end());
  return indices;
}

/// Validate one segment file and append its record lines.
void read_segment(const std::string& path, std::vector<std::string>& lines) {
  std::string bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const util::StateError& error) {
    throw JournalError("journal: " + std::string(error.what()));
  }
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string::npos ||
      bytes.compare(0, kSegmentMagic.size(), kSegmentMagic) != 0) {
    throw JournalError("journal: " + path + " is not a CEA-JOURNAL segment");
  }
  const auto header = tokenize(std::string_view(bytes).substr(0, eol));
  // "CEA-JOURNAL" "v1" <records> <payload-bytes> <fnv16>
  if (header.size() != 5) {
    throw JournalError("journal: malformed segment header in " + path);
  }
  const std::uint64_t records = parse_u64_field(header[2], "record count");
  const std::uint64_t payload_bytes =
      parse_u64_field(header[3], "payload byte count");
  const std::string_view payload = std::string_view(bytes).substr(eol + 1);
  if (payload.size() != payload_bytes) {
    throw JournalError("journal: " + path + " truncated (" +
                       std::to_string(payload.size()) +
                       " payload bytes, header says " +
                       std::to_string(payload_bytes) + ")");
  }
  if (fnv_hex(payload) != header[4]) {
    throw JournalError("journal: " + path +
                       " checksum mismatch (corrupted payload)");
  }
  std::size_t count = 0;
  std::size_t start = 0;
  while (start < payload.size()) {
    std::size_t line_end = payload.find('\n', start);
    if (line_end == std::string_view::npos) {
      throw JournalError("journal: " + path +
                         " payload not newline-terminated");
    }
    const std::string_view line = payload.substr(start, line_end - start);
    checked_body(line);  // per-record checksum
    lines.emplace_back(line);
    ++count;
    start = line_end + 1;
  }
  if (count != records) {
    throw JournalError("journal: " + path + " holds " + std::to_string(count) +
                       " records, header says " + std::to_string(records));
  }
}

}  // namespace

JournalWriter::JournalWriter(std::string directory)
    : directory_(std::move(directory)) {
  bool exists = false;
  const auto indices = list_segments(directory_, exists);
  if (!exists) {
    throw JournalError("journal: directory does not exist: " + directory_);
  }
  if (!indices.empty()) next_segment_ = indices.back() + 1;
}

void JournalWriter::append(const JournalRecord& record) {
  buffered_.push_back(format_record(record));
}

void JournalWriter::seal() {
  if (buffered_.empty()) return;
  std::string payload;
  for (const std::string& line : buffered_) {
    payload += line;
    payload += '\n';
  }
  std::string segment(kSegmentMagic);
  segment += ' ';
  segment += util::format_u64(buffered_.size());
  segment += ' ';
  segment += util::format_u64(payload.size());
  segment += ' ';
  segment += fnv_hex(payload);
  segment += '\n';
  segment += payload;
  util::write_file_durable(segment_path(directory_, next_segment_), segment);
  ++next_segment_;
  ++segments_sealed_;
  records_sealed_ += buffered_.size();
  buffered_.clear();
}

std::vector<std::string> read_journal_lines(const std::string& directory) {
  bool exists = false;
  const auto indices = list_segments(directory, exists);
  std::vector<std::string> lines;
  if (!exists || indices.empty()) return lines;
  // Segments are sealed in order and never removed, so a gap means a
  // deleted or lost file — the prefix property no longer holds.
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] != indices.front() + i) {
      throw JournalError("journal: missing segment " +
                         std::to_string(indices.front() + i) + " in " +
                         directory);
    }
  }
  for (const std::size_t index : indices) {
    read_segment(segment_path(directory, index), lines);
  }
  return lines;
}

std::vector<JournalRecord> read_journal(const std::string& directory) {
  const auto lines = read_journal_lines(directory);
  std::vector<JournalRecord> records;
  records.reserve(lines.size());
  for (const std::string& line : lines) records.push_back(parse_record(line));
  return records;
}

JournalStats verify_journal(const std::string& directory) {
  JournalStats stats;
  try {
    bool exists = false;
    const auto indices = list_segments(directory, exists);
    if (!exists) {
      stats.error = "journal: directory does not exist: " + directory;
      return stats;
    }
    const auto lines = read_journal_lines(directory);
    // Full structural parse, not just checksums: field counts and numeric
    // grammar must hold for every record.
    for (const std::string& line : lines) parse_record(line);
    stats.ok = true;
    stats.segments = indices.size();
    stats.records = lines.size();
  } catch (const std::exception& error) {
    stats.ok = false;
    stats.error = error.what();
  }
  return stats;
}

}  // namespace cea::obs
