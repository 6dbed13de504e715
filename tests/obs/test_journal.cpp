#include "obs/journal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "json_parser.h"

namespace cea::obs {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

JournalRecord sample_slot_record() {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kSlot;
  record.tenant = "tenant0";
  record.slot = 42;
  record.model_counts = {3, 0, 5};
  record.switches_total = 7;
  record.solver_lanes = 2;
  record.arena_overflows = 0;
  record.trader_dual = 0.1 + 0.2;  // not exactly representable
  record.buy = 1.25;
  record.sell = 0.0;
  record.buy_price = 8.0 + 1.0 / 3.0;
  record.sell_price = 7.5;
  record.emission = 0.7;
  record.balance = 12.5;
  record.carbon_cap = 20.0;
  record.inference_cost = 0.125;
  record.switching_cost = 0.0625;
  record.trading_cost = -0.5;
  record.accuracy = 0.875;
  record.workload = 300.0;
  return record;
}

JournalRecord sample_alert_record() {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kAlert;
  record.tenant = "tenant1";
  record.slot = 9;
  record.alert = "allowance_insolvency";
  record.value = -0.25;
  record.threshold = 0.0;
  return record;
}

// --- record format --------------------------------------------------------

TEST(JournalRecordFormat, SlotRecordRoundTripsBitExactly) {
  const JournalRecord record = sample_slot_record();
  const std::string line = format_record(record);
  const JournalRecord parsed = parse_record(line);
  EXPECT_EQ(parsed.kind, JournalRecord::Kind::kSlot);
  EXPECT_EQ(parsed.tenant, record.tenant);
  EXPECT_EQ(parsed.slot, record.slot);
  EXPECT_EQ(parsed.model_counts, record.model_counts);
  EXPECT_EQ(parsed.switches_total, record.switches_total);
  EXPECT_EQ(parsed.solver_lanes, record.solver_lanes);
  EXPECT_EQ(parsed.arena_overflows, record.arena_overflows);
  EXPECT_TRUE(same_bits(parsed.trader_dual, record.trader_dual));
  EXPECT_TRUE(same_bits(parsed.buy, record.buy));
  EXPECT_TRUE(same_bits(parsed.sell, record.sell));
  EXPECT_TRUE(same_bits(parsed.buy_price, record.buy_price));
  EXPECT_TRUE(same_bits(parsed.sell_price, record.sell_price));
  EXPECT_TRUE(same_bits(parsed.emission, record.emission));
  EXPECT_TRUE(same_bits(parsed.balance, record.balance));
  EXPECT_TRUE(same_bits(parsed.carbon_cap, record.carbon_cap));
  EXPECT_TRUE(same_bits(parsed.inference_cost, record.inference_cost));
  EXPECT_TRUE(same_bits(parsed.switching_cost, record.switching_cost));
  EXPECT_TRUE(same_bits(parsed.trading_cost, record.trading_cost));
  EXPECT_TRUE(same_bits(parsed.accuracy, record.accuracy));
  EXPECT_TRUE(same_bits(parsed.workload, record.workload));
  // Formatting is a pure function of the record.
  EXPECT_EQ(format_record(parsed), line);
}

TEST(JournalRecordFormat, AlertRecordRoundTrips) {
  const JournalRecord record = sample_alert_record();
  const JournalRecord parsed = parse_record(format_record(record));
  EXPECT_EQ(parsed.kind, JournalRecord::Kind::kAlert);
  EXPECT_EQ(parsed.tenant, record.tenant);
  EXPECT_EQ(parsed.slot, record.slot);
  EXPECT_EQ(parsed.alert, record.alert);
  EXPECT_TRUE(same_bits(parsed.value, record.value));
  EXPECT_TRUE(same_bits(parsed.threshold, record.threshold));
}

TEST(JournalRecordFormat, NanDualRoundTrips) {
  // Stateless traders report NaN as their dual; it must survive the trip.
  JournalRecord record = sample_slot_record();
  record.trader_dual = std::numeric_limits<double>::quiet_NaN();
  const JournalRecord parsed = parse_record(format_record(record));
  EXPECT_TRUE(std::isnan(parsed.trader_dual));
}

TEST(JournalRecordFormat, RejectsUnsafeNames) {
  JournalRecord record = sample_slot_record();
  record.tenant = "bad tenant";
  EXPECT_THROW(format_record(record), std::invalid_argument);
  record.tenant = "bad#tenant";
  EXPECT_THROW(format_record(record), std::invalid_argument);
}

TEST(JournalRecordFormat, ParseRejectsTampering) {
  const std::string line = format_record(sample_slot_record());
  // Flip one payload character: the line checksum must catch it.
  std::string tampered = line;
  tampered[6] = (tampered[6] == '0') ? '1' : '0';
  EXPECT_THROW(parse_record(tampered), JournalError);
  // Truncate the checksum field.
  EXPECT_THROW(parse_record(line.substr(0, line.size() - 2)), JournalError);
  // Unknown record kind.
  EXPECT_THROW(parse_record("bogus rest of line #0123456789abcdef"),
               JournalError);
}

// --- writer / reader ------------------------------------------------------

class JournalDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cea_journal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override {
    for (std::size_t i = 0; i < 16; ++i) {
      std::remove(segment_path(dir_, i).c_str());
    }
    std::remove((dir_ + "/not-a-segment.txt").c_str());
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(JournalDirTest, SealPublishesVerifiableSegments) {
  JournalWriter writer(dir_);
  writer.append(sample_slot_record());
  writer.append(sample_alert_record());
  EXPECT_EQ(writer.records_buffered(), 2u);
  writer.seal();
  EXPECT_EQ(writer.records_buffered(), 0u);
  EXPECT_EQ(writer.records_sealed(), 2u);
  EXPECT_EQ(writer.segments_sealed(), 1u);

  const JournalStats stats = verify_journal(dir_);
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.records, 2u);

  const auto records = read_journal(dir_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, JournalRecord::Kind::kSlot);
  EXPECT_EQ(records[1].kind, JournalRecord::Kind::kAlert);
}

TEST_F(JournalDirTest, SealWithEmptyBufferIsNoOp) {
  JournalWriter writer(dir_);
  writer.seal();
  EXPECT_EQ(writer.segments_sealed(), 0u);
  EXPECT_TRUE(read_journal_lines(dir_).empty());
}

TEST_F(JournalDirTest, WriterContinuesNumberingAfterRestart) {
  {
    JournalWriter writer(dir_);
    writer.append(sample_slot_record());
    writer.seal();
  }
  {
    // A restored daemon's writer appends after the surviving segments.
    JournalWriter writer(dir_);
    JournalRecord second = sample_slot_record();
    second.slot = 43;
    writer.append(second);
    writer.seal();
  }
  const auto records = read_journal(dir_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].slot, 42u);
  EXPECT_EQ(records[1].slot, 43u);
}

TEST_F(JournalDirTest, MissingDirectoryReadsEmptyButWriterThrows) {
  EXPECT_TRUE(read_journal_lines(dir_ + "_nonexistent").empty());
  EXPECT_THROW(JournalWriter(dir_ + "_nonexistent"), JournalError);
}

TEST_F(JournalDirTest, DetectsTruncatedSegment) {
  JournalWriter writer(dir_);
  writer.append(sample_slot_record());
  writer.append(sample_alert_record());
  writer.seal();

  // Chop the tail off the sealed segment: the envelope byte count (and
  // checksum) must catch it — this is the torn-write signature a plain
  // line-oriented log would silently accept.
  const std::string path = segment_path(dir_, 0);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents.substr(0, contents.size() - 10);
  out.close();

  const JournalStats stats = verify_journal(dir_);
  EXPECT_FALSE(stats.ok);
  EXPECT_FALSE(stats.error.empty());
  EXPECT_THROW(read_journal_lines(dir_), JournalError);
}

TEST_F(JournalDirTest, DetectsFlippedPayloadByte) {
  JournalWriter writer(dir_);
  writer.append(sample_slot_record());
  writer.seal();

  const std::string path = segment_path(dir_, 0);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // Flip a byte in the record payload (past the envelope line).
  const std::size_t payload = contents.find('\n') + 8;
  ASSERT_LT(payload, contents.size());
  contents[payload] ^= 0x01;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();

  EXPECT_FALSE(verify_journal(dir_).ok);
}

TEST_F(JournalDirTest, DetectsMissingMiddleSegment) {
  JournalWriter writer(dir_);
  for (std::uint64_t t = 0; t < 3; ++t) {
    JournalRecord record = sample_slot_record();
    record.slot = t;
    writer.append(record);
    writer.seal();
  }
  ASSERT_EQ(writer.segments_sealed(), 3u);
  std::remove(segment_path(dir_, 1).c_str());
  // A hole in the segment numbering means lost records, not a prefix.
  EXPECT_FALSE(verify_journal(dir_).ok);
}

/// Split one CSV line into its cells, undoing RFC 4180 quoting.
std::vector<std::string> csv_cells(std::string_view line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
      cells.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

/// Run journal_query over `dir` with `--format format` and return what
/// it wrote.
std::string query_export(const std::string& dir, const std::string& format) {
  const std::string out = dir + "." + format;
  const std::string command = std::string("'") + CEA_JOURNAL_QUERY + "' '" +
                              dir + "' --format " + format + " --out '" +
                              out + "'";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream in(out);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::remove(out.c_str());
  return text;
}

TEST_F(JournalDirTest, QueryExportsQuoteTenantNames) {
  // The journal takes any tenant name without whitespace or '#', so
  // journal_query's CSV and JSON exports must quote a ',' or a '"' in one.
  const std::string tenant = "a\"b,c";
  {
    JournalWriter writer(dir_);
    JournalRecord slot = sample_slot_record();
    slot.tenant = tenant;
    writer.append(slot);
    JournalRecord alert = sample_alert_record();
    alert.tenant = tenant;
    writer.append(alert);
    writer.seal();
  }
  std::istringstream csv(query_export(dir_, "csv"));
  std::vector<std::vector<std::string>> rows;
  for (std::string line; std::getline(csv, line);) {
    rows.push_back(csv_cells(line));
    EXPECT_EQ(rows.back().size(), 23u) << line;
  }
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][1], tenant);
  EXPECT_EQ(rows[2][1], tenant);

  const JsonValue json = parse_json(query_export(dir_, "json"));
  ASSERT_EQ(json.array.size(), 2u);
  EXPECT_EQ(json.array[0].at("kind").string, "slot");
  EXPECT_EQ(json.array[1].at("kind").string, "alert");
  for (const JsonValue& record : json.array) {
    EXPECT_EQ(record.at("tenant").string, tenant);
  }
}

TEST_F(JournalDirTest, IgnoresForeignFilesInDirectory) {
  JournalWriter writer(dir_);
  writer.append(sample_slot_record());
  writer.seal();
  std::ofstream(dir_ + "/not-a-segment.txt") << "scratch\n";
  const JournalStats stats = verify_journal(dir_);
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.records, 1u);
}

}  // namespace
}  // namespace cea::obs
