#include "util/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace cea {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // Unique file per test: parallel ctest runs tests concurrently.
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_csv_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST(CsvEscape, PlainPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, QuotesCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, DoublesQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, QuotesNewlines) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST_F(CsvTest, WritesRows) {
  {
    CsvWriter writer(path_);
    writer.write_row({"t", "cost"});
    writer.write_row({"1", "2.5"});
  }
  EXPECT_EQ(read_file(path_), "t,cost\n1,2.5\n");
}

TEST_F(CsvTest, WritesLabeledDoubles) {
  {
    CsvWriter writer(path_);
    writer.write_row("series", {1.0, 2.5});
  }
  EXPECT_EQ(read_file(path_), "series,1,2.5\n");
}

TEST_F(CsvTest, WritesVectorOfStrings) {
  {
    CsvWriter writer(path_);
    writer.write_row(std::vector<std::string>{"a,b", "c"});
  }
  EXPECT_EQ(read_file(path_), "\"a,b\",c\n");
}

TEST_F(CsvTest, ExactRowRoundTripsEveryBit) {
  // write_row_exact emits C99 hex-floats: strtod must recover the exact
  // bit pattern, including values that a decimal format would round.
  const std::vector<double> values = {
      0.1, 1.0 / 3.0, 6.02214076e23, -0.0, 5e-324 /* min subnormal */,
      std::nextafter(1.0, 2.0)};
  {
    CsvWriter writer(path_);
    writer.write_row_exact("row", values);
  }
  std::ifstream in(path_);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::istringstream cells(line);
  std::string cell;
  ASSERT_TRUE(std::getline(cells, cell, ','));
  EXPECT_EQ(cell, "row");
  for (double expected : values) {
    ASSERT_TRUE(std::getline(cells, cell, ','));
    const double parsed = std::strtod(cell.c_str(), nullptr);
    EXPECT_EQ(std::signbit(parsed), std::signbit(expected)) << cell;
    EXPECT_EQ(parsed, expected) << cell;
  }
}

TEST(CsvWriterErrors, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::runtime_error);
}

TEST(CsvWriter, CloseReportsAFailedWrite) {
  // /dev/full opens fine and fails every write with ENOSPC; the buffered
  // row only reaches it when close() flushes.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CsvWriter writer("/dev/full");
  writer.write_row({"t", "cost"});
  try {
    writer.close();
    ADD_FAILURE() << "close() reported success on /dev/full";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cea
