#include "data/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/rng.h"

namespace cea::data {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_trace_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  void write(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }
  std::string path_;
};

TEST_F(TraceIoTest, LoadsWorkloadRows) {
  write("10,20,30\n40,50,60\n");
  const auto traces = load_workload_csv(path_);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0], (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(traces[1], (std::vector<int>{40, 50, 60}));
}

TEST_F(TraceIoTest, SkipsBlankLinesAndTrimsWhitespace) {
  write("10, 20 ,30\n\n  \n40,50,60\n");
  const auto traces = load_workload_csv(path_);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0][1], 20);
}

TEST_F(TraceIoTest, RejectsRaggedWorkload) {
  write("1,2,3\n4,5\n");
  EXPECT_THROW(load_workload_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsNonPositiveCounts) {
  write("1,0,3\n");
  EXPECT_THROW(load_workload_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsGarbageCell) {
  write("1,abc,3\n");
  EXPECT_THROW(load_workload_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsEmptyWorkloadFile) {
  write("\n\n");
  EXPECT_THROW(load_workload_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, LoadsPricesWithHeaderAndTwoColumns) {
  write("buy,sell\n8.0,7.2\n9.5,8.55\n");
  const auto series = load_prices_csv(path_);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.buy[0], 8.0);
  EXPECT_DOUBLE_EQ(series.sell[1], 8.55);
}

TEST_F(TraceIoTest, DerivesSellFromRatioWhenSingleColumn) {
  write("10.0\n6.0\n");
  const auto series = load_prices_csv(path_, 0.9);
  EXPECT_DOUBLE_EQ(series.sell[0], 9.0);
  EXPECT_DOUBLE_EQ(series.sell[1], 5.4);
}

TEST_F(TraceIoTest, RejectsSellAboveBuy) {
  write("8.0,8.5\n");
  EXPECT_THROW(load_prices_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsNonPositivePrice) {
  // Non-finite prices are rejected too: "nan" and "inf" parse as numbers,
  // and a NaN slips past every ordered comparison.
  for (const char* contents : {"-2.0\n", "nan\n", "inf\n", "8,nan\n",
                               "8,inf\n"}) {
    write(contents);
    EXPECT_THROW(load_prices_csv(path_), std::runtime_error) << contents;
  }
  // A leading "nan" row is a bad price, not a header to skip.
  write("nan,7\n8.0,7.2\n");
  EXPECT_THROW(load_prices_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsMissingFile) {
  EXPECT_THROW(load_workload_csv("/nonexistent/x.csv"), std::runtime_error);
  EXPECT_THROW(load_prices_csv("/nonexistent/x.csv"), std::runtime_error);
}

TEST_F(TraceIoTest, WorkloadRoundTrip) {
  Rng rng(1);
  WorkloadConfig config;
  config.num_slots = 20;
  const auto original = generate_workload(4, config, rng);
  save_workload_csv(original, path_);
  const auto loaded = load_workload_csv(path_);
  EXPECT_EQ(loaded, original);
}

TEST_F(TraceIoTest, PricesRoundTrip) {
  Rng rng(2);
  const auto original = generate_prices(25, {}, rng);
  save_prices_csv(original, path_);
  const auto loaded = load_prices_csv(path_);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t t = 0; t < loaded.size(); ++t) {
    EXPECT_NEAR(loaded.buy[t], original.buy[t], 1e-9);
    EXPECT_NEAR(loaded.sell[t], original.sell[t], 1e-9);
  }
}

}  // namespace
}  // namespace cea::data
