#include "serve/feed.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace cea::serve {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- ReplayFeed -----------------------------------------------------------

data::PriceSeries make_prices(std::size_t slots) {
  data::PriceSeries prices;
  for (std::size_t t = 0; t < slots; ++t) {
    prices.buy.push_back(8.0 + 0.25 * static_cast<double>(t));
    prices.sell.push_back(7.0 + 0.25 * static_cast<double>(t));
  }
  return prices;
}

TEST(ReplayFeed, IndexesTracesBySlot) {
  ReplayFeed feed({{10, 11, 12}, {20, 21, 22}}, make_prices(3));
  SlotInput input;
  ASSERT_EQ(feed.poll(1, input), FeedStatus::kReady);
  EXPECT_DOUBLE_EQ(input.quote.buy_price, 8.25);
  EXPECT_DOUBLE_EQ(input.quote.sell_price, 7.25);
  EXPECT_EQ(input.workload, (std::vector<int>{11, 21}));
  EXPECT_EQ(feed.num_edges(), 2u);
  EXPECT_EQ(feed.num_slots(), 3u);
}

TEST(ReplayFeed, EndsAfterLastSlot) {
  ReplayFeed feed({{1, 2}}, make_prices(2));
  SlotInput input;
  EXPECT_EQ(feed.poll(2, input), FeedStatus::kEnd);
  EXPECT_EQ(feed.poll(100, input), FeedStatus::kEnd);
}

TEST(ReplayFeed, LoopsModuloTraceLength) {
  ReplayFeed feed({{1, 2, 3}}, make_prices(3), /*loop=*/true);
  SlotInput direct;
  SlotInput wrapped;
  ASSERT_EQ(feed.poll(1, direct), FeedStatus::kReady);
  ASSERT_EQ(feed.poll(4, wrapped), FeedStatus::kReady);
  EXPECT_EQ(direct.workload, wrapped.workload);
  EXPECT_TRUE(same_bits(direct.quote.buy_price, wrapped.quote.buy_price));
}

TEST(ReplayFeed, RejectsBadConstruction) {
  EXPECT_THROW(ReplayFeed({}, make_prices(3)), std::invalid_argument);
  EXPECT_THROW(ReplayFeed({{1, 2}, {3}}, make_prices(2)),
               std::invalid_argument);  // ragged
  EXPECT_THROW(ReplayFeed({{1, 2, 3}}, make_prices(2)),
               std::invalid_argument);  // prices too short
  EXPECT_THROW(ReplayFeed({{}}, make_prices(0)), std::invalid_argument);
  auto short_sell = make_prices(5);
  short_sell.sell.resize(1);
  EXPECT_THROW(ReplayFeed({{5, 5, 5, 5, 5}}, short_sell),
               std::invalid_argument);  // sell prices too short
}

// --- SyntheticFeed --------------------------------------------------------

TEST(SyntheticFeed, PollIsRepeatable) {
  SyntheticFeed feed(4, 99);
  SlotInput a;
  SlotInput b;
  for (std::size_t t : {std::size_t{0}, std::size_t{7}, std::size_t{1000}}) {
    ASSERT_EQ(feed.poll(t, a), FeedStatus::kReady);
    ASSERT_EQ(feed.poll(t, b), FeedStatus::kReady);
    EXPECT_TRUE(same_bits(a.quote.buy_price, b.quote.buy_price));
    EXPECT_TRUE(same_bits(a.quote.sell_price, b.quote.sell_price));
    EXPECT_EQ(a.workload, b.workload);
  }
}

TEST(SyntheticFeed, TwoInstancesWithSameSeedAgree) {
  SyntheticFeed first(3, 42);
  SyntheticFeed second(3, 42);
  SlotInput a;
  SlotInput b;
  for (std::size_t t = 0; t < 16; ++t) {
    ASSERT_EQ(first.poll(t, a), FeedStatus::kReady);
    ASSERT_EQ(second.poll(t, b), FeedStatus::kReady);
    EXPECT_TRUE(same_bits(a.quote.buy_price, b.quote.buy_price));
    EXPECT_EQ(a.workload, b.workload);
  }
}

TEST(SyntheticFeed, DifferentSeedsDiverge) {
  SyntheticFeed first(3, 1);
  SyntheticFeed second(3, 2);
  SlotInput a;
  SlotInput b;
  bool any_difference = false;
  for (std::size_t t = 0; t < 8 && !any_difference; ++t) {
    first.poll(t, a);
    second.poll(t, b);
    any_difference = !same_bits(a.quote.buy_price, b.quote.buy_price) ||
                     a.workload != b.workload;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SyntheticFeed, WorkloadIsPositiveAndQuoteWellFormed) {
  SyntheticFeed feed(5, 7);
  SlotInput input;
  for (std::size_t t = 0; t < 32; ++t) {
    ASSERT_EQ(feed.poll(t, input), FeedStatus::kReady);
    EXPECT_GT(input.quote.buy_price, 0.0);
    EXPECT_GT(input.quote.sell_price, 0.0);
    EXPECT_LE(input.quote.sell_price, input.quote.buy_price);
    for (int count : input.workload) EXPECT_GE(count, 1);
  }
}

TEST(SyntheticFeed, RejectsZeroEdges) {
  EXPECT_THROW(SyntheticFeed(0, 1), std::invalid_argument);
}

TEST(SyntheticFeed, RejectsMeansWhoseCountsOverflowAnInt) {
  // Counts are drawn from [1, 1 + 2 * mean]; past INT_MAX they would wrap
  // negative.
  EXPECT_THROW(SyntheticFeed(3, 1, 3e9), std::invalid_argument);
  EXPECT_THROW(SyntheticFeed(3, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(SyntheticFeed(3, 1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  SyntheticFeed feed(3, 1, 1e9);
  SlotInput input;
  for (std::size_t t = 0; t < 64; ++t) {
    ASSERT_EQ(feed.poll(t, input), FeedStatus::kReady);
    for (int count : input.workload) {
      EXPECT_GE(count, 1);
      EXPECT_LE(count, 2'000'000'001);
    }
  }
}

// --- DirectoryTailFeed ----------------------------------------------------

class DirectoryTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cea_tail_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override {
    // Best-effort cleanup of the handful of files tests create.
    for (std::size_t t = 0; t < 8; ++t) {
      std::remove((dir_ + "/slot_" + std::to_string(t) + ".csv").c_str());
    }
    std::remove((dir_ + "/feed_end").c_str());
    ::rmdir(dir_.c_str());
  }
  void write_file(const std::string& name, const std::string& contents) {
    std::ofstream out(dir_ + "/" + name);
    out << contents;
  }
  std::string dir_;
};

TEST_F(DirectoryTailTest, PendingUntilPublishedThenReady) {
  DirectoryTailFeed feed(dir_, 3);
  SlotInput probe;
  EXPECT_EQ(feed.poll(0, probe), FeedStatus::kPending);

  SlotInput published;
  published.quote = {8.125, 7.25};
  published.workload = {100, 200, 300};
  DirectoryTailFeed::publish_slot(feed, 0, published);

  SlotInput got;
  ASSERT_EQ(feed.poll(0, got), FeedStatus::kReady);
  EXPECT_TRUE(same_bits(got.quote.buy_price, published.quote.buy_price));
  EXPECT_TRUE(same_bits(got.quote.sell_price, published.quote.sell_price));
  EXPECT_EQ(got.workload, published.workload);
  // Later slots are still pending.
  EXPECT_EQ(feed.poll(1, got), FeedStatus::kPending);
}

TEST_F(DirectoryTailTest, PublishRoundTripsArbitraryDoublesExactly) {
  DirectoryTailFeed feed(dir_, 2);
  SlotInput published;
  published.quote = {0.1 + 8.0, 1.0 / 3.0 + 7.0};  // not exactly representable
  published.workload = {1, 2147483647};
  DirectoryTailFeed::publish_slot(feed, 2, published);
  SlotInput got;
  ASSERT_EQ(feed.poll(2, got), FeedStatus::kReady);
  EXPECT_TRUE(same_bits(got.quote.buy_price, published.quote.buy_price));
  EXPECT_TRUE(same_bits(got.quote.sell_price, published.quote.sell_price));
  EXPECT_EQ(got.workload, published.workload);
}

TEST_F(DirectoryTailTest, EndMarkerEndsTheStream) {
  DirectoryTailFeed feed(dir_, 1);
  SlotInput input;
  EXPECT_EQ(feed.poll(5, input), FeedStatus::kPending);
  write_file("feed_end", "");
  EXPECT_EQ(feed.poll(5, input), FeedStatus::kEnd);
}

TEST_F(DirectoryTailTest, PublishedSlotWinsOverEndMarker) {
  // A slot that was published before the end marker is still served.
  DirectoryTailFeed feed(dir_, 1);
  SlotInput published;
  published.quote = {8.0, 7.0};
  published.workload = {5};
  DirectoryTailFeed::publish_slot(feed, 0, published);
  write_file("feed_end", "");
  SlotInput got;
  EXPECT_EQ(feed.poll(0, got), FeedStatus::kReady);
  EXPECT_EQ(feed.poll(1, got), FeedStatus::kEnd);
}

TEST_F(DirectoryTailTest, MalformedFilesThrow) {
  DirectoryTailFeed feed(dir_, 2);
  SlotInput input;
  write_file("slot_0.csv", "8.0,7.0\n");  // missing count line
  EXPECT_THROW(feed.poll(0, input), std::runtime_error);
  write_file("slot_1.csv", "8.0\n10,20\n");  // one price cell
  EXPECT_THROW(feed.poll(1, input), std::runtime_error);
  write_file("slot_2.csv", "7.0,8.0\n10,20\n");  // sell above buy
  EXPECT_THROW(feed.poll(2, input), std::runtime_error);
  write_file("slot_3.csv", "8.0,7.0\n10\n");  // wrong edge count
  EXPECT_THROW(feed.poll(3, input), std::runtime_error);
  write_file("slot_4.csv", "8.0,7.0\n10,3.5\n");  // non-integral count
  EXPECT_THROW(feed.poll(4, input), std::runtime_error);
  write_file("slot_5.csv", "8.0,7.0\n10,5000000000\n");  // beyond int range
  EXPECT_THROW(feed.poll(5, input), std::runtime_error);
  write_file("slot_6.csv", "8.0,7.0\n10,-4\n");  // non-positive count
  EXPECT_THROW(feed.poll(6, input), std::runtime_error);
  // Non-finite prices: "nan" and "inf" parse as numbers, and a NaN slips
  // past every ordered comparison.
  for (const char* prices : {"nan,nan", "inf,7.0", "8,nan", "inf,inf"}) {
    write_file("slot_7.csv", std::string(prices) + "\n10,20\n");
    EXPECT_THROW(feed.poll(7, input), std::runtime_error) << prices;
  }
}

TEST_F(DirectoryTailTest, RejectsZeroEdges) {
  EXPECT_THROW(DirectoryTailFeed(dir_, 0), std::invalid_argument);
}

TEST_F(DirectoryTailTest, MissingDirectoryThrowsAtConstruction) {
  // A missing directory can never become ready; constructing over one
  // must fail loudly instead of polling kPending forever.
  EXPECT_THROW(DirectoryTailFeed(dir_ + "_nonexistent", 2),
               std::invalid_argument);
  // A regular file is not a directory either.
  write_file("slot_0.csv", "8.0,7.0\n1,2\n");
  EXPECT_THROW(DirectoryTailFeed(dir_ + "/slot_0.csv", 2),
               std::invalid_argument);
}

TEST_F(DirectoryTailTest, EmptySlotFileThrows) {
  // An empty (or header-only) slot file is torn output from a broken
  // producer, not a pending slot: it must throw, never parse as data.
  DirectoryTailFeed feed(dir_, 2);
  SlotInput input;
  write_file("slot_0.csv", "");
  EXPECT_THROW(feed.poll(0, input), std::runtime_error);
}

TEST_F(DirectoryTailTest, PartiallyPublishedTmpFileStaysPending) {
  // publish_slot writes to "<slot>.csv.tmp" and renames; a concurrent
  // poll must only ever see kPending or the complete file, never the
  // half-written temp.
  DirectoryTailFeed feed(dir_, 2);
  write_file("slot_0.csv.tmp", "8.0,");  // torn mid-write
  SlotInput input;
  EXPECT_EQ(feed.poll(0, input), FeedStatus::kPending);
  std::remove((dir_ + "/slot_0.csv.tmp").c_str());
}

}  // namespace
}  // namespace cea::serve
