#include "util/check.h"

#include <gtest/gtest.h>

namespace cea::audit {
namespace {

// The collector is process-global; every test starts from a clean slate
// with the default capacity.
class CheckCollector : public ::testing::Test {
 protected:
  void SetUp() override {
    set_capacity(kDefaultCapacity);
    clear();
  }
  void TearDown() override {
    set_capacity(kDefaultCapacity);
    clear();
  }
};

TEST_F(CheckCollector, StartsEmpty) {
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_TRUE(drain().empty());
}

TEST_F(CheckCollector, RecordAccumulates) {
  record({"site.a", "first", 2, 7, 1.5});
  record({"site.b", "second"});
  EXPECT_EQ(violation_count(), 2u);
}

TEST_F(CheckCollector, DrainReturnsAndClears) {
  record({"site.a", "msg", 1, 3, -0.5});
  const auto violations = drain();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].site, "site.a");
  EXPECT_EQ(violations[0].message, "msg");
  EXPECT_EQ(violations[0].edge, 1u);
  EXPECT_EQ(violations[0].slot, 3u);
  EXPECT_DOUBLE_EQ(violations[0].quantity, -0.5);
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_TRUE(drain().empty());
}

TEST_F(CheckCollector, ClearDiscards) {
  record({"site.a", "msg"});
  clear();
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CheckCollector, DefaultContextIsNoIndex) {
  record({"site.a", "msg"});
  const auto violations = drain();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].edge, kNoIndex);
  EXPECT_EQ(violations[0].slot, kNoIndex);
}

TEST_F(CheckCollector, MacroMatchesBuildConfiguration) {
  // In a default build the macro must vanish entirely: the condition and
  // the message stream are not evaluated. Under -DCEA_AUDIT=ON a failing
  // condition records exactly one violation.
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return false;
  };
  CEA_CHECK(touch(), "test.macro", 4, 9, 2.5, "value " << 2.5);
  (void)touch;  // only the audit build's macro calls it
  if (enabled()) {
    EXPECT_EQ(evaluations, 1);
    const auto violations = drain();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].site, "test.macro");
    EXPECT_EQ(violations[0].edge, 4u);
    EXPECT_EQ(violations[0].slot, 9u);
    EXPECT_DOUBLE_EQ(violations[0].quantity, 2.5);
    EXPECT_EQ(violations[0].message, "value 2.5");
  } else {
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(violation_count(), 0u);
  }
}

TEST_F(CheckCollector, MacroPassingConditionRecordsNothing) {
  CEA_CHECK(true, "test.pass", 0, 0, 0.0, "never");
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(CheckCollector, CapBoundsStorageAndCountsDrops) {
  set_capacity(3);
  EXPECT_EQ(capacity(), 3u);
  for (int i = 0; i < 5; ++i)
    record({"site.cap", "violation " + std::to_string(i)});
  // The first capacity() records are kept; the rest are counted, not stored.
  EXPECT_EQ(violation_count(), 3u);
  EXPECT_EQ(dropped_count(), 2u);
  const auto violations = drain();
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].message, "violation 0");
  EXPECT_EQ(violations[2].message, "violation 2");
}

TEST_F(CheckCollector, DrainResetsDroppedCount) {
  set_capacity(1);
  record({"site.a", "kept"});
  record({"site.a", "dropped"});
  EXPECT_EQ(dropped_count(), 1u);
  drain();
  EXPECT_EQ(dropped_count(), 0u);
  // After the drain the collector has room again.
  record({"site.a", "kept again"});
  EXPECT_EQ(violation_count(), 1u);
  EXPECT_EQ(dropped_count(), 0u);
}

TEST_F(CheckCollector, ClearResetsDroppedCount) {
  set_capacity(1);
  record({"site.a", "kept"});
  record({"site.a", "dropped"});
  clear();
  EXPECT_EQ(violation_count(), 0u);
  EXPECT_EQ(dropped_count(), 0u);
}

TEST_F(CheckCollector, ZeroCapacityClampsToOne) {
  set_capacity(0);
  EXPECT_EQ(capacity(), 1u);
  record({"site.a", "kept"});
  record({"site.a", "dropped"});
  EXPECT_EQ(violation_count(), 1u);
  EXPECT_EQ(dropped_count(), 1u);
}

TEST_F(CheckCollector, ShrinkingCapacityKeepsStoredEntries) {
  record({"site.a", "one"});
  record({"site.a", "two"});
  set_capacity(1);
  // Existing entries survive; only future records are refused.
  EXPECT_EQ(violation_count(), 2u);
  record({"site.a", "three"});
  EXPECT_EQ(violation_count(), 2u);
  EXPECT_EQ(dropped_count(), 1u);
}

}  // namespace
}  // namespace cea::audit
