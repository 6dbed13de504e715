// Golden-trace regression tests: a fixed-seed "Ours" run must reproduce
// the checked-in trace bit for bit in both engine modes — serial, where
// the OMD solves are presolved in one cross-edge batch, and pooled, where
// each shard solves its own edges — and any 1-ULP
// deviation must surface as a field-level diff. Regenerate the traces with
// the golden_trace_regen tool after an intentional semantics change.
#include "golden_trace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/audit.h"
#include "util/thread_pool.h"

namespace cea::sim::golden {
namespace {

TEST(GoldenTrace, BatchedSerialMatchesGolden) {
  const auto expected = read_trace(batched_golden_path());
  const auto actual = trace_of(run_golden());
  const auto diffs = diff_traces(expected, actual);
  EXPECT_TRUE(diffs.empty()) << join_diffs(diffs);
}

TEST(GoldenTrace, PoolParallelMatchesGolden) {
  const auto expected = read_trace(batched_golden_path());
  for (std::size_t threads : {2u, 5u}) {
    util::ThreadPool pool(threads);
    SimOptions options;
    options.pool = &pool;
    const auto diffs = diff_traces(expected, trace_of(run_golden(options)));
    EXPECT_TRUE(diffs.empty())
        << "threads=" << threads << '\n'
        << join_diffs(diffs);
  }
}

TEST(GoldenTrace, OfflineLpMatchesItsGolden) {
  const auto expected = read_trace(offline_golden_path());
  const auto diffs = diff_traces(expected, trace_of(run_golden_offline()));
  EXPECT_TRUE(diffs.empty()) << join_diffs(diffs);
}

TEST(GoldenTrace, OneUlpPerturbationYieldsFieldLevelDiff) {
  const auto expected = read_trace(batched_golden_path());
  auto perturbed = expected;
  // Find a nonzero emission cell and move it one ULP.
  for (auto& [label, values] : perturbed) {
    if (label != "emissions") continue;
    ASSERT_FALSE(values.empty());
    ASSERT_NE(values[5], 0.0);
    values[5] = std::nextafter(values[5], 2.0 * values[5]);
    break;
  }
  const auto diffs = diff_traces(expected, perturbed);
  ASSERT_EQ(diffs.size(), 1u);
  // The diff must name the row and the field index.
  EXPECT_NE(diffs[0].find("emissions[5]"), std::string::npos) << diffs[0];
}

TEST(GoldenTrace, GoldenRunPassesAudit) {
  audit::clear();
  const auto env = Environment::make_parametric(golden_config());
  Simulator simulator(env);
  const auto combo = ours_combo();
  const auto result =
      simulator.run(combo.policy, combo.trader, kGoldenRunSeed, combo.name);
  const auto violations = audit_run(env, result);
  EXPECT_TRUE(violations.empty()) << format_violations(violations);
  // In a -DCEA_AUDIT=ON build the hot-path checks must also be clean.
  audit::clear();
}

TEST(GoldenTrace, TraceSerializationRoundTrips) {
  const auto trace = trace_of(run_golden());
  const std::string path = ::testing::TempDir() + "cea_golden_roundtrip.csv";
  write_trace(trace, path);
  const auto loaded = read_trace(path);
  const auto diffs = diff_traces(trace, loaded);
  EXPECT_TRUE(diffs.empty()) << join_diffs(diffs);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cea::sim::golden
