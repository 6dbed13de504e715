// Regenerates the checked-in golden traces under tests/integration/golden/.
// Run after an *intentional* change to simulation semantics, then review
// the trace diff like any other source change:
//   ./build/tests/golden_trace_regen
#include <cstdio>

#include "golden_trace.h"

int main() {
  using namespace cea::sim;

  const auto batched = golden::trace_of(golden::run_golden());
  golden::write_trace(batched, golden::batched_golden_path());
  std::printf("wrote %s\n", golden::batched_golden_path().c_str());

  const auto offline = golden::trace_of(golden::run_golden_offline());
  golden::write_trace(offline, golden::offline_golden_path());
  std::printf("wrote %s\n", golden::offline_golden_path().c_str());

  // Sanity: the pool-parallel engine must agree with the batched-serial
  // trace just written (they share a golden).
  cea::util::ThreadPool pool(3);
  SimOptions parallel;
  parallel.pool = &pool;
  const auto diffs =
      golden::diff_traces(batched, golden::trace_of(golden::run_golden(parallel)));
  if (!diffs.empty()) {
    std::fprintf(stderr, "parallel engine diverged from serial:\n%s",
                 golden::join_diffs(diffs).c_str());
    return 1;
  }
  return 0;
}
